"""Closed-form reference for mode solutions whose source profile is a polynomial.

For f_n(t) = g_n * sum_j a_j t^j the mode problem D^rho w + lam w = f_n with
w(0) = phi_n has the solution

    w(t) = phi_n E_{rho,1}(-lam t^rho)
           + g_n sum_j a_j j! t^(rho+j) E_{rho,rho+j+1}(-lam t^rho).

The Mittag-Leffler values come from the defining series in mpmath, at a
precision that covers its cancellation, so the reference shares no code with
fracspec.  The series costs grow like s = lam^(1/rho) t (about 0.43 s digits
cancel), so points are only sampled where s <= S_MAX.
"""

from __future__ import annotations

import math

import mpmath

S_MAX = 100.0
_GUARD_DIGITS = 30


def mittag_leffler_neg(a: float, b: float, z: float):
    """E_{a,b}(-z) for z >= 0 by the series sum_k (-z)^k / Gamma(a k + b)."""
    if z == 0.0:
        return mpmath.rgamma(b)
    s = z ** (1.0 / a)
    with mpmath.workdps(int(0.4343 * s) + _GUARD_DIGITS):
        zz = -mpmath.mpf(z)
        aa, bb = mpmath.mpf(a), mpmath.mpf(b)
        tiny = mpmath.mpf(10) ** (-_GUARD_DIGITS)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        k = 0
        small_run = 0
        # the terms peak near a k + b = s and then fall off faster than geometrically
        while True:
            term = power * mpmath.rgamma(aa * k + bb)
            total += term
            past_peak = a * k + b > s + 2.0
            small_run = small_run + 1 if past_peak and abs(term) < tiny else 0
            if small_run >= 2:
                return +total
            power *= zz
            k += 1


def mode_value(rho: float, lam: float, phi_n: complex, g_n: complex, coeffs, t: float) -> complex:
    """Exact w_n(t) for the polynomial profile with ascending coefficients."""
    if t == 0.0:
        return complex(phi_n)
    z = lam * t**rho
    value = complex(phi_n) * float(mittag_leffler_neg(rho, 1.0, z))
    for j, a_j in enumerate(coeffs):
        if a_j == 0.0:
            continue
        e = float(mittag_leffler_neg(rho, rho + j + 1.0, z))
        value += complex(g_n) * complex(a_j) * math.factorial(j) * t ** (rho + j) * e
    return value


def eligible(lam: float, rho: float, t: float) -> bool:
    """Whether the reference series stays affordable at (lam, t)."""
    return t > 0.0 and (lam == 0.0 or lam ** (1.0 / rho) * t <= S_MAX)
