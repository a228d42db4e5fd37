"""Gamma-function kernels used by the Mittag-Leffler evaluator.

Each function is the C library's ``math.gamma``/``math.lgamma`` wrapped in
one scalar kernel that handles the edges libm refuses.  A float goes
straight through the kernel; an array goes through it element by element,
so scalar and array results are bit-equal.  All functions are pure.

* ``gamma``: poles give +inf, arguments past the double range +-inf.
* ``lgamma``: log Gamma(x) for x > 0 only (every gamma argument in the
  series is positive); x <= 0 raises ``DomainError``.
* ``rgamma``: the reciprocal gamma, exactly 0.0 (not infinite) at the poles
  0, -1, -2, ...  Series terms whose gamma argument hits a pole must
  contribute exactly zero.  Above x = 171.6 it is exp(-lgamma(x)), which
  underflows to 0; for |x| below ~1e-308 it is x; below x = -171 it is
  +-inf, because the true magnitude exceeds the double range.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def _gamma(x: float) -> float:
    try:
        return math.gamma(x)
    except ValueError:  # the poles 0, -1, -2, ...
        return math.inf
    except OverflowError:  # x > 171.6, or |x| below ~6e-309
        return math.copysign(math.inf, x)


def _lgamma(x: float) -> float:
    if x <= 0.0:
        raise DomainError("lgamma requires x > 0")
    try:
        return math.lgamma(x)
    except OverflowError:  # x above ~2.5e305
        return math.inf


def _rgamma(x: float) -> float:
    try:
        g = math.gamma(x)
    except ValueError:  # the poles 0, -1, -2, ...
        return 0.0
    except OverflowError:  # x > 171.6, or |x| below ~6e-309 where 1/Gamma(x) ~ x
        return math.exp(-_lgamma(x)) if x > 1.0 else x
    if g == 0.0:  # x < -171: Gamma(x) underflows to a signed zero
        return math.copysign(math.inf, g)
    return 1.0 / g


def _elementwise(kernel, x):
    if isinstance(x, float):
        return kernel(x)
    a = np.asarray(x, dtype=float)
    if not a.shape:
        return kernel(float(a))
    return np.array([kernel(v) for v in a.ravel().tolist()]).reshape(a.shape)


def gamma(x):
    """Gamma(x) for real x; poles yield non-finite values (use rgamma there)."""
    return _elementwise(_gamma, x)


def lgamma(x):
    """log Gamma(x) for x > 0 only (all gamma arguments in the series are positive)."""
    return _elementwise(_lgamma, x)


def rgamma(x):
    """1/Gamma(x); exactly 0.0 at the poles x = 0, -1, -2, ..."""
    return _elementwise(_rgamma, x)
