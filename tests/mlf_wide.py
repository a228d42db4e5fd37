"""E_{rho,mu}(-t) for rho in (0, 2], for the classical identities in the tests.

The library's range is rho in (0, 1]; this entry exists so that
E_{2,1}(-t) = cos(sqrt t) and friends can be exercised.  For rho > 1 the
function oscillates, so no positivity or monotonicity is implied, and routing
is closed form, series or extended precision only.
"""

import math

import numpy as np

from fracspec import mlf
from fracspec.errors import AccuracyError, DomainError
from fracspec.mlf import Branch, EvalReport, MlfParams

_EPS = float(np.finfo(float).eps)


def mlf_neg_wide(rho: float, mu: float, t: float) -> EvalReport:
    """E_{rho,mu}(-t) with a relative-error bound, for rho in (0, 2]."""
    if not (0.0 < rho <= 2.0) or not math.isfinite(rho):
        raise DomainError(f"wide entry requires rho in (0, 2], got {rho}")
    if not (mu > 0.0) or not math.isfinite(mu):
        raise DomainError(f"mu must be positive, got {mu}")
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    if rho <= 1.0:
        return mlf.mlf_neg(MlfParams(rho, mu), t)
    if t == 0.0:
        return EvalReport(1.0 / math.gamma(mu), 8.0 * _EPS, Branch.SERIES)
    if rho == 2.0 and mu in (1.0, 2.0):
        r = math.sqrt(t)
        val = math.cos(r) if mu == 1.0 else math.sin(r) / r
        return EvalReport(val, 4.0 * _EPS, Branch.CLOSED_FORM)
    s_hard = t ** (1.0 / rho)
    if s_hard <= 12.0:
        v, e = mlf._series_many(rho, mu, np.array([t]))
        if e[0] <= mlf.TARGET_REL:
            return EvalReport(float(v[0]), float(e[0]), Branch.SERIES)
    # the function itself decays like exp(s cos(pi/rho)), so the dynamic
    # range is up to twice the cancellation alone
    digits = 2.0 * 0.4343 * s_hard
    if digits > 400.0:
        raise AccuracyError(f"cancellation beyond extended-precision budget (rho={rho}, t={t})")
    dps = int(digits) + 25
    val, est = mlf._mp_value(rho, mu, t, dps)
    if est > mlf.TARGET_REL:
        val, est = mlf._mp_value(rho, mu, t, dps + 15)
    return EvalReport(val, est, Branch.EXTENDED_PRECISION)
