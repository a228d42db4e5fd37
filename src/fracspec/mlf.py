"""Two-parameter Mittag-Leffler function E_{rho,mu}(-t) on the negative real axis.

The evaluator certifies a relative error at or below 1e-10 for rho in
[0.1, 1], mu in {1, rho}, t in [0, 1e8].  The hard quantity is
s = t**(1/rho): the power series loses about 0.4343*s decimal digits to
cancellation, while the inverse-power asymptotic series bottoms out near
exp(-s).  Branches are therefore routed on s, not on t:

* s <= 5 (3 when mu < 0.45): direct series with compensated summation.
  The error estimate is the measured condition number Sum|term|/|sum|
  times a small multiple of machine epsilon, so the claim is honest
  rather than modeled; the cut keeps it below the target with margin.
* s >= 36: inverse-power series Sum_{k>=1} (-1)^{k+1} t^{-k}/Gamma(mu-rho k)
  stopped by a smooth term envelope.  Near-pole terms dip far below the
  envelope (and pole terms vanish exactly), so raw term magnitudes are
  useless for stopping; the envelope t^{-k}*Gamma(1+rho*k-mu)/pi is what
  decays and then grows.  At s = 36 the envelope minimum certifies
  ~1e-11 at worst (rho = mu ~ 1) and machine precision for s >= 50.
* the gap in between: a per-(rho, mu) Chebyshev interpolant of
  log E(-e^v), v = log t, built once from extended-precision series
  values and certified against off-node probes.  One build computes each
  mpmath Gamma(rho k + mu) once and shares it across every node and
  probe; the table is dropped with the build.  Positivity of E (mu >=
  rho) makes the log form safe; for mu < rho the gap falls back to
  extended precision per call.
* exact elementary cases (rho = 1, mu in {1, 2}, plus rho = 2 through
  the wide entry) are evaluated in closed form.  No floating-point
  branch reaches 1e-12 relative for E_{1,1}(-50) = e^{-50}, and the
  solver's classical-limit oracle needs exactly that, so these report a
  dedicated ``closed_form`` branch.

Any element whose certified estimate still exceeds the target escalates
to the extended-precision series (mpmath) with cancellation-aware digits.
All functions are pure; the Chebyshev cache is append-only and idempotent,
so concurrent builds are safe (worst case, duplicated work).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np
from mpmath import mp, mpf
from mpmath import gamma as _mp_gamma

from . import gammafn
from .errors import AccuracyError, DomainError

_EPS = float(np.finfo(float).eps)
_LOG_PI = math.log(math.pi)

TARGET_REL = 1e-10
_S_ASYM = 36.0
_ASYM_KMAX = 8192
_SERIES_KMAX = 40000


class Branch(str, Enum):
    SERIES = "series"
    ASYMPTOTIC = "asymptotic"
    EXTENDED_PRECISION = "extended_precision"
    CLOSED_FORM = "closed_form"


_BRANCH_BY_CODE = (
    Branch.SERIES,
    Branch.ASYMPTOTIC,
    Branch.EXTENDED_PRECISION,
    Branch.CLOSED_FORM,
)
_SER, _ASY, _EXT, _CLO = 0, 1, 2, 3


@dataclass(frozen=True)
class MlfParams:
    """Order pair (rho, mu) of E_{rho,mu}; rho in (0, 1], mu > 0."""

    rho: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0) or not math.isfinite(self.rho):
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")
        if not (self.mu > 0.0) or not math.isfinite(self.mu):
            raise DomainError(f"mu must be positive, got {self.mu}")


@dataclass(frozen=True)
class EvalReport:
    """One evaluation: value, claimed relative-error bound, branch taken."""

    value: float
    est_rel_error: float
    branch: Branch


def _series_cut(mu: float) -> float:
    # small mu inflates the series condition number (the head term 1/Gamma(mu)
    # is large while E itself is small); pull the trust zone in for it
    return 5.0 if mu >= 0.45 else 3.0


def _closed_kind(rho: float, mu: float) -> int:
    if rho == 1.0 and mu == 1.0:
        return 1
    if rho == 1.0 and mu == 2.0:
        return 2
    if rho == 2.0 and mu == 1.0:
        return 3
    if rho == 2.0 and mu == 2.0:
        return 4
    return 0


def _closed_many(kind: int, t: np.ndarray) -> np.ndarray:
    if kind == 1:
        return np.exp(-t)
    if kind == 2:
        out = np.ones_like(t)
        nz = t > 0.0
        out[nz] = -np.expm1(-t[nz]) / t[nz]
        return out
    r = np.sqrt(t)
    if kind == 3:
        return np.cos(r)
    out = np.ones_like(t)
    nz = r > 0.0
    out[nz] = np.sin(r[nz]) / r[nz]
    return out


def _series_many(rho: float, mu: float, t: np.ndarray):
    """Compensated direct series; t restricted to the series trust zone."""
    n = t.size
    out_v = np.empty(n)
    out_e = np.empty(n)
    pos = np.arange(n)
    tw = np.array(t, dtype=float)
    s = np.zeros(n)
    c = np.zeros(n)
    absum = np.zeros(n)
    p = np.ones(n)
    k = 0
    while pos.size:
        arg = rho * k + mu
        rg = float(gammafn.rgamma(arg))
        term = p * rg
        y = term - c
        snew = s + y
        c = (snew - s) - y
        s = snew
        absum += np.abs(term)
        exhausted = k > _SERIES_KMAX
        if (arg > 2.5 and k >= 2) or exhausted:
            mag = np.maximum(np.abs(s), 1e-300)
            done = np.abs(term) <= 1e-18 * mag
            if exhausted:
                done = np.ones(pos.size, dtype=bool)
            if done.any():
                magd = mag[done]
                est = absum[done] / magd * (8.0 * _EPS) + 2.0 * np.abs(term[done]) / magd
                out_v[pos[done]] = s[done]
                out_e[pos[done]] = est
                keep = ~done
                pos = pos[keep]
                tw = tw[keep]
                s = s[keep]
                c = c[keep]
                absum = absum[keep]
                p = p[keep]
                if not pos.size:
                    break
                term = term[keep]
        p = p * (-tw)
        # elements this far past their stopping point are already done;
        # the clamp only guards the shared loop against overflow
        big = np.abs(p) > 1e290
        if big.any():
            p[big] = 0.0
        k += 1
    return out_v, out_e


def _asym_many(rho: float, mu: float, t: np.ndarray):
    """Inverse-power series with envelope-based stopping; needs s >= ~36."""
    n = t.size
    out_v = np.empty(n)
    out_e = np.empty(n)
    pos = np.arange(n)
    tw = np.array(t, dtype=float)
    lnt = np.log(tw)
    s = np.zeros(n)
    absum = np.zeros(n)
    prev_env = np.full(n, np.inf)
    k = 1
    while pos.size:
        arg = mu - rho * k
        if arg >= 0.5:
            env_log = -float(gammafn.lgamma(arg))
        else:
            env_log = float(gammafn.lgamma(1.0 - arg)) - _LOG_PI
        with np.errstate(under="ignore"):
            env = np.exp(env_log - k * lnt)
        # optimal truncation: stop an element when its envelope turns up
        grown = env > prev_env
        if k > _ASYM_KMAX:
            grown = np.ones(pos.size, dtype=bool)
        if grown.any():
            mag = np.maximum(np.abs(s[grown]), 1e-300)
            out_v[pos[grown]] = s[grown]
            out_e[pos[grown]] = (
                8.0 * prev_env[grown] / mag + (absum[grown] / mag) * (24.0 * _EPS)
            )
            keep = ~grown
            pos = pos[keep]
            tw = tw[keep]
            lnt = lnt[keep]
            s = s[keep]
            absum = absum[keep]
            prev_env = prev_env[keep]
            env = env[keep]
            if not pos.size:
                break
        # Gamma arguments stay small here (optimal truncation fires first),
        # so the power form keeps terms at a few ulp, unlike the exp form
        rg = float(gammafn.rgamma(arg))
        alt = 1.0 if k % 2 == 1 else -1.0
        with np.errstate(under="ignore"):
            term = (alt * rg) * np.power(tw, -float(k))
        s = s + term
        absum += np.abs(term)
        mag = np.maximum(np.abs(s), 1e-300)
        small = env <= 1e-18 * mag
        if small.any():
            out_v[pos[small]] = s[small]
            out_e[pos[small]] = (
                env[small] / mag[small] + (absum[small] / mag[small]) * (24.0 * _EPS)
            )
            keep = ~small
            pos = pos[keep]
            tw = tw[keep]
            lnt = lnt[keep]
            s = s[keep]
            absum = absum[keep]
            env = env[keep]
        prev_env = env
        k += 1
    return out_v, out_e


# --- extended-precision fallback -------------------------------------------


def _mp_value(rho: float, mu: float, t: float, dps: int, gammas: list):
    """E_{rho,mu}(-t) by direct series at dps digits; returns (value, est).

    ``gammas[k]`` holds Gamma(rho k + mu) at dps digits; missing entries are
    appended, so callers at one dps can share the list across t values.
    """
    with mp.workdps(dps):
        rho_ = mpf(rho)
        mu_ = mpf(mu)
        t_ = mpf(t)
        s = mpf(0)
        p = mpf(1)
        k = 0
        maxmag = mpf(0)
        thresh = mpf(10) ** (-dps - 6)
        while True:
            if k == len(gammas):
                gammas.append(_mp_gamma(rho_ * k + mu_))
            term = p / gammas[k]
            s += term
            a = abs(s)
            if a > maxmag:
                maxmag = a
            if abs(term) < thresh * max(maxmag, mpf(1)) and rho_ * k + mu_ > 3:
                break
            p *= -t_
            k += 1
            if k > 2_000_000:
                raise AccuracyError(
                    f"extended-precision series did not converge (rho={rho}, mu={mu}, t={t})"
                )
        val = float(s)
        cond = float(maxmag / max(abs(s), mpf(1) * 10 ** (-dps)))
        est = cond * 10.0 ** (1 - dps) + 4.0 * _EPS
    return val, est


def _mp_eval(rho: float, mu: float, t: float):
    s_hard = t ** (1.0 / rho) if rho != 1.0 else t
    # for rho > 1 the function itself decays like exp(s*cos(pi/rho)), so the
    # dynamic range is up to twice the cancellation alone
    digits = 0.4343 * s_hard * (2.0 if rho > 1.0 else 1.0)
    if not math.isfinite(digits) or digits > 400.0:
        raise AccuracyError(
            f"cancellation beyond extended-precision budget (rho={rho}, t={t})"
        )
    dps = int(digits) + 25
    val, est = _mp_value(rho, mu, t, dps, [])
    if est > TARGET_REL:
        val, est = _mp_value(rho, mu, t, dps + 15, [])
    return val, est


# --- Chebyshev cache for the gap zone ---------------------------------------


@dataclass
class _ChebModel:
    vlo: float
    vhi: float
    coef: np.ndarray
    cert: float


_CHEB_CACHE: dict[tuple[float, float], _ChebModel] = {}
_CHEB_LOCK = threading.Lock()


def _cheb_build(rho: float, mu: float) -> _ChebModel:
    vlo = rho * math.log(_series_cut(mu))
    vhi = rho * math.log(_S_ASYM)
    width = vhi - vlo
    dps = 34
    # Gamma(rho k + mu) at dps digits, computed once for every node and probe
    gammas = []
    start = 17 if width < 0.4 else (25 if width < 1.0 else 33)
    best = None
    nnode = start
    while True:
        i = np.arange(nnode)
        theta = np.pi * (2 * i + 1) / (2 * nnode)
        w = np.cos(theta)
        v = 0.5 * (vlo + vhi) + 0.5 * (vhi - vlo) * w
        g = np.array(
            [math.log(_mp_value(rho, mu, math.exp(vv), dps, gammas)[0]) for vv in v]
        )
        coef = (2.0 / nnode) * (np.cos(np.outer(np.arange(nnode), theta)) @ g)
        coef[0] *= 0.5
        # certify at off-node probes
        vp = vlo + (vhi - vlo) * (np.arange(1, 14) / 14.0)
        ref = np.array([_mp_value(rho, mu, math.exp(vv), dps, gammas)[0] for vv in vp])
        wp = (2.0 * vp - vlo - vhi) / (vhi - vlo)
        approx = np.exp(np.polynomial.chebyshev.chebval(wp, coef))
        cert = float(np.max(np.abs(approx - ref) / np.abs(ref)))
        model = _ChebModel(vlo, vhi, coef, max(4.0 * cert, 1e-12))
        if best is None or model.cert < best.cert:
            best = model
        if cert <= 2.5e-12 or nnode >= 129:
            break
        nnode = 2 * nnode - 1
    return best


def _cheb_get(rho: float, mu: float) -> _ChebModel:
    key = (float(rho), float(mu))
    model = _CHEB_CACHE.get(key)
    if model is None:
        model = _cheb_build(rho, mu)
        with _CHEB_LOCK:
            model = _CHEB_CACHE.setdefault(key, model)
    return model


def _cheb_many(rho: float, mu: float, t: np.ndarray):
    model = _cheb_get(rho, mu)
    v = np.log(t)
    w = (2.0 * v - model.vlo - model.vhi) / (model.vhi - model.vlo)
    w = np.clip(w, -1.0, 1.0)
    vals = np.exp(np.polynomial.chebyshev.chebval(w, model.coef))
    return vals, np.full(t.size, model.cert)


# --- routing -----------------------------------------------------------------


def _eval_many(rho: float, mu: float, t: np.ndarray):
    """Evaluate E_{rho,mu}(-t) elementwise: (values, est_rel_errors, branch codes)."""
    flat = np.asarray(t, dtype=float).ravel()
    if flat.size and (np.any(flat < 0.0) or not np.all(np.isfinite(flat))):
        raise DomainError("t must be finite and nonnegative")
    n = flat.size
    vals = np.empty(n)
    ests = np.empty(n)
    codes = np.empty(n, dtype=np.int8)

    zero = flat == 0.0
    if zero.any():
        # libm gamma is exact at integers, so E(0) = 1 comes out exactly 1
        vals[zero] = 1.0 / math.gamma(mu)
        ests[zero] = 8.0 * _EPS
        codes[zero] = _SER

    rest = np.flatnonzero(~zero)
    if rest.size == 0:
        return vals, ests, codes

    kind = _closed_kind(rho, mu)
    if kind:
        vals[rest] = _closed_many(kind, flat[rest])
        ests[rest] = 4.0 * _EPS
        codes[rest] = _CLO
        return vals, ests, codes

    tr = flat[rest]
    with np.errstate(over="ignore"):
        s_hard = tr ** (1.0 / rho)
    cut = _series_cut(mu)

    ser = s_hard <= cut
    asy = s_hard >= _S_ASYM
    mid = ~(ser | asy)

    if ser.any():
        idx = rest[ser]
        v, e = _series_many(rho, mu, tr[ser])
        vals[idx] = v
        ests[idx] = e
        codes[idx] = _SER
    if asy.any():
        idx = rest[asy]
        v, e = _asym_many(rho, mu, tr[asy])
        vals[idx] = v
        ests[idx] = e
        codes[idx] = _ASY
    if mid.any():
        idx = rest[mid]
        if mu >= rho and rho <= 1.0:
            v, e = _cheb_many(rho, mu, tr[mid])
            vals[idx] = v
            ests[idx] = e
            codes[idx] = _EXT
        else:
            for j, tv in zip(idx, tr[mid]):
                vals[j], ests[j] = _mp_eval(rho, mu, float(tv))
                codes[j] = _EXT

    # correctness valve: anything not certified re-runs at extended precision
    bad = np.flatnonzero(ests > TARGET_REL)
    for j in bad:
        vals[j], ests[j] = _mp_eval(rho, mu, float(flat[j]))
        codes[j] = _EXT
    still = np.flatnonzero(ests > TARGET_REL)
    if still.size:
        j = int(still[0])
        raise AccuracyError(
            f"no branch certifies {TARGET_REL:g} at rho={rho}, mu={mu}, t={flat[j]}"
        )
    return vals, ests, codes


# --- public operations -------------------------------------------------------


def mlf_neg(params: MlfParams, t: float) -> EvalReport:
    """E_{rho,mu}(-t) for t >= 0, with a certified relative-error bound."""
    if not isinstance(params, MlfParams):
        params = MlfParams(*params)
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    v, e, c = _eval_many(params.rho, params.mu, np.array([t]))
    return EvalReport(float(v[0]), float(e[0]), _BRANCH_BY_CODE[int(c[0])])


def mlf_neg_array(params: MlfParams, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized mlf_neg: returns (values, est_rel_errors, branch codes).

    Branch codes index ``Branch`` members via ``branch_from_code``.
    """
    if not isinstance(params, MlfParams):
        params = MlfParams(*params)
    t = np.asarray(t, dtype=float)
    v, e, c = _eval_many(params.rho, params.mu, t)
    return v.reshape(t.shape), e.reshape(t.shape), c.reshape(t.shape)


def branch_from_code(code: int) -> Branch:
    return _BRANCH_BY_CODE[int(code)]


def mlf_neg_wide(rho: float, mu: float, t: float) -> EvalReport:
    """Test-only entry admitting rho in (0, 2], for classical identities.

    The solver range stays (0, 1]; this exists so that E_{2,1}(-t) = cos(sqrt t)
    and friends can be exercised.  For rho > 1 the function oscillates, so no
    positivity or monotonicity is implied, and routing is series/extended only.
    """
    if not (0.0 < rho <= 2.0) or not math.isfinite(rho):
        raise DomainError(f"wide entry requires rho in (0, 2], got {rho}")
    if not (mu > 0.0) or not math.isfinite(mu):
        raise DomainError(f"mu must be positive, got {mu}")
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    if rho <= 1.0:
        return mlf_neg(MlfParams(rho, mu), t)
    if t == 0.0:
        return EvalReport(1.0 / math.gamma(mu), 8.0 * _EPS, Branch.SERIES)
    kind = _closed_kind(rho, mu)
    if kind:
        val = float(_closed_many(kind, np.array([t]))[0])
        return EvalReport(val, 4.0 * _EPS, Branch.CLOSED_FORM)
    s_hard = t ** (1.0 / rho)
    if s_hard <= 12.0:
        v, e = _series_many(rho, mu, np.array([t]))
        if e[0] <= TARGET_REL:
            return EvalReport(float(v[0]), float(e[0]), Branch.SERIES)
    val, est = _mp_eval(rho, mu, t)
    return EvalReport(val, est, Branch.EXTENDED_PRECISION)


def mlf_kernel(rho: float, lam: float, xi: float) -> float:
    """Relaxation kernel xi^{rho-1} E_{rho,rho}(-lam xi^rho); positive.

    The true value is strictly positive; at rho = 1 it decays exponentially
    and underflows to 0.0 once lam*xi exceeds ~745 (below the double floor).
    For rho < 1 the decay is algebraic and the result stays representable.
    """
    _check_kernel_params(rho, lam)
    if not (xi > 0.0) or not math.isfinite(xi):
        raise DomainError(f"kernel requires xi > 0, got {xi}")
    return float(mlf_kernel_array(rho, lam, np.array([xi]))[0])


def mlf_kernel_array(rho: float, lam: float, xi) -> np.ndarray:
    """Vectorized mlf_kernel over an array of positive xi."""
    _check_kernel_params(rho, lam)
    xi = np.asarray(xi, dtype=float)
    if xi.size and (np.any(xi <= 0.0) or not np.all(np.isfinite(xi))):
        raise DomainError("kernel requires xi > 0")
    v, _, _ = _eval_many(rho, rho, lam * xi**rho)
    return xi ** (rho - 1.0) * v.reshape(xi.shape)


def _check_kernel_params(rho: float, lam: float) -> None:
    if not (0.0 < rho <= 1.0) or not math.isfinite(rho):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise DomainError(f"lambda must be finite and nonnegative, got {lam}")


def _one_minus_mlf_small(rho: float, y: np.ndarray) -> np.ndarray:
    """1 - E_{rho,1}(-y) for y in [0, ~0.5] without cancellation."""
    out = np.zeros_like(y)
    p = np.array(y, dtype=float)  # y^k, starting k = 1
    k = 1
    while True:
        rg = float(gammafn.rgamma(rho * k + 1.0))
        term = p * rg
        if k % 2 == 1:
            out += term
        else:
            out -= term
        if np.all(np.abs(term) <= 1e-17 * np.maximum(out, 1e-300)) and k > 2:
            break
        p *= y
        k += 1
        if k > 200:
            break
    return out


def kernel_cumulative(rho: float, lam: float, x) -> np.ndarray:
    """Integral of the kernel from 0 to x, elementwise: mlf_kernel_primitive(rho, lam, 0, x).

    Equals x^rho / Gamma(1+rho) for lam = 0 and (1 - E_{rho,1}(-lam x^rho))/lam
    otherwise, with a series path where the difference would cancel.
    """
    _check_kernel_params(rho, lam)
    x = np.asarray(x, dtype=float)
    if x.size and (np.any(x < 0.0) or not np.all(np.isfinite(x))):
        raise DomainError("x must be finite and nonnegative")
    if lam == 0.0:
        return x**rho * float(gammafn.rgamma(1.0 + rho))
    y = lam * x**rho
    out = np.empty(x.shape, dtype=float)
    small = y <= 0.5
    if small.any():
        out[small] = _one_minus_mlf_small(rho, y[small]) / lam
    big = ~small
    if big.any():
        v, _, _ = _eval_many(rho, 1.0, y[big])
        out[big] = (1.0 - v) / lam
    return out


def mlf_kernel_primitive(rho: float, lam: float, a: float, b: float) -> float:
    """Exact kernel antiderivative: integral_a^b xi^{rho-1} E_{rho,rho}(-lam xi^rho) dxi.

    Evaluates [E_{rho,1}(-lam a^rho) - E_{rho,1}(-lam b^rho)]/lam, an identity of
    the defining series; for lam = 0 it is (b^rho - a^rho)/Gamma(1+rho).  A fully
    expanded series path covers small lam*b^rho, where the difference form cancels.
    """
    _check_kernel_params(rho, lam)
    if not (0.0 <= a <= b) or not math.isfinite(b):
        raise DomainError(f"need 0 <= a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    if lam == 0.0 or lam * b**rho <= 0.5:
        return _primitive_series(rho, lam, a, b)
    va, _, _ = _eval_many(rho, 1.0, np.array([lam * a**rho]))
    vb, _, _ = _eval_many(rho, 1.0, np.array([lam * b**rho]))
    return float((va[0] - vb[0]) / lam)


def _primitive_series(rho: float, lam: float, a: float, b: float) -> float:
    # sum_k (-lam)^k (b^{rho(k+1)} - a^{rho(k+1)}) / Gamma(rho(k+1) + 1)
    q = (a / b) ** rho if a > 0.0 else 0.0
    lnq = math.log(q) if q > 0.0 else -math.inf
    total = 0.0
    sign = 1.0
    lamk = 1.0
    bp = b**rho
    k = 0
    while True:
        if q > 0.0:
            diff = bp * (-math.expm1((k + 1) * lnq))
        else:
            diff = bp
        term = sign * lamk * diff * float(gammafn.rgamma(rho * (k + 1) + 1.0))
        total += term
        if abs(term) <= 1e-17 * abs(total) and k > 2:
            break
        sign = -sign
        lamk *= lam
        bp *= b**rho
        k += 1
        if k > 300:
            break
    return total


def mlf_asymptotic_leading(rho: float, s: float) -> float:
    """Leading large-argument term of E_{rho,1}(-s): 1/(Gamma(1-rho) * s)."""
    if not (0.0 < rho < 1.0):
        raise DomainError(
            f"leading term requires rho in (0, 1); rho={rho} has a different regime"
        )
    if not (s > 0.0) or not math.isfinite(s):
        raise DomainError(f"s must be finite and positive, got {s}")
    return float(gammafn.rgamma(1.0 - rho)) / s


def check_decay_bound(params: MlfParams, t_samples) -> float:
    """C* = max over samples of (1+t)|E_{rho,mu}(-t)|, the decay-bound constant."""
    if not isinstance(params, MlfParams):
        params = MlfParams(*params)
    t = np.asarray(t_samples, dtype=float).ravel()
    if t.size == 0:
        raise DomainError("t_samples must be nonempty")
    v, _, _ = _eval_many(params.rho, params.mu, t)
    return float(np.max((1.0 + t) * np.abs(v)))
