"""Two-parameter Mittag-Leffler function E_{rho,mu}(-t) on the negative real axis.

The evaluator certifies a relative error at or below 1e-10 for rho in
[0.1, 1], mu in {1, rho}, t in [0, 1e8].  The hard quantity is
s = t**(1/rho): the power series loses about 0.4343*s decimal digits to
cancellation, while the inverse-power asymptotic series bottoms out near
exp(-s).  Branches are therefore routed on t and s:

* series, with compensated summation: t <= 0.5 when the pair has a
  widened Chebyshev model (below), s <= 5 (3 when mu < 0.45) otherwise.
  The error estimate is the measured condition number Sum|term|/|sum|
  times a small multiple of machine epsilon, so the claim is honest
  rather than modeled; the cut keeps it below the target with margin.
* s >= 36: inverse-power series Sum_{k>=1} (-1)^{k+1} t^{-k}/Gamma(mu-rho k)
  stopped by a smooth term envelope.  Near-pole terms dip far below the
  envelope (and pole terms vanish exactly), so raw term magnitudes are
  useless for stopping; the envelope t^{-k}*Gamma(1+rho*k-mu)/pi is what
  decays and then grows.  At s = 36 the envelope minimum certifies
  ~1e-11 at worst (rho = mu ~ 1) and machine precision for s >= 50.
* the zone in between, for 0 < rho < 1 and rho <= mu <= 1: a per-(rho, mu)
  Chebyshev interpolant of log E(-e^v), v = log t, over t from 0.5 (mu >=
  0.45) or s = 3 (mu < 0.45) up to s = 36.  Its node values come from a
  real integral that the Hankel contour collapses to on the negative axis,

      E_{rho,mu}(-x) = (1/pi) int_0^inf e^{-r} r^{rho-mu}
                       [r^rho sin(mu pi) + x sin((mu-rho) pi)] / D dr,
      D = (r^rho - x)^2 + 4 x r^rho cos^2(rho pi/2),

  whose integrand is positive (Gorenflo, Kilbas, Mainardi and Rogosin,
  Mittag-Leffler Functions, Springer 2014; Garrappa, SIAM J. Numer. Anal.
  53(3), 2015).  It is summed in double precision by 16-node Gauss-Legendre
  panels placed around the integrand's peak.  The model is certified at 13
  off-node probes, whose reference values come from a 24-node rule:
  cert = 4 * (largest probe error + largest gap between the two rules),
  at least 1e-12.  Near rho = 1, where 129 nodes cannot certify 1e-12 over
  the wide zone, the model keeps to s in (5, 36).  Positivity of E makes
  the log form safe; other pairs (mu < rho, mu > 1, rho = 1) go through
  extended precision per point.
* exact elementary cases (rho = 1, mu in {1, 2}, plus rho = 2 through
  the wide entry) are evaluated in closed form.  No floating-point
  branch reaches 1e-12 relative for E_{1,1}(-50) = e^{-50}, and the
  solver's classical-limit oracle needs exactly that, so these report a
  dedicated ``closed_form`` branch.

Any element whose certified estimate still exceeds the target escalates
to the extended-precision series (mpmath) with cancellation-aware digits;
that valve is the only code that imports mpmath.  Chebyshev-model values
report the ``extended_precision`` branch as well.  All functions are pure;
the Chebyshev cache is append-only and idempotent, so concurrent builds
are safe (worst case, duplicated work).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def _mp_value(rho: float, mu: float, t: float, dps: int):
    """E_{rho,mu}(-t) by direct series at dps digits; returns (value, est)."""
    from mpmath import gamma, mp, mpf

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
            term = p / gamma(rho_ * k + mu_)
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
    val, est = _mp_value(rho, mu, t, dps)
    if est > TARGET_REL:
        val, est = _mp_value(rho, mu, t, dps + 15)
    return val, est


# --- Chebyshev model of the gap zone ----------------------------------------
#
# The node values come from the real Hankel integral of the module docstring.
# With r = e^v and u = v - log(x)/rho, its factor [..]/D equals g(u)/x for a g
# that does not involve x, so one panel layout in u serves every x.

_T_WIDE = 0.5  # the model's lower end for mu >= 0.45; the series keeps t <= 0.5
_V_WIDE = math.log(_T_WIDE)
# Gauss-Legendre panel edges at +-these offsets from the integrand's peak u = 0
_PEAK_OFFSETS = np.array([0.01, 0.03, 0.1, 0.3, 1.0, 2.5, 5.0])
_PANEL_WIDTH = 2.0  # longest panel between and beyond the offsets
_V_TOP = math.log(50.0)  # e^{-r} < 2e-22 past r = 50
_TAIL = 1e-18  # the lower cut: e^{(rho-mu+1) v} below this
_CHEB_STOP = 2.5e-13  # probe error at which a build stops doubling its nodes
_CHEB_NODES_MAX = 129


@dataclass
class _ChebModel:
    vlo: float
    vhi: float
    coef: np.ndarray
    cert: float


_CHEB_CACHE: dict[tuple[float, float], _ChebModel] = {}
_CHEB_LOCK = threading.Lock()


def _sinpi(x: float) -> float:
    """sin(pi x) for x in [0, 1], exactly 0 at both ends."""
    return math.sin(math.pi * min(x, 1.0 - x))


def _has_model(rho: float, mu: float) -> bool:
    return 0.0 < rho < 1.0 and rho <= mu <= 1.0


def _hankel_rule(rho: float, mu: float, vlo: float, vhi: float, order: int):
    """Nodes u and weights (times g(u)/pi) of the integral for x = e^v, v in [vlo, vhi]."""
    offsets = _PEAK_OFFSETS
    if rho > 0.5:
        # the peak narrows like sin(rho pi) as rho -> 1; the geometric fill
        # keeps the panels between the two offset sets of bounded ratio
        sig = _sinpi(rho)
        fill = 5.0 * sig * 3.0 ** np.arange(1, 12)
        offsets = np.concatenate([offsets, offsets * sig, fill[fill < offsets[0]]])
    u_lo = math.log(_TAIL) / (rho - mu + 1.0) - vhi / rho
    u_hi = _V_TOP - vlo / rho
    core = np.concatenate([-offsets, [0.0], offsets])
    edges = np.sort(np.concatenate([[u_lo, u_hi], core[(core > u_lo) & (core < u_hi)]]))
    pieces = np.ceil(np.diff(edges) / _PANEL_WIDTH).astype(int)
    edges = np.concatenate(
        [np.linspace(a, b, n, endpoint=False) for a, b, n in zip(edges[:-1], edges[1:], pieces)]
        + [edges[-1:]]
    )
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    u = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    q = np.exp(rho * u)
    c = _sinpi(0.5 * (1.0 - rho))  # cos(rho pi / 2), without cancellation near 1
    g = (q * _sinpi(mu) + _sinpi(mu - rho)) / (np.expm1(rho * u) ** 2 + 4.0 * c * c * q)
    return u, (half[:, None] * w).ravel() * g / math.pi


def _hankel_log(rho: float, mu: float, v: np.ndarray, rule) -> np.ndarray:
    """log E_{rho,mu}(-e^v) elementwise, as one (points x nodes) product."""
    u, wg = rule
    log_r = u[None, :] + (v / rho)[:, None]
    with np.errstate(over="ignore", under="ignore"):
        f = np.exp((rho - mu + 1.0) * log_r - np.exp(log_r))
    return np.log(f @ wg) - v


def _cheb_fit(rho: float, mu: float, vlo: float, vhi: float) -> _ChebModel:
    """Chebyshev interpolant of log E(-e^v) on [vlo, vhi], certified at probes."""
    rule = _hankel_rule(rho, mu, vlo, vhi, 16)
    vp = vlo + (vhi - vlo) * (np.arange(1, 14) / 14.0)
    wp = (2.0 * vp - vlo - vhi) / (vhi - vlo)
    ref = _hankel_log(rho, mu, vp, _hankel_rule(rho, mu, vlo, vhi, 24))
    # the probes' own error: the gap between the 16- and 24-node rules
    gap = float(np.max(np.abs(np.expm1(_hankel_log(rho, mu, vp, rule) - ref))))
    width = vhi - vlo
    nnode = 17 if width < 0.4 else (25 if width < 1.0 else 33)
    best = None
    while True:
        theta = np.pi * (2 * np.arange(nnode) + 1) / (2 * nnode)
        v = 0.5 * (vlo + vhi) + 0.5 * (vhi - vlo) * np.cos(theta)
        g = _hankel_log(rho, mu, v, rule)
        coef = (2.0 / nnode) * (np.cos(np.outer(np.arange(nnode), theta)) @ g)
        coef[0] *= 0.5
        approx = np.polynomial.chebyshev.chebval(wp, coef)
        err = float(np.max(np.abs(np.expm1(approx - ref)))) + gap
        model = _ChebModel(vlo, vhi, coef, max(4.0 * err, 1e-12))
        if best is None or model.cert < best.cert:
            best = model
        if err <= _CHEB_STOP or nnode >= _CHEB_NODES_MAX:
            break
        nnode = 2 * nnode - 1
    return best


def _cheb_build(rho: float, mu: float) -> _ChebModel:
    vhi = rho * math.log(_S_ASYM)
    narrow_lo = rho * math.log(_series_cut(mu))
    if mu < 0.45:
        # small mu: a model widened below s = 3 reaches only ~2e-10
        return _cheb_fit(rho, mu, narrow_lo, vhi)
    model = _cheb_fit(rho, mu, _V_WIDE, vhi)
    if model.cert > 1e-12:
        # near rho = 1 the onset of the algebraic tail is too sharp for the
        # widest model; the series then keeps s <= 5 as for mu < 0.45
        narrow = _cheb_fit(rho, mu, narrow_lo, vhi)
        if narrow.cert < model.cert:
            model = narrow
    return model


def _cheb_get(rho: float, mu: float) -> _ChebModel:
    key = (float(rho), float(mu))
    model = _CHEB_CACHE.get(key)
    if model is None:
        model = _cheb_build(rho, mu)
        with _CHEB_LOCK:
            model = _CHEB_CACHE.setdefault(key, model)
    return model


def _cheb_many(model: _ChebModel, t: np.ndarray):
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
    modeled = _has_model(rho, mu)
    if modeled and mu >= 0.45:
        ser = tr <= _T_WIDE
    else:
        ser = s_hard <= cut
    asy = s_hard >= _S_ASYM
    mid = ~(ser | asy)
    if modeled and mid.any():
        model = _cheb_get(rho, mu)
        if model.vlo > _V_WIDE:
            # a model that kept the series zone s <= cut leaves it to the series
            ser |= mid & (s_hard <= cut)
            mid &= ~ser

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
        if modeled:
            v, e = _cheb_many(model, tr[mid])
            vals[idx] = v
            ests[idx] = e
            codes[idx] = _EXT
        else:
            # off-contract pairs (mu < rho, mu > 1, rho = 1) have no model
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


def _check_kernel_params(rho: float, lam) -> None:
    if not (0.0 < rho <= 1.0) or not math.isfinite(rho):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0.0) or not np.all(np.isfinite(lam)):
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


def kernel_cumulative(rho: float, lam, x) -> np.ndarray:
    """Integral of the kernel from 0 to x, elementwise: mlf_kernel_primitive(rho, lam, 0, x).

    Equals x^rho / Gamma(1+rho) for lam = 0 and (1 - E_{rho,1}(-lam x^rho))/lam
    otherwise, with a series path where the difference would cancel.  lam may
    be an array that broadcasts against x, one eigenvalue per element; the
    result has the broadcast shape, and each element is what a call with its
    own scalar lam gives.
    """
    _check_kernel_params(rho, lam)
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.size and (np.any(x < 0.0) or not np.all(np.isfinite(x))):
        raise DomainError("x must be finite and nonnegative")
    lam, x = np.broadcast_arrays(lam, x)
    out = np.empty(x.shape, dtype=float)
    flat = lam == 0.0
    if flat.any():
        out[flat] = x[flat] ** rho * float(gammafn.rgamma(1.0 + rho))
    y = lam * x**rho
    small = ~flat & (y <= 0.5)
    if small.any():
        out[small] = _one_minus_mlf_small(rho, y[small]) / lam[small]
    big = ~(flat | small)
    if big.any():
        v, _, _ = _eval_many(rho, 1.0, y[big])
        out[big] = (1.0 - v) / lam[big]
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
