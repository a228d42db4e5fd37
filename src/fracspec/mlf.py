"""Two-parameter Mittag-Leffler function E_{rho,mu}(-t) on the negative real axis.

The evaluator certifies a relative error at or below 1e-10, or raises
``AccuracyError``.  For 0 < rho < 1 and mu in {1, rho} it answers t from 0
up to the largest double, except where E_{rho,rho}(-t) ~ t^-2 leaves the
normal doubles (below).  The hard quantity is
s = t**(1/rho): the power series loses about 0.4343*s decimal digits to
cancellation, while the inverse-power asymptotic series bottoms out near
exp(-s).  Each point is routed by comparing t itself with its pair's zone
bounds, each stated in t (s >= 36 if and only if t >= 36**rho):

* series, with compensated summation: t at or below the lower end the
  Chebyshev model (below) states, 0.5 for the widened model and cut**rho
  for the narrow one, where cut = 5 (3 when mu < 0.45); t <= cut**rho
  for pairs without a model.  The error estimate is the measured
  condition number Sum|term|/|sum| times a small multiple of machine
  epsilon, so the claim is honest rather than modeled; the cut keeps it
  below the target with margin.
* t >= 36**rho, the ``asymptotic`` zone (the label names the zone, not the
  method).  For 0 < rho < 1 and mu in {1, rho}: a per-(rho, mu) polynomial
  in u = 36**rho/t of log(t^p E_{rho,mu}(-t)), p = 1, or p = 2 when mu = rho
  (there the 1/t term vanishes and t^2 E tends to -1/Gamma(-rho)), summed
  by Horner's rule (only c0 + c1 u at u <= u_lin, ~3e-8, where the rest adds
  at most 2**-56 to the log).  It is fitted in y = 1/t from the Hankel
  integral below and certified as the gap model is (13 off-node probes
  against the 24-node rule, nodes doubled from 17 until the probe error is
  at most 2.5e-13, cert = 4 * (probe error + rule gap), at least 1e-12), then
  converted once to u, at a cost of a few ulp (its coefficients' absolute sum
  is below 10 up to rho = 0.9999).  Closer to rho = 1, where that sum passes
  16 (it reaches 5e10 and beyond), the model keeps the Chebyshev series in y
  and is summed by Clenshaw's recurrence.
  E is smooth at y = 0, so it covers the whole zone; it is pinned against
  mpmath up to t = 1e300 (1e150 for mu = rho).  A value below the normal
  doubles keeps fewer bits, so its estimate gains 2**-1074/v, infinite at
  0.0: E_{rho,rho} ~ t^-2 leaves the normal doubles near t = 1e152-1e154,
  and from about 1e154-1e158 on, depending on rho, its points miss the
  target, go to the valve and raise ``AccuracyError``, whose message names
  the value below the normal doubles.  Only pairs without a model take the
  inverse-power series Sum_{k>=1} (-1)^{k+1} t^{-k}/Gamma(mu-rho k),
  stopped per point by a smooth term envelope; its estimate gains
  2**-1074/|v| below the normal doubles too.  Near-pole terms dip far
  below the envelope (and pole terms vanish exactly), so raw term
  magnitudes are useless for stopping; the envelope
  t^{-k}*Gamma(1+rho*k-mu)/pi is what decays and then grows.  At s = 36
  the envelope minimum certifies no better than ~1e-10 near rho = mu = 1,
  and machine precision for s >= 50.
* the gap zone in between, for 0 < rho < 1 and rho <= mu <= 1: a per-(rho, mu)
  Chebyshev interpolant of log E(-e^v), v = log t, over t from its lower
  end, 0.5 (mu >= 0.45) or 3**rho (mu < 0.45), up to 36**rho.  Its node
  values come from a real integral that the Hankel contour collapses to on
  the negative axis,

      E_{rho,mu}(-x) = (1/pi) int_0^inf e^{-r} r^{rho-mu}
                       [r^rho sin(mu pi) + x sin((mu-rho) pi)] / D dr,
      D = (r^rho - x)^2 + 4 x r^rho cos^2(rho pi/2),

  whose integrand is positive (Gorenflo, Kilbas, Mainardi and Rogosin,
  Mittag-Leffler Functions, Springer 2014; Garrappa, SIAM J. Numer. Anal.
  53(3), 2015).  It is summed in double precision by 16-node Gauss-Legendre
  panels placed around the integrand's peak.  The model is certified at 13
  off-node probes, whose reference values come from a 24-node rule:
  cert = 4 * (largest probe error + largest gap between the two rules),
  at least 1e-12.  A fit whose monomials (in v mapped to [-1, 1]) sum to at
  most 16 in magnitude, as for rho <= 0.7 and (0.75, 1), is summed by
  Horner's rule.  Near rho = 1, where 129 nodes cannot certify 1e-12 over
  the wide zone, the model keeps to t in (5**rho, 36**rho) and states
  that lower end.  Positivity of E makes the log form safe.  Pairs without
  a model (mu < rho, mu > 1, rho = 1 outside the closed forms) leave their
  gap-zone points uncertified, so the valve below evaluates them.
* exact elementary cases (rho = 1, mu in {1, 2}) are evaluated in closed
  form.  No floating-point branch reaches 1e-12 relative for
  E_{1,1}(-50) = e^{-50}, and the solver's classical-limit oracle needs
  exactly that, so these report a dedicated ``closed_form`` branch.

Any element whose certified estimate still exceeds the target escalates
to the extended-precision series (mpmath) with cancellation-aware digits;
that valve is the one extended-precision path and the only code that
imports mpmath.  Its series stops at the first term below 10**(-dps-6) of
its largest partial sum (not of 1, so a small 1/Gamma(mu) is summed in
full).  A point it cannot certify, as one whose s = t**(1/rho) would need
more than 400 digits, raises ``AccuracyError``.  Gap-model values report
the ``extended_precision`` branch as well.  Large mu: where 1/Gamma(mu),
a 1/Gamma of the power series (exp(-lgamma) past 171.6, where Gamma
overflows) or the series value lies below the normal doubles, from mu ~
171.4 on, the point goes to the valve, whose value there gains
2**-1074/|v| in its estimate; one that rounds to 0.0, as E_{0.5,200}(-t)
does, raises ``AccuracyError`` naming the value below the normal doubles.

The kernel's running integral, K(x) = x^rho E_{rho,rho+1}(-lam x^rho), is
x^rho Sum_{k>=1} (-y)^{k-1}/Gamma(rho k+1) where y = lam x^rho <= 0.5, and
(1 - E_{rho,1}(-y))/lam above.  ``mlf_kernel_primitive`` sums the same series
for K(b) - K(a), each b^{rho k} - a^{rho k} as b^{rho k} * -expm1(k ln q) with
ln q = rho log1p((a-b)/b) for a > b/2, so close limits lose no digits.

Array inputs are routed and evaluated in blocks of at most 32,768 points
(``_BLOCK_POINTS``), so that a million-point call makes its passes in L2
cache and holds temporaries for one block, not for the whole input.  Every
branch is elementwise, so blocking changes no bit of the values, estimates
or branch codes.  A block whose nonzero points one zone holds is evaluated
in place: the zone's branch runs on the block itself and writes into its
slice of the output, with no index gather or scatter and the same bits as
a mixed block; a model is summed as numpy sums it, by Horner's rule in
place as polyval, or by Clenshaw's on preallocated buffers as chebval.  All
functions are pure; a model is built on the first block with a point in its
zone, and the model cache, one entry per (zone, rho, mu), is append-only and
idempotent, so concurrent builds are safe (worst case, duplicated work).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import gammafn
from .errors import AccuracyError, DomainError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
_SUBNORMAL_MIN = 2.0**-1074  # the spacing of the doubles below _TINY
_LOG_PI = math.log(math.pi)

TARGET_REL = 1e-10
_S_ASYM = 36.0
_BLOCK_POINTS = 32_768  # points routed and evaluated together; see _eval_many
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


# E_{1,1}(-t) = e^{-t} and E_{1,2}(-t) = (1 - e^{-t})/t, for t > 0, written into out
_CLOSED_FORMS = {
    (1.0, 1.0): lambda t, out: np.exp(-t, out=out),
    (1.0, 2.0): lambda t, out: np.divide(-np.expm1(-t), t, out=out),
}


def _outputs(n: int, out_v, out_e):
    """The arrays a branch writes its values and estimates into: the given ones, or new."""
    return (np.empty(n) if out_v is None else out_v), (np.empty(n) if out_e is None else out_e)


def _series_many(rho: float, mu: float, t: np.ndarray, out_v=None, out_e=None):
    """Compensated direct series; t restricted to the series trust zone.

    Every point stays in the arrays for the whole loop, under the mask live;
    a point retires at its own stopping term, where its value and estimate
    are written, so its bits do not depend on its neighbours.  Writes
    (values, estimates) into out_v, out_e (new arrays when None) and returns
    them.
    """
    n = t.size
    out_v, out_e = _outputs(n, out_v, out_e)
    neg_t = -np.asarray(t, dtype=float)
    s, c, absum, p = np.zeros(n), np.zeros(n), np.zeros(n), np.ones(n)
    live, left = np.ones(n, dtype=bool), n
    k, lost = 0, False
    while left:
        arg = rho * k + mu
        rg = float(gammafn.rgamma(arg))
        lost = lost or rg < _TINY  # past 171.6 it is exp(-lgamma(arg)), off by ~lgamma eps
        term = p * rg
        y = term - c
        snew = s + y
        c = (snew - s) - y
        s = snew
        absum += np.abs(term)
        if (arg > 2.5 and k >= 2) or k > _SERIES_KMAX:
            mag = np.abs(s)
            stop = np.abs(term) <= 1e-18 * mag if k <= _SERIES_KMAX else live
            done = np.flatnonzero(stop & live)
            if done.size:
                m = mag[done]
                out_v[done] = s[done]
                with np.errstate(divide="ignore", invalid="ignore"):
                    e = absum[done] / m * (8.0 * _EPS) + 2.0 * np.abs(term[done]) / m
                # a 1/Gamma or a value below the normal doubles has lost bits
                # the estimate does not count: the valve takes the point
                out_e[done] = np.where((m < _TINY) | lost, np.inf, e)
                live[done] = False
                left -= done.size
        p *= neg_t
        # a point this far is past its stopping term (or retired); the clamp
        # only guards the shared loop against overflow
        np.putmask(p, np.abs(p) > 1e290, 0.0)
        k += 1
    return out_v, out_e


def _inverse_series_many(rho: float, mu: float, t: np.ndarray, out_v=None, out_e=None):
    """Inverse-power series with envelope-based stopping; needs s >= ~36.

    It serves the asymptotic zone of the pairs without a y = 1/t model
    (mu not in {1, rho}, and rho = 1 outside the closed forms).  Each term is
    computed once for every live point; then both kinds of finished point
    retire in one step: a point whose envelope turned up keeps the sum
    before the term, one whose envelope fell below 1e-18 of its sum keeps
    the sum after it.  A sum v below the normal doubles adds their spacing,
    2**-1074/|v|, to its estimate (infinite at 0.0).  The arrays then shrink
    to the live points, which stop tens of terms apart.  Writes (values,
    estimates) into out_v, out_e (new arrays when None) and returns them.
    """
    n = t.size
    out_v, out_e = _outputs(n, out_v, out_e)
    pos = np.arange(n)
    tw = np.array(t, dtype=float)
    lnt = np.log(tw)
    s, absum, prev_env = np.zeros(n), np.zeros(n), np.full(n, np.inf)
    k = 1
    while pos.size:
        arg = mu - rho * k
        if arg >= 0.5:
            env_log = -float(gammafn.lgamma(arg))
        else:
            env_log = float(gammafn.lgamma(1.0 - arg)) - _LOG_PI
        # Gamma arguments stay small here (optimal truncation fires first),
        # so the power form keeps terms at a few ulp, unlike the exp form
        signed_rg = (1.0 if k % 2 == 1 else -1.0) * float(gammafn.rgamma(arg))
        with np.errstate(under="ignore"):
            env = np.exp(env_log - k * lnt)
            term = signed_rg * np.power(tw, -float(k))
        s_next = s + term
        absum_next = absum + np.abs(term)
        # optimal truncation: stop a point when its envelope turns up
        grown = env > prev_env if k <= _ASYM_KMAX else np.ones(pos.size, dtype=bool)
        stop = grown | (env <= 1e-18 * np.maximum(np.abs(s_next), 1e-300))
        done = np.flatnonzero(stop)
        if done.size:
            g = grown[done]
            v = np.where(g, s[done], s_next[done])
            a = np.where(g, absum[done], absum_next[done])
            bound = np.where(g, 8.0 * prev_env[done], env[done])
            mag = np.abs(v)
            # below the normal doubles v is off by up to their spacing; the pad
            # also keeps 0/0 out where every term underflowed
            pad = np.where(mag < _TINY, _SUBNORMAL_MIN, 0.0)
            out_v[pos[done]] = v
            with np.errstate(divide="ignore"):
                out_e[pos[done]] = (bound + pad) / mag + ((a + pad) / mag) * (24.0 * _EPS)
            keep = ~stop
            pos, tw, lnt, env = pos[keep], tw[keep], lnt[keep], env[keep]
            s_next, absum_next = s_next[keep], absum_next[keep]
        s, absum, prev_env = s_next, absum_next, env
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
            # the sum's own scale: 1/Gamma(mu) may lie far below 1
            if abs(term) < thresh * maxmag and rho_ * k + mu_ > 3:
                break
            p *= -t_
            k += 1
            if k > 2_000_000:
                raise AccuracyError(
                    f"extended-precision series did not converge (rho={rho}, mu={mu}, t={t})"
                )
        val = float(s)
        if val == 0.0:
            return val, math.inf
        # the rounding to a double, 2**-1074 absolute below the normal doubles
        pad = 4.0 * _EPS if abs(val) >= _TINY else _SUBNORMAL_MIN / abs(val)
        est = float(maxmag / abs(s)) * 10.0 ** (1 - dps) + pad
    return val, est


def _mp_eval(rho: float, mu: float, t: float):
    try:
        digits = 0.4343 * t ** (1.0 / rho)
    except OverflowError:  # s = t**(1/rho) past the doubles
        digits = math.inf
    if not math.isfinite(digits) or digits > 400.0:
        raise AccuracyError(
            f"cancellation beyond extended-precision budget (rho={rho}, t={t})"
        )
    dps = int(digits) + 25
    val, est = _mp_value(rho, mu, t, dps)
    if est > TARGET_REL:
        val, est = _mp_value(rho, mu, t, dps + 15)
    return val, est


# --- Chebyshev models of the gap and asymptotic zones ------------------------
#
# The node values come from the real Hankel integral of the module docstring.
# With r = e^v and u = v - log(x)/rho, its factor [..]/D equals g(u)/x for a g
# that does not involve x, so one panel layout in u serves every x.

_T_WIDE = 0.5  # the wide model's lower end in t; the series keeps t <= 0.5
# Gauss-Legendre panel edges at +-these offsets from the integrand's peak u = 0
_PEAK_OFFSETS = np.array([0.01, 0.03, 0.1, 0.3, 1.0, 2.5, 5.0])
_PANEL_WIDTH = 2.0  # longest panel between and beyond the offsets
_V_TOP = math.log(50.0)  # e^{-r} < 2e-22 past r = 50
_TAIL = 1e-18  # the lower cut: e^{(rho-mu+1) v} below this
_CHEB_STOP = 2.5e-13  # probe error at which a build stops doubling its nodes
_CHEB_NODES_MAX = 129
# Horner's rule over [0, 1] or [-1, 1] loses about eps * sum|monomial coef|;
# past this sum a model stays a Chebyshev series
_HORNER_MAX = 16.0
# at u <= u_lin the terms of degree 2 and up add at most this to the log
_LINEAR_TAIL = 2.0**-56


@dataclass
class _ChebModel:
    """log(t**power E(-t)) as a series in x over [lo, hi], for t from tlo up.

    The gap model (power 0), which ends at 36**rho, is a Chebyshev series in
    x = log t, or with horner a polynomial in its normalized w in [-1, 1];
    the asymptotic one (power 1, or 2 when mu = rho), which takes every
    t >= 36**rho, a polynomial in x = tlo/t over [0, 1] with horner, else a
    Chebyshev series in x = 1/t over [0, 36**-rho].  At x <= u_lin
    a polynomial's terms past c1 x add at most _LINEAR_TAIL to the log.
    """

    tlo: float  # the lower end in t; below the gap model the series keeps t <= tlo
    lo: float
    hi: float
    power: int
    coef: np.ndarray
    cert: float
    horner: bool = False  # coef are monomial coefficients, summed by Horner's rule
    u_lin: float = 0.0  # with horner: points this far take c0 + c1 x alone


# one model per (build, rho, mu): build is _cheb_build or _asym_build
_CHEB_CACHE: dict[tuple, _ChebModel] = {}
_CHEB_LOCK = threading.Lock()


def _sinpi(x: float) -> float:
    """sin(pi x) for x in [0, 1], exactly 0 at both ends."""
    return math.sin(math.pi * min(x, 1.0 - x))


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


def _hankel_log(rho: float, mu: float, v: np.ndarray, rule, power: int = 0) -> np.ndarray:
    """log(e^{power v} E_{rho,mu}(-e^v)) elementwise, as one (points x nodes) product."""
    u, wg = rule
    log_r = u[None, :] + (v / rho)[:, None]
    with np.errstate(over="ignore", under="ignore"):
        f = np.exp((rho - mu + 1.0) * log_r - np.exp(log_r))
    # f @ wg is e^v E(-e^v)
    return np.log(f @ wg) + (power - 1) * v


def _cheb_fit(values, lo: float, hi: float, nnode: int):
    """(coef, cert): a Chebyshev interpolant of values(x, 16) on [lo, hi], certified at probes.

    values(x, order) is the modeled log at x from the order-node Hankel rule.
    13 off-node probes take reference values from the 24-node rule; cert =
    4 * (largest probe error + largest gap between the two rules), at least
    1e-12.  The nodes double from nnode until the probe error is at most
    _CHEB_STOP or their count reaches _CHEB_NODES_MAX; the best round is kept.
    """
    xp = lo + (hi - lo) * (np.arange(1, 14) / 14.0)
    wp = (2.0 * xp - lo - hi) / (hi - lo)
    ref = values(xp, 24)
    # the probes' own error: the gap between the 16- and 24-node rules
    gap = float(np.max(np.abs(np.expm1(values(xp, 16) - ref))))
    best = None
    while True:
        theta = np.pi * (2 * np.arange(nnode) + 1) / (2 * nnode)
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)
        coef = (2.0 / nnode) * (np.cos(np.outer(np.arange(nnode), theta)) @ values(x, 16))
        coef[0] *= 0.5
        approx = np.polynomial.chebyshev.chebval(wp, coef)
        err = float(np.max(np.abs(np.expm1(approx - ref)))) + gap
        cert = max(4.0 * err, 1e-12)
        if best is None or cert < best[1]:
            best = (coef, cert)
        if err <= _CHEB_STOP or nnode >= _CHEB_NODES_MAX:
            return best
        nnode = 2 * nnode - 1


def _gap_fit(rho: float, mu: float, tlo: float, vlo: float, vhi: float) -> _ChebModel:
    """The gap model of log E(-e^v) on [vlo, vhi]: monomials in v mapped to
    [-1, 1] when their absolute sum is at most _HORNER_MAX, else the Chebyshev fit.

    vlo is log(tlo) as the caller rounds it; routing compares t with tlo.
    """
    rules = {n: _hankel_rule(rho, mu, vlo, vhi, n) for n in (16, 24)}
    width = vhi - vlo
    coef, cert = _cheb_fit(
        lambda v, n: _hankel_log(rho, mu, v, rules[n]),
        vlo,
        vhi,
        17 if width < 0.4 else (25 if width < 1.0 else 33),
    )
    mono = np.polynomial.chebyshev.cheb2poly(coef)
    if np.sum(np.abs(mono)) <= _HORNER_MAX:
        return _ChebModel(tlo, vlo, vhi, 0, mono, cert, horner=True)
    return _ChebModel(tlo, vlo, vhi, 0, coef, cert)


def _cheb_build(rho: float, mu: float) -> _ChebModel:
    vhi = rho * math.log(_S_ASYM)
    cut = _series_cut(mu)
    narrow_lo = (cut**rho, rho * math.log(cut))
    if mu < 0.45:
        # small mu: a model widened below s = 3 reaches only ~2e-10
        return _gap_fit(rho, mu, *narrow_lo, vhi)
    model = _gap_fit(rho, mu, _T_WIDE, math.log(_T_WIDE), vhi)
    if model.cert > 1e-12:
        # near rho = 1 the onset of the algebraic tail is too sharp for the
        # widest model; the series then keeps s <= 5 as for mu < 0.45
        narrow = _gap_fit(rho, mu, *narrow_lo, vhi)
        if narrow.cert < model.cert:
            model = narrow
    return model


def _asym_build(rho: float, mu: float) -> _ChebModel:
    """The asymptotic model of log(t**power E(-t)): a polynomial in u = 36**rho/t on [0, 1].

    t E tends to 1/Gamma(mu - rho) as t grows; for mu = rho that vanishes
    and t**2 E tends to -1/Gamma(-rho), so power is 2 there.  The fit is a
    Chebyshev series in y = 1/t, converted to monomials in u when the sum of
    their magnitudes is at most _HORNER_MAX.  From rho ~ 0.999999 (mu = rho)
    or 0.9999999 (mu = 1) on, the fit needs 33 or more terms whose monomials
    sum to 5e10 and beyond, and the model keeps the Chebyshev series.
    """
    power = 2 if mu == rho else 1
    tlo = _S_ASYM**rho
    ymax = 1.0 / tlo
    # the rules reach the smallest node a build can place, the 129-node one's
    ymin = 0.5 * ymax * (1.0 - math.cos(math.pi / (2 * _CHEB_NODES_MAX)))
    rules = {n: _hankel_rule(rho, mu, -math.log(ymax), -math.log(ymin), n) for n in (16, 24)}
    coef, cert = _cheb_fit(
        lambda y, n: _hankel_log(rho, mu, -np.log(y), rules[n], power), 0.0, ymax, 17
    )
    poly = np.polynomial.Chebyshev(coef, domain=[0.0, 1.0]).convert(kind=np.polynomial.Polynomial)
    if np.sum(np.abs(poly.coef)) > _HORNER_MAX:
        return _ChebModel(tlo, 0.0, ymax, power, coef, cert)
    # Sum_{k>=2} |c_k| u**k <= _LINEAR_TAIL for u <= u_lin, kept below it after rounding
    u_lin = math.sqrt(_LINEAR_TAIL / np.sum(np.abs(poly.coef[2:]))) * (1.0 - 4.0 * _EPS)
    return _ChebModel(tlo, 0.0, 1.0, power, poly.coef, cert, horner=True, u_lin=u_lin)


def _cheb_get(rho: float, mu: float, build=_cheb_build) -> _ChebModel:
    """The model build(rho, mu), built on first use and cached."""
    key = (build, float(rho), float(mu))
    model = _CHEB_CACHE.get(key)
    if model is None:
        model = build(rho, mu)
        with _CHEB_LOCK:
            model = _CHEB_CACHE.setdefault(key, model)
    return model


def _horner(c: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """polyval(x, c) into out, in place and in numpy polyval's operation order."""
    np.multiply(x, c[-1], out=out)
    out += c[-2]
    for a in c[-3::-1]:
        out *= x
        out += a


def _cheb_many(model: _ChebModel, x: np.ndarray, out_v=None, out_e=None):
    """e^{the model's series} at its variable x, clipped to [lo, hi], and the certificates.

    Writes (values, certificates) into out_v, out_e (new arrays when None)
    and returns them; x is overwritten with the normalized variable.  A
    Horner model is summed in place, every bit numpy polyval's, a Chebyshev
    one by Clenshaw on out_v, out_e and two new buffers, every bit chebval's.
    """
    out_v, out_e = _outputs(x.size, out_v, out_e)
    w = x
    w *= 2.0
    w -= model.lo
    w -= model.hi
    w /= model.hi - model.lo
    np.clip(w, -1.0, 1.0, out=w)
    c = model.coef
    if model.horner:
        _horner(c, w, out_v)
    else:
        x2 = 2.0 * w
        c1 = np.multiply(x2, c[-1], out=out_v)  # chebval's first step, on scalars
        c1 += c[-2]
        c0, spare = c[-3] - c[-1], np.empty_like(w)
        for i in range(4, len(c) + 1):
            # chebval's step: c0, c1 = c[-i] - c1, c0 + c1*x2
            np.multiply(c1, x2, out=spare)
            spare += c0
            c0 = np.subtract(c[-i], c1, out=out_e)
            c1, spare = spare, c1
        # chebval's result c0 + c1*w; out_v is c1 or spare here, c0 is out_e
        np.multiply(c1, w, out=out_v)
        out_v += c0
    np.exp(out_v, out=out_v)
    out_e.fill(model.cert)
    return out_v, out_e


def _gathered(run, x: np.ndarray, idx: np.ndarray, vals, ests) -> None:
    """run(x[idx], v, e) into new arrays, scattered into vals and ests at idx."""
    v, e = np.empty(idx.size), np.empty(idx.size)
    run(x[idx], v, e)
    vals[idx], ests[idx] = v, e


def _asym_many(rho: float, mu: float, t: np.ndarray, out_v=None, out_e=None):
    """E_{rho,mu}(-t) for t >= 36**rho, the ``asymptotic`` zone.

    Pairs with 0 < rho < 1 and mu in {1, rho} take the model in u = 36**rho/t,
    by Horner's rule on out_v, or, where the model keeps its Chebyshev series,
    by Clenshaw's in y = 1/t; the other pairs take the inverse-power series.
    A point with u <= u_lin takes c0 + c1 u, chosen per point, never per block.
    A model value below the normal doubles keeps fewer bits, so its estimate
    gains 2**-1074/v (inf at 0.0) and, past the target, the valve takes the
    point and raises.  Writes (values, estimates) into out_v, out_e (new
    arrays when None).
    """
    if not (0.0 < rho < 1.0 and mu in (1.0, rho)):
        return _inverse_series_many(rho, mu, t, out_v, out_e)
    model = _cheb_get(rho, mu, _asym_build)
    if not model.horner:
        # past t ~ 1e154 y**2 underflows, as E_{rho,rho} itself does
        with np.errstate(under="ignore"):
            y = 1.0 / t
            scale = y**model.power
        out_v, out_e = _cheb_many(model, y, out_v, out_e)
        out_v *= scale
    else:
        out_v, out_e = _outputs(t.size, out_v, out_e)
        # t >= tlo puts u in (0, 1], held in out_e; u and E_{rho,rho} underflow far out
        with np.errstate(under="ignore"):
            u = np.divide(model.tlo, t, out=out_e)
            any_far = u.min() <= model.u_lin  # a block with none pays one reduction
            c = model.coef[:2] if any_far and u.max() <= model.u_lin else model.coef
            _horner(c, u, out_v)
            if any_far and c.size > 2:  # a mixed block's far points, as a far block sums them
                np.copyto(out_v, u * c[1] + c[0], where=u <= model.u_lin)
            np.exp(out_v, out=out_v)
            for _ in range(model.power):
                out_v /= t
        out_e.fill(model.cert)
    if out_v.min() < _TINY:  # a block with no such value pays one reduction
        sub = out_v < _TINY
        with np.errstate(divide="ignore"):
            out_e[sub] += _SUBNORMAL_MIN / out_v[sub]
    return out_v, out_e


# --- routing -----------------------------------------------------------------


def _eval_many(rho: float, mu: float, t: np.ndarray):
    """Evaluate E_{rho,mu}(-t) elementwise: (values, est_rel_errors, branch codes).

    The flat input is routed and evaluated in blocks of at most
    ``_BLOCK_POINTS`` points.  Every branch makes many passes over its
    points (about 20 per inverse-power term, 3 or 2 per model coefficient),
    so a million-point call run whole streams ~8 MB arrays from memory on
    every pass; a block keeps those passes and the routing
    in L2 cache and bounds the temporaries by the block.  Every branch is
    elementwise, each point stopping on its own, so the result does not
    depend on the blocking.
    """
    flat = np.asarray(t, dtype=float).ravel()
    # min is NaN when any point is, and NaN >= 0 is false
    if flat.size and not (flat.min() >= 0.0 and flat.max() < math.inf):
        raise DomainError("t must be finite and nonnegative")
    n = flat.size
    vals = np.empty(n)
    ests = np.empty(n)
    codes = np.empty(n, dtype=np.int8)
    for lo in range(0, n, _BLOCK_POINTS):
        hi = lo + _BLOCK_POINTS
        _eval_block(rho, mu, flat[lo:hi], vals[lo:hi], ests[lo:hi], codes[lo:hi])
    return vals, ests, codes


def _uncertified(x, out_v, out_e) -> None:
    # a pair without a model leaves its gap points to the valve
    out_v.fill(np.nan)
    out_e.fill(np.inf)


def _eval_block(rho: float, mu: float, t: np.ndarray, vals, ests, codes) -> None:
    """Route the points t and write their results into the views vals, ests, codes.

    Each point's zone is read off t against its pair's bounds: asymptotic for
    t >= 36**rho, the gap model above the lower end the model states, the
    series at or below it.  A zone that holds every point of the block runs
    its branch on t itself, writing into the views; in a mixed block each
    zone's points are gathered, evaluated and scattered back.  Zeros take the
    block's largest point first, so they join a zone that holds points
    already, and get their own value, 1/Gamma(mu), after the branches.
    """
    n = t.size
    zero = np.flatnonzero(t == 0.0) if t.min() == 0.0 else []
    x = t
    if len(zero):
        x = t.copy()
        x[zero] = t.max()
    if x[0] > 0.0:  # a block of zeros alone needs no branch
        for code, pick, count, run in _zones(rho, mu, x):
            if count == n:  # one zone holds the block
                run(x, vals, ests)
                codes.fill(code)
            elif count:
                idx = np.flatnonzero(pick)
                _gathered(run, x, idx, vals, ests)
                codes[idx] = code
    if len(zero):
        # libm gamma is exact at integers, so E(0) = 1 comes out exactly 1; a
        # 1/Gamma(mu) below the normal doubles, or past them, goes to the valve
        try:
            vals[zero] = 1.0 / math.gamma(mu)
        except OverflowError:
            vals[zero] = 0.0
        ests[zero] = 8.0 * _EPS if vals[zero[0]] >= _TINY else math.inf
        codes[zero] = _SER

    # correctness valve: anything not certified re-runs at extended precision
    bad = np.flatnonzero(ests > TARGET_REL) if ests.max() > TARGET_REL else ()
    for j in bad:
        try:
            vals[j], ests[j] = _mp_eval(rho, mu, float(t[j]))
        except AccuracyError:
            if abs(vals[j]) >= _TINY:
                raise
        codes[j] = _EXT
        if ests[j] <= TARGET_REL:
            continue
        if abs(vals[j]) < _TINY:  # the valve's value, or the refused branch's
            raise AccuracyError(
                f"value {vals[j]:.3g} is below the normal doubles: no branch "
                f"certifies {TARGET_REL:g} (rho={rho}, mu={mu}, t={t[j]})"
            )
        raise AccuracyError(f"no branch certifies {TARGET_REL:g} at rho={rho}, mu={mu}, t={t[j]}")


def _zones(rho: float, mu: float, x: np.ndarray):
    """(code, points, count, run) for each zone of the positive points x.

    points is a mask of x, left None where the zone holds none or all of
    them; run(x, v, e) writes the zone's values and estimates into v and e.
    """
    n = x.size
    closed = _CLOSED_FORMS.get((rho, mu))
    if closed:
        def closed_form(x, v, e):
            closed(x, v)
            e.fill(4.0 * _EPS)

        return ((_CLO, None, n, closed_form),)
    asy = x >= _S_ASYM**rho
    n_asy = int(np.count_nonzero(asy))
    if n_asy == n:
        return ((_ASY, None, n, partial(_asym_many, rho, mu)),)
    t_lo = _series_cut(mu) ** rho
    gap = _uncertified
    if 0.0 < rho < 1.0 and rho <= mu <= 1.0:  # the pairs with a model
        if mu >= 0.45:
            t_lo = _T_WIDE  # the wide model's end; its build may state cut**rho
        if n_asy + np.count_nonzero(x <= t_lo) < n:
            model = _cheb_get(rho, mu)
            t_lo = model.tlo
            gap = lambda x, v, e: _cheb_many(model, np.log(x), v, e)
    ser = x <= t_lo
    n_ser = int(np.count_nonzero(ser))
    n_gap = n - n_ser - n_asy
    return (
        (_SER, ser, n_ser, partial(_series_many, rho, mu)),
        (_ASY, asy, n_asy, partial(_asym_many, rho, mu)),
        (_EXT, ~(ser | asy) if 0 < n_gap < n else None, n_gap, gap),
    )


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


def mlf_kernel_array(rho: float, lam: float, xi) -> np.ndarray:
    """Relaxation kernel xi^{rho-1} E_{rho,rho}(-lam xi^rho) over an array of positive xi.

    The true values are strictly positive.  At rho = 1 the kernel decays
    exponentially and underflows to 0.0 once lam*xi exceeds ~745 (below the
    doubles); for rho < 1 the decay is algebraic and the values stay
    representable.
    """
    _check_kernel_params(rho, lam)
    xi = np.asarray(xi, dtype=float)
    # min is NaN when any point is, and NaN > 0 is false
    if xi.size and not (xi.min() > 0.0 and xi.max() < math.inf):
        raise DomainError("kernel requires xi > 0")
    v, _, _ = _eval_many(rho, rho, lam * xi**rho)
    return xi ** (rho - 1.0) * v.reshape(xi.shape)


def _check_kernel_params(rho: float, lam) -> None:
    if not (0.0 < rho <= 1.0) or not math.isfinite(rho):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0.0) or not np.all(np.isfinite(lam)):
        raise DomainError(f"lambda must be finite and nonnegative, got {lam}")


def _kernel_series(rho: float, y: np.ndarray, lnq: float = -math.inf) -> np.ndarray:
    """Sum_{k>=1} (-y)^{k-1} (1 - q^k) / Gamma(rho k + 1) for y in [0, 0.5].

    Each factor 1 - q^k is -expm1(k ln q), so it keeps its digits for q near
    1; q = 0 (the default ln q = -inf) makes every factor exactly 1.  The sum
    is a kernel integral, so it decreases in y: the terms are kept up to the
    first below 1e-17 of the sum at the largest y, past which later terms
    round away at every y, and summed by Horner's rule.
    """
    ymax = float(np.max(y, initial=0.0))
    coefs, at_max = [], 0.0
    for k in range(1, 201):
        coefs.append(-math.expm1(k * lnq) * float(gammafn.rgamma(rho * k + 1.0)))
        term = (-ymax) ** (k - 1) * coefs[-1]
        at_max += term
        if k > 2 and abs(term) <= 1e-17 * at_max:
            break
    neg_y = -y
    total = np.full_like(y, coefs.pop())
    for c in reversed(coefs):
        total *= neg_y
        total += c
    return total


def kernel_cumulative(rho: float, lam, x) -> np.ndarray:
    """Integral of the kernel from 0 to x, elementwise: mlf_kernel_primitive(rho, lam, 0, x).

    Equals K(x) = x^rho E_{rho,rho+1}(-lam x^rho).  For y = lam x^rho <= 0.5
    that is x^rho times the defining series of E_{rho,rho+1}(-y), with
    nothing divided by lam (lam = 0 needs no case of its own); above it,
    (1 - E_{rho,1}(-y))/lam.  lam may be an array that broadcasts against
    x, one eigenvalue per element; the result has the broadcast shape, and
    each element is what a call with its own scalar lam gives.
    """
    _check_kernel_params(rho, lam)
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.size and not (x.min() >= 0.0 and x.max() < math.inf):
        raise DomainError("x must be finite and nonnegative")
    lam, x = np.broadcast_arrays(lam, x)
    xr = x**rho
    y = lam * xr
    out = np.empty(x.shape, dtype=float)
    small = y <= 0.5
    out[small] = xr[small] * _kernel_series(rho, y[small])
    big = ~small
    v, _, _ = _eval_many(rho, 1.0, y[big])
    out[big] = (1.0 - v) / lam[big]
    return out


def mlf_kernel_primitive(rho: float, lam: float, a: float, b: float) -> float:
    """Exact kernel antiderivative: integral_a^b xi^{rho-1} E_{rho,rho}(-lam xi^rho) dxi.

    K(b) - K(a).  For y = lam b^rho <= 0.5 it is b^rho times the kernel
    series with q = (a/b)^rho: ln q = rho log1p((a - b)/b) for a > b/2, where
    a - b is exact and close limits lose no digits, and rho (ln a - ln b)
    below.  Above 0.5 it is [E_{rho,1}(-lam a^rho) - E_{rho,1}(-y)]/lam.
    """
    _check_kernel_params(rho, lam)
    if not (0.0 <= a <= b) or not math.isfinite(b):
        raise DomainError(f"need 0 <= a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    br = b**rho
    if lam * br <= 0.5:
        if a == 0.0:
            lnq = -math.inf
        elif 2.0 * a > b:
            lnq = rho * math.log1p((a - b) / b)
        else:
            lnq = rho * (math.log(a) - math.log(b))
        return float(br * _kernel_series(rho, np.array([lam * br]), lnq)[0])
    v, _, _ = _eval_many(rho, 1.0, np.array([lam * a**rho, lam * br]))
    return float((v[0] - v[1]) / lam)


def check_decay_bound(params: MlfParams, t_samples) -> float:
    """C* = max over samples of (1+t)|E_{rho,mu}(-t)|, the decay-bound constant."""
    if not isinstance(params, MlfParams):
        params = MlfParams(*params)
    t = np.asarray(t_samples, dtype=float).ravel()
    if t.size == 0:
        raise DomainError("t_samples must be nonempty")
    v, _, _ = _eval_many(params.rho, params.mu, t)
    return float(np.max((1.0 + t) * np.abs(v)))
