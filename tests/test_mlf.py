"""Mittag-Leffler evaluator: oracle values, branch certification, kernel identities.

The reference oracle is an mpmath series written independently of the
production code: every gamma argument is formed in working precision
(forming rho*k in doubles corrupts terms of size 1e14 at the 1e-13 level,
which is exactly the regime under test), digits scale with both the
cancellation and the output's own smallness, and very large arguments
switch to the inverse-power expansion with a remainder assertion.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracspec import mlf
from fracspec.errors import AccuracyError, DomainError
from mlf_wide import mlf_neg_wide


def mlf_reference(rho: float, mu: float, t: float) -> float:
    """E_{rho,mu}(-t) via mpmath, good to ~1e-16 relative or better."""
    if t == 0.0:
        with mpmath.mp.workdps(40):
            return float(1 / mpmath.gamma(mu))
    if rho == 1.0 and mu == 1.0:
        with mpmath.mp.workdps(60):
            return float(mpmath.exp(-mpmath.mpf(t)))
    if rho == 1.0 and mu == 2.0:
        with mpmath.mp.workdps(60):
            return float((1 - mpmath.exp(-mpmath.mpf(t))) / mpmath.mpf(t))
    # s = t**(1/rho) <= 80, compared in logs: s overflows a double for t = 1e100 at rho < 1/3
    if math.log(t) <= rho * math.log(80.0):
        d = int(0.9 * t ** (1.0 / rho)) + 45
        with mpmath.mp.workdps(d):
            rr, mm, tt = mpmath.mpf(rho), mpmath.mpf(mu), mpmath.mpf(t)
            tot = mpmath.mpf(0)
            p = mpmath.mpf(1)
            k = 0
            mx = mpmath.mpf(0)
            while True:
                term = p / mpmath.gamma(rr * k + mm)
                tot += term
                if abs(tot) > mx:
                    mx = abs(tot)
                if abs(term) < mpmath.mpf(10) ** (-d + 4) * max(mx, 1) and rr * k + mm > 3:
                    break
                p *= -tt
                k += 1
            return float(tot)
    with mpmath.mp.workdps(50):
        rr, mm, tt = mpmath.mpf(rho), mpmath.mpf(mu), mpmath.mpf(t)
        tot = mpmath.mpf(0)
        prev_env = mpmath.inf
        k = 1
        while True:
            env = mpmath.gamma(1 + rr * k - mm) / (mpmath.pi * tt**k)
            if env > prev_env:
                break
            a = mm - rr * k
            if not (mpmath.isint(a) and a <= 0):
                tot += (-1) ** (k + 1) * tt ** (-k) / mpmath.gamma(a)
            if env < mpmath.mpf(10) ** -40 * abs(tot):
                break
            prev_env = env
            k += 1
        rem = min(prev_env, env) / max(abs(tot), mpmath.mpf(10) ** -40)
        assert rem < mpmath.mpf(10) ** -20, "reference remainder too large"
        return float(tot)


# mpmath at >=50 significant digits, frozen (value strings, 22 digits)
MLF_ORACLE = [
    (0.5, 1.0, 1.0, "0.4275835761558070044108"),
    (0.5, 1.0, 4.0, "0.1369994576250613898894"),
    (0.5, 0.5, 2.0, "0.0533982309267447992179"),
    (0.3, 1.0, 0.7, "0.5488231349648468290203"),
    (0.3, 0.3, 1.2, "0.06286443419573301118293"),
    (0.9, 1.0, 3.0, "0.08388835403377326206749"),
    (0.9, 0.9, 10.0, "0.001434652362294128595039"),
    (0.1, 1.0, 1.2, "0.4400807689106189294868"),
    (0.1, 0.1, 1.3, "0.01882017912357015093433"),
    (0.75, 1.0, 150.0, "0.001851384178483303453846"),
    (0.6, 0.6, 10000.0, "2.705151308675272004234e-9"),
    (0.25, 1.0, 30.0, "0.02658496136509165699762"),
]


@pytest.mark.parametrize("rho,mu,t,expected", MLF_ORACLE)
def test_mlf_frozen_oracle(rho, mu, t, expected):
    rep = mlf.mlf_neg(mlf.MlfParams(rho, mu), t)
    assert rep.value == pytest.approx(float(expected), rel=1e-10)
    assert rep.est_rel_error <= mlf.TARGET_REL


def test_value_at_zero_is_reciprocal_gamma():
    for rho, mu in ((0.4, 1.0), (0.4, 0.4), (1.0, 1.0)):
        rep = mlf.mlf_neg(mlf.MlfParams(rho, mu), 0.0)
        assert rep.value == pytest.approx(1.0 / math.gamma(mu), rel=1e-14)


def test_erfcx_identity_across_all_branches():
    # E_{1/2,1}(-t) = exp(t^2) erfc(t): independent oracle spanning every zone
    params = mlf.MlfParams(0.5, 1.0)
    for t in [1e-8, 0.3, 2.0, 4.99, 5.01, 10.0, 25.0, 35.9, 36.1, 100.0, 1e4, 1e8]:
        rep = mlf.mlf_neg(params, t)
        want = float(scipy.special.erfcx(t))
        assert rep.value == pytest.approx(want, rel=2e-10), (t, rep.branch)


def test_pair_without_model_matches_erfcx_closed_form():
    # E_{1/2,3/2}(-t) = (1 - erfcx(t))/t, from E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z):
    # mu = 3/2 has no model, so its points take the series up to 5**rho, the
    # valve up to 36**rho and the inverse-power series from there
    params = mlf.MlfParams(0.5, 1.5)
    for t in [0.3, 1.0, 2.0, 4.0, 5.9, 6.1, 10.0, 40.0, 1e3, 1e4, 1e8]:
        rep = mlf.mlf_neg(params, t)
        with mpmath.mp.workdps(50):
            tt = mpmath.mpf(t)
            ref = (1 - mpmath.exp(tt**2) * mpmath.erfc(tt)) / tt
            err = float(abs(rep.value - ref) / ref)
        assert err <= rep.est_rel_error <= 1e-10, (t, err, rep)
        if t <= 5.0**0.5:
            assert rep.branch is mlf.Branch.SERIES, t
        elif t < 6.0:
            assert rep.branch is mlf.Branch.EXTENDED_PRECISION, t
        else:
            assert rep.branch is mlf.Branch.ASYMPTOTIC, t


def test_classical_limit_is_exponential():
    params = mlf.MlfParams(1.0, 1.0)
    for t in [0.0, 1e-12, 0.5, 30.0, 78.0, 700.0]:
        rep = mlf.mlf_neg(params, t)
        assert rep.value == pytest.approx(math.exp(-t), rel=1e-12)
        if t > 0:
            assert rep.branch is mlf.Branch.CLOSED_FORM


def certification_points(rho, mu):
    cut = 5.0 if mu >= 0.45 else 3.0
    svals = [0.7, cut * 0.999, cut * 1.001, 12.0, 30.0, 35.9, 36.0, 55.0]
    ts = {s**rho for s in svals}
    ts.update({0.0, 1e-6, 1.0, 1e4, 1e8})
    return sorted(t for t in ts if t <= 1e8)


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.8, 0.95, 1.0])
@pytest.mark.parametrize("mu_kind", ["one", "rho"])
def test_certified_error_bound_holds(rho, mu_kind):
    mu = 1.0 if mu_kind == "one" else rho
    params = mlf.MlfParams(rho, mu)
    for t in certification_points(rho, mu):
        rep = mlf.mlf_neg(params, t)
        ref = mlf_reference(rho, mu, t)
        assert rep.est_rel_error <= mlf.TARGET_REL, (rho, mu, t)
        if ref == 0.0:
            # the true value underflows doubles (rho = 1, huge t)
            assert rep.value == 0.0, (rho, mu, t, rep)
            continue
        err = abs(rep.value - ref) / abs(ref)
        # the claimed bound must actually dominate the true error
        assert err <= rep.est_rel_error * 1.05 + 1e-15, (rho, mu, t, err, rep)


def test_branch_routing_by_hardness():
    # mu >= 0.45: series for t <= 0.5, the Chebyshev model up to s = t**(1/rho) = 36,
    # asymptotic beyond; for rho = 1/2, t=7 -> s=49
    params = mlf.MlfParams(0.5, 1.0)
    assert mlf.mlf_neg(params, 0.3).branch is mlf.Branch.SERIES
    assert mlf.mlf_neg(params, 2.0).branch is mlf.Branch.EXTENDED_PRECISION
    assert mlf.mlf_neg(params, 3.0).branch is mlf.Branch.EXTENDED_PRECISION
    assert mlf.mlf_neg(params, 7.0).branch is mlf.Branch.ASYMPTOTIC


def test_array_interface_matches_scalar():
    params = mlf.MlfParams(0.7, 0.7)
    ts = np.array([0.0, 0.2, 1.7, 9.0, 400.0, 2e7])
    vals, ests, codes = mlf.mlf_neg_array(params, ts)
    for i, t in enumerate(ts):
        rep = mlf.mlf_neg(params, float(t))
        assert vals[i] == rep.value
        assert ests[i] == rep.est_rel_error
        assert mlf.branch_from_code(codes[i]) is rep.branch


def blocking_probe_points():
    """Zeros plus t from the series zone through the model to the asymptotic one, shuffled."""
    ts = np.concatenate([np.zeros(3), np.geomspace(1e-3, 1e4, 57)])
    np.random.default_rng(0).shuffle(ts)
    return ts


@pytest.mark.parametrize(
    "rho, mu",
    [(0.5, 1.0), (0.7, 0.7), (0.2, 0.2), (0.995, 1.0), (1.0, 1.0), (0.5, 1.3)],
)
def test_blocked_evaluation_is_bitwise_one_block(monkeypatch, rho, mu):
    # every branch stops per point, so splitting the input into blocks of 7
    # changes no bit of any value, estimate or code
    params = mlf.MlfParams(rho, mu)
    ts = blocking_probe_points()
    whole = mlf.mlf_neg_array(params, ts)
    monkeypatch.setattr(mlf, "_BLOCK_POINTS", 7)
    blocked = mlf.mlf_neg_array(params, ts)
    for a, b in zip(whole, blocked):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    # zeros report the series; off the contract (mu = 1.3) the gap zone is
    # left uncertified for the extended-precision valve, on it the Chebyshev
    # model answers
    if (rho, mu) == (1.0, 1.0):
        expected = {mlf._SER, mlf._CLO}
    else:
        expected = {mlf._SER, mlf._ASY, mlf._EXT}
    assert set(whole[2].tolist()) == expected


@pytest.mark.parametrize("rho, mu", [(0.5, 1.3), (0.5, 0.3), (0.7, 2.0), (1.0, 0.5)])
def test_pairs_without_model_match_reference_across_gap(rho, mu):
    # no Chebyshev model: the valve evaluates every point between the series
    # cut and the asymptotic bound
    cut = 5.0 if mu >= 0.45 else 3.0
    ts = np.geomspace(0.9 * cut**rho, 0.999 * 36.0**rho, 9)
    vals, ests, _ = mlf.mlf_neg_array(mlf.MlfParams(rho, mu), ts)
    for t, val, est in zip(ts, vals, ests):
        ref = mlf_reference(rho, mu, float(t))
        err = abs(val - ref) / abs(ref)
        assert err <= est <= mlf.TARGET_REL, (rho, mu, t, err, est)


@pytest.mark.parametrize("rho, mu", [(0.5, 1.0), (0.3, 0.3), (0.9999, 1.0)])
def test_zone_bounds_route_on_t(monkeypatch, rho, mu):
    # one ulp either side of 36**rho, 0.5 and the lower end the model states:
    # asymptotic from 36**rho on, the model above its lower end, the series
    # at or below it; a lone point and a blocked array call agree bit for bit
    params = mlf.MlfParams(rho, mu)
    top, lower = 36.0**rho, mlf._cheb_get(rho, mu).tlo
    edges = [np.nextafter(b, d) for b in (top, 0.5, lower) for d in (0.0, np.inf)]
    ts = np.concatenate([edges, blocking_probe_points()])
    monkeypatch.setattr(mlf, "_BLOCK_POINTS", 7)
    vals, ests, codes = mlf.mlf_neg_array(params, ts)
    for i, t in enumerate(edges):
        want = mlf._ASY if t >= top else (mlf._EXT if t > lower else mlf._SER)
        assert codes[i] == want, (rho, mu, t)
        assert ests[i] <= mlf.TARGET_REL, (rho, mu, t)
        rep = mlf.mlf_neg(params, float(t))
        lone = np.array([rep.value, rep.est_rel_error])
        assert lone.tobytes() == np.array([vals[i], ests[i]]).tobytes(), (rho, mu, t)
        assert rep.branch is mlf.branch_from_code(codes[i])


def test_blocked_evaluation_raises_same_accuracy_error(monkeypatch):
    # the asymptotic estimate is inflated for t > 1e6 so the valve escalates
    # those points, and s = t**2 is far past the extended-precision budget:
    # the first such point must name itself, blocked or not
    real = mlf._asym_many

    def uncertified_far(rho, mu, t, out_v=None, out_e=None):
        v, e = real(rho, mu, t, out_v, out_e)
        e[t > 1e6] = 1.0
        return v, e

    monkeypatch.setattr(mlf, "_asym_many", uncertified_far)
    ts = blocking_probe_points()
    ts = np.concatenate([ts[:30], [3e7], ts[30:], [2e7]])
    params = mlf.MlfParams(0.5, 1.0)
    with pytest.raises(AccuracyError) as whole:
        mlf.mlf_neg_array(params, ts)
    monkeypatch.setattr(mlf, "_BLOCK_POINTS", 7)
    with pytest.raises(AccuracyError) as blocked:
        mlf.mlf_neg_array(params, ts)
    assert str(whole.value) == str(blocked.value)
    assert str(blocked.value) == (
        "cancellation beyond extended-precision budget (rho=0.5, t=30000000.0)"
    )


# (rho, mu, lo, hi, code): points log-uniform in [lo, hi] that one zone holds
SINGLE_ZONES = [
    (0.5, 1.0, 1e-6, 0.5, mlf._SER),
    (0.5, 1.0, 0.51, 5.9, mlf._EXT),  # the gap model
    (0.5, 1.0, 6.0, 1e100, mlf._ASY),  # the y = 1/t model
    (0.5, 1.0, 6.0, 1e300, mlf._ASY),  # and the same model up to 1e300
    (1.0, 1.0, 1e-3, 700.0, mlf._CLO),
    (0.5, 1.3, 2.3, 5.9, mlf._EXT),  # no model: every point goes to the valve
    (0.5, 1.3, 6.0, 1e8, mlf._ASY),  # no model: the inverse-power series
    (0.3, 0.3, 1e-6, 1.38, mlf._SER),  # the narrow series zone t <= 3**rho
]


@pytest.mark.parametrize("rho, mu, lo, hi, code", SINGLE_ZONES)
@pytest.mark.parametrize("zeros", [0, 3])
def test_single_zone_block_matches_mixed_array_and_lone_calls(
    monkeypatch, rho, mu, lo, hi, code, zeros
):
    # a block that one zone holds is evaluated in place; its values,
    # estimates and codes are the bits the same points get inside a shuffled
    # mixed array and from lone calls
    params = mlf.MlfParams(rho, mu)
    rng = np.random.default_rng(11)
    n = 6 if code == mlf._EXT and mu > 1.0 else 40
    ts = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    ts[:zeros] = 0.0
    mixed = np.concatenate([ts, blocking_probe_points()])
    order = rng.permutation(mixed.size)
    got = [a[np.argsort(order)][:n] for a in mlf.mlf_neg_array(params, mixed[order])]

    # the in-place block gathers and scatters no index
    def forbidden(*args):
        raise AssertionError("a single-zone block was gathered")

    monkeypatch.setattr(mlf, "_gathered", forbidden)
    alone = mlf.mlf_neg_array(params, ts)
    assert set(alone[2][zeros:].tolist()) == {code}
    for a, b in zip(alone, got):
        assert a.tobytes() == b.tobytes()
    for i, t in enumerate(ts.tolist()):
        rep = mlf.mlf_neg(params, t)
        lone = np.array([rep.value, rep.est_rel_error])
        assert lone.tobytes() == np.array([alone[0][i], alone[1][i]]).tobytes(), t
        assert rep.branch is mlf.branch_from_code(alone[2][i])


@pytest.mark.parametrize("rho, mu", [(0.5, 1.0), (0.7, 1.0), (0.3, 0.3), (0.9, 1.0)])
@pytest.mark.parametrize("build", [mlf._cheb_build, mlf._asym_build])
def test_cheb_many_equals_chebval_bit_for_bit(rho, mu, build):
    # the gap model's in-place sum keeps numpy polyval's operation order for
    # a Horner model and chebval's for a Chebyshev one ((0.9, 1)), with x
    # also past both ends, where w is clipped; the asymptotic model's
    # in-place Horner sum keeps polyval's, in u = tlo/t, and at u <= u_lin
    # polyval's over the linear part
    model = mlf._cheb_get(rho, mu, build)
    if build is mlf._asym_build:
        rng = np.random.default_rng(5)
        t = model.tlo * np.concatenate(
            [
                [1.0, 1e150, 1e300],
                10.0 ** rng.uniform(0.0, 8.0, 10**4),
                10.0 ** rng.uniform(8.0, 300.0, 100),
            ]
        )
        u = model.tlo / t
        want = np.where(
            u <= model.u_lin,
            np.polynomial.polynomial.polyval(u, model.coef[:2]),
            np.polynomial.polynomial.polyval(u, model.coef),
        )
        want = np.exp(want)
        with np.errstate(under="ignore"):
            for _ in range(model.power):
                want = want / t
        vals, ests = mlf._asym_many(rho, mu, t)
        assert vals.tobytes() == want.tobytes()
        # a value below the normal doubles is charged at least its own spacing
        normal = vals >= np.finfo(float).tiny
        assert np.all(ests[normal] == model.cert)
        with np.errstate(divide="ignore"):
            assert np.all(ests[~normal] >= 2.0**-1074 / vals[~normal])
        return
    w = np.concatenate([[-1.0, 1.0, -1.5, 1.5], np.random.default_rng(5).uniform(-1, 1, 10**4)])
    x = 0.5 * (model.lo + model.hi) + 0.5 * (model.hi - model.lo) * w
    want_w = np.clip((2.0 * x - model.lo - model.hi) / (model.hi - model.lo), -1.0, 1.0)
    series = np.polynomial.polynomial.polyval if model.horner else np.polynomial.chebyshev.chebval
    want = np.exp(series(want_w, model.coef))
    vals, ests = mlf._cheb_many(model, x.copy())
    assert vals.tobytes() == want.tobytes()
    assert np.all(ests == model.cert)


def test_single_zone_block_escalates_uncertified_points(monkeypatch):
    # every point asymptotic, so the block is evaluated in place; the points
    # whose estimate _asym_many leaves uncertified still go to the valve
    real = mlf._asym_many

    def uncertified_near(rho, mu, t, out_v=None, out_e=None):
        v, e = real(rho, mu, t, out_v, out_e)
        e[t < 50.0] = 1.0
        return v, e

    monkeypatch.setattr(mlf, "_asym_many", uncertified_near)
    ts = np.array([7.0, 60.0, 9.0, 1e4])
    vals, ests, codes = mlf.mlf_neg_array(mlf.MlfParams(0.5, 1.0), ts)
    assert codes.tolist() == [mlf._EXT, mlf._ASY, mlf._EXT, mlf._ASY]
    assert np.all(ests <= mlf.TARGET_REL)
    np.testing.assert_allclose(vals, scipy.special.erfcx(ts), rtol=2e-10)


def test_million_point_call_temporaries_stay_per_block():
    # ~17 MB is the result itself; the unblocked evaluator peaked at ~130 MB here
    ts = np.geomspace(1e-3, 1e8, 10**6)
    params = mlf.MlfParams(0.5, 1.0)
    mlf.mlf_neg_array(params, ts[:10])  # the Chebyshev model is cached outside the trace
    tracemalloc.start()
    try:
        result = mlf.mlf_neg_array(params, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[0].shape == ts.shape
    assert peak < 48e6, f"peak {peak / 1e6:.1f} MB"


def test_cheb_build_uses_no_mpmath(monkeypatch):
    # the gap-zone model comes from a double-precision integral; mpmath is
    # only the escalation valve
    def forbidden(*args):
        raise AssertionError("extended precision reached from a Chebyshev build")

    monkeypatch.setattr(mlf, "_mp_value", forbidden)
    for rho, mu in ((0.1, 1.0), (0.3, 0.3), (0.5, 1.0), (0.99, 1.0)):
        model = mlf._cheb_build(rho, mu)
        assert model.cert <= 1e-12, (rho, mu, model.cert)


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.75, 0.9, 0.99])
@pytest.mark.parametrize("mu_kind", ["one", "rho"])
def test_model_zone_error_within_estimate(rho, mu_kind):
    # the widened model zone t in [0.5, 36**rho] (series below s = 3 for mu < 0.45)
    mu = 1.0 if mu_kind == "one" else rho
    rng = np.random.default_rng(20 + int(100 * rho))
    ts = rng.uniform(0.5, 36.0**rho, 40)
    vals, ests, _ = mlf.mlf_neg_array(mlf.MlfParams(rho, mu), ts)
    for t, val, est in zip(ts, vals, ests):
        ref = mlf_reference(rho, mu, float(t))
        err = abs(val - ref) / abs(ref)
        assert err <= est, (rho, mu, t, err, est)
        assert err <= 1e-12, (rho, mu, t, err)


def test_model_near_rho_one_keeps_series_zone():
    # the widest model cannot certify 1e-12 this close to rho = 1, so the
    # build falls back to the zone s in (5, 36) and the series keeps s <= 5
    rho = 0.9999
    params = mlf.MlfParams(rho, 1.0)
    assert mlf.mlf_neg(params, 2.0).branch is mlf.Branch.SERIES
    for t in (5.5**rho, 9.0, 20.0, 35.0):
        rep = mlf.mlf_neg(params, t)
        assert rep.branch is mlf.Branch.EXTENDED_PRECISION
        assert rep.est_rel_error <= 1e-12
        ref = mlf_reference(rho, 1.0, t)
        assert abs(rep.value - ref) <= rep.est_rel_error * abs(ref), t


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999])
@pytest.mark.parametrize("mu_kind", ["one", "rho"])
def test_asymptotic_model_error_within_estimate(rho, mu_kind):
    # the y = 1/t model answers the whole zone: t log-uniform from 36**rho
    # to 1e100 and, more densely, over its first four decades, plus 36**rho
    # itself and one ulp either side of 1e100; past 1e100, t log-uniform up
    # to 1e300, or to 1e150 for mu = rho, where E ~ t**-2 is still a normal
    # double
    mu = 1.0 if mu_kind == "one" else rho
    model = mlf._cheb_get(rho, mu, mlf._asym_build)
    assert model.cert <= 1e-12
    lo, far = 36.0**rho, 1e300 if mu == 1.0 else 1e150
    rng = np.random.default_rng(40 + int(100 * rho))
    ts = np.concatenate(
        [
            [lo, np.nextafter(1e100, 0.0), 1e100, np.nextafter(1e100, np.inf), far],
            np.exp(rng.uniform(math.log(lo), math.log(1e100), 10)),
            lo * 10.0 ** rng.uniform(0.0, 4.0, 6),
            np.exp(rng.uniform(math.log(1e100), math.log(far), 6)),
        ]
    )
    params = mlf.MlfParams(rho, mu)
    vals, ests, codes = mlf.mlf_neg_array(params, ts)
    assert np.all(codes == mlf._ASY)
    for t, val, est in zip(ts, vals, ests):
        ref = mlf_reference(rho, mu, float(t))
        err = abs(val - ref) / abs(ref)
        assert err <= est <= mlf.TARGET_REL, (rho, mu, t, err, est)
        assert est == model.cert, (rho, mu, t)
        # the model is far better than its certificate claims
        assert err <= 2.5e-14, (rho, mu, t, err)
    if mu == rho:
        # past underflow the model's value is 0.0, certified nowhere, so the
        # valve takes it and raises
        with pytest.raises(AccuracyError):
            mlf.mlf_neg_array(params, [1e200, 1.7e308])


@pytest.mark.parametrize("rho, mu, t", [(0.5, 0.5, 1e155), (0.9999, 1.0, 1.7e308)])
def test_subnormal_model_value_estimate_bounds_its_error(rho, mu, t):
    # below the normal doubles a value keeps fewer bits: 2.8e-311 at
    # (0.5, 0.5), and 5.9e-313 at (0.9999, 1), whose spacing 2**-1074 is
    # 8e-12 of it; the estimate must still bound the error against the
    # inverse-power series in mpmath, whose terms fall by 1/t each
    rep = mlf.mlf_neg(mlf.MlfParams(rho, mu), t)
    assert rep.branch is mlf.Branch.ASYMPTOTIC
    assert 0.0 < rep.value < np.finfo(float).tiny
    with mpmath.mp.workdps(50):
        r, m, tt = mpmath.mpf(rho), mpmath.mpf(mu), mpmath.mpf(t)
        ref = sum((-1) ** (k + 1) * tt**-k * mpmath.rgamma(m - r * k) for k in range(1, 6))
        err = float(abs(rep.value - ref) / ref)
    assert err <= rep.est_rel_error <= mlf.TARGET_REL, (err, rep)


@pytest.mark.parametrize(
    "rho", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.9999]
)
@pytest.mark.parametrize("mu_kind", ["one", "rho"])
def test_asymptotic_model_monomials_stay_small(rho, mu_kind):
    # Horner's rule in u in [0, 1] loses about eps * Sum|coef| to the
    # conversion from the Chebyshev fit; a small sum keeps that to a few ulp
    mu = 1.0 if mu_kind == "one" else rho
    model = mlf._cheb_get(rho, mu, mlf._asym_build)
    assert model.cert <= 1e-12
    assert np.sum(np.abs(model.coef)) <= 16.0, (rho, mu, model.coef)


@pytest.mark.parametrize(
    "rho", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.99, 0.9999]
)
@pytest.mark.parametrize("mu_kind", ["rho", "mid", "one"])
def test_gap_model_monomials_stay_small(monkeypatch, rho, mu_kind):
    # a gap model is summed by Horner's rule in w in [-1, 1] exactly when its
    # monomials' absolute sum is at most 16, which keeps the conversion's
    # loss to a few ulp: its values stay within 4e-15 of the same fit summed
    # by Clenshaw's recurrence
    mu = {"rho": rho, "mid": 0.5 * (1.0 + rho), "one": 1.0}[mu_kind]
    model = mlf._cheb_get(rho, mu)
    mono = model.coef if model.horner else np.polynomial.chebyshev.cheb2poly(model.coef)
    assert model.horner == (np.sum(np.abs(mono)) <= 16.0), (rho, mu, model.coef.size)
    if not model.horner:
        return
    monkeypatch.setattr(mlf, "_HORNER_MAX", 0.0)
    cheb = mlf._cheb_build(rho, mu)
    assert not cheb.horner
    assert (cheb.tlo, cheb.lo, cheb.hi, cheb.cert) == (model.tlo, model.lo, model.hi, model.cert)
    x = np.random.default_rng(12).uniform(model.lo, model.hi, 10**4)
    want, _ = mlf._cheb_many(cheb, x.copy())
    vals, _ = mlf._cheb_many(model, x.copy())
    assert np.all(np.abs(vals - want) <= 4e-15 * want), (rho, mu)


@pytest.mark.parametrize(
    "rho", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.9999]
)
@pytest.mark.parametrize("mu_kind", ["one", "rho"])
def test_asymptotic_model_linear_part_far_out(rho, mu_kind):
    # at u <= u_lin the terms of degree 2 and up add at most 2**-56 to the
    # log, so far points take c0 + c1 u; in far-only, near-only and mixed
    # blocks every value stays within 4e-15 of the full polynomial's
    mu = 1.0 if mu_kind == "one" else rho
    model = mlf._cheb_get(rho, mu, mlf._asym_build)
    assert model.horner
    assert np.sum(np.abs(model.coef[2:])) * model.u_lin**2 <= 2.0**-56
    rng = np.random.default_rng(8)
    # far out to t = 1e150, where t**2 E_{rho,rho} is still a normal double
    decades = 150.0 - math.log10(model.tlo / model.u_lin)
    far = model.u_lin * 10.0 ** -rng.uniform(0.0, decades, 500)
    near = np.exp(rng.uniform(math.log(model.u_lin), 0.0, 500))
    far[0], near[0] = model.u_lin, np.nextafter(model.u_lin, 1.0)
    for u in (far, near, rng.permutation(np.concatenate([far, near]))):
        t = model.tlo / u
        u = model.tlo / t  # the u the evaluator forms
        want = np.exp(np.polynomial.polynomial.polyval(u, model.coef)) / t**model.power
        vals, ests = mlf._asym_many(rho, mu, t)
        assert np.all(np.abs(vals - want) <= 4e-15 * want), (rho, mu)
        assert np.all(ests == model.cert)


@pytest.mark.parametrize("rho, mu", [(0.01, 0.01), (0.3, 0.3), (0.9, 1.0)])
def test_far_points_do_not_depend_on_their_block(monkeypatch, rho, mu):
    # each point picks the linear part or the full sum by its own u, so a
    # point's bits are the same in a shuffled array of near and far points
    # (blocks of mixed kinds, and a short last block) as in a lone call;
    # some far points are ones where the two sums round apart
    monkeypatch.setattr(mlf, "_BLOCK_POINTS", 64)
    model = mlf._cheb_get(rho, mu, mlf._asym_build)
    edge = model.tlo / model.u_lin
    rng = np.random.default_rng(9)
    u = model.u_lin * 10.0 ** -rng.uniform(0.0, 0.5, 20_000)
    full = np.exp(np.polynomial.polynomial.polyval(u, model.coef))
    apart = u[full != np.exp(np.polynomial.polynomial.polyval(u, model.coef[:2]))][:20]
    assert apart.size == 20
    ts = np.concatenate(
        [
            [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)],
            model.tlo / apart,
            model.tlo * 10.0 ** rng.uniform(0.0, 12.0, 2 * 64 + 7 - 23),
        ]
    )
    rng.shuffle(ts)
    params = mlf.MlfParams(rho, mu)
    vals, ests, codes = mlf.mlf_neg_array(params, ts)
    u = model.tlo / ts
    assert np.count_nonzero(u <= model.u_lin) > 20 and np.count_nonzero(u > model.u_lin) > 20
    assert np.all(codes == mlf._ASY)
    for i, t in enumerate(ts.tolist()):
        rep = mlf.mlf_neg(params, t)
        lone = np.array([rep.value, rep.est_rel_error])
        assert lone.tobytes() == np.array([vals[i], ests[i]]).tobytes(), t


@pytest.mark.parametrize("rho", [0.9999999, 1.0 - 1e-9, 1.0 - 1e-12, 0.9999999999999999])
@pytest.mark.parametrize("mu_kind", ["one", "rho"])
def test_asymptotic_model_keeps_chebyshev_near_rho_one(rho, mu_kind):
    # monomials of these fits sum to 5e10 and more, so Horner's rule would
    # overflow exp; the model stays a Chebyshev series in y = 1/t, summed as
    # numpy chebval sums it, and every value is positive
    mu = 1.0 if mu_kind == "one" else rho
    model = mlf._cheb_get(rho, mu, mlf._asym_build)
    assert not model.horner and model.hi == 1.0 / model.tlo
    t = model.tlo * 10.0 ** np.random.default_rng(6).uniform(0.0, 8.0, 10**3)
    y = 1.0 / t
    w = np.clip((2.0 * y - model.lo - model.hi) / (model.hi - model.lo), -1.0, 1.0)
    want = np.exp(np.polynomial.chebyshev.chebval(w, model.coef))
    want *= y**model.power
    vals, ests = mlf._asym_many(rho, mu, t)
    assert vals.tobytes() == want.tobytes()
    assert np.all(ests == model.cert)
    assert np.all(vals > 0.0)


def test_asymptotic_zone_near_rho_one_needs_no_extended_precision(monkeypatch):
    # at s = 36..40 the inverse-power series certifies only ~1e-10 this close
    # to rho = mu = 1, and the valve used to escalate those points; the
    # y = 1/t model answers them with its own certificate
    def forbidden(*args):
        raise AssertionError("extended precision reached in the asymptotic zone")

    monkeypatch.setattr(mlf, "_mp_value", forbidden)
    rho = 0.9999
    ts = np.linspace(36.0, 40.0, 9) ** rho
    for mu in (rho, 1.0):
        vals, ests, codes = mlf.mlf_neg_array(mlf.MlfParams(rho, mu), ts)
        assert np.all(codes == mlf._ASY)
        for t, val, est in zip(ts, vals, ests):
            ref = mlf_reference(rho, mu, float(t))
            assert abs(val - ref) <= est * abs(ref) and est <= 1e-12, (mu, t)


def test_domain_errors():
    with pytest.raises(DomainError):
        mlf.MlfParams(0.0, 1.0)
    with pytest.raises(DomainError):
        mlf.MlfParams(1.2, 1.0)
    with pytest.raises(DomainError):
        mlf.MlfParams(0.5, 0.0)
    with pytest.raises(DomainError):
        mlf.mlf_neg(mlf.MlfParams(0.5, 1.0), -1.0)
    with pytest.raises(DomainError):
        mlf.mlf_neg(mlf.MlfParams(0.5, 1.0), math.inf)
    with pytest.raises(DomainError):
        mlf.mlf_kernel(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        mlf.mlf_kernel(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        mlf.mlf_kernel_primitive(0.5, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        mlf.mlf_kernel_primitive(0.5, 1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        mlf_neg_wide(2.3, 1.0, 1.0)
    with pytest.raises(DomainError):
        mlf.check_decay_bound(mlf.MlfParams(0.5, 1.0), [])


def test_asymptotic_leading_term():
    # matches the evaluator to ~1/s relative at large argument
    for rho in (0.3, 0.5, 0.8):
        t = 1e7
        lead = mlf.mlf_asymptotic_leading(rho, t)
        got = mlf.mlf_neg(mlf.MlfParams(rho, 1.0), t).value
        assert got == pytest.approx(lead, rel=1e-5)
    with pytest.raises(DomainError):
        mlf.mlf_asymptotic_leading(1.0, 2.0)  # no algebraic tail in this limit
    with pytest.raises(DomainError):
        mlf.mlf_asymptotic_leading(0.5, 0.0)


def test_decay_bound_constant():
    # (1+t) E_{rho,1}(-t) stays bounded; C* is its observed sup
    params = mlf.MlfParams(0.5, 1.0)
    ts = np.geomspace(1e-6, 1e8, 400)
    cstar = mlf.check_decay_bound(params, ts)
    assert 0.9 < cstar < 3.0
    vals, _, _ = mlf.mlf_neg_array(params, ts)
    assert np.all((1.0 + ts) * np.abs(vals) <= cstar + 1e-12)


def test_monotone_positive_on_contract_range():
    for rho in (0.2, 0.6, 0.95):
        ts = np.geomspace(1e-9, 1e8, 1500)
        vals, _, _ = mlf.mlf_neg_array(mlf.MlfParams(rho, 1.0), ts)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 1e-18)


# --- kernel -------------------------------------------------------------------


def test_kernel_positive_and_matches_definition():
    for rho in (0.4, 0.9, 1.0):
        for lam in (0.0, 3.0, 500.0):
            for xi in (1e-6, 0.3, 2.0, 50.0):
                if rho == 1.0 and lam * xi > 700.0:
                    continue  # true value below the double floor
                k = mlf.mlf_kernel(rho, lam, xi)
                assert k > 0.0
                want = xi ** (rho - 1.0) * mlf_reference(rho, rho, lam * xi**rho)
                assert k == pytest.approx(want, rel=1e-9)


def test_kernel_primitive_matches_quadrature():
    # substitute u = xi^rho so the integrand is smooth, then compare
    checked = 0
    for rho in (0.3, 0.6, 1.0):
        params = mlf.MlfParams(rho, rho)
        for lam in (0.0, 0.8, 40.0):
            for a, b in ((0.0, 0.9), (0.3, 1.4), (1.0, 6.0)):
                got = mlf.mlf_kernel_primitive(rho, lam, a, b)
                ref, aerr = quad(
                    lambda u: mlf.mlf_neg(params, lam * u).value / rho,
                    a**rho,
                    b**rho,
                    epsabs=1e-15,
                    epsrel=1e-12,
                    limit=500,
                )
                if aerr > 1e-6 * abs(ref):
                    continue  # quadrature could not certify itself here
                checked += 1
                assert got == pytest.approx(ref, rel=5e-9), (rho, lam, a, b)
    assert checked >= 20


def test_kernel_primitive_zero_lambda_closed_form():
    for rho in (0.25, 0.7, 1.0):
        for a, b in ((0.0, 1.0), (0.5, 2.5), (1e-9, 1e-3)):
            got = mlf.mlf_kernel_primitive(rho, 0.0, a, b)
            want = (b**rho - a**rho) / math.gamma(1.0 + rho)
            assert got == pytest.approx(want, rel=1e-12)


def test_kernel_primitive_additivity_and_degenerate():
    assert mlf.mlf_kernel_primitive(0.6, 2.0, 1.3, 1.3) == 0.0
    for rho, lam in ((0.3, 0.5), (0.8, 90.0)):
        a, m, b = 1e-6, 2.0, 1e5
        whole = mlf.mlf_kernel_primitive(rho, lam, a, b)
        split = mlf.mlf_kernel_primitive(rho, lam, a, m) + mlf.mlf_kernel_primitive(
            rho, lam, m, b
        )
        assert whole == pytest.approx(split, rel=1e-12)


def test_kernel_cumulative_agrees_with_primitive():
    xs = np.array([1e-8, 1e-3, 0.2, 1.0, 7.0, 80.0])
    for rho in (0.35, 1.0):
        for lam in (0.0, 5.0, 333.0):
            cum = mlf.kernel_cumulative(rho, lam, xs)
            prim = np.array(
                [mlf.mlf_kernel_primitive(rho, lam, 0.0, float(x)) for x in xs]
            )
            np.testing.assert_allclose(cum, prim, rtol=2e-13)
            # positive kernel: nondecreasing, strictly so until saturation
            assert np.all(np.diff(cum) >= 0.0)
            assert np.all(np.diff(cum[:3]) > 0.0)


def test_kernel_cumulative_array_lam_matches_scalar_calls():
    xs = np.array([0.0, 1e-8, 1e-3, 0.2, 1.0, 7.0, 80.0])
    lams = np.array([0.0, 5.0, 333.0, 0.01])
    for rho in (0.35, 0.7, 1.0):
        both = mlf.kernel_cumulative(rho, lams[:, None], xs)
        assert both.shape == (lams.size, xs.size)
        for row, lam in zip(both, lams):
            assert np.array_equal(row, mlf.kernel_cumulative(rho, float(lam), xs))
        np.testing.assert_allclose(both[0], xs**rho / math.gamma(1.0 + rho), rtol=1e-15)
    for bad in ([1.0, -1.0], [1.0, np.nan], [np.inf]):
        with pytest.raises(DomainError):
            mlf.kernel_cumulative(0.5, np.array(bad)[:, None], xs)


def kernel_integral_reference(rho: float, lam: float, a: float, b: float) -> float:
    """integral_a^b of the kernel as a difference of mpmath series at 60 digits.

    Each term (-lam)^k (b^{rho(k+1)} - a^{rho(k+1)}) / Gamma(rho(k+1)+1) is
    formed from the exact doubles a and b, so limits 1e-9 apart still leave
    ~50 digits after the cancellation.
    """
    with mpmath.mp.workdps(60):
        rr, ll, aa, bb = (mpmath.mpf(v) for v in (rho, lam, a, b))
        tot = mpmath.mpf(0)
        k = 0
        while True:
            e = rr * (k + 1)
            term = (-ll) ** k * (bb**e - aa**e) / mpmath.gamma(e + 1)
            tot += term
            if k > 2 and abs(term) < mpmath.mpf(10) ** -70 * abs(tot):
                return float(tot)
            k += 1


def test_kernel_cumulative_small_zone_against_reference():
    # K(x) = x^rho E_{rho,rho+1}(-lam x^rho) on the series zone y = lam x^rho <= 0.5
    worst = 0.0
    for rho in (0.25, 0.5, 0.7, 0.95, 1.0):
        for lam in (0.0, 0.01, 5.0, 333.0):
            ys = np.array([1e-9, 1e-3, 0.1, 0.3, 0.49])
            xs = (ys / (lam or 1.0)) ** (1.0 / rho)  # lam = 0 takes lam = 1's x
            got = mlf.kernel_cumulative(rho, lam, xs)
            xr = xs**rho
            want = np.array(
                [r * mlf_reference(rho, rho + 1.0, lam * r) for r in xr.tolist()]
            )
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst <= 4e-15


def test_kernel_primitive_close_limits_against_reference():
    # the series zone keeps every digit of a short interval: 1 - (a/b)^{rho(k+1)}
    # is formed from a - b, not from a rounded a/b; a/b = 1e-12 checks the
    # ln a - ln b form, where log1p((a - b)/b) would lose digits.  Compared by
    # hand: pytest.approx's default absolute tolerance 1e-12 passes values ~1e-9.
    for rho in (0.1, 0.5, 0.9, 1.0):
        for lam in (0.0, 5.0):
            b = 2.0 if lam == 0.0 else (0.45 / lam) ** (1.0 / rho)
            for ratio in (0.0, 1e-12, 0.3, 1 - 1e-6, 1 - 1e-9):
                a = ratio * b
                got = mlf.mlf_kernel_primitive(rho, lam, a, b)
                want = kernel_integral_reference(rho, lam, a, b)
                assert abs(got - want) <= 1e-13 * want, (rho, lam, ratio)


def test_wide_entry_classical_identities():
    r = mlf_neg_wide(2.0, 1.0, 2.3)
    assert r.value == pytest.approx(math.cos(math.sqrt(2.3)), rel=1e-13)
    assert r.branch is mlf.Branch.CLOSED_FORM
    r = mlf_neg_wide(2.0, 2.0, 2.3)
    assert r.value == pytest.approx(math.sin(math.sqrt(2.3)) / math.sqrt(2.3), rel=1e-13)
    # generic order above one against the reference series
    r = mlf_neg_wide(1.5, 1.0, 4.0)
    assert r.value == pytest.approx(mlf_reference(1.5, 1.0, 4.0), rel=1e-9)
    # delegates to the standard path at or below one
    r = mlf_neg_wide(0.5, 1.0, 1.0)
    assert r.value == pytest.approx(float(MLF_ORACLE[0][3]), rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_property_est_certified_everywhere(rho, logt):
    t = 10.0**logt - 1.0
    rep = mlf.mlf_neg(mlf.MlfParams(rho, 1.0), t)
    assert rep.est_rel_error <= mlf.TARGET_REL
    if rho == 1.0 and t > 700.0:
        assert rep.value == 0.0  # exp(-t) under the double floor
    else:
        assert 0.0 < rep.value <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.15, max_value=1.0),
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=0.0, max_value=30.0),
)
def test_property_primitive_monotone_in_upper_limit(rho, lam, a):
    assume(lam * (a + 1.9) ** rho < 600.0)  # keep clear of exp underflow at rho=1
    b1 = a + 0.7
    b2 = a + 1.9
    p1 = mlf.mlf_kernel_primitive(rho, lam, a, b1)
    p2 = mlf.mlf_kernel_primitive(rho, lam, a, b2)
    assert 0.0 < p1 < p2
