"""Sharpness-witness tests: log-divergent series, Hoelder scans, critical exponent.

The datum's absolute coefficient sums are harmonic numbers, so
H_k = ln k + 0.5772156649 + O(1/k) anchors the partial-sum checks.  The
fitted growth slope of the twice-differentiated series is checked against
1/(Gamma(1-rho) t^rho): for rho = 0.5, t = 1 this is 1/Gamma(0.5) =
0.5641895835477563.
"""

import math
import warnings

import numpy as np
import pytest

from fracspec.counterexample import (
    GrowthFit,
    HLDatum,
    abs_coeff_partial_sums,
    critical_exponent,
    divergence_sum,
    hl_coefficients,
    holder_constant,
)
from fracspec.errors import (
    AliasError,
    DomainError,
    InconclusiveError,
    RegularityError,
)
from fracspec.mlf import MlfParams, mlf_neg_array
from fracspec.spectra import SpectralField, analyze, synthesize

DECADES_1E5 = [10, 100, 1000, 10**4, 10**5]


# --- coefficients -----------------------------------------------------------------


def test_first_coefficient_exact():
    d = hl_coefficients(8)
    assert d.coeffs_pos[0] == 0.5  # phase n ln n vanishes at n = 1


def test_moduli_are_half_over_n():
    d = hl_coefficients(5000)
    n = np.arange(1, 5001)
    assert np.max(np.abs(d.moduli() * 2.0 * n - 1.0)) < 5e-16


def test_field_hermitian_exact():
    f = hl_coefficients(64).field()
    for n in (1, 2, 17, 64):
        assert f.get((-n,)) == f.get((n,)).conjugate()
    assert f.real_valued


def test_field_limit_truncates():
    d = hl_coefficients(100)
    f = d.field(limit=10)
    assert f.get((10,)) != 0j and f.get((11,)) == 0j
    assert f.truncation_radius_sq == 101


def test_k_max_validation():
    with pytest.raises(DomainError):
        hl_coefficients(1)


def test_synthesis_roundtrip():
    d = hl_coefficients(512)
    f = d.field()
    g = synthesize(f, 1027)
    back = analyze(g, f.truncation_radius_sq)
    worst = max(
        abs(back.get(idx) - val) for idx, val in f.items()
    )
    assert worst < 1e-12


# --- absolute coefficient sums ------------------------------------------------------


def test_partial_sums_harmonic():
    d = hl_coefficients(10**4)
    s1, s4 = abs_coeff_partial_sums(d, [1, 10**4])
    assert s1 == pytest.approx(1.0, abs=1e-15)
    assert s4 == pytest.approx(math.log(1e4) + 0.5772156649, abs=1e-3)


def test_partial_sum_doubling_gap_is_ln2():
    d = hl_coefficients(10**4)
    s_k, s_2k = abs_coeff_partial_sums(d, [5000, 10000])
    assert s_2k - s_k == pytest.approx(math.log(2.0), abs=1e-3)


def test_partial_sums_in_callers_order_with_repeats():
    # unsorted and repeated checkpoints each get their own sum, in the order
    # given, within 1e-15 of the correctly rounded sum of the same summands
    d = hl_coefficients(10**4)
    cps = [5000, 1, 5000, 300, 10**4, 300, 2]
    got = abs_coeff_partial_sums(d, cps)
    summands = (2.0 * np.abs(d.coeffs_pos)).tolist()
    for k, s in zip(cps, got):
        want = math.fsum(summands[:k])
        assert abs(s - want) <= 1e-15 * want, (k, s, want)
    assert got[0] == got[2] and got[3] == got[5]
    assert abs_coeff_partial_sums(d, []) == []


def test_partial_sums_validation():
    d = hl_coefficients(100)
    with pytest.raises(DomainError):
        abs_coeff_partial_sums(d, [101])
    with pytest.raises(DomainError):
        abs_coeff_partial_sums(d, [0])


# --- divergent series growth --------------------------------------------------------


def checkpoints_to(k_top):
    return sorted(set(np.logspace(2, math.log10(k_top), 16).astype(int)))


def test_growth_slope_sqrt_case():
    d = hl_coefficients(10**5)
    fit = divergence_sum(d, 0.5, 1.0, 8, checkpoints_to(10**5))
    assert isinstance(fit, GrowthFit)
    assert fit.predicted_slope == pytest.approx(0.5641895835477563, rel=1e-12)
    assert fit.relative_slope_error < 0.05


def test_growth_slope_time_scaling():
    d = hl_coefficients(10**5)
    cps = checkpoints_to(10**5)
    f1 = divergence_sum(d, 0.5, 1.0, 8, cps)
    f4 = divergence_sum(d, 0.5, 4.0, 8, cps)
    assert f4.fitted_slope / f1.fitted_slope == pytest.approx(0.5, rel=0.05)


def test_growth_partial_sums_strictly_increasing():
    d = hl_coefficients(10**4)
    fit = divergence_sum(d, 0.4, 1.0, 8, checkpoints_to(10**4))
    u = np.array(fit.partial_sums)
    assert np.all(np.diff(u) > 0.0)


def test_growth_value_time_ratio():
    # at fixed large k, U scales like t^{-rho}: doubling t multiplies by 2^{-rho}
    d = hl_coefficients(10**4)
    lo = divergence_sum(d, 0.5, 1.0, 8, [200, 10**4])
    hi = divergence_sum(d, 0.5, 2.0, 8, [200, 10**4])
    ratio = hi.partial_sums[-1] / lo.partial_sums[-1]
    assert ratio == pytest.approx(2.0 ** (-0.5), rel=0.03)


def test_growth_slope_consistency_grid():
    d = hl_coefficients(10**5)
    cps = checkpoints_to(10**5)
    for rho in (0.3, 0.5, 0.8):
        for t in (1.0, 4.0):
            fit = divergence_sum(d, rho, t, 8, cps)
            normalized = fit.fitted_slope * math.gamma(1.0 - rho) * t**rho
            assert 0.95 <= normalized <= 1.05


@pytest.mark.parametrize("rho, t", [(0.3, 0.5), (0.5, 1.0), (0.9, 1.0)])
def test_growth_partial_sums_match_fsum(rho, t):
    # a million summands: each checkpoint sum, repeated ones too, is within
    # 1e-15 of the correctly rounded sum (a running cumsum was 1e-13 off)
    d = hl_coefficients(10**6)
    cps = [300, 300, 10**4, 10**6]
    fit = divergence_sum(d, rho, t, 10, cps)
    assert fit.k_values == tuple(cps)
    ns = np.arange(10, 10**6 + 1, dtype=float)
    arg = ns**2
    arg *= t**rho
    summands = (mlf_neg_array(MlfParams(rho, 1.0), arg)[0] * ns).tolist()
    for k, s in zip(cps, fit.partial_sums):
        want = math.fsum(summands[: k - 9])
        assert abs(s - want) <= 1e-15 * want, (k, s, want)


def test_growth_validation():
    d = hl_coefficients(1000)
    with pytest.raises(DomainError):
        divergence_sum(d, 1.0, 1.0, 8, [100, 1000])  # classical limit decays
    with pytest.raises(DomainError):
        divergence_sum(d, 0.5, 1.0, 2, [100, 1000])  # k0^2 t^rho < 50
    with pytest.raises(DomainError):
        divergence_sum(d, 0.5, -1.0, 8, [100, 1000])
    with pytest.raises(DomainError):
        divergence_sum(d, 0.5, 1.0, 8, [100, 2000])  # beyond k_max
    with pytest.raises(DomainError):
        divergence_sum(d, 0.5, 1.0, 8, [500])  # single checkpoint


# --- Hoelder scan -------------------------------------------------------------------


def test_holder_half_stable_across_truncations():
    consts = []
    for k_max in (256, 1024, 4096):
        d = hl_coefficients(k_max)
        consts.append(holder_constant(d, 2 * k_max + 3, 0.5))
    assert max(consts) < 2.0 * min(consts)


def test_holder_one_grows_with_truncation():
    c_small = holder_constant(hl_coefficients(256), 515, 1.0)
    c_large = holder_constant(hl_coefficients(4096), 8195, 1.0)
    assert c_large > 2.0 * c_small  # no Lipschitz bound


def test_holder_smooth_control():
    cosx = SpectralField({(1,): 0.5, (-1,): 0.5}, 2, dimension=1, real_valued=True)
    c = holder_constant(cosx, 4097, 1.0)
    assert c == pytest.approx(1.0, abs=1e-6)


def test_holder_validation():
    d = hl_coefficients(64)
    with pytest.raises(DomainError):
        holder_constant(d, 131, 0.0)
    with pytest.raises(DomainError):
        holder_constant(d, 131, 1.5)
    with pytest.raises(AliasError):
        holder_constant(d, 65, 0.5)  # grid too coarse for k_max = 64


# --- critical exponent ----------------------------------------------------------------


def test_critical_exponent_hl():
    d = hl_coefficients(10**5)
    crit = critical_exponent(d, [0.3, 0.4, 0.45, 0.55, 0.6, 0.7], DECADES_1E5)
    assert crit == pytest.approx(0.5, abs=0.05)


def test_critical_exponent_geometric_is_infinite():
    ns = np.arange(1, 2001, dtype=float)
    moduli = np.exp2(-np.minimum(ns, 1000.0))
    crit = critical_exponent((ns, moduli), [0.5, 2.0, 5.0], [10, 100, 1000])
    assert crit == math.inf


def test_critical_exponent_inverse_square():
    ns = np.arange(1, 10**5 + 1, dtype=float)
    crit = critical_exponent(
        (ns, ns**-2.0), [1.3, 1.4, 1.45, 1.55, 1.6, 1.7], DECADES_1E5
    )
    assert crit == pytest.approx(1.5, abs=0.05)


def test_critical_exponent_no_bracket():
    d = hl_coefficients(10**4)
    with pytest.raises(InconclusiveError):
        critical_exponent(d, [0.6, 0.7], [10, 100, 1000, 10**4])


def test_critical_exponent_skips_inconclusive_points():
    # a = 1/2 is the threshold itself: inconclusive, so it ends no bracket
    d = hl_coefficients(10**5)
    assert critical_exponent(d, [0.4, 0.5, 0.6], DECADES_1E5) == pytest.approx(0.5)
    with pytest.raises(InconclusiveError):
        critical_exponent(d, [0.4, 0.5], DECADES_1E5)


def test_critical_exponent_needs_decades():
    d = hl_coefficients(10**4)
    with pytest.raises(InconclusiveError):
        critical_exponent(d, [0.4, 0.6], [10, 50, 100])  # only two decades


def test_critical_exponent_checkpoint_range():
    d = hl_coefficients(100)
    with pytest.raises(DomainError):
        critical_exponent(d, [0.4, 0.6], [10, 100, 1000])


def test_membership_chain():
    # in the critical class (finite below a = 1/2, divergent at and above)
    # yet rejected by the strict solver gate: the sharpness statement in code
    d = hl_coefficients(10**4)
    crit = critical_exponent(d, [0.4, 0.45, 0.55, 0.6], [10, 100, 1000, 10**4])
    assert 0.45 <= crit <= 0.55


# --- solver linkage -------------------------------------------------------------------


def test_solver_strict_gate_rejects_datum():
    from fracspec.solver import ProblemSpec, solve

    phi = hl_coefficients(128).field()
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi, regularity_exponent_a=0.5)
    with pytest.raises(RegularityError):
        solve(spec, np.array([0.0, 1.0]), 2, 9, strict=True)


def test_solver_termwise_series_grows_with_truncation():
    # permissive solve + spatial operator: absolute coefficient sums of A u
    # at t = 1 keep growing as the truncation widens; the series never settles.
    from fracspec.solver import ProblemSpec, apply_termwise, solve

    phi = hl_coefficients(128).field()
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi, regularity_exponent_a=0.5)
    sums = []
    for top in (16, 32, 64, 128):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve(spec, np.array([0.0, 1.0]), top * top + 1, 2 * top + 3)
        au = apply_termwise(sol, "A").spectral_at(1)
        sums.append(sum(abs(v) for _, v in au.items()))
    diffs = np.diff(sums)
    assert np.all(diffs > 0.15)  # ~ ln 2 / Gamma(1/2) per doubling, no flattening
