"""Release gate: twelve go/no-go checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion.  Accuracy tolerances and runtime budgets are asserted
inside the tests, so a regression in either turns the line red.  Reference
values are recomputed here from closed forms or extended precision, never
read back from the code under test.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fracspec.cli import main
from fracspec.counterexample import (
    abs_coeff_partial_sums,
    critical_exponent,
    divergence_sum,
    hl_coefficients,
)
from fracspec.errors import HypothesisError
from fracspec.mlf import (
    MlfParams,
    check_decay_bound,
    mlf_kernel_array,
    mlf_neg,
    mlf_neg_array,
)
from fracspec.modal import TimeProfile
from fracspec.solver import ProblemSpec, residual, solve
from fracspec.spectra import (
    DerivMultiIndex,
    SpectralField,
    analyze,
    embedding_constant,
    min_alias_free_grid,
    modes_within,
    synthesize,
)
from mlf_wide import mlf_neg_wide


def test_criterion_01_mlf_identity_suite():
    start = time.perf_counter()

    ts = np.linspace(0.0, 50.0, 501)
    vals, _, _ = mlf_neg_array(MlfParams(1.0, 1.0), ts)
    exact = np.exp(-ts)
    assert float(np.max(np.abs(vals - exact) / exact)) <= 1e-12

    for t in np.linspace(0.0, 10.0, 201):
        got = mlf_neg_wide(2.0, 1.0, t * t).value
        assert abs(got - math.cos(t)) <= 1e-10 * max(1.0, abs(math.cos(t)))

    ts = np.geomspace(1e-3, 50.0, 301)
    vals, _, _ = mlf_neg_array(MlfParams(1.0, 2.0), ts)
    exact = -np.expm1(-ts) / ts
    assert float(np.max(np.abs(vals - exact) / exact)) <= 1e-10

    # independent high-precision series for the half-order value at -1
    with mp.workdps(50):
        ref = mp.nsum(lambda k: (-1) ** k / mp.gamma(k / 2 + 1), [0, mp.inf])
        assert mp.almosteq(ref, mp.e * mp.erfc(1), rel_eps=mp.mpf(10) ** -40)
    ref = float(ref)
    got = mlf_neg(MlfParams(0.5, 1.0), 1.0).value
    assert abs(got - ref) <= 1e-9 * ref
    assert abs(got - 0.4275835762) <= 1e-9

    assert time.perf_counter() - start < 5.0


def _m2_constant(rho: float, eps: float, n_grid: int) -> float:
    ts = np.geomspace(1e-4, 10.0, n_grid)
    best = 0.0
    for lam in (1.0, 10.0, 100.0):
        kern = mlf_kernel_array(rho, lam, ts)
        envelope = lam ** (eps - 1.0) * ts ** (eps * rho - 1.0)
        best = max(best, float(np.max(kern / envelope)))
    return best


def test_criterion_02_decay_and_estimate_constants():
    start = time.perf_counter()

    ts = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 601)])
    for rho in np.arange(1, 10) / 10.0:
        vals, _, _ = mlf_neg_array(MlfParams(float(rho), 1.0), ts)
        assert float(vals[0]) == 1.0
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0.0), f"not strictly decreasing at rho={rho}"

    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 1501)])
    for rho in np.arange(1, 10) / 10.0:
        c_star = check_decay_bound(MlfParams(float(rho), 1.0), grid)
        assert math.isfinite(c_star) and c_star < 10.0
    c_star = check_decay_bound(MlfParams(0.5, 0.5), grid)
    assert math.isfinite(c_star) and c_star < 10.0

    for rho in (0.3, 0.5, 0.8):
        for eps in (0.1, 0.5, 0.9):
            coarse = _m2_constant(rho, eps, 800)
            fine = _m2_constant(rho, eps, 1600)
            assert math.isfinite(fine) and fine > 0.0
            assert abs(fine - coarse) <= 0.01 * coarse, (rho, eps, coarse, fine)

    assert time.perf_counter() - start < 10.0


def test_criterion_03_kernel_antiderivative_identity():
    # quadrature goes through the desingularized variable s = xi^rho, where
    # the integrand is the entire function E_{rho,rho}(-lam s) / rho
    for rho in (0.3, 0.5, 0.8):
        params_kernel = MlfParams(rho, rho)
        params_decay = MlfParams(rho, 1.0)
        for lam in (0.5, 2.0, 20.0):
            for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                integral, quad_err = quad(
                    lambda s: mlf_neg(params_kernel, lam * s).value,
                    0.0,
                    t**rho,
                    epsabs=1e-13,
                    epsrel=1e-13,
                    limit=300,
                )
                assert quad_err < 1e-12
                lhs = lam * integral / rho
                rhs = 1.0 - mlf_neg(params_decay, lam * t**rho).value
                assert abs(lhs - rhs) <= 1e-10, (rho, lam, t, lhs, rhs)


def test_criterion_04_spectral_roundtrip_and_parseval():
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    plans = {1: (50, 80), 2: (33, 70), 3: (13, 50)}
    for dim, (k, count) in plans.items():
        idxs = modes_within(dim, k)
        grid_m = min_alias_free_grid(k)
        for _ in range(count):
            entries = {
                idx: complex(rng.standard_normal(), rng.standard_normal())
                for idx in idxs
            }
            field = SpectralField(entries, k, dimension=dim)
            grid = synthesize(field, grid_m)
            back = analyze(grid, k)
            scale = max(abs(v) for v in entries.values())
            worst = max(abs(back.get(idx) - entries[idx]) for idx in idxs)
            assert worst <= 1e-12 * scale

            quad_energy = (2.0 * math.pi / grid_m) ** dim * float(
                np.sum(np.abs(grid.samples) ** 2)
            )
            coeff_energy = (2.0 * math.pi) ** dim * field.coefficient_norm_sq()
            assert abs(quad_energy - coeff_energy) <= 1e-12 * coeff_energy
    assert time.perf_counter() - start < 20.0


def _cos_conv(lam: float, omega: float, t: float) -> float:
    # int_0^t exp(-lam (t - s)) cos(omega s) ds in closed form
    if lam == 0.0:
        return math.sin(omega * t) / omega
    num = lam * (math.cos(omega * t) - math.exp(-lam * t)) + omega * math.sin(omega * t)
    return num / (lam * lam + omega * omega)


def test_criterion_05_classical_limit_solver_oracle():
    times = np.linspace(0.1, 1.0, 10)

    omega = 2.0
    phi1 = SpectralField(
        {(0,): 0.3, (1,): 0.5, (-1,): 0.5, (2,): -0.25, (-2,): -0.25},
        5,
        real_valued=True,
    )
    g1 = SpectralField({(0,): 0.4, (1,): 0.5, (-1,): 0.5}, 5, real_valued=True)
    spec1 = ProblemSpec(
        dimension=1,
        rho=1.0,
        T=1.0,
        phi=phi1,
        source=((g1, TimeProfile.cosine(omega)),),
    )
    sol1 = solve(spec1, times, truncation_radius_sq=5, grid_M=7, tolerance=1e-9)
    table1 = [
        ((0,), 0.3, 0.4),
        ((1,), 0.5, 0.5),
        ((-1,), 0.5, 0.5),
        ((2,), -0.25, 0.0),
        ((-2,), -0.25, 0.0),
    ]
    for idx, phi_n, g_n in table1:
        lam = float(sum(c * c for c in idx))
        exact = phi_n * np.exp(-lam * times) + g_n * np.array(
            [_cos_conv(lam, omega, float(t)) for t in times]
        )
        got = sol1.mode_history(idx)
        assert np.max(np.abs(got - exact)) <= 1e-8, idx

    omega = 1.5
    phi2 = SpectralField(
        {(0, 0): 0.3, (1, 0): 0.5, (-1, 0): 0.5, (1, 1): 0.25, (-1, -1): 0.25},
        3,
        real_valued=True,
    )
    g2 = SpectralField({(0, 1): 0.5, (0, -1): 0.5}, 3, real_valued=True)
    spec2 = ProblemSpec(
        dimension=2,
        rho=1.0,
        T=1.0,
        phi=phi2,
        source=((g2, TimeProfile.cosine(omega)),),
    )
    sol2 = solve(spec2, times, truncation_radius_sq=3, grid_M=5, tolerance=1e-9)
    table2 = [
        ((0, 0), 0.3, 0.0),
        ((1, 0), 0.5, 0.0),
        ((-1, 0), 0.5, 0.0),
        ((1, 1), 0.25, 0.0),
        ((-1, -1), 0.25, 0.0),
        ((0, 1), 0.0, 0.5),
        ((0, -1), 0.0, 0.5),
    ]
    for idx, phi_n, g_n in table2:
        lam = float(sum(c * c for c in idx))
        exact = phi_n * np.exp(-lam * times) + g_n * np.array(
            [_cos_conv(lam, omega, float(t)) for t in times]
        )
        got = sol2.mode_history(idx)
        assert np.max(np.abs(got - exact)) <= 1e-8, idx


def test_criterion_06_closed_form_fractional_checks():
    times = np.linspace(0.0, 1.0, 9)
    for rho in (0.3, 0.5, 0.8):
        g0 = SpectralField({(0,): 1.0}, 1, real_valued=True)
        spec = ProblemSpec(
            dimension=1,
            rho=rho,
            T=1.0,
            phi="zero",
            source=((g0, TimeProfile.constant(1.0)),),
        )
        sol = solve(spec, times, truncation_radius_sq=1, grid_M=3)
        exact = times**rho / math.gamma(1.0 + rho)
        assert np.max(np.abs(sol.mode_history((0,)) - exact)) <= 1e-8

        g1 = SpectralField({(1,): 1.0, (-1,): 1.0}, 2, real_valued=True)
        spec = ProblemSpec(
            dimension=1,
            rho=rho,
            T=1.0,
            phi="zero",
            source=((g1, TimeProfile.constant(1.0)),),
        )
        sol = solve(spec, times, truncation_radius_sq=2, grid_M=5)
        decay = np.array(
            [mlf_neg(MlfParams(rho, 1.0), float(t) ** rho).value for t in times]
        )
        exact = 1.0 - decay  # lam = 1, so (f/lam)(1 - E) collapses to this
        assert np.max(np.abs(sol.mode_history((1,)) - exact)) <= 1e-7


def test_criterion_07_residual_verification():
    start = time.perf_counter()
    phi = SpectralField(
        {(0,): 0.4, (1,): 0.3, (-1,): 0.3, (2,): 0.1, (-2,): 0.1},
        5,
        real_valued=True,
    )
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi)

    sups = {}
    for steps in (2048, 4096):
        times = np.linspace(0.0, 1.0, steps + 1)
        sol = solve(spec, times, truncation_radius_sq=5, grid_M=7)
        sups[steps] = residual(sol, spec, 1.0 / steps).sup_residual

    assert sups[4096] <= 1e-4, sups
    rate = math.log2(sups[2048] / sups[4096])
    assert rate >= 1.0, (sups, rate)
    assert time.perf_counter() - start < 60.0


def test_criterion_08_zero_data_uniqueness_witness():
    times = np.linspace(0.0, 1.0, 17)
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="zero")
    sol = solve(spec, times, truncation_radius_sq=5, grid_M=7)
    assert not sol.mode_solutions
    for i in range(len(times)):
        assert np.all(sol.grid_at(i).samples == 0.0)
    rep = residual(sol, spec, times[1] - times[0])
    assert rep.sup_residual == 0.0
    assert rep.initial_layer_sup == 0.0
    assert rep.initial_error == 0.0


def test_criterion_09_counterexample_growth_law():
    start = time.perf_counter()
    datum = hl_coefficients(100_000)

    harmonic = abs_coeff_partial_sums(datum, [10_000])[0]
    assert abs(harmonic - 9.7876) <= 1e-3

    checkpoints = np.unique(np.geomspace(100, 100_000, 16).astype(int))
    for rho in (0.3, 0.5, 0.8):
        for t in (1.0, 4.0):
            fit = divergence_sum(datum, rho, t, k0=8, checkpoints=checkpoints)
            assert fit.relative_slope_error <= 0.05, (rho, t, fit.fitted_slope)
            predicted = 1.0 / (math.gamma(1.0 - rho) * t**rho)
            assert fit.predicted_slope == pytest.approx(predicted, rel=1e-12)
    assert time.perf_counter() - start < 30.0


def test_criterion_10_sharpness_of_the_embedding_threshold(tmp_path):
    datum = hl_coefficients(100_000)
    checkpoints = np.unique(np.geomspace(100, 100_000, 24).astype(int))
    a_star = critical_exponent(datum, [0.4, 0.45, 0.55, 0.6], checkpoints)
    assert abs(a_star - 0.5) <= 0.05

    ns = np.arange(1, 20_001)
    inv_sq = (ns, 1.0 / ns.astype(float) ** 2)
    checkpoints = np.unique(np.geomspace(100, 20_000, 24).astype(int))
    a_star = critical_exponent(inv_sq, [1.3, 1.4, 1.45, 1.55, 1.6, 1.7], checkpoints)
    assert abs(a_star - 1.5) <= 0.05

    cfg = tmp_path / "strict.json"
    cfg.write_text(
        json.dumps(
            {
                "dimension": 1,
                "rho": 0.5,
                "T": 1.0,
                "phi": {"builtin": "hardy_littlewood", "k_max": 256},
                "regularity_exponent_a": 0.5,
                "strict": True,
                "truncation_radius_sq": 2,
                "grid_M": 9,
                "dt": 0.125,
            }
        )
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3


def _extremal_embedding_field(dim: int, nmax: int, sigma: float) -> SpectralField:
    # coefficients matched to the kernel of d^2/dx_1^2 (A+1)^{-sigma} at x = 0,
    # the ensemble member that saturates the operator-norm scan
    entries = {}
    if dim == 1:
        for n in range(-nmax, nmax + 1):
            w = n * n * (1.0 + n * n) ** (-sigma)
            if w:
                entries[(n,)] = -w
        k = nmax * nmax + 1
    else:
        for n1 in range(-nmax, nmax + 1):
            for n2 in range(-nmax, nmax + 1):
                w = n1 * n1 * (1.0 + n1 * n1 + n2 * n2) ** (-sigma)
                if w:
                    entries[(n1, n2)] = -w
        k = 2 * nmax * nmax + 1
    return SpectralField(entries, k, dimension=dim, real_valued=True)


def test_criterion_11_embedding_constant_stability():
    plans = {1: ((2,), (50, 500, 5000)), 2: ((2, 0), (5, 16, 49))}
    for dim, (alpha, nmaxes) in plans.items():
        sigma = 1.0 + dim / 4.0 + 0.05
        deriv = DerivMultiIndex(alpha)
        consts = []
        for nmax in nmaxes:
            field = _extremal_embedding_field(dim, nmax, sigma)
            c = embedding_constant([field], sigma, deriv)
            assert math.isfinite(c) and c > 0.0
            consts.append(c)
        assert max(consts) / min(consts) < 2.0, (dim, consts)

        with pytest.raises(HypothesisError):
            embedding_constant(
                [_extremal_embedding_field(dim, 8, sigma)], 1.0 + dim / 4.0, deriv
            )


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path):
    base = {
        "dimension": 1,
        "rho": 0.7,
        "T": 1.0,
        "phi": {"builtin": "cosine_mode"},
        "source": [
            {"g": {"builtin": "cosine_mode"}, "q": {"kind": "cosine", "omega": 2.0}}
        ],
        "truncation_radius_sq": 2,
        "grid_M": 9,
        "dt": 0.125,
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(base))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out_b)]) == 0
    for name in ("solution.csv", "diagnostics.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    ce_a, ce_b = tmp_path / "ce_a", tmp_path / "ce_b"
    assert main(["counterexample", "0.5", "1", "20000", "--out", str(ce_a)]) == 0
    assert main(["counterexample", "0.5", "1", "20000", "--out", str(ce_b)]) == 0
    for name in ("counterexample.csv", "growthfit.json"):
        assert (ce_a / name).read_bytes() == (ce_b / name).read_bytes()

    # config error class
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", "--config", str(broken)]) == 1

    # quadrature-certification failure class
    stuck = dict(base)
    stuck["tolerance"] = 1e-16
    stuck["dt"] = 0.5
    stuck_cfg = tmp_path / "stuck.json"
    stuck_cfg.write_text(json.dumps(stuck))
    assert main(["solve", "--config", str(stuck_cfg), "--out", str(tmp_path / "s")]) == 2

    # regularity gate class
    gated = dict(base)
    gated["phi"] = {"builtin": "hardy_littlewood", "k_max": 256}
    gated["regularity_exponent_a"] = 0.5
    gated["strict"] = True
    del gated["source"]
    gated_cfg = tmp_path / "gated.json"
    gated_cfg.write_text(json.dumps(gated))
    assert main(["solve", "--config", str(gated_cfg), "--out", str(tmp_path / "g")]) == 3
