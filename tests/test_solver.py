"""Field assembly, termwise operators, residuals, and the regularity gate."""

import math
import warnings

import numpy as np
import pytest

from fracspec import mlf, modal, solver, spectra
from fracspec.errors import (
    AliasError,
    ConvergenceError,
    DomainError,
    MeshError,
    RegularityError,
)
from fracspec.modal import GradedMesh, TimeProfile, default_grading, solve_mode
from fracspec.solver import (
    ProblemSpec,
    ResidualReport,
    SolutionField,
    apply_termwise,
    builtin_field,
    check_hypothesis,
    residual,
    solve,
    truncation_tail,
)
from fracspec.spectra import (
    DerivMultiIndex,
    GridField,
    MultiIndex,
    SpectralField,
    apply_derivative_symbol,
    modes_within,
    synthesize,
)


def mode_sum_at_origin(field: SpectralField) -> complex:
    # sum c_n e^{i n.0} = sum of coefficients; the grid never contains x = 0
    return sum(v for _, v in field.items())


def cos_field(n: int = 1, dimension: int = 1) -> SpectralField:
    comps = (n,) + (0,) * (dimension - 1)
    idx = MultiIndex(comps)
    return SpectralField(
        {idx: 0.5, -idx: 0.5}, idx.norm_sq + 1, dimension=dimension, real_valued=True
    )


# --- builtins and spec validation ------------------------------------------------


def test_builtin_cosine_mode():
    f = builtin_field("cosine_mode", 2, mode=(1, 2))
    assert f.get((1, 2)) == 0.5 and f.get((-1, -2)) == 0.5
    assert f.truncation_radius_sq == 6 and f.real_valued


def test_builtin_constant_and_zero():
    c = builtin_field("constant", 1, value=2.0)
    assert c.get((0,)) == 2.0 and len(c) == 1
    z = builtin_field("zero", 3)
    assert len(z) == 0 and z.dimension == 3


def test_builtin_hardy_littlewood():
    f = builtin_field("hardy_littlewood", 1, k_max=16)
    assert f.get((1,)) == 0.5
    assert abs(abs(f.get((7,))) - 1.0 / 14.0) < 1e-16
    with pytest.raises(DomainError):
        builtin_field("hardy_littlewood", 2)


def test_builtin_unknown_name():
    with pytest.raises(DomainError):
        builtin_field("plancherel", 1)


def test_problem_spec_validation():
    with pytest.raises(DomainError):
        ProblemSpec(dimension=1, rho=0.0, T=1.0, phi="zero")
    with pytest.raises(DomainError):
        ProblemSpec(dimension=1, rho=1.5, T=1.0, phi="zero")
    with pytest.raises(DomainError):
        ProblemSpec(dimension=1, rho=0.5, T=0.0, phi="zero")
    with pytest.raises(DomainError):
        ProblemSpec(dimension=0, rho=0.5, T=1.0, phi="zero")
    with pytest.raises(DomainError):
        ProblemSpec(
            dimension=1, rho=0.5, T=1.0, phi="zero",
            source=(("constant", "not a profile"),),
        )
    spec = ProblemSpec(dimension=3, rho=0.5, T=1.0, phi="zero")
    assert spec.claimed_exponent == 3 / 2 + 1.0
    # the data are converted at construction, so bad data fail here, not in solve
    with pytest.raises(DomainError):
        ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="plancherel")
    with pytest.raises(DomainError):
        ProblemSpec(dimension=2, rho=0.5, T=1.0, phi=cos_field(1))
    with pytest.raises(DomainError):
        ProblemSpec(
            dimension=1, rho=0.5, T=1.0, phi="zero",
            source=((GridField(np.ones((5, 5))), TimeProfile.constant(1.0)),),
        )
    with pytest.raises(DomainError):
        ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=[1.0, 2.0])


def test_problem_spec_converts_data_once(monkeypatch):
    calls = []

    def counting_analyze(g, k):
        calls.append(k)
        return spectra.analyze(g, k)

    monkeypatch.setattr(solver, "analyze", counting_analyze)
    x = GridField.axis_points(9)
    grid = GridField(np.cos(x) + 0.25 * np.cos(3 * x))
    spec = ProblemSpec(
        dimension=1, rho=0.5, T=1.0, phi=grid,
        source=(("constant", TimeProfile.constant(1.0)),),
    )
    assert calls == [17]  # the largest ball the 9-point grid resolves, |n| <= 4
    assert isinstance(spec.phi, SpectralField) and isinstance(spec.source[0][0], SpectralField)
    assert spec.phi.real_valued and spec.phi.get(3) == pytest.approx(0.125)
    times = np.linspace(0.0, 1.0, 9)
    sol = solve(spec, times, 10, 9)
    residual(sol, spec, dt=1.0 / 8)
    truncation_tail(spec, spec.claimed_exponent, 5, 1.0)
    assert calls == [17]


# --- solve oracles ---------------------------------------------------------------


def test_solve_single_mode_subdiffusion():
    # phi = cos x, f = 0: u(0, 1) = E_{0.5,1}(-1) = 0.42758357615580700
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    sol = solve(spec, np.linspace(0.0, 1.0, 5), 2, 9)
    u = mode_sum_at_origin(sol.spectral_at(4))
    assert u.real == pytest.approx(0.4275835761558070, rel=1e-10)
    assert abs(u.imag) < 1e-15


def test_solve_heat_limit():
    spec = ProblemSpec(dimension=1, rho=1.0, T=1.0, phi="cosine_mode")
    sol = solve(spec, np.linspace(0.0, 1.0, 5), 2, 9)
    u = mode_sum_at_origin(sol.spectral_at(4))
    assert u.real == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_solve_constant_source():
    # phi = 0, f = 1: u(x, t) = t^{1/2}/Gamma(1.5), spatially constant.
    spec = ProblemSpec(
        dimension=1, rho=0.5, T=1.0, phi="zero",
        source=(("constant", TimeProfile.constant(1.0)),),
    )
    sol = solve(spec, np.array([0.0, 0.25, 1.0]), 2, 9)
    g = sol.grid_at(2).samples
    assert np.allclose(g.real, 1.0 / math.gamma(1.5), rtol=1e-10)
    assert np.max(np.abs(g - g.flat[0])) < 1e-14  # constant in x
    g_quarter = sol.grid_at(1).samples
    assert np.allclose(g_quarter.real, 0.5 / math.gamma(1.5), rtol=1e-10)


def test_solve_initial_condition_is_truncated_phi():
    x = GridField.axis_points(31)
    g = GridField(np.cos(x) + 0.3 * np.cos(3.0 * x))
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=g)
    sol = solve(spec, np.array([0.0, 0.5]), 2, 31)  # keeps only |n| <= 1
    u0 = sol.grid_at(0).samples
    assert np.allclose(u0.real, np.cos(x), atol=1e-12)  # the n=3 part is cut


def test_solve_superposition():
    times = np.array([0.0, 0.4, 1.0])
    f1 = TimeProfile.constant(1.0)
    f2 = TimeProfile.cosine(2.0)
    s_a = ProblemSpec(dimension=1, rho=0.6, T=1.0, phi=cos_field(1),
                      source=((cos_field(1), f1),))
    s_b = ProblemSpec(dimension=1, rho=0.6, T=1.0, phi=cos_field(2),
                      source=((cos_field(2), f2),))
    s_ab = ProblemSpec(dimension=1, rho=0.6, T=1.0,
                       phi=SpectralField({(1,): 0.5, (-1,): 0.5, (2,): 0.5, (-2,): 0.5},
                                         5, dimension=1, real_valued=True),
                       source=((cos_field(1), f1), (cos_field(2), f2)))
    u_a = solve(s_a, times, 5, 11)
    u_b = solve(s_b, times, 5, 11)
    u_ab = solve(s_ab, times, 5, 11)
    for j in range(len(times)):
        lhs = u_ab.grid_at(j).samples
        rhs = u_a.grid_at(j, 11).samples + u_b.grid_at(j, 11).samples
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_solve_two_dimensional_mode():
    # phi = cos(x_1 + x_2) has lam = 2: u(0, t) = E_{rho,1}(-2 t^rho).
    from fracspec.mlf import MlfParams, mlf_neg

    phi = SpectralField({(1, 1): 0.5, (-1, -1): 0.5}, 3, dimension=2, real_valued=True)
    spec = ProblemSpec(dimension=2, rho=0.5, T=1.0, phi=phi)
    sol = solve(spec, np.array([0.0, 1.0]), 3, 5)
    u = mode_sum_at_origin(sol.spectral_at(1))
    want = mlf_neg(MlfParams(0.5, 1.0), 2.0).value
    assert u.real == pytest.approx(want, rel=1e-10)


def test_solve_validation():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    with pytest.raises(AliasError):
        solve(spec, np.array([0.0, 1.0]), 5, 3)
    with pytest.raises(DomainError):
        solve(spec, np.array([0.0, 2.0]), 2, 9)  # beyond T
    with pytest.raises(DomainError):
        solve(spec, np.array([]), 2, 9)


def test_mode_history_absent_mode_is_zero():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    sol = solve(spec, np.array([0.0, 1.0]), 5, 11)
    assert np.all(sol.mode_history((2,)) == 0.0)


# --- regularity gate -------------------------------------------------------------


def hl_spec(a, k_max=256):
    phi = builtin_field("hardy_littlewood", 1, k_max=k_max)
    return ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi, regularity_exponent_a=a)


def test_strict_gate_rejects_slow_decay():
    with pytest.raises(RegularityError):
        solve(hl_spec(0.5), np.array([0.0, 1.0]), 2, 9, strict=True)
    # even above the dimension gate, the tail test catches the datum
    with pytest.raises(RegularityError):
        solve(hl_spec(0.7), np.array([0.0, 1.0]), 2, 9, strict=True)


def test_permissive_gate_warns_and_proceeds():
    with pytest.warns(UserWarning):
        sol = solve(hl_spec(0.5), np.array([0.0, 1.0]), 2, 9)
    assert isinstance(sol, SolutionField)


def test_strict_gate_accepts_smooth_data():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode",
                       regularity_exponent_a=1.5)
    sol = solve(spec, np.array([0.0, 1.0]), 2, 9, strict=True)
    assert isinstance(sol, SolutionField)


def test_gate_monotone_in_exponent():
    # acceptance at a implies acceptance at any smaller a' still above N/2
    entries = {(n,): 2.0 ** (-abs(n)) for n in range(-40, 41)}
    phi = SpectralField(entries, 1601, dimension=1, real_valued=True)
    grid = [2.5, 1.8, 1.2, 0.8, 0.6]
    ok = []
    for a in grid:
        spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi, regularity_exponent_a=a)
        ok.append(not check_hypothesis(spec, phi, []))
    assert all(ok)  # geometric decay passes everywhere above N/2
    hl = builtin_field("hardy_littlewood", 1, k_max=256)
    for a in (0.7, 1.0, 2.0):
        spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=hl, regularity_exponent_a=a)
        assert check_hypothesis(spec, hl, [])  # fails at every exponent


def test_strict_gate_accepts_finite_sum_near_threshold():
    # |c_n| = |n|^-1.5: Sum (1+n^2)^a |c_n|^2 is finite exactly for a < 1
    entries = {}
    for n in range(1, 4097):
        entries[(n,)] = entries[(-n,)] = n**-1.5
    phi = SpectralField(entries, 4096**2 + 1, dimension=1, real_valued=True)
    times = np.array([0.0, 1.0])
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi, regularity_exponent_a=0.95)
    assert isinstance(solve(spec, times, 2, 9, strict=True), SolutionField)
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi, regularity_exponent_a=1.2)
    with pytest.raises(RegularityError):
        solve(spec, times, 2, 9, strict=True)


# --- termwise operators ----------------------------------------------------------


def test_apply_a_scales_by_norm_sq():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=cos_field(2))
    sol = solve(spec, np.linspace(0.0, 1.0, 5), 5, 11)
    scaled = apply_termwise(sol, "A")
    assert np.allclose(scaled.mode_history((2,)), 4.0 * sol.mode_history((2,)), rtol=1e-15)


def test_apply_a_on_constant_field_is_zero():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="constant")
    sol = solve(spec, np.array([0.0, 1.0]), 2, 9)
    scaled = apply_termwise(sol, "A")
    assert np.all(scaled.grid_at(1).samples == 0.0)


def test_caputo_equals_negative_a_for_homogeneous():
    # D^rho w = -lam w per mode when f = 0; away from the initial layer the
    # L1 derivative reproduces this to the residual tolerance.
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    times = np.linspace(0.0, 1.0, 65)
    sol = solve(spec, times, 2, 9)
    dsol = apply_termwise(sol, "caputo")
    asol = apply_termwise(sol, "A")
    body = times[1:] >= 0.05
    diff = np.abs(dsol.mode_history((1,))[body] + asol.mode_history((1,))[1:][body])
    assert np.max(diff) < 0.02


def test_apply_a_scales_each_quadrature_estimate():
    sol = solve(two_source_spec(), np.linspace(0.0, 1.0, 5), 6, 7, mesh_M=4)
    scaled = apply_termwise(sol, "A")
    assert np.array_equal(scaled.quadrature_error_est, sol.lam * sol.quadrature_error_est)
    assert scaled.max_quadrature_error == np.max(sol.lam * sol.quadrature_error_est)
    # max(lam * est) is below max(lam) * max(est) when the largest estimate
    # sits on a lower shell than the largest eigenvalue
    assert scaled.max_quadrature_error < np.max(sol.lam) * sol.max_quadrature_error
    assert sol.max_quadrature_error == np.max(sol.quadrature_error_est)


def test_grid_at_synthesizes_from_the_arrays(monkeypatch):
    real = solve(ProblemSpec(dimension=2, rho=0.5, T=1.0, phi=cos_field(2, 2)),
                 np.linspace(0.0, 1.0, 5), 6, 7)
    complex_sol = solve(two_source_spec(), np.linspace(0.0, 1.0, 5), 6, 7, mesh_M=4)
    assert real.real_valued and not complex_sol.real_valued
    cases = [(sol, j, m) for sol in (real, complex_sol) for j in range(-1, 5) for m in (None, 13)]
    expected = [synthesize(sol.spectral_at(j), m or sol.grid_M).samples for sol, j, m in cases]
    built = []
    from_arrays = SpectralField.from_arrays.__func__

    def counting_from_arrays(cls, *args, **kwargs):
        built.append(args)
        return from_arrays(cls, *args, **kwargs)

    monkeypatch.setattr(SpectralField, "from_arrays", classmethod(counting_from_arrays))
    for (sol, j, m), want in zip(cases, expected):
        got = sol.grid_at(j, m).samples
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert built == []


def test_apply_termwise_validation():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    sol = solve(spec, np.array([0.0, 0.1, 0.4, 1.0]), 2, 9)
    with pytest.raises(MeshError):
        apply_termwise(sol, "caputo")  # nonuniform times
    with pytest.raises(DomainError):
        apply_termwise(sol, "laplace")


def test_spectral_physical_commutation():
    # A then synthesis agrees with the second-derivative symbol per axis,
    # synthesized: both realize -Laplacian on band-limited data.
    entries = {(1, 0): 0.4, (-1, 0): 0.4, (1, 2): 0.1 + 0.2j, (-1, -2): 0.1 - 0.2j}
    phi = SpectralField(entries, 6, dimension=2, real_valued=True)
    spec = ProblemSpec(dimension=2, rho=0.5, T=1.0, phi=phi)
    sol = solve(spec, np.array([0.0, 0.5]), 6, 7)
    lhs = synthesize(apply_termwise(sol, "A").spectral_at(1), 7).samples
    c1 = sol.spectral_at(1)
    lap = {}
    for axis in range(2):
        alpha = DerivMultiIndex(tuple(2 if i == axis else 0 for i in range(2)))
        for idx, val in apply_derivative_symbol(c1, alpha).items():
            lap[idx] = lap.get(idx, 0j) + val
    rhs = -synthesize(SpectralField(lap, 6, dimension=2), 7).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# --- residuals -------------------------------------------------------------------


def test_residual_zero_data_identically_zero():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="zero")
    times = np.linspace(0.0, 1.0, 17)
    sol = solve(spec, times, 2, 9)
    rep = residual(sol, spec, dt=1.0 / 16)
    assert rep.sup_residual == 0.0
    assert rep.initial_layer_sup == 0.0
    assert rep.initial_error == 0.0
    assert rep.tail_norm_estimates == (0.0, 0.0)


def test_residual_halving_rate():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    sups = []
    for n in (64, 128):
        times = np.linspace(0.0, 1.0, n + 1)
        sol = solve(spec, times, 2, 9)
        sups.append(residual(sol, spec, dt=1.0 / n).sup_residual)
    rate = math.log2(sups[0] / sups[1])
    assert rate >= 1.0


def one_mode_residuals(rho, phi, g, q, steps):
    """Residual reports at dt = 1/steps and 1/(2 steps) for data phi and source g(x) q(t).

    phi and g are a cosine of one mode n, or constants: at x = -pi, a grid
    node, cos(n x) is +-1, so the grid sup of the residual is the mode's own.
    """
    spec = ProblemSpec(dimension=1, rho=rho, T=1.0, phi=phi, source=((g, q),))
    k = spec.phi.truncation_radius_sq
    reports = []
    for n in (steps, 2 * steps):
        sol = solve(spec, np.linspace(0.0, 1.0, n + 1), k, spectra.min_alias_free_grid(k))
        reports.append(residual(sol, spec, dt=1.0 / n))
    return reports


def test_residual_one_mode_homogeneous():
    # lam = |n|^2 = 1, phi_n = 1, no source: the body shrinks under halving,
    # and the t^rho initial layer, harder, is reported apart
    mode = builtin_field("cosine_mode", mode=(1,))
    coarse, fine = one_mode_residuals(0.5, mode, mode, TimeProfile.zero(), 64)
    assert coarse.initial_error == 0.0
    assert coarse.sup_residual < 0.05
    assert math.log2(coarse.sup_residual / fine.sup_residual) > 0.2
    assert coarse.initial_layer_sup >= coarse.sup_residual


def test_residual_one_mode_forced():
    # lam = 4, phi_n = 0.5, f_n = cos t
    phi = builtin_field("cosine_mode", mode=(2,), amplitude=0.5)
    g = builtin_field("cosine_mode", mode=(2,))
    coarse, fine = one_mode_residuals(0.7, phi, g, TimeProfile.cosine(1.0), 64)
    assert coarse.sup_residual < 0.05
    assert math.log2(coarse.sup_residual / fine.sup_residual) > 0.2


def test_residual_one_mode_exact_constant_solution():
    # lam = 0, f = 0 keeps u identically 2; residuals sit at rounding level
    phi = builtin_field("constant", value=2.0)
    coarse, fine = one_mode_residuals(0.5, phi, phi, TimeProfile.zero(), 8)
    assert coarse.sup_residual < 1e-12 and fine.sup_residual < 1e-12


def test_residual_classical_limit_small():
    spec = ProblemSpec(dimension=1, rho=1.0, T=1.0, phi="cosine_mode")
    n = 2048
    times = np.linspace(0.0, 1.0, n + 1)
    sol = solve(spec, times, 2, 9)
    rep = residual(sol, spec, dt=1.0 / n)
    assert rep.sup_residual <= 1e-6


def test_residual_monotone_under_joint_refinement():
    f = TimeProfile.polynomial([0.5, 1.0])
    for rho in (0.3, 0.5, 0.8):
        spec = ProblemSpec(dimension=1, rho=rho, T=1.0, phi="cosine_mode",
                           source=((cos_field(1), f),))
        sups = []
        for n, mm in ((32, 128), (64, 256), (128, 512)):
            times = np.linspace(0.0, 1.0, n + 1)
            sol = solve(spec, times, 2, 9, mesh_M=mm)
            sups.append(residual(sol, spec, dt=1.0 / n).sup_residual)
        assert sups[0] > sups[1] > sups[2]


def test_residual_report_fields():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    times = np.linspace(0.0, 1.0, 33)
    sol = solve(spec, times, 2, 9)
    rep = residual(sol, spec, dt=1.0 / 32)
    assert isinstance(rep, ResidualReport)
    assert rep.sup_residual >= 0.0 and rep.initial_error >= 0.0
    assert rep.truncation_radius_sq == 2
    assert all(v >= 0.0 for v in rep.tail_norm_estimates)
    assert isinstance(rep.per_mode_worst, MultiIndex)
    assert abs(rep.per_mode_worst.components[0]) == 1


def test_residual_mesh_errors():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    sol = solve(spec, np.linspace(0.0, 1.0, 17), 2, 9)
    with pytest.raises(MeshError):
        residual(sol, spec, dt=0.1)  # wrong dt
    sol2 = solve(spec, np.array([0.0, 0.3, 1.0]), 2, 9)
    with pytest.raises(MeshError):
        residual(sol2, spec, dt=0.3)


def test_residual_rejects_solution_of_another_problem():
    spec = two_source_spec()
    times = np.linspace(0.0, 1.0, 9)
    sol = solve(spec, times, 6, 7, mesh_M=4)
    narrower = solve(spec, times, 2, 7, mesh_M=4)  # same data, truncated at k = 2
    unforced = ProblemSpec(dimension=2, rho=0.5, T=1.0, phi=cos_field(1, 2))  # 2 of 21 modes
    other_phi = ProblemSpec(dimension=2, rho=0.5, T=1.0, phi=cos_field(1, 2), source=spec.source)
    assert len(solve(unforced, times, 6, 7).lam) == 2 and len(sol.lam) == 21
    for s, p in ((sol, unforced), (solve(unforced, times, 6, 7), spec), (sol, other_phi)):
        with pytest.raises(DomainError, match="not solved from this problem"):
            residual(s, p, dt=1.0 / 8)
    assert residual(narrower, spec, dt=1.0 / 8).truncation_radius_sq == 2


# --- truncation tail -------------------------------------------------------------


def test_tail_zero_beyond_single_mode():
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi="cosine_mode")
    assert truncation_tail(spec, 1.0, 2, 1.0) == 0.0


def test_tail_geometric_decay():
    entries = {(n,): 2.0 ** (-abs(n)) for n in range(-20, 21) if n != 0}
    phi = SpectralField(entries, 401, dimension=1, real_valued=True)
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi)
    tails = [truncation_tail(spec, 1.0, j * j + 1, 1.0) for j in range(5, 11)]
    for coarse, fine in zip(tails, tails[1:]):
        assert fine <= 0.5 * coarse  # at least halves per unit of sqrt(k)
    assert tails[-1] > 0.0


def test_tail_slow_decay_persists():
    phi = builtin_field("hardy_littlewood", 1, k_max=10**4)
    spec = ProblemSpec(dimension=1, rho=0.5, T=1.0, phi=phi)
    t_small = truncation_tail(spec, 0.5, 4, 1.0)
    t_large = truncation_tail(spec, 0.5, 400, 1.0)
    assert t_large > 0.5 * t_small  # barely shrinks: log-type tail


def test_tail_time_scaling_and_source():
    phi = cos_field(3)  # |n|^2 = 9 >= k for k = 4
    spec = ProblemSpec(
        dimension=1, rho=0.5, T=1.0, phi=phi,
        source=((cos_field(3), TimeProfile.cosine(1.0)),),
    )
    base = truncation_tail(spec, 1.0, 4, 1.0)
    later = truncation_tail(spec, 1.0, 4, 2.0)
    # phi part scales by t^{-2 rho} = 1/2; source part is t-free
    phi_part = 2 * (9.0**1.0) * 0.25  # two modes, |c| = 0.5
    src_part = 2 * (9.0**1.0) * 0.25  # max |cos| = 1 over the probe grid
    assert base == pytest.approx(phi_part + src_part, rel=1e-12)
    assert later == pytest.approx(0.5 * phi_part + src_part, rel=1e-12)
    with pytest.raises(DomainError):
        truncation_tail(spec, 1.0, 4, 0.0)


def test_tail_sums_shared_source_rows_before_the_peak():
    # g1 and g2 share the row n = 3 outside the ball k = 2: its source is
    # g1 q1 + g2 q2 = 1 + t, peak 2 at t = T, so it adds 9^a * 4 (the two
    # factors' peaks taken apart would add 9^a * (1 + 1)); n = -4 is in g1 only
    g1 = SpectralField({(3,): 1.0, (-4,): 2.0, (1,): 5.0}, 17, dimension=1)
    g2 = SpectralField({(3,): 1.0, (0,): 7.0}, 10, dimension=1)
    spec = ProblemSpec(
        dimension=1, rho=0.5, T=1.0, phi="zero",
        source=((g1, TimeProfile.constant(1.0)), (g2, TimeProfile.polynomial([0.0, 1.0]))),
    )
    a = 1.5
    assert truncation_tail(spec, a, 2, 0.5) == pytest.approx(16.0**a * 4 + 9.0**a * 4, rel=1e-15)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_row_union_matches_np_unique(dimension):
    # rows drawn from a small box repeat often; negative components check
    # that the order is numeric, not that of the rows' bytes
    rng = np.random.default_rng(dimension)
    for n in (0, 1, 7, 500):
        rows = rng.integers(-4, 5, size=(n, dimension))
        union, where = solver._row_union(rows)
        want, want_where = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(union, want)
        assert np.array_equal(where, want_where.ravel())
        assert np.array_equal(union[where], rows)


# --- per-shell solves ---------------------------------------------------------------


def two_source_spec(rho=0.5):
    """2D data on shells |n|^2 = 0, 1, 2, 4, 5 with |g_n| over seven decades.

    With mesh_M = 4 the members of shell 5 end their refinement anywhere
    from M = 8 to M = 512, so a shell's members leave it at different levels.
    """
    modes = modes_within(2, 6)
    phi = SpectralField({m: 0.5 for m in modes}, 6, dimension=2)
    g1 = SpectralField(
        {m: 10.0 ** -(i % 7) for i, m in enumerate(modes)}, 6, dimension=2
    )
    g2 = SpectralField(
        {m: 1j * 10.0 ** -((3 * i) % 5) for i, m in enumerate(modes)}, 6, dimension=2
    )
    return ProblemSpec(
        dimension=2, rho=rho, T=1.0, phi=phi,
        source=(
            (g1, TimeProfile.cosine(9.0)),
            (g2, TimeProfile.polynomial([0.0, 1.0, -2.0])),
        ),
    )


def test_solve_matches_solve_mode():
    """The field path sums sum_i g_i conv(q_i), solve_mode conv(sum_i g_i q_i).

    The two orders agree to rounding: values within 1e-14 of each mode's
    max|w|, and estimates within 1e-6 relative.  Consecutive levels'
    discrepancies differ by about 4x, so equal estimates also mean each mode
    ended on the same mesh level.
    """
    spec = two_source_spec()
    times = np.linspace(0.0, 1.0, 5)
    sol = solve(spec, times, 6, 7, mesh_M=4)
    mesh = GradedMesh(1.0, 4, default_grading(spec.rho))
    assert list(sol.mode_solutions) == modes_within(2, 6)
    for idx, s in sol.mode_solutions.items():
        f_n = TimeProfile.weighted_sum([(g.get(idx), q) for g, q in spec.source])
        direct = solve_mode(spec.rho, float(idx.norm_sq), 0.5, f_n, times, mesh)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(s.values - direct.values)) <= 1e-14 * scale, idx
        assert s.quadrature_error_est == pytest.approx(direct.quadrature_error_est, rel=1e-6), idx


def test_solve_does_shell_work_once(monkeypatch):
    kernel_points = []
    homog_calls = []
    kernel_cumulative = mlf.kernel_cumulative
    mlf_neg_array = mlf.mlf_neg_array

    def counting_kernel(rho, lam, x):
        lam, x = np.broadcast_arrays(lam, x)
        kernel_points.extend(zip(lam.ravel().tolist(), x.ravel().tolist()))
        return kernel_cumulative(rho, lam, x)

    def counting_mlf(params, t):
        if params.mu == 1.0:
            homog_calls.append(params)
        return mlf_neg_array(params, t)

    spec = two_source_spec()
    times = np.linspace(0.0, 1.0, 5)
    mesh = GradedMesh(1.0, 4, default_grading(spec.rho))
    monkeypatch.setattr(mlf, "kernel_cumulative", counting_kernel)
    monkeypatch.setattr(mlf, "mlf_neg_array", counting_mlf)
    # per mode alone, the kernel points are (positive times) x (final mesh M):
    # the first level evaluates its M0 nodes past 0, each doubling M0 2^j more
    positive = np.count_nonzero(times > 0.0)
    final_M = {}
    for idx in modes_within(2, 6):
        kernel_points.clear()
        f_n = TimeProfile.weighted_sum([(g.get(idx), q) for g, q in spec.source])
        solve_mode(spec.rho, float(idx.norm_sq), 0.5, f_n, times, mesh)
        lam = idx.norm_sq
        final_M[lam] = max(final_M.get(lam, 0), len(kernel_points) // positive)
    kernel_points.clear()
    homog_calls.clear()
    sol = solve(spec, times, 6, 7, mesh_M=4)
    assert len(sol.mode_solutions) == 21 and len(final_M) == 5
    assert len(homog_calls) == 1
    assert len(kernel_points) == len(set(kernel_points))
    # a shell refines until its last member stops
    assert len(kernel_points) == positive * sum(final_M.values())
    assert max(final_M.values()) >= 8 * min(final_M.values())


def test_solve_errors_through_shells():
    spec = ProblemSpec(
        dimension=1, rho=0.5, T=1.0, phi="cosine_mode",
        source=((cos_field(1), TimeProfile.cosine(3.0)),),
    )
    with pytest.raises(ConvergenceError):
        solve(spec, np.array([0.0, 1.0]), 2, 5, mesh_M=4, tolerance=1e-15)
    with pytest.raises(DomainError):
        solve(spec, np.array([0.0, 0.5, 0.2]), 2, 5)  # unsorted
    with pytest.raises(DomainError):
        solve(spec, np.array([-0.1, 0.5]), 2, 5)  # negative


def test_solve_shells_results_independent_of_the_other_shells():
    spec = two_source_spec()
    times = np.linspace(0.0, 1.0, 5)
    index, phi, weights = solver._solved_modes(spec, 6)
    lam = spectra._norm_sq(index).astype(float)
    profiles = [q for _g, q in spec.source]
    mesh = GradedMesh(1.0, 4, default_grading(0.5))

    def shells(rows):
        return modal.solve_shells(0.5, lam[rows], phi[rows], weights[rows], profiles, times, mesh)

    values, est = shells(slice(None))
    # shells 0, 1, 2 in one call and shells 4, 5 in another
    for rows in (lam < 4.0, lam >= 4.0):
        part_values, part_est = shells(rows)
        assert np.array_equal(part_values, values[rows])
        assert np.array_equal(part_est, est[rows])


def test_residual_blocks_match_one_batch(monkeypatch):
    spec = two_source_spec()
    times = np.linspace(0.0, 1.0, 9)
    sol = solve(spec, times, 6, 7, mesh_M=4)
    whole = residual(sol, spec, dt=1.0 / 8)
    # 3 grid points per block: every time slice is synthesized in its own block
    monkeypatch.setattr(solver, "_RESIDUAL_BLOCK_POINTS", 3)
    assert residual(sol, spec, dt=1.0 / 8) == whole


def test_solve_kernel_blocks_match_one_block(monkeypatch):
    spec = two_source_spec()
    times = np.linspace(0.0, 1.0, 5)
    whole = solve(spec, times, 6, 7, mesh_M=4)
    # 7 points per kernel call: every shell's times are split, one time a call
    monkeypatch.setattr(modal, "_KERNEL_BLOCK_POINTS", 7)
    blocked = solve(spec, times, 6, 7, mesh_M=4)
    assert np.array_equal(blocked.values, whole.values)
    assert np.array_equal(blocked.quadrature_error_est, whole.quadrature_error_est)


def test_solve_and_residual_build_no_multi_index_per_mode(monkeypatch):
    built = []
    post_init = MultiIndex.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    modes = modes_within(2, 40)
    phi = SpectralField({m: 1.0 / (1.0 + m.norm_sq) ** 2 for m in modes}, 40, dimension=2)
    spec = ProblemSpec(
        dimension=2, rho=0.5, T=1.0, phi=phi,
        source=((phi, TimeProfile.polynomial([1.0, -0.5])),),
    )
    times = np.linspace(0.0, 1.0, 9)
    monkeypatch.setattr(MultiIndex, "__post_init__", counting_post_init)
    sol = solve(spec, times, 40, 13)
    report = residual(sol, spec, dt=1.0 / 8)
    assert len(sol.lam) == len(modes) == 121
    assert built == [report.per_mode_worst]
    # mode_history builds its argument, and no view of the other modes
    history = sol.mode_history((3, -5))
    absent = sol.mode_history((7, 0))
    assert [m.components for m in built] == [report.per_mode_worst.components, (3, -5), (7, 0)]
    row = [m.components for m in modes].index((3, -5))
    assert np.array_equal(history, sol.values[row]) and np.all(absent == 0.0)


@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_solve_shells_edge_shells(rho):
    # shells lam = 0 (two members), lam = 1 (no member has a source), lam = 2
    lam = np.array([0.0, 1.0, 0.0, 2.0, 1.0])
    phi = np.array([1.0, 2.0, 0.0, -1.0, 0.5j])
    weights = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.5], [0.0, 0.0]])
    profiles = [TimeProfile.constant(1.0), TimeProfile.constant(-2.0)]
    times = np.linspace(0.0, 1.0, 5)
    mesh = GradedMesh(1.0, 8, default_grading(rho))
    values, est = modal.solve_shells(rho, lam, phi, weights, profiles, times, mesh)
    # a constant source is exact under product integration: the kernel mass
    # telescopes to its running integral
    homog = mlf.mlf_neg_array(mlf.MlfParams(rho, 1.0), lam[:, None] * times**rho)[0]
    cum = mlf.kernel_cumulative(rho, lam[:, None], times)
    exact = phi[:, None] * homog + (weights @ np.array([1.0, -2.0]))[:, None] * cum
    assert np.max(np.abs(values - exact)) <= 1e-14
    if rho == 1.0:
        assert np.max(np.abs(values[2] - (-2.0 * times))) <= 1e-14  # w = phi + c t at lam = 0
    silent = [1, 4]
    assert np.all(est[silent] == 0.0)
    assert np.array_equal(values[silent], phi[silent, None] * homog[silent])
    assert np.all(values[:, 0] == phi)
