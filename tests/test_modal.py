"""Mode solver and L1 differentiator tests.

Closed-form anchors used below (independent of any implementation detail):
  Caputo D^{1/2} of h(t) = t equals t^{1/2}/Gamma(3/2); at t = 1 this is
    1/Gamma(1.5) = 1.1283791670955126.
  For rho = 1, lam = 1, phi = 0, f = e^{-t}: w(t) = t e^{-t}, so
    w(1) = 0.36787944117144233.
"""

import math

import mpmath
import numpy as np
import pytest

from fracspec.errors import ConvergenceError, DomainError, MeshError
from fracspec.modal import (
    GradedMesh,
    ModeSolution,
    TimeProfile,
    _kernel_level,
    caputo_l1,
    default_grading,
    solve_mode,
    solve_shells,
)
from fracspec.mlf import MlfParams, mlf_kernel_primitive, mlf_neg


# --- profiles -----------------------------------------------------------------


def test_profile_constant_and_zero():
    p = TimeProfile.constant(2.5 - 1j)
    assert p(0.7) == 2.5 - 1j
    assert np.all(p(np.linspace(0, 3, 7)) == 2.5 - 1j)
    assert not p.is_zero
    assert TimeProfile.zero().is_zero
    assert TimeProfile.polynomial([0, 0]).is_zero
    assert not TimeProfile.cosine(1.0).is_zero


def test_profile_polynomial_horner():
    p = TimeProfile.polynomial([1.0, -2.0, 3.0])  # 1 - 2t + 3t^2
    t = np.array([0.0, 0.5, 2.0])
    assert np.allclose(p(t), 1.0 - 2.0 * t + 3.0 * t**2, rtol=0, atol=1e-15)


def test_profile_cosine_exponential():
    c = TimeProfile.cosine(2.0, phase=0.3)
    e = TimeProfile.exponential(-0.7)
    t = np.linspace(0.0, 4.0, 9)
    assert np.allclose(c(t), np.cos(2.0 * t + 0.3))
    assert np.allclose(e(t), np.exp(-0.7 * t))


def test_profile_sampled_interpolates_and_guards_range():
    nodes = np.array([0.0, 1.0, 2.0])
    vals = np.array([1.0, 3.0, -1.0 + 2j])
    p = TimeProfile.sampled(nodes, vals)
    assert p(0.0) == 1.0
    assert p(0.5) == 2.0  # linear between samples
    assert abs(p(1.5) - (1.0 + 1j)) < 1e-15
    with pytest.raises(DomainError):
        p(2.5)
    with pytest.raises(DomainError):
        TimeProfile.sampled([0.0, 0.0, 1.0], [1, 2, 3])


# --- meshes -------------------------------------------------------------------


def test_graded_mesh_nodes():
    m = GradedMesh(2.0, 4, 2.0)
    expect = 2.0 * (np.arange(5) / 4.0) ** 2
    assert np.allclose(m.nodes(), expect, rtol=0, atol=1e-15)
    assert m.nodes()[0] == 0.0 and m.nodes()[-1] == 2.0
    assert np.all(np.diff(m.nodes()) > 0)
    d = m.doubled()
    assert d.M == 8 and d.T == m.T and d.r == m.r


def test_graded_mesh_validation():
    with pytest.raises(MeshError):
        GradedMesh(0.0, 4, 2.0)
    with pytest.raises(MeshError):
        GradedMesh(1.0, 0, 2.0)
    with pytest.raises(MeshError):
        GradedMesh(1.0, 4, 0.5)


def test_default_grading_clipped():
    assert default_grading(1.0) == 2.0
    assert default_grading(0.25) == 4.0  # 2/rho = 8 clipped
    assert default_grading(0.9) == pytest.approx(2.0 / 0.9)
    assert default_grading(3.0) == 1.0  # never below 1


# --- L1 differentiators ---------------------------------------------------------


def test_caputo_linear_ramp_frozen_value():
    # D^{1/2} t = t^{1/2}/Gamma(1.5); the L1 scheme reproduces it exactly
    # for piecewise-linear input, so the value at t = 1 is grid-independent.
    for n in (8, 64, 256):
        dt = 1.0 / n
        h = dt * np.arange(n + 1)
        out = caputo_l1(h, 0.5, dt)
        assert out[-1] == pytest.approx(1.1283791670955126, abs=1e-12)
        t = dt * np.arange(1, n + 1)
        assert np.allclose(out, np.sqrt(t) / math.gamma(1.5), atol=1e-12)


def test_caputo_constant_is_zero():
    out = caputo_l1(np.full(20, 3.7), 0.4, 0.1)
    assert np.all(out == 0.0)


def test_caputo_quadratic_convergence_order():
    # h = t^2 has exact Caputo derivative 2 t^{2-rho}/Gamma(3-rho);
    # L1 error at fixed t shrinks like dt^{2-rho}.
    rho = 0.5
    errs = []
    for n in (32, 64, 128):
        dt = 1.0 / n
        t = dt * np.arange(n + 1)
        out = caputo_l1(t**2, rho, dt)
        exact = 2.0 * t[1:] ** (2 - rho) / math.gamma(3 - rho)
        errs.append(np.max(np.abs(out - exact)))
    rate1 = math.log2(errs[0] / errs[1])
    rate2 = math.log2(errs[1] / errs[2])
    assert rate1 > 1.2 and rate2 > 1.2


def test_caputo_fft_path_matches_direct():
    rng = np.random.default_rng(7)
    n = 5000  # a long history against the direct convolution
    h = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    out = caputo_l1(h, 0.3, 0.01)
    d = np.diff(h)
    j = np.arange(n, dtype=float)
    b = (j + 1) ** 0.7 - j**0.7
    direct = np.convolve(d, b)[:n] * (0.01**-0.3 / math.gamma(1.7))
    assert np.allclose(out, direct, rtol=1e-11, atol=1e-11)


def test_caputo_batch_matches_rows():
    # a (modes x times) array, real and complex rows mixed, equals its
    # row-by-row calls bit for bit, and each row the direct convolution to
    # 1e-15 of its largest value, at the lengths of the residual workflows
    rng = np.random.default_rng(5)
    for n, rho in ((1, 0.5), (32, 0.7), (64, 0.3), (100, 0.9)):
        h = rng.normal(size=(4, n + 1)) + 1j * rng.normal(size=(4, n + 1))
        h[[0, 2]] = h[[0, 2]].real
        batch = caputo_l1(h, rho, 1.0 / n)
        assert batch.shape == (4, n) and batch.dtype == complex
        j = np.arange(n, dtype=float)
        b = (j + 1) ** (1 - rho) - j ** (1 - rho)
        for row, hist in zip(batch, h):
            alone = caputo_l1(hist, rho, 1.0 / n)
            assert alone.dtype == (float if np.all(hist.imag == 0.0) else complex)
            assert np.array_equal(row, alone)
            direct = np.convolve(np.diff(hist), b)[:n] * (n**rho / math.gamma(2 - rho))
            assert np.max(np.abs(row - direct)) <= 1e-15 * np.max(np.abs(direct))
        real = caputo_l1(h[[0, 2]].real, rho, 1.0 / n)
        assert real.dtype == float and np.array_equal(real, batch[[0, 2]].real)
        assert np.all(batch[[0, 2]].imag == 0.0)
    assert caputo_l1(np.zeros((0, 5)), 0.5, 0.1).shape == (0, 4)


def test_caputo_domain_errors():
    with pytest.raises(DomainError):
        caputo_l1([1.0, 2.0], 1.0, 0.1)
    with pytest.raises(DomainError):
        caputo_l1([1.0, 2.0], 0.0, 0.1)
    with pytest.raises(DomainError):
        caputo_l1([1.0, 2.0], 0.5, 0.0)
    with pytest.raises(DomainError):
        caputo_l1([1.0], 0.5, 0.1)
    with pytest.raises(DomainError):  # time runs along the last axis
        caputo_l1([[1.0], [2.0]], 0.5, 0.1)


def test_l1_linearity():
    rng = np.random.default_rng(11)
    h1 = rng.normal(size=33)
    h2 = rng.normal(size=33)
    a = caputo_l1(2.0 * h1 - 3.0 * h2, 0.6, 0.02)
    b = 2.0 * caputo_l1(h1, 0.6, 0.02) - 3.0 * caputo_l1(h2, 0.6, 0.02)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


# --- convolution --------------------------------------------------------------


def convolve(rho, lam, f, t, mesh):
    """The product-integration convolution of f with the kernel at t, on mesh alone."""
    _, conv = _kernel_level(rho, np.array([lam]), np.array([t]), mesh, [f])
    return complex(conv[0, 0, 0])


def test_convolution_constant_source_exact_any_mesh():
    # Constant f makes the product-integration rule exact: the result is the
    # integrated kernel regardless of subdivision count.
    rho, lam, t = 0.6, 3.0, 1.7
    want = 2.5 * mlf_kernel_primitive(rho, lam, 0.0, t)
    for M in (1, 3, 17):
        got = convolve(rho, lam, TimeProfile.constant(2.5), t, GradedMesh(2.0, M, 2.0))
        assert got == pytest.approx(want, rel=1e-13)


def test_convolution_classical_exponential_oracle():
    # rho = 1, lam = 1, f = e^{-t}: w(t) = t e^{-t}.
    mesh = GradedMesh(1.0, 2048, 2.0)
    got = convolve(1.0, 1.0, TimeProfile.exponential(-1.0), 1.0, mesh)
    assert got == pytest.approx(0.36787944117144233, abs=5e-8)


def test_convolution_doubling_ratios():
    # Self-convergence under mesh doubling: error ratios stay below 0.6
    # once M reaches 64.
    rho, lam, t = 0.6, 4.0, 1.5
    f = TimeProfile.cosine(2.0)
    r = default_grading(rho)
    ref = convolve(rho, lam, f, t, GradedMesh(t, 4096, r))
    errs = [
        abs(convolve(rho, lam, f, t, GradedMesh(t, M, r)) - ref)
        for M in (64, 128, 256, 512)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        assert fine < 0.6 * coarse


# --- mode solutions -------------------------------------------------------------


def test_solve_mode_homogeneous_matches_mlf():
    rho, lam = 0.5, 4.0
    times = np.linspace(0.0, 2.0, 9)
    sol = solve_mode(rho, lam, 1.5, TimeProfile.zero(), times, GradedMesh(2.0, 16, 2.0))
    assert isinstance(sol, ModeSolution)
    assert sol.quadrature_error_est == 0.0
    for t, w in zip(times, sol.values):
        want = 1.5 * mlf_neg(MlfParams(rho, 1.0), lam * t**rho).value
        assert w == pytest.approx(want, rel=1e-12)


def test_solve_mode_initial_value_exact():
    sol = solve_mode(
        0.7, 9.0, 0.3 - 2j, TimeProfile.cosine(1.0), np.array([0.0, 0.5, 1.0]),
        GradedMesh(1.0, 64, 2.0),
    )
    assert sol.values[0] == 0.3 - 2j  # exact, not approximate


def test_solve_mode_constant_source_closed_form():
    # w(t) = phi E_{rho,1}(-lam t^rho) + c (1 - E_{rho,1}(-lam t^rho))/lam.
    rho, lam, phi, c = 0.4, 2.0, 1.0, 3.0
    times = np.array([0.0, 0.25, 1.0, 2.0])
    sol = solve_mode(rho, lam, phi, TimeProfile.constant(c), times, GradedMesh(2.0, 8, 2.0))
    for t, w in zip(times, sol.values):
        e1 = mlf_neg(MlfParams(rho, 1.0), lam * t**rho).value
        want = phi * e1 + c * (1.0 - e1) / lam
        assert w == pytest.approx(want, rel=1e-11, abs=1e-14)
    assert sol.quadrature_error_est < 1e-13


def test_solve_mode_classical_limit_ode():
    # rho = 1 reduces to w' + lam w = f; compare with the standard
    # integrating-factor solution for f = cos t, lam = 3, phi = 2:
    # w = (phi - 3/10) e^{-3t} + (3 cos t + sin t)/10.
    lam, phi = 3.0, 2.0
    times = np.linspace(0.0, 2.0, 17)
    sol = solve_mode(1.0, lam, phi, TimeProfile.cosine(1.0), times, GradedMesh(2.0, 2048, 2.0))
    want = (phi - 0.3) * np.exp(-3.0 * times) + (3.0 * np.cos(times) + np.sin(times)) / 10.0
    assert np.allclose(sol.values.real, want, atol=1e-8)
    assert np.max(np.abs(sol.values.imag)) == 0.0


def test_solve_mode_linearity():
    rho, lam = 0.6, 5.0
    times = np.array([0.0, 0.3, 0.9, 1.8])
    mesh = GradedMesh(2.0, 128, default_grading(rho))
    f1 = TimeProfile.polynomial([1.0, 0.5])
    f2 = TimeProfile.polynomial([0.3, -0.2, 0.1])
    fsum = TimeProfile.polynomial([1.3, 0.3, 0.1])
    s1 = solve_mode(rho, lam, 1.0 + 1j, f1, times, mesh)
    s2 = solve_mode(rho, lam, -0.5, f2, times, mesh)
    s12 = solve_mode(rho, lam, 0.5 + 1j, fsum, times, mesh)
    assert np.allclose(s12.values, s1.values + s2.values, rtol=1e-11, atol=1e-13)


def test_solve_mode_decay_bound_homogeneous():
    # |w| never exceeds |phi| and is nonincreasing when f = 0.
    times = np.linspace(0.0, 3.0, 40)
    for rho in (0.3, 0.7, 1.0):
        for lam in (0.5, 10.0):
            sol = solve_mode(rho, lam, 2.0, TimeProfile.zero(), times, GradedMesh(3.0, 4, 1.0))
            mags = np.abs(sol.values)
            assert np.all(mags <= 2.0 + 1e-14)
            assert np.all(np.diff(mags) <= 1e-14)


def test_solve_mode_transfer_bound():
    # Uniform-in-lambda decay: |w(t)| (1 + lam t^rho) stays below C |phi|
    # with a modest constant, for lam in {1, 4, 100} and t in (0, 2].
    times = np.linspace(0.05, 2.0, 25)
    for rho in (0.4, 0.7, 1.0):
        for lam in (1.0, 4.0, 100.0):
            sol = solve_mode(rho, lam, 1.0, TimeProfile.zero(), times, GradedMesh(2.0, 4, 1.0))
            ratio = np.abs(sol.values) * (1.0 + lam * times**rho)
            assert np.max(ratio) < 3.0


def forced_reference(rho, lam, coeffs, ts, phi=0.0):
    """Exact mode values for initial value phi and the source sum_j a_j t^j, in mpmath.

    w(t) = phi E_{rho,1}(-lam t^rho) + sum_j a_j j! t^(rho+j) E_{rho,rho+j+1}(-lam t^rho),
    each E summed as sum_k (-z)^k / Gamma(rho k + b) at a precision that covers
    its cancellation (about 0.43 s digits for s = lam^(1/rho) t).  Shares no
    code with fracspec.
    """
    s_max = max(lam ** (1.0 / rho) * t for t in ts)
    out = []
    with mpmath.workdps(int(0.4343 * s_max) + 30):
        r = mpmath.mpf(rho)
        tiny = mpmath.mpf(10) ** -30
        table = {}

        def rgamma(m, j):
            # 1/Gamma(r m + 1 + j), from 1/Gamma(r m + 1) by the recurrence
            if (m, j) not in table:
                table[m, j] = mpmath.rgamma(r * m + 1) if j == 0 else rgamma(m, j - 1) / (r * m + j)
            return table[m, j]

        def series(z, s, shift, j):
            # sum_k (-z)^k / Gamma(r (k + shift) + 1 + j)
            e = mpmath.mpf(0)
            power = mpmath.mpf(1)
            k = 0
            small_run = 0
            # the terms peak near rho k + b = s, then fall off faster than geometrically
            while small_run < 2:
                term = power * rgamma(k + shift, j)
                e += term
                past_peak = rho * (k + shift) + j + 1 > s + 2.0
                small_run = small_run + 1 if past_peak and abs(term) < tiny else 0
                power *= -z
                k += 1
            return e

        for t in ts:
            tt = mpmath.mpf(t)
            z = lam * tt**r
            s = lam ** (1.0 / rho) * t
            total = phi * series(z, s, 0, 0) if phi else mpmath.mpf(0)
            for j, a in enumerate(coeffs):
                total += a * math.factorial(j) * tt ** (r + j) * series(z, s, 1, j)
            out.append(float(total))
    return np.array(out)


def test_quadrature_estimate_bounds_true_error():
    # the mesh-doubling certificate must dominate the true convolution error;
    # points are drawn where the reference stays affordable (s <= 100)
    coeffs = (1.0, -0.5, 0.25)
    rng = np.random.default_rng(4)
    for rho in (0.2, 0.5, 0.7, 0.9, 0.99):
        for lam in (1.0, 4.0, 25.0, 100.0):
            ts = min(1.0, 100.0 / lam ** (1.0 / rho)) * np.sort(rng.uniform(0.0, 1.0, 3))
            # with phi = 1 at t <= 1e-8 the values sit near 0.3 and, at M0 = 64,
            # the mesh discrepancy falls below their rounding: the floor covers it
            for phi in (0.0, 1.0) if (rho, lam) == (0.2, 100.0) else (0.0,):
                ref = forced_reference(rho, lam, coeffs, ts, phi)
                for m0 in (16, 64):
                    mesh = GradedMesh(1.0, m0, default_grading(rho))
                    sol = solve_mode(rho, lam, phi, TimeProfile.polynomial(coeffs), ts, mesh)
                    err = float(np.max(np.abs(sol.values - ref)))
                    est = sol.quadrature_error_est
                    assert err <= est, (rho, lam, phi, m0, err, est)


def test_solve_mode_validation():
    mesh = GradedMesh(1.0, 8, 2.0)
    f = TimeProfile.zero()
    with pytest.raises(DomainError):
        solve_mode(0.5, 1.0, 1.0, f, np.array([0.5, 0.2]), mesh)  # unsorted
    with pytest.raises(DomainError):
        solve_mode(0.5, 1.0, 1.0, f, np.array([0.0, 1.5]), mesh)  # beyond T
    with pytest.raises(DomainError):
        solve_mode(0.5, 1.0, 1.0, f, np.array([]), mesh)
    with pytest.raises(DomainError):
        solve_mode(0.5, 1.0, 1.0, f, np.array([1.0]), mesh, tolerance=-1.0)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
def test_solve_shells_refuses_tolerance_not_positive_and_finite(tolerance):
    with pytest.raises(DomainError, match="tolerance"):
        solve_shells(
            0.5, [1.0], [0.0], [[1.0]], [TimeProfile.constant(1.0)], np.array([1.0]),
            GradedMesh(1.0, 4, 2.0), tolerance=tolerance,
        )


def test_solve_mode_convergence_error_on_unreachable_tolerance():
    with pytest.raises(ConvergenceError):
        solve_mode(
            0.5, 1.0, 0.0, TimeProfile.cosine(3.0), np.array([1.0]),
            GradedMesh(1.0, 4, 2.0), tolerance=1e-15,
        )

