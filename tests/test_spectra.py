"""Torus transforms: orthogonality fixtures, roundtrips, norms, embedding ratio."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import spectra
from fracspec.counterexample import hl_coefficients, holder_constant
from fracspec.errors import AliasError, DomainError, HypothesisError, ZeroModeError
from fracspec.spectra import (
    DerivMultiIndex,
    GridField,
    MultiIndex,
    SpectralField,
    analyze,
    apply_derivative_symbol,
    apply_fractional_power,
    embedding_constant,
    liouville_norm_sq,
    modes_within,
    radial_weight_sq,
    synthesize,
    tail_verdicts,
)

TWO_PI = 2.0 * math.pi


def random_field(rng, dim, k, real=False):
    entries = {}
    for idx in modes_within(dim, k):
        entries[idx] = complex(rng.standard_normal(), rng.standard_normal())
    if real:
        sym = {
            idx: 0.5 * (val + entries[-idx].conjugate()) for idx, val in entries.items()
        }
        return SpectralField(sym, k, dimension=dim, real_valued=True)
    return SpectralField(entries, k, dimension=dim)


def test_multi_index_norm_exact_at_large_components():
    n = MultiIndex((2**20, -(2**20), 3))
    assert n.norm_sq == 2**40 + 2**40 + 9


def test_modes_within_counts():
    # 1d: |n|^2 < 10 -> n in -3..3
    assert len(modes_within(1, 10)) == 7
    # 2d: |n|^2 < 2 -> (0,0) and four unit vectors
    assert len(modes_within(2, 2)) == 5
    assert len(modes_within(3, 1)) == 1


def test_analyze_cosine_single_mode():
    m = 9
    x = GridField.axis_points(m)
    g = GridField(np.cos(x))
    c = analyze(g, 10)
    assert c.get(1) == pytest.approx(0.5, abs=1e-14)
    assert c.get(-1) == pytest.approx(0.5, abs=1e-14)
    for idx, val in c.items():
        if idx.components not in ((1,), (-1,)):
            assert abs(val) < 1e-14
    assert c.real_valued


def test_analyze_constant_field():
    g = GridField(np.ones(7))
    c = analyze(g, 4)
    assert c.get(0) == pytest.approx(1.0, abs=1e-15)
    assert abs(c.get(1)) < 1e-15 and abs(c.get(-1)) < 1e-15


def test_synthesize_known_fields():
    c = SpectralField({0: 1.0}, 1)
    g = synthesize(c, 5)
    np.testing.assert_allclose(g.samples, np.ones(5), atol=1e-15)
    c = SpectralField({1: 0.5, -1: 0.5}, 2, real_valued=True)
    g = synthesize(c, 9)
    np.testing.assert_allclose(g.samples.real, np.cos(GridField.axis_points(9)), atol=1e-14)


@pytest.mark.parametrize("dim,k,m", [(1, 26, 11), (2, 8, 7), (3, 5, 5)])
def test_roundtrip_analyze_synthesize(dim, k, m):
    rng = np.random.default_rng(42 + dim)
    c = random_field(rng, dim, k)
    g = synthesize(c, m)
    back = analyze(g, k)
    for idx, val in c.items():
        assert back.get(idx) == pytest.approx(val, abs=1e-12)


def test_parseval_contract():
    rng = np.random.default_rng(7)
    for dim, k, m in ((1, 26, 15), (2, 5, 9)):
        c = random_field(rng, dim, k)
        g = synthesize(c, m)
        lhs = (TWO_PI / m) ** dim * float(np.sum(np.abs(g.samples) ** 2))
        rhs = TWO_PI**dim * c.coefficient_norm_sq()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_real_grid_gives_hermitian_coefficients():
    rng = np.random.default_rng(3)
    m = 9
    g = GridField(rng.standard_normal((m, m)))
    c = analyze(g, 9)
    for idx, val in c.items():
        assert c.get(-idx) == pytest.approx(val.conjugate(), abs=1e-13)
    assert c.real_valued


def test_alias_error_paths():
    g = GridField(np.ones(5))  # Nyquist range 2
    with pytest.raises(AliasError):
        analyze(g, 10)  # needs |n| up to 3
    c = SpectralField({3: 1.0}, 10)
    with pytest.raises(AliasError):
        synthesize(c, 5)
    # boundary: |n|^2 < 5 means |n| <= 2, fits M=5 exactly
    analyze(g, 5)
    synthesize(SpectralField({2: 1.0}, 5), 5)


def test_grid_field_validation():
    with pytest.raises(DomainError):
        GridField(np.ones(4))  # even
    with pytest.raises(DomainError):
        GridField(np.ones(1))  # too small
    with pytest.raises(DomainError):
        GridField(np.ones((5, 7)))  # not a cube
    f = GridField.from_flat(np.arange(25.0), 2, 5)
    assert f.samples.shape == (5, 5)
    assert f.samples[1, 2] == 7.0  # row-major order


def test_spectral_field_validation():
    with pytest.raises(DomainError):
        SpectralField({3: 1.0}, 9)  # |n|^2 = 9 not < 9
    with pytest.raises(DomainError):
        SpectralField({}, 4)  # dimension unknowable
    SpectralField({}, 4, dimension=2)
    with pytest.raises(DomainError):
        SpectralField({(1, 0): 1.0, (0, 1): 2.0}, 4, real_valued=True)  # no conjugates


def test_liouville_norm_values():
    c = SpectralField({1: 0.5, -1: 0.5}, 2)
    assert liouville_norm_sq(c, 1.0) == pytest.approx(1.0, rel=1e-15)
    c0 = SpectralField({0: 3.0}, 1)
    for a in (-2.0, 0.0, 0.7, 5.0):
        assert liouville_norm_sq(c0, a) == pytest.approx(9.0, rel=1e-15)


def test_liouville_norm_monotone_in_a():
    rng = np.random.default_rng(11)
    c = random_field(rng, 2, 9)
    values = [liouville_norm_sq(c, a) for a in (-1.0, 0.0, 0.4, 0.5, 1.0, 2.0)]
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


def test_radial_weight_sq_folds_equal_radii():
    f = SpectralField({(0, 0): 5.0, (1, 0): 1.0, (0, -1): 2j, (1, 1): 3.0}, 3, dimension=2)
    radii, weight_sq = radial_weight_sq(f)
    assert radii.tolist() == [1.0, math.sqrt(2.0)]
    assert weight_sq.tolist() == [5.0, 9.0]


# --- array storage against the per-entry loops it replaced -----------------------


def loop_analyze(g, k):
    m = g.points_per_axis
    fhat = np.fft.fftn(g.samples) / (m**g.dimension)
    entries = {}
    for idx in modes_within(g.dimension, k):
        key = tuple(c % m for c in idx.components)
        phase = -1.0 if (sum(idx.components) % 2) else 1.0
        entries[idx] = phase * complex(fhat[key])
    if g.is_real():
        sym = {}
        for idx, val in entries.items():
            mirror = entries.get(-idx, 0j)
            sym[idx] = 0.5 * (val + mirror.conjugate())
        entries = sym
    return entries


def loop_synthesize(c, m):
    cube = np.zeros((m,) * c.dimension, dtype=complex)
    for idx, val in c.items():
        key = tuple(comp % m for comp in idx.components)
        phase = -1.0 if (sum(idx.components) % 2) else 1.0
        cube[key] += phase * val
    samples = np.fft.ifftn(cube) * (m**c.dimension)
    if c.real_valued:
        samples = samples.real.astype(complex)
    return samples


def loop_liouville_norm_sq(c, a):
    total = 0.0
    for idx, val in c.items():
        total += (1.0 + idx.norm_sq) ** a * (val.real**2 + val.imag**2)
    return total


def loop_radial_weight_sq(c):
    norm_sq = np.fromiter((idx.norm_sq for idx, _ in c.items()), dtype=float, count=len(c))
    vals = np.fromiter((val for _, val in c.items()), dtype=complex, count=len(c))
    keep = norm_sq > 0.0
    shells, member = np.unique(norm_sq[keep], return_inverse=True)
    return np.sqrt(shells), np.bincount(member, weights=np.abs(vals[keep]) ** 2)


@pytest.mark.parametrize("dim, k, m", [(1, 26, 11), (2, 20, 11), (3, 10, 9)])
@pytest.mark.parametrize("real", [False, True])
def test_array_transforms_match_entry_loops(dim, k, m, real):
    rng = np.random.default_rng(10 * dim + real)
    entries = dict(random_field(rng, dim, k, real=real).items())
    zero = MultiIndex((0,) * dim)
    entries[zero] = complex(entries[zero].real, -0.0)  # its own mirror: still Hermitian
    c = SpectralField(entries, k, dimension=dim, real_valued=real)
    samples = synthesize(c, m).samples
    assert np.array_equal(samples, loop_synthesize(c, m))
    g = GridField(samples)
    back = analyze(g, k)
    want = loop_analyze(g, k)
    assert back.real_valued == real and list(back.entries) == list(want)
    assert np.array_equal(
        np.array(list(back.entries.values())), np.array(list(want.values()))
    )
    for fld in (c, back):
        for a in (-1.0, 0.3, 0.5, 1.7):
            assert liouville_norm_sq(fld, a) == loop_liouville_norm_sq(fld, a)
        for got, ref in zip(radial_weight_sq(fld), loop_radial_weight_sq(fld)):
            assert np.array_equal(got, ref)


def test_array_paths_build_no_multi_index(monkeypatch):
    built = []
    post_init = MultiIndex.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    grid = GridField(np.random.default_rng(400).standard_normal((41, 41, 41)))
    monkeypatch.setattr(MultiIndex, "__post_init__", counting_post_init)
    c = analyze(grid, 400)
    synthesize(c, 41)
    radial_weight_sq(c)
    liouville_norm_sq(c, 1.5)
    hl = hl_coefficients(2**10).field()
    holder_constant(hl, 2 * 2**10 + 3, 0.5)
    assert len(built) == 0
    assert len(c) == len(modes_within(3, 400)) == 33371 and len(hl) == 2**11


def test_from_arrays_rejects_bad_input():
    index = np.array([[0, 0], [1, 0], [-1, 0]])
    values = np.array([1.0, 2.0 + 1j, 2.0 - 1j])
    assert len(SpectralField.from_arrays(index, values, 2, real_valued=True)) == 3
    with pytest.raises(DomainError, match="truncation"):
        SpectralField.from_arrays([[1, 1]], [1.0], 2)  # |n|^2 = 2 is not < 2
    with pytest.raises(DomainError, match="truncation"):
        SpectralField.from_arrays([[2**62, 2**62, 2**62]], [1.0], 10)  # |n|^2 past int64
    with pytest.raises(DomainError, match="conjugate"):
        SpectralField.from_arrays(index, [1.0, 2.0 + 1j, 2.0 + 1j], 2, real_valued=True)
    with pytest.raises(DomainError, match="conjugate"):
        SpectralField.from_arrays(index[:2], values[:2], 2, real_valued=True)  # no mirror
    with pytest.raises(DomainError, match="more than once"):
        SpectralField.from_arrays([[1, 0], [0, 0], [1, 0]], [1.0, 2.0, 3.0], 2)
    bad_shapes = [
        (np.array([0, 1]), [1.0, 2.0]),  # index is not a matrix
        (index, values[:2]),  # one value short
        (np.zeros((1, 0), dtype=int), [1.0]),  # no components
        (index.astype(float), values),  # not integers
    ]
    for bad_index, bad_values in bad_shapes:
        with pytest.raises(DomainError):
            SpectralField.from_arrays(bad_index, bad_values, 2)
    # mirrors are matched row by row, never through one packed integer key
    big = np.array([[10**6, -(10**6), 5], [-(10**6), 10**6, -5]])
    fld = SpectralField.from_arrays(big, [1j, -1j], 2 * 10**12 + 26, real_valued=True)
    assert fld.get((-(10**6), 10**6, -5)) == -1j


def test_from_arrays_matches_dict_field():
    rng = np.random.default_rng(21)
    modes = modes_within(2, 10)
    index = np.array([modes[i].components for i in rng.permutation(len(modes))])
    values = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    arr = SpectralField.from_arrays(index, values, 10)
    assert [idx.components for idx, _ in arr.items()] == [tuple(r) for r in index.tolist()]
    assert [val for _, val in arr.items()] == values.tolist()
    dct = SpectralField(dict(zip(map(tuple, index.tolist()), values)), 10, dimension=2)
    assert len(arr) == len(dct) == len(modes)
    for idx in modes_within(2, 17):  # reaches past the ball, where both give 0
        assert arr.get(idx) == dct.get(idx)
    assert np.array_equal(synthesize(arr, 9).samples, synthesize(dct, 9).samples)


def power_law_shells(dim, radius, b):
    """Radii 0 < |n| < radius in Z^dim, with |c_n|^2 = (1+|n|^2)^-b summed per radius."""
    axis = np.arange(-radius, radius + 1) ** 2
    norm_sq = sum(np.meshgrid(*([axis] * dim), indexing="ij", sparse=True)).ravel()
    counts = np.bincount(norm_sq[norm_sq < radius**2])
    shells = np.flatnonzero(counts)[1:]
    return np.sqrt(shells), counts[shells] * (1.0 + shells) ** -b


@pytest.mark.parametrize("dim, radius", [(1, 4096), (2, 256), (3, 64)])
@pytest.mark.parametrize("b", [1.0, 2.0])
def test_tail_verdicts_power_law_families(dim, radius, b):
    # the weighted sum is finite exactly for a < a* = b - N/2
    radii, weight_sq = power_law_shells(dim, radius, b)
    a_star = b - dim / 2.0
    clear = [-0.3, -0.1, -0.06, 0.06, 0.1, 0.3]
    near = [-0.05, -0.03, -0.01, 0.01, 0.03, 0.05]
    got = tail_verdicts(radii, weight_sq, [a_star + d for d in clear + near], radius)
    assert got[:6] == ["finite"] * 3 + ["divergent"] * 3
    for d, verdict in zip(near, got[6:]):
        assert verdict != ("divergent" if d < 0 else "finite"), (d, verdict)


def test_tail_verdicts_edge_cases():
    radii = np.arange(1.0, 64.0)
    # complete radius 7 holds only the shells [1, 2) and [2, 4)
    assert tail_verdicts(radii, radii**-2, [5.0], 7) == ["inconclusive"]
    # an empty shell [16, 32) inside the fit
    gap = np.where((radii >= 16) & (radii < 32), 0.0, radii**-2)
    assert tail_verdicts(radii, gap, [5.0], 64) == ["inconclusive"]
    # a last shell below 1e-12 of the total
    assert tail_verdicts(radii, np.exp2(-4.0 * radii), [5.0], 64) == ["finite"]


def test_fractional_power_basics():
    c = SpectralField({2: 1.0}, 5)
    out = apply_fractional_power(c, 1.0)
    assert out.get(2) == pytest.approx(4.0)
    assert apply_fractional_power(c, 0.0) is c
    # composition tau = -1 then +1 restores zero-mean fields
    rng = np.random.default_rng(5)
    c = random_field(rng, 1, 17)
    entries = dict(c.items())
    entries[MultiIndex((0,))] = 0j
    c = SpectralField(entries, 17, dimension=1)
    back = apply_fractional_power(apply_fractional_power(c, -1.0), 1.0)
    for idx, val in c.items():
        assert back.get(idx) == pytest.approx(val, abs=1e-14)


def test_fractional_power_zero_mode_guard():
    c = SpectralField({0: 1.0, 1: 1.0}, 2)
    with pytest.raises(ZeroModeError):
        apply_fractional_power(c, -0.5)
    # explicit zero at the zero mode is fine
    c = SpectralField({0: 0.0, 1: 1.0}, 2)
    out = apply_fractional_power(c, -0.5)
    assert out.get(1) == pytest.approx(1.0)


def test_laplacian_consistency_with_analytic_second_derivative():
    # -(d^2/dx^2) cos(3x) = 9 cos(3x)
    m = 11
    x = GridField.axis_points(m)
    c = analyze(GridField(np.cos(3 * x)), 16)
    lap = synthesize(apply_fractional_power(c, 1.0), m)
    np.testing.assert_allclose(lap.samples.real, 9.0 * np.cos(3 * x), atol=1e-10)
    # mixed: sin(2x) with eigenvalue 4
    c = analyze(GridField(np.sin(2 * x)), 16)
    lap = synthesize(apply_fractional_power(c, 1.0), m)
    np.testing.assert_allclose(lap.samples.real, 4.0 * np.sin(2 * x), atol=1e-10)


def test_derivative_symbol():
    m = 11
    x = GridField.axis_points(m)
    c = analyze(GridField(np.cos(3 * x)), 16)
    d1 = synthesize(apply_derivative_symbol(c, DerivMultiIndex((1,))), m)
    np.testing.assert_allclose(d1.samples.real, -3.0 * np.sin(3 * x), atol=1e-10)
    with pytest.raises(DomainError):
        DerivMultiIndex((2, 1))  # |alpha| = 3
    with pytest.raises(DomainError):
        DerivMultiIndex((-1, 0))


def test_embedding_constant_single_mode():
    # one mode: ratio = (1+|n|^2)^{-sigma} / (2pi)^{N/2}
    n = 3
    c = SpectralField({n: 1.0}, 10)
    got = embedding_constant([c], 1.3, DerivMultiIndex((0,)))
    want = (1.0 + 9.0) ** (-1.3) / math.sqrt(TWO_PI)
    assert got == pytest.approx(want, rel=1e-12)


def test_embedding_constant_with_derivative():
    n = 2
    c = SpectralField({n: 1.0}, 5)
    got = embedding_constant([c], 1.5, DerivMultiIndex((2,)))
    want = 4.0 * (1.0 + 4.0) ** (-1.5) / math.sqrt(TWO_PI)
    assert got == pytest.approx(want, rel=1e-12)


def test_embedding_constant_ensemble_finite_and_stable():
    rng = np.random.default_rng(17)
    fields = [random_field(rng, 1, 64) for _ in range(40)]
    c1 = embedding_constant(fields, 1.3, DerivMultiIndex((0,)))
    assert 0.0 < c1 < 10.0
    # ratio never exceeds the analytic bound sqrt(Sum (1+|n|^2)^{-2 sigma}) / (2pi)^{N/2}
    bound = math.sqrt(
        sum((1.0 + i * i) ** (-2.6) for i in range(-7, 8))
    ) / math.sqrt(TWO_PI)
    assert c1 <= bound * (1.0 + 1e-12)


def test_embedding_hypothesis_rejected_at_and_below_threshold():
    c = SpectralField({1: 1.0}, 2)
    with pytest.raises(HypothesisError):
        embedding_constant([c], 1.25, DerivMultiIndex((0,)))  # = 1 + N/4 exactly
    with pytest.raises(HypothesisError):
        embedding_constant([c], 0.8, DerivMultiIndex((0,)))
    with pytest.raises(DomainError):
        embedding_constant([], 1.5, DerivMultiIndex((0,)))
    with pytest.raises(DomainError):
        embedding_constant(
            [SpectralField({}, 2, dimension=1)], 1.5, DerivMultiIndex((0,))
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=1000))
def test_property_modes_ball_membership(dim, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 30))
    modes = modes_within(dim, k)
    assert len(set(modes)) == len(modes)
    for idx in modes:
        assert idx.norm_sq < k
    # ball symmetry
    keys = {idx.components for idx in modes}
    assert all(tuple(-c for c in comp) in keys for comp in keys)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_roundtrip_random_fields(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    k = int(rng.integers(2, 20 if dim == 1 else 9))
    c = random_field(rng, dim, k, real=bool(rng.integers(0, 2)))
    m = 2 * math.isqrt(k - 1) + 3
    back = analyze(synthesize(c, m), k)
    for idx, val in c.items():
        assert abs(back.get(idx) - val) < 1e-12
