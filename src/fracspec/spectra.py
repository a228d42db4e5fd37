"""Torus geometry and Fourier transforms between grid samples and mode coefficients.

Fields live on the N-torus (-pi, pi]^N, sampled on a uniform grid with an odd
number M of points per axis so the resolvable mode set {-(M-1)/2, ..., (M-1)/2}
is symmetric and alias-free.  Coefficients are indexed by integer multi-indices
and truncated by |n|^2 < k (a ball, matching the partial sums the rest of the
package forms), not by a per-axis box.

Normalization contract: a field is g(x) = Sum_n c_n e^{i n.x}, the squared
Liouville norm is Sum_n (1+|n|^2)^a |c_n|^2 on the coefficients alone, and the
(2pi)^N Parseval factor relating that sum to the L2 integral is applied
explicitly where an integral is meant (see embedding_constant).

Storage: a SpectralField holds its coefficients as two arrays in entry order,
an int64 index matrix (modes x N) and a complex value vector.  Every
operation here (analyze, synthesize, the radial fold, the Liouville norm, the
fractional power, the derivative symbol and the embedding scan) works on
those arrays whole; no per-coefficient object is made.  The mapping view
(entries, get, items) of MultiIndex keys is built on first use, for callers
that ask for it, and a field built from a dict keeps that validated dict as
its view.  SpectralField.from_arrays builds a field straight from the two
arrays.

Transforms use the FFT: the grid offset x_j = -pi + 2pi j/M contributes a
(-1)^{n_1+...+n_N} phase relative to the standard DFT, folded in exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import AliasError, DomainError, HypothesisError, ZeroModeError
from .mlf import _BLOCK_POINTS

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MultiIndex:
    """Integer Fourier index n in Z^N; hashable, exact arithmetic."""

    components: tuple

    def __post_init__(self):
        comps = tuple(int(c) for c in self.components)
        if len(comps) == 0:
            raise DomainError("multi-index needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def norm_sq(self) -> int:
        # Python ints: no overflow even at components ~2^20
        return sum(c * c for c in self.components)

    def __neg__(self) -> "MultiIndex":
        return MultiIndex(tuple(-c for c in self.components))

    def __iter__(self):
        return iter(self.components)


def as_multi_index(n, dimension: int | None = None) -> MultiIndex:
    """Coerce an int, tuple, or MultiIndex; ints are one-dimensional."""
    if isinstance(n, MultiIndex):
        idx = n
    elif isinstance(n, (int, np.integer)):
        idx = MultiIndex((int(n),))
    else:
        idx = MultiIndex(tuple(n))
    if dimension is not None and idx.dimension != dimension:
        raise DomainError(
            f"multi-index dimension {idx.dimension} does not match field dimension {dimension}"
        )
    return idx


@dataclass(frozen=True)
class DerivMultiIndex:
    """Differentiation order alpha, |alpha| <= 2 componentwise-nonnegative."""

    alpha: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in self.alpha)
        if len(a) == 0 or any(x < 0 for x in a):
            raise DomainError(f"derivative orders must be nonnegative, got {a}")
        if sum(a) > 2:
            raise DomainError(f"total derivative order must be <= 2, got {sum(a)}")
        object.__setattr__(self, "alpha", a)

    @property
    def dimension(self) -> int:
        return len(self.alpha)

    @property
    def order(self) -> int:
        return sum(self.alpha)


def _check_radius(truncation_radius_sq, dimension: int) -> int:
    """k = truncation_radius_sq as an int, at least 1 and small enough that
    |n|^2 of every row inside the per-axis bound isqrt(k - 1) fits in int64."""
    k = int(truncation_radius_sq)
    if k < 1:
        raise DomainError(f"truncation radius squared must be >= 1, got {k}")
    if int(dimension) * (k - 1) >= 2**63:
        raise DomainError(
            f"truncation radius squared {k} is too large for int64 indices in dimension {dimension}"
        )
    return k


def _ball(dimension: int, truncation_radius_sq: int) -> np.ndarray:
    """Rows n in Z^N with |n|^2 < truncation_radius_sq, lexicographic order, int64."""
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    k = _check_radius(truncation_radius_sq, dimension)
    m = math.isqrt(k - 1)
    axis = np.arange(-m, m + 1, dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for _ in range(dimension):
        # np.nonzero walks prefixes in order and, within one, the new component
        # in ascending order, so the rows stay lexicographic
        prefix, comp = np.nonzero(used[:, None] + axis[None, :] ** 2 < k)
        rows = np.column_stack([rows[prefix], axis[comp]])
        used = used[prefix] + axis[comp] ** 2
    return rows


def modes_within(dimension: int, truncation_radius_sq: int) -> list[MultiIndex]:
    """All n in Z^N with |n|^2 < truncation_radius_sq, lexicographic order."""
    return [MultiIndex(tuple(row)) for row in _ball(dimension, truncation_radius_sq).tolist()]


def _norm_sq(index: np.ndarray) -> np.ndarray:
    """|n|^2 per row of an index matrix, exact in int64 (see _check_ball)."""
    return np.einsum("ij,ij->i", index, index)


def _parity_sign(index: np.ndarray) -> np.ndarray:
    """(-1)^{n_1+...+n_N} per row: the grid-offset phase of each mode."""
    return np.where(index.sum(axis=1) % 2, -1.0, 1.0)


def _outside_ball(components, k: int) -> DomainError:
    return DomainError(
        f"entry {tuple(components)} has |n|^2 = {sum(c * c for c in components)} >= truncation {k}"
    )


def _check_ball(index: np.ndarray, k: int) -> None:
    """Raise DomainError on the first row with |n|^2 >= k (k from _check_radius).

    The per-axis bound is tested first, so the int64 |n|^2 cannot wrap.
    """
    m = math.isqrt(k - 1)
    outside = np.any((index < -m) | (index > m), axis=1)
    outside[~outside] = _norm_sq(index[~outside]) >= k
    if np.any(outside):
        raise _outside_ball(index[np.flatnonzero(outside)[0]].tolist(), k)


def _check_rows(index: np.ndarray, values: np.ndarray, real_valued: bool) -> None:
    """Raise DomainError on duplicate rows and, for a real-valued field, on an
    entry whose mirror -n does not hold its conjugate (absent mirrors are 0).

    Rows (and, for a real-valued field, their negations) are sorted together
    with np.lexsort; equal neighbours are duplicates or mirror pairs.
    """
    n = len(index)
    rows = np.concatenate([index, -index]) if real_valued else index
    negated = np.arange(len(rows)) >= n
    # the last key is the primary one; the negated flag breaks ties, so a stored
    # row sorts before the negated copy equal to it
    order = np.lexsort((negated,) + tuple(rows.T[::-1]))
    ranked = rows[order]
    equal = np.all(ranked[1:] == ranked[:-1], axis=1)
    first, second = order[:-1][equal], order[1:][equal]
    twice = second[second < n]
    if twice.size:
        raise DomainError(f"entry {tuple(index[twice[0]].tolist())} appears more than once")
    if not real_valued:
        return
    mirror = np.zeros(n, dtype=complex)
    mirror[second - n] = values[first]  # -index[second - n] == index[first]
    scale = np.maximum(np.maximum(np.abs(values), np.abs(mirror)), 1e-30)
    bad = np.flatnonzero(np.abs(mirror - values.conj()) > 1e-12 * scale)
    if bad.size:
        raise DomainError(
            f"field marked real-valued but entry at -{tuple(index[bad[0]].tolist())} "
            "is not the conjugate of the entry at the index"
        )


class SpectralField:
    """Finite map of Fourier coefficients with a truncation ball |n|^2 < k.

    The coefficients are stored as an int64 index matrix (modes x N) and a
    complex value vector in entry order; both are read-only.  entries, get
    and items serve a MultiIndex -> value mapping in the same order, built on
    first use; a field built from a dict keeps the validated dict as that
    view.  SpectralField.from_arrays builds a field from the two arrays.
    """

    __slots__ = (
        "dimension", "truncation_radius_sq", "real_valued", "_index", "_values", "_view"
    )

    def __init__(self, entries, truncation_radius_sq, dimension=None, real_valued=False):
        norm = {}
        dim = dimension
        for key, val in dict(entries).items():
            idx = as_multi_index(key, dim)
            if dim is None:
                dim = idx.dimension
            norm[idx] = complex(val)
        if dim is None:
            raise DomainError("empty field needs an explicit dimension")
        k = _check_radius(truncation_radius_sq, dim)
        comps = itertools.chain.from_iterable([idx.components for idx in norm])
        try:
            index = np.fromiter(comps, dtype=np.int64, count=len(norm) * dim)
        except OverflowError:  # a component past int64 lies outside every ball
            raise _outside_ball(next(i for i in norm if i.norm_sq >= k).components, k) from None
        index = index.reshape(len(norm), dim)
        _check_ball(index, k)
        values = np.fromiter(norm.values(), dtype=complex, count=len(norm))
        if real_valued:
            _check_rows(index, values, True)
        self._store(index, values, k, real_valued, norm)

    @classmethod
    def from_arrays(cls, index, values, truncation_radius_sq, real_valued=False) -> "SpectralField":
        """Field with row i of the integer matrix index (modes x N) holding values[i].

        Runs the dict constructor's checks on whole arrays and raises
        DomainError on bad shapes, a row outside the ball, duplicate rows, or
        a field marked real-valued whose entries are not Hermitian.
        """
        try:
            index = np.asarray(index).astype(np.int64, casting="safe")
        except TypeError:
            raise DomainError("index must be an integer array") from None
        values = np.array(values, dtype=complex)
        if index.ndim != 2 or index.shape[1] < 1 or values.shape != (index.shape[0],):
            raise DomainError(
                f"need an index of shape (modes, N >= 1) and values of shape (modes,), "
                f"got {index.shape} and {values.shape}"
            )
        k = _check_radius(truncation_radius_sq, index.shape[1])
        _check_ball(index, k)
        _check_rows(index, values, bool(real_valued))
        return cls._from_valid(index, values, k, real_valued)

    @classmethod
    def _from_valid(cls, index, values, k, real_valued=False) -> "SpectralField":
        """Field on rows the caller built valid: distinct int64 rows inside the
        ball |n|^2 < k, Hermitian when real_valued.  Nothing is checked; the
        arrays, which the caller must own, become read-only."""
        field = cls.__new__(cls)
        field._store(index, values, k, real_valued, None)
        return field

    def _store(self, index, values, k, real_valued, view):
        index.setflags(write=False)
        values.setflags(write=False)
        self.dimension = index.shape[1]
        self.truncation_radius_sq = k
        self.real_valued = bool(real_valued)
        self._index = index
        self._values = values
        self._view = view

    def _mapping(self) -> dict:
        if self._view is None:
            self._view = {
                MultiIndex(tuple(row)): val
                for row, val in zip(self._index.tolist(), self._values.tolist())
            }
        return self._view

    @property
    def entries(self):
        return MappingProxyType(self._mapping())

    def get(self, n) -> complex:
        return self._mapping().get(as_multi_index(n, self.dimension), 0j)

    def items(self):
        return self._mapping().items()

    def __len__(self):
        return len(self._values)

    def coefficient_norm_sq(self) -> float:
        """Plain Sum |c_n|^2 (no Parseval factor)."""
        return float(sum(abs(v) ** 2 for v in self._values.tolist()))


class GridField:
    """Samples on the uniform torus grid x_j = -pi + 2pi j/M per axis, M odd."""

    __slots__ = ("dimension", "points_per_axis", "samples")

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=complex)
        if arr.ndim < 1:
            raise DomainError("samples must have at least one axis")
        m = arr.shape[0]
        if any(s != m for s in arr.shape):
            raise DomainError(f"samples must be a cube, got shape {arr.shape}")
        if m < 3 or m % 2 == 0:
            raise DomainError(f"points_per_axis must be odd and >= 3, got {m}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.dimension = arr.ndim
        self.points_per_axis = m
        self.samples = arr

    @staticmethod
    def axis_points(points_per_axis: int) -> np.ndarray:
        m = int(points_per_axis)
        return -math.pi + _TWO_PI * np.arange(m) / m

    def is_real(self, tol: float = 1e-13) -> bool:
        scale = max(float(np.max(np.abs(self.samples))), 1.0)
        return float(np.max(np.abs(self.samples.imag))) <= tol * scale


def _check_alias(truncation_radius_sq: int, points_per_axis: int) -> int:
    """Largest per-axis index in the ball must fit under Nyquist."""
    nmax = math.isqrt(int(truncation_radius_sq) - 1)
    half = (int(points_per_axis) - 1) // 2
    if nmax > half:
        raise AliasError(
            f"modes up to |n_i| = {nmax} alias on a grid with {points_per_axis} "
            f"points per axis (Nyquist range {half})"
        )
    return nmax


def require_alias_free(truncation_radius_sq: int, points_per_axis: int) -> None:
    """Raise AliasError when the truncation ball does not fit on the grid."""
    _check_alias(truncation_radius_sq, points_per_axis)


def min_alias_free_grid(truncation_radius_sq: int) -> int:
    """Smallest odd per-axis point count resolving the truncation ball."""
    nmax = math.isqrt(int(truncation_radius_sq) - 1)
    return 2 * nmax + 3  # one spare index of headroom, always odd


def analyze(g: GridField, truncation_radius_sq: int) -> SpectralField:
    """Fourier coefficients of grid samples, exact for band-limited data.

    The trapezoidal rule on the uniform grid is realized by the FFT; the grid
    offset contributes a (-1)^{sum n_i} phase per mode.
    """
    k = int(truncation_radius_sq)
    _check_alias(k, g.points_per_axis)
    m = g.points_per_axis
    fhat = np.fft.fftn(g.samples) / (m**g.dimension)
    index = _ball(g.dimension, k)
    values = _parity_sign(index) * fhat[tuple((index % m).T)]
    real = g.is_real()
    if real:
        # enforce exact Hermitian symmetry against FFT rounding fuzz; the ball is
        # point-symmetric and lexicographic, so row i's mirror is row n-1-i
        values = 0.5 * (values + values[::-1].conj())
    # the ball's rows are distinct and inside it, and the symmetrized values
    # are exactly Hermitian (a sum and its mirror add the same two terms)
    return SpectralField._from_valid(index, values, k, real_valued=real)


def _synthesize_rows(index, rows, truncation_radius_sq, points_per_axis) -> np.ndarray:
    """Samples of Sum_n rows[b, n] e^{i n.x} for each row b, shape (B, M, ..., M).

    index is a field's index matrix and rows a (B x modes) block of values in
    its entry order; the B grids are synthesized in one batched inverse FFT.
    """
    m = int(points_per_axis)
    if m < 3 or m % 2 == 0:
        raise DomainError(f"points_per_axis must be odd and >= 3, got {m}")
    _check_alias(truncation_radius_sq, m)
    dim = index.shape[1]
    cube = np.zeros((len(rows),) + (m,) * dim, dtype=complex)
    cube[(slice(None),) + tuple((index % m).T)] += _parity_sign(index) * rows
    return np.fft.ifftn(cube, axes=tuple(range(1, dim + 1))) * (m**dim)


def synthesize(c: SpectralField, points_per_axis: int) -> GridField:
    """Samples of Sum c_n e^{i n.x} on the uniform grid."""
    samples = _synthesize_rows(
        c._index, c._values[None, :], c.truncation_radius_sq, points_per_axis
    )[0]
    if c.real_valued:
        samples = samples.real.astype(complex)
    return GridField(samples)


def _shell_pow(norm_sq: np.ndarray, offset: float, exponent: float) -> np.ndarray:
    """(offset + |n|^2)^exponent per row, by libm pow once per shell |n|^2:
    numpy's vectorized pow can differ from it in the last place."""
    shells, member = np.unique(norm_sq, return_inverse=True)
    return np.array([(offset + s) ** exponent for s in shells.tolist()])[member]


def _derivative_symbol(index: np.ndarray, alpha: DerivMultiIndex, factor=1.0) -> np.ndarray:
    """factor (i n)^alpha per row, multiplied in component order: the Fourier
    symbol of D^alpha, scaled by factor (a scalar or one value per row)."""
    symbol = np.broadcast_to(np.asarray(factor, dtype=complex), index.shape[:1])
    for comp, power in zip(index.T, alpha.alpha):
        if power:
            symbol = symbol * (1j * comp) ** power
    return symbol


def liouville_norm_sq(c: SpectralField, a: float) -> float:
    """Sum (1+|n|^2)^a |c_n|^2 over the stored entries."""
    terms = _shell_pow(_norm_sq(c._index), 1.0, float(a)) * (
        c._values.real**2 + c._values.imag**2
    )
    # a sequential sum in entry order: np.sum's pairwise order would move the last digit
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


# Half-width, in units of a, of the band around the threshold a* inside which
# a weighted tail is called inconclusive rather than finite or divergent.
TAIL_BAND = 0.05


def radial_weight_sq(c: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Radii |n| >= 1 in ascending order, each with |c_n|^2 summed over its modes."""
    norm_sq = _norm_sq(c._index).astype(float)
    keep = norm_sq > 0.0
    shells, member = np.unique(norm_sq[keep], return_inverse=True)
    return np.sqrt(shells), np.bincount(member, weights=np.abs(c._values[keep]) ** 2)


def _run_sums(edges, terms) -> np.ndarray:
    """Sums over the runs edges[j] <= i < edges[j+1] of items terms(lo, hi) gives on its last axis.

    Items come in blocks of mlf._BLOCK_POINTS, whose runs np.add.reduceat sums
    pairwise; each run's block partials are combined by math.fsum.
    """
    edges = np.asarray(edges, dtype=np.int64)
    parts = []
    for lo in range(edges[0], edges[-1], _BLOCK_POINTS) or (edges[0],):  # none: zeros
        x = terms(lo, min(lo + _BLOCK_POINTS, edges[-1]))
        cuts = np.minimum(np.maximum(edges - lo, 0), x.shape[-1])
        # reduceat would read an empty run as its first item: sum the others only
        full = np.flatnonzero(cuts[1:] > cuts[:-1])
        parts.append(np.zeros(x.shape[:-1] + (edges.size - 1,)))
        parts[-1][..., full] = np.add.reduceat(x, cuts[full], axis=-1)
    runs = zip(*(p.ravel().tolist() for p in parts))
    return np.reshape([math.fsum(run) for run in runs], parts[0].shape)


def _octave_sums(r: np.ndarray, weight_sq, exponents, n_shells: int) -> np.ndarray:
    """Per a, a row of Sum (1+r^2)^a w_r over each run 2^j <= r < 2^(j+1), j < n_shells.

    Each sum is the math.fsum of the run's pairwise block partials (_run_sums).
    """
    w = np.asarray(weight_sq, dtype=float)
    a = np.asarray(exponents, dtype=float)[:, None]
    buf = np.empty((a.size, _BLOCK_POINTS))  # one buffer for every block's terms

    def terms(lo, hi):
        x = np.multiply(np.log1p(np.square(r[lo:hi])), a, out=buf[:, : hi - lo])
        return np.multiply(np.exp(x, out=x), w[lo:hi], out=x)

    return _run_sums(np.searchsorted(r, 2.0 ** np.arange(n_shells + 1)), terms)


def tail_verdicts(radii, weight_sq, exponents, complete_radius) -> list:
    """Classify Sum (1+r^2)^a w_r for each a: "finite", "divergent" or "inconclusive".

    radii are |n| >= 1 ascending (else DomainError), weight_sq the |c_n|^2
    summed over the modes of each radius, and the data are complete for
    r < complete_radius.  The weighted terms are folded into octave shells
    2^j <= r < 2^(j+1) inside that radius; log2 of the last three is fitted.
    For |c_n| ~ |n|^-b in N dimensions the slope is 2 (a - a*), a* = b - N/2:
    at or below -2 TAIL_BAND it is finite, at or above +2 TAIL_BAND divergent.
    A last shell holding at most 1e-12 of the total is finite; fewer than three
    complete shells, an empty shell in the fit, or a slope between the two
    bounds is inconclusive.
    """
    r = np.asarray(radii, dtype=float)
    if r.size and not (r[0] >= 1.0 and np.all(r[1:] >= r[:-1])):
        raise DomainError("radii must be ascending and at least 1")
    n_shells = int(np.frexp(float(complete_radius))[1]) - 1  # floor(log2 R)
    if n_shells < 3:
        return ["inconclusive"] * len(exponents)
    verdicts = []
    for sums in _octave_sums(r, weight_sq, exponents, n_shells):
        fit = sums[-3:]
        # an empty shell in the fit leaves the slope at 0: inconclusive
        slope = np.polyfit(np.arange(3), np.log2(fit), 1)[0] if np.all(fit > 0.0) else 0.0
        if fit[-1] <= 1e-12 * sums.sum() or slope <= -2.0 * TAIL_BAND:
            verdicts.append("finite")
        elif slope >= 2.0 * TAIL_BAND:
            verdicts.append("divergent")
        else:
            verdicts.append("inconclusive")
    return verdicts


def apply_fractional_power(c: SpectralField, tau: float) -> SpectralField:
    """Entrywise multiplication by |n|^{2 tau}; tau = 1 is the Laplacian's symbol.

    Negative powers need the zero mode absent or exactly zero.
    """
    tau = float(tau)
    if tau == 0.0:
        return c
    norm_sq = _norm_sq(c._index)
    zero = norm_sq == 0
    if tau < 0.0 and np.any(c._values[zero] != 0.0):
        raise ZeroModeError(
            "negative power undefined on the zero mode; remove or zero the mean first"
        )
    # the zero mode is set apart: 0 for tau > 0, kept (it is 0) for tau < 0
    scaled = _shell_pow(np.maximum(norm_sq, 1), 0.0, tau) * c._values
    values = np.where(zero, 0j if tau > 0.0 else c._values, scaled)
    # c's rows, and one real factor per shell |n|^2 scales n and -n alike, so
    # the result is Hermitian as c is
    return SpectralField._from_valid(
        c._index, values, c.truncation_radius_sq, real_valued=c.real_valued
    )


def apply_derivative_symbol(c: SpectralField, alpha: DerivMultiIndex) -> SpectralField:
    """Multiply entries by (i n)^alpha, the symbol of D^alpha; entries it zeroes are dropped."""
    if alpha.dimension != c.dimension:
        raise DomainError(
            f"derivative dimension {alpha.dimension} does not match field {c.dimension}"
        )
    symbol = _derivative_symbol(c._index, alpha)
    keep = symbol != 0.0
    # a subset of c's rows, and the result claims no Hermitian symmetry
    return SpectralField._from_valid(
        c._index[keep], (symbol * c._values)[keep], c.truncation_radius_sq
    )


def embedding_constant(
    c_samples,
    sigma: float,
    alpha: DerivMultiIndex,
    grid_points_per_axis: int | None = None,
) -> float:
    """Observed operator norm of D^alpha (A+1)^{-sigma} from L2 into sup norm.

    For each sample field g the ratio sup_x |D^alpha (A+1)^{-sigma} g| / ||g||_{L2}
    is evaluated (sup over a synthesis grid, L2 via Parseval with the (2pi)^N
    factor); the maximum over the ensemble is returned.  Finiteness for
    sigma > 1 + N/4 is the point of the check, so smaller sigma is rejected.
    """
    fields = list(c_samples)
    if not fields:
        raise DomainError("need at least one sample field")
    dim = fields[0].dimension
    if alpha.dimension != dim:
        raise DomainError("derivative dimension does not match the fields")
    sigma = float(sigma)
    if sigma <= 1.0 + dim / 4.0:
        raise HypothesisError(
            f"embedding requires sigma > 1 + N/4 = {1.0 + dim / 4.0}, got {sigma}"
        )
    best = 0.0
    saw_nonzero = False
    for g in fields:
        if g.dimension != dim:
            raise DomainError("sample fields must share one dimension")
        denom_sq = g.coefficient_norm_sq()
        if denom_sq == 0.0:
            continue
        saw_nonzero = True
        weight = _shell_pow(_norm_sq(g._index), 1.0, -sigma)
        weighted = _derivative_symbol(g._index, alpha, weight) * g._values
        if grid_points_per_axis is None:  # an odd count, twice the Nyquist need
            m = max(4 * math.isqrt(g.truncation_radius_sq - 1) + 5, 33)
        else:
            m = int(grid_points_per_axis)
        samples = _synthesize_rows(g._index, weighted[None, :], g.truncation_radius_sq, m)
        sup = float(np.max(np.abs(samples)))
        denom = math.sqrt(_TWO_PI**dim * denom_sq)
        best = max(best, sup / denom)
    if not saw_nonzero:
        raise DomainError("all sample fields are zero")
    return best
