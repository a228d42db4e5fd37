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

Transforms use the FFT: the grid offset x_j = -pi + 2pi j/M contributes a
(-1)^{n_1+...+n_N} phase relative to the standard DFT, folded in exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import AliasError, DomainError, HypothesisError, ZeroModeError

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


def modes_within(dimension: int, truncation_radius_sq: int) -> list[MultiIndex]:
    """All n in Z^N with |n|^2 < truncation_radius_sq, lexicographic order."""
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    k = int(truncation_radius_sq)
    if k < 1:
        raise DomainError(f"truncation radius squared must be >= 1, got {k}")
    m = math.isqrt(k - 1)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == dimension:
            out.append(MultiIndex(tuple(prefix)))
            return
        for c in range(-m, m + 1):
            if c * c < remaining:
                rec(prefix + [c], remaining - c * c)

    rec([], k)
    return out


class SpectralField:
    """Finite map of Fourier coefficients with a truncation ball |n|^2 < k."""

    __slots__ = ("dimension", "truncation_radius_sq", "real_valued", "_entries")

    def __init__(self, entries, truncation_radius_sq, dimension=None, real_valued=False):
        k = int(truncation_radius_sq)
        if k < 1:
            raise DomainError(f"truncation radius squared must be >= 1, got {k}")
        norm = {}
        dim = dimension
        for key, val in dict(entries).items():
            idx = as_multi_index(key, dim)
            if dim is None:
                dim = idx.dimension
            if idx.norm_sq >= k:
                raise DomainError(
                    f"entry {idx.components} has |n|^2 = {idx.norm_sq} >= truncation {k}"
                )
            norm[idx] = complex(val)
        if dim is None:
            raise DomainError("empty field needs an explicit dimension")
        if real_valued:
            for idx, val in norm.items():
                mirror = norm.get(-idx, 0j)
                scale = max(abs(val), abs(mirror), 1e-30)
                if abs(mirror - val.conjugate()) > 1e-12 * scale:
                    raise DomainError(
                        f"field marked real-valued but entry at -{idx.components} "
                        "is not the conjugate of the entry at the index"
                    )
        self.dimension = dim
        self.truncation_radius_sq = k
        self.real_valued = bool(real_valued)
        self._entries = norm

    @property
    def entries(self):
        return MappingProxyType(self._entries)

    def get(self, n) -> complex:
        return self._entries.get(as_multi_index(n, self.dimension), 0j)

    def items(self):
        return self._entries.items()

    def __len__(self):
        return len(self._entries)

    def coefficient_norm_sq(self) -> float:
        """Plain Sum |c_n|^2 (no Parseval factor)."""
        return float(sum(abs(v) ** 2 for v in self._entries.values()))


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
    def from_flat(values, dimension: int, points_per_axis: int) -> "GridField":
        arr = np.asarray(values, dtype=complex).reshape(
            (int(points_per_axis),) * int(dimension)
        )
        return GridField(arr)

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
    entries = {}
    for idx in modes_within(g.dimension, k):
        key = tuple(c % m for c in idx.components)
        phase = -1.0 if (sum(idx.components) % 2) else 1.0
        entries[idx] = phase * complex(fhat[key])
    real = g.is_real()
    if real:
        # enforce exact Hermitian symmetry against FFT rounding fuzz
        sym = {}
        for idx, val in entries.items():
            mirror = entries.get(-idx, 0j)
            sym[idx] = 0.5 * (val + mirror.conjugate())
        entries = sym
    return SpectralField(entries, k, dimension=g.dimension, real_valued=real)


def synthesize(c: SpectralField, points_per_axis: int) -> GridField:
    """Samples of Sum c_n e^{i n.x} on the uniform grid."""
    m = int(points_per_axis)
    if m < 3 or m % 2 == 0:
        raise DomainError(f"points_per_axis must be odd and >= 3, got {m}")
    _check_alias(c.truncation_radius_sq, m)
    cube = np.zeros((m,) * c.dimension, dtype=complex)
    for idx, val in c.items():
        key = tuple(comp % m for comp in idx.components)
        phase = -1.0 if (sum(idx.components) % 2) else 1.0
        cube[key] += phase * val
    samples = np.fft.ifftn(cube) * (m**c.dimension)
    if c.real_valued:
        samples = samples.real.astype(complex)
    return GridField(samples)


def liouville_norm_sq(c: SpectralField, a: float) -> float:
    """Sum (1+|n|^2)^a |c_n|^2 over the stored entries."""
    a = float(a)
    total = 0.0
    for idx, val in c.items():
        total += (1.0 + idx.norm_sq) ** a * (val.real**2 + val.imag**2)
    return total


# Half-width, in units of a, of the band around the threshold a* inside which
# a weighted tail is called inconclusive rather than finite or divergent.
TAIL_BAND = 0.05


def radial_weight_sq(c: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Radii |n| >= 1 in ascending order, each with |c_n|^2 summed over its modes."""
    norm_sq = np.fromiter((idx.norm_sq for idx in c._entries), dtype=float, count=len(c))
    vals = np.fromiter(c._entries.values(), dtype=complex, count=len(c))
    keep = norm_sq > 0.0
    shells, member = np.unique(norm_sq[keep], return_inverse=True)
    return np.sqrt(shells), np.bincount(member, weights=np.abs(vals[keep]) ** 2)


def tail_verdicts(radii, weight_sq, exponents, complete_radius) -> list:
    """Classify Sum (1+r^2)^a w_r for each a: "finite", "divergent" or "inconclusive".

    radii are |n| >= 1, weight_sq the |c_n|^2 summed over the modes of each
    radius, and the data are complete for r < complete_radius.  The weighted
    terms are folded into octave shells 2^j <= r < 2^(j+1) lying wholly inside
    that radius, and log2 of the last three shell sums is fitted against j.
    For |c_n| ~ |n|^-b in N dimensions the slope is 2 (a - a*), a* = b - N/2:
    at or below -2 TAIL_BAND it is finite, at or above +2 TAIL_BAND divergent.
    A last shell holding at most 1e-12 of the total is finite; fewer than three
    complete shells, an empty shell in the fit, or a slope between the two
    bounds is inconclusive.
    """
    r = np.asarray(radii, dtype=float)
    n_shells = int(np.frexp(float(complete_radius))[1]) - 1  # floor(log2 R)
    if n_shells < 3:
        return ["inconclusive"] * len(exponents)
    keep = r < 2.0**n_shells
    shell = np.frexp(r[keep])[1] - 1
    log_weight = np.log1p(r[keep] ** 2)
    w = np.asarray(weight_sq, dtype=float)[keep]
    verdicts = []
    for a in exponents:
        sums = np.bincount(shell, weights=np.exp(float(a) * log_weight) * w, minlength=n_shells)
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
    zero = MultiIndex((0,) * c.dimension)
    if tau < 0.0 and c.get(zero) != 0j:
        raise ZeroModeError(
            "negative power undefined on the zero mode; remove or zero the mean first"
        )
    entries = {}
    for idx, val in c.items():
        nsq = idx.norm_sq
        if nsq == 0:
            entries[idx] = 0j if tau > 0 else val
        else:
            entries[idx] = (float(nsq) ** tau) * val
    return SpectralField(
        entries, c.truncation_radius_sq, dimension=c.dimension, real_valued=c.real_valued
    )


def apply_derivative_symbol(c: SpectralField, alpha: DerivMultiIndex) -> SpectralField:
    """Multiply entries by (i n)^alpha, the Fourier symbol of D^alpha."""
    if alpha.dimension != c.dimension:
        raise DomainError(
            f"derivative dimension {alpha.dimension} does not match field {c.dimension}"
        )
    entries = {}
    for idx, val in c.items():
        factor = complex(1.0)
        for comp, power in zip(idx.components, alpha.alpha):
            factor *= (1j * comp) ** power
        if factor != 0:
            entries[idx] = factor * val
    return SpectralField(entries, c.truncation_radius_sq, dimension=c.dimension)


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
        weighted = {}
        for idx, val in g.items():
            factor = complex((1.0 + idx.norm_sq) ** (-sigma))
            for comp, power in zip(idx.components, alpha.alpha):
                factor *= (1j * comp) ** power
            weighted[idx] = factor * val
        wfield = SpectralField(weighted, g.truncation_radius_sq, dimension=dim)
        if grid_points_per_axis is None:
            nmax = math.isqrt(g.truncation_radius_sq - 1)
            m = max(4 * nmax + 5, 33)
            if m % 2 == 0:
                m += 1
        else:
            m = int(grid_points_per_axis)
        sup = float(np.max(np.abs(synthesize(wfield, m).samples)))
        denom = math.sqrt(_TWO_PI**dim * denom_sq)
        best = max(best, sup / denom)
    if not saw_nonzero:
        raise DomainError("all sample fields are zero")
    return best
