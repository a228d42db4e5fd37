"""Sharpness witnesses built on a classical lacunary-phase trigonometric series.

The initial datum has coefficients e^{i n ln n}/(2n): square-summable (it
lies in the critical smoothness class a = 1/2 for dimension 1, and is
Hoelder-1/2 as a function) while its absolute coefficient sum diverges like
ln k.  Feeding it to the evolution problem makes the twice-differentiated
solution series diverge logarithmically, with slope 1/(Gamma(1-rho) t^rho);
the routines here compute those partial sums, fit the growth law, scan
Hoelder quotients on synthesized truncations, and locate the critical
smoothness exponent from the tail verdicts of spectra.tail_verdicts, the same
classifier the solver's regularity gate uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconclusiveError
from .mlf import MlfParams, mlf_neg_array
from .spectra import SpectralField, radial_weight_sq, require_alias_free
from .spectra import synthesize, tail_verdicts

_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class HLDatum:
    """Coefficients e^{i n ln n}/(2n) for 1 <= n <= k_max, conjugate-extended."""

    k_max: int
    coeffs_pos: np.ndarray  # phi_n for n = 1..k_max; phi_{-n} is the conjugate

    def field(self, limit: int | None = None) -> SpectralField:
        """Materialize a SpectralField truncated at |n| <= limit."""
        top = self.k_max if limit is None else min(int(limit), self.k_max)
        n = np.arange(1, top + 1)
        vals = self.coeffs_pos[: n.size]
        # rows 1, -1, 2, -2, ...: each n followed by its conjugate mirror
        index = np.column_stack([n, -n]).reshape(-1, 1)
        values = np.column_stack([vals, vals.conj()]).ravel()
        return SpectralField.from_arrays(index, values, top * top + 1, real_valued=True)

    def moduli(self) -> np.ndarray:
        return np.abs(self.coeffs_pos)


def hl_coefficients(k_max: int) -> HLDatum:
    """Exact coefficients of the lacunary-phase datum up to |n| = k_max."""
    k_max = int(k_max)
    if k_max < 2:
        raise DomainError(f"k_max must be >= 2, got {k_max}")
    n = np.arange(1, k_max + 1, dtype=float)
    phases = n * np.log(n)  # n ln n; exactly 0 at n = 1
    coeffs = np.exp(1j * phases) / (2.0 * n)
    coeffs.setflags(write=False)
    return HLDatum(k_max=k_max, coeffs_pos=coeffs)


def abs_coeff_partial_sums(datum: HLDatum, checkpoints) -> list:
    """Partial sums of |phi_n| over 1 <= |n| <= k: the harmonic numbers."""
    cps = [int(k) for k in checkpoints]
    if any(k < 1 or k > datum.k_max for k in cps):
        raise DomainError(f"checkpoints must lie in [1, {datum.k_max}]")
    running = np.cumsum(2.0 * datum.moduli())
    return [float(running[k - 1]) for k in cps]


@dataclass(frozen=True)
class GrowthFit:
    """Log-growth fit of the twice-differentiated series partial sums."""

    k_values: tuple
    partial_sums: tuple
    fitted_slope: float
    predicted_slope: float
    relative_slope_error: float


def divergence_sum(datum: HLDatum, rho: float, t: float, k0: int, checkpoints) -> GrowthFit:
    """Partial sums U(k) = sum_{k0 <= |n| <= k} |phi_n| |n|^2 E_{rho,1}(-|n|^2 t^rho)
    fitted against ln k.

    The summand reduces to |n| E_{rho,1}(-|n|^2 t^rho); for large |n| it behaves
    like 1/(|n| Gamma(1-rho) t^rho), so U grows logarithmically with slope
    1/(Gamma(1-rho) t^rho).  Sums use certified evaluations, not the asymptote;
    the k0 precondition only guarantees the tail is deep enough for the
    leading-order prediction to be clean.
    """
    if rho == 1.0:
        raise DomainError("the classical limit decays exponentially; no divergence to fit")
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if not (t > 0.0):
        raise DomainError(f"t must be positive, got {t}")
    k0 = int(k0)
    if k0 < 1 or float(k0) ** 2 * t**rho < 50.0:
        raise DomainError(
            f"need k0^2 t^rho >= 50 for a clean leading-order regime, got "
            f"{float(k0)**2 * t**rho:.3g}"
        )
    cps = sorted(int(k) for k in checkpoints)
    if len(cps) < 2:
        raise DomainError("need at least two checkpoints to fit a slope")
    if cps[0] <= k0 or cps[-1] > datum.k_max:
        raise DomainError(f"checkpoints must lie in ({k0}, {datum.k_max}]")

    ns = np.arange(k0, cps[-1] + 1, dtype=float)
    evals, _ests, _codes = mlf_neg_array(MlfParams(rho, 1.0), ns**2 * t**rho)
    summands = ns * evals
    running = np.cumsum(summands)
    u_vals = [float(running[k - k0]) for k in cps]

    slope, _intercept = np.polyfit(np.log(cps), u_vals, 1)
    predicted = 1.0 / (math.gamma(1.0 - rho) * t**rho)
    return GrowthFit(
        k_values=tuple(cps),
        partial_sums=tuple(u_vals),
        fitted_slope=float(slope),
        predicted_slope=float(predicted),
        relative_slope_error=float(abs(slope - predicted) / predicted),
    )


def holder_constant(datum, grid_M: int, exponent: float) -> float:
    """Max difference quotient |phi(x)-phi(y)|/|x-y|^exponent on the grid.

    Pairs at all power-of-two strides (circular distance up to half the
    torus) are scanned on the synthesized truncation.  Accepts an HLDatum
    or any one-dimensional SpectralField.
    """
    if not (0.0 < exponent <= 1.0):
        raise DomainError(f"exponent must lie in (0, 1], got {exponent}")
    fld = datum.field() if isinstance(datum, HLDatum) else datum
    if fld.dimension != 1:
        raise DomainError("the Hoelder scan is one-dimensional")
    require_alias_free(fld.truncation_radius_sq, grid_M)
    g = synthesize(fld, grid_M).samples
    g = g.real if fld.real_valued else np.abs(g)
    m = int(grid_M)
    h = 2.0 * math.pi / m
    best = 0.0
    s = 1
    while s <= m // 2:
        diff = float(np.max(np.abs(np.roll(g, -s) - g)))
        best = max(best, diff / (s * h) ** exponent)
        s *= 2
    return best


def critical_exponent(datum, a_grid, checkpoints) -> float:
    """Boundary exponent separating finite from divergent weighted tail sums.

    Each a in a_grid is classified by spectra.tail_verdicts on the coefficients
    up to |n| = max(checkpoints), which must be at least 1000.  Returns the
    midpoint between the largest finite and the smallest divergent grid point,
    skipping inconclusive ones, and +inf when every verdict is finite; raises
    InconclusiveError when the verdicts bracket no single boundary.

    Accepts an HLDatum, a SpectralField, or a pair (n_values, moduli)
    describing radial one-sided coefficients extended symmetrically.
    """
    ns, wsq = _radial_weight_sq(datum)
    top = max(int(k) for k in checkpoints)
    if top > ns[-1]:
        raise DomainError(
            f"checkpoints reach |n| = {top} but coefficients stop at {int(ns[-1])}"
        )
    if top < 1000:
        raise InconclusiveError(
            "need at least three decades of coefficients to classify tails"
        )

    grid = sorted(float(a) for a in a_grid)
    verdicts = tail_verdicts(ns, wsq, grid, top)
    if all(v == "finite" for v in verdicts):
        return math.inf
    finite = [a for a, v in zip(grid, verdicts) if v == "finite"]
    divergent = [a for a, v in zip(grid, verdicts) if v == "divergent"]
    if not finite or not divergent or divergent[0] < finite[-1]:
        raise InconclusiveError(
            f"tail verdicts over {grid} bracket no single boundary: {verdicts}"
        )
    return 0.5 * (finite[-1] + divergent[0])


def _radial_weight_sq(datum):
    """(n_values, summed |phi_n|^2 with multiplicity) sorted by |n| > 0."""
    if isinstance(datum, HLDatum):
        ns = np.arange(1, datum.k_max + 1, dtype=float)
        return ns, 2.0 * datum.moduli() ** 2
    if isinstance(datum, SpectralField):
        radii, weight_sq = radial_weight_sq(datum)
        if radii.size == 0:
            raise DomainError("field has no nonzero modes to classify")
        return radii, weight_sq
    ns, moduli = datum
    ns = np.asarray(ns, dtype=float)
    moduli = np.asarray(moduli, dtype=float)
    if ns.ndim != 1 or ns.shape != moduli.shape or ns.size == 0:
        raise DomainError("radial data needs matching 1-d n and modulus arrays")
    if not np.all(np.diff(ns) > 0) or ns[0] < 1:
        raise DomainError("radial n values must be strictly increasing and >= 1")
    return ns, 2.0 * moduli**2
