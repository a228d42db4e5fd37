"""Field-level driver: truncation, the shell solve, termwise operators, residuals.

The field u(x, t) = sum over retained modes of w_n(t) e^{i n.x} is assembled
from scalar mode problems (lam = |n|^2).  solve gathers the modes with
nonzero data from the truncated fields' index arrays and hands them all to
modal.solve_shells, which shares the Mittag-Leffler values, kernel moments
and source convolutions within each eigenvalue shell.  A SolutionField
stores the result as arrays (index matrix, values matrix, per-mode vectors),
and everything downstream works on them without a per-mode object: applying
the spatial operator multiplies a mode history by |n|^2, the fractional time
derivative acts per mode through the L1 scheme, and residuals are
synthesized back onto the grid, every time slice of a block in one batched
inverse FFT.

Two diagnostics frame the truncation: a regularity gate on the claimed
smoothness exponent (advisory by default, enforced in strict mode), which
rejects data only when spectra.tail_verdicts calls their weighted sum
divergent, and a tail indicator over the stored-but-discarded coefficients
used to judge the radius.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import DomainError, MeshError, RegularityError
from .modal import (
    GradedMesh,
    ModeSolution,
    TimeProfile,
    caputo_l1,
    default_grading,
    solve_shells,
)
from .spectra import (
    GridField,
    MultiIndex,
    SpectralField,
    _norm_sq,
    _synthesize_rows,
    analyze,
    as_multi_index,
    radial_weight_sq,
    require_alias_free,
    synthesize,
    tail_verdicts,
)

_BUILTIN_NAMES = ("cosine_mode", "constant", "zero", "hardy_littlewood")


def builtin_field(name: str, dimension: int = 1, **params) -> SpectralField:
    """Named initial data: cosine_mode(mode), constant(value),
    zero, hardy_littlewood(k_max, dimension 1 only)."""
    if name == "cosine_mode":
        mode = params.get("mode")
        if mode is None:
            mode = (1,) + (0,) * (dimension - 1)
        mode = tuple(int(c) for c in np.atleast_1d(mode))
        if len(mode) != dimension or all(c == 0 for c in mode):
            raise DomainError(f"cosine_mode needs a nonzero mode of length {dimension}")
        amp = complex(params.get("amplitude", 1.0)) / 2.0
        idx = MultiIndex(mode)
        return SpectralField(
            {idx: amp, -idx: amp.conjugate()},
            idx.norm_sq + 1,
            dimension=dimension,
            real_valued=amp.imag == 0.0,
        )
    if name == "constant":
        val = complex(params.get("value", 1.0))
        zero = MultiIndex((0,) * dimension)
        return SpectralField(
            {zero: val}, 1, dimension=dimension, real_valued=val.imag == 0.0
        )
    if name == "zero":
        return SpectralField({}, 1, dimension=dimension, real_valued=True)
    if name == "hardy_littlewood":
        if dimension != 1:
            raise DomainError("hardy_littlewood data is one-dimensional")
        from .counterexample import hl_coefficients  # deferred: avoids a cycle

        return hl_coefficients(int(params.get("k_max", 1024))).field()
    raise DomainError(f"unknown builtin field {name!r}; known: {_BUILTIN_NAMES}")


@dataclass(frozen=True)
class ProblemSpec:
    """Problem data: order, horizon, initial datum, separable source.

    source is a sequence of (g, q) pairs meaning f(x, t) = sum_i g_i(x) q_i(t);
    g may be a SpectralField, a GridField, or a builtin name like phi.
    regularity_exponent_a is the claimed smoothness exponent for the
    hypothesis gate; when omitted it defaults to dimension/2 + 1.
    """

    dimension: int
    rho: float
    T: float
    phi: object
    source: tuple = ()
    regularity_exponent_a: float | None = None

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.dimension}")
        if not (0.0 < self.rho <= 1.0):
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise DomainError(f"horizon T must be positive and finite, got {self.T}")
        object.__setattr__(self, "dimension", int(self.dimension))
        pairs = []
        for item in self.source:
            g, q = item
            if not isinstance(q, TimeProfile):
                raise DomainError("each source term needs a TimeProfile time factor")
            pairs.append((g, q))
        object.__setattr__(self, "source", tuple(pairs))

    @property
    def claimed_exponent(self) -> float:
        if self.regularity_exponent_a is None:
            return self.dimension / 2.0 + 1.0
        return float(self.regularity_exponent_a)


def _as_spectral(obj, dimension: int) -> SpectralField:
    """Full stored coefficient set (no solve truncation applied)."""
    if isinstance(obj, str):
        return builtin_field(obj, dimension)
    if isinstance(obj, SpectralField):
        if obj.dimension != dimension:
            raise DomainError(
                f"field dimension {obj.dimension} does not match problem dimension {dimension}"
            )
        return obj
    if isinstance(obj, GridField):
        if obj.dimension != dimension:
            raise DomainError(
                f"grid dimension {obj.dimension} does not match problem dimension {dimension}"
            )
        half = (obj.points_per_axis - 1) // 2
        return analyze(obj, dimension * half * half + 1)
    raise DomainError(f"cannot interpret {type(obj).__name__} as initial/source data")


def _truncate(c: SpectralField, truncation_radius_sq: int) -> SpectralField:
    keep = _norm_sq(c._index) < truncation_radius_sq
    return SpectralField.from_arrays(
        c._index[keep], c._values[keep], truncation_radius_sq, real_valued=c.real_valued
    )


def _coefficient_table(fields, dimension: int, rows=None):
    """Each field's coefficients on a common set of rows, 0 where a field has none.

    The rows are the given (distinct) index matrix, or else every row held
    by any of the fields, in modes_within (lexicographic) order.  Returns
    (rows, table) with table[f, r] the coefficient of field f on row r.
    """
    given = np.zeros((0, dimension), dtype=np.int64) if rows is None else rows
    stacked = np.concatenate([given] + [f._index for f in fields]).reshape(-1, dimension)
    union, where = np.unique(stacked, axis=0, return_inverse=True)
    table = np.zeros((len(fields), len(union)), dtype=complex)
    start = len(given)
    for row, f in zip(table, fields):
        row[where[start : start + len(f)]] = f._values
        start += len(f)
    if rows is None:
        return union, table
    return rows, table[:, where[: len(rows)]]


# --- regularity gate ------------------------------------------------------------


def check_hypothesis(spec: ProblemSpec, phi_full: SpectralField, sources_full) -> list:
    """Failure messages for the smoothness gate; empty when it passes.

    A field fails only when spectra.tail_verdicts calls its weighted sum at
    the claimed exponent divergent; finite and inconclusive verdicts pass.
    """
    failures = []
    a = spec.claimed_exponent
    half_n = spec.dimension / 2.0
    if not (a > half_n):
        failures.append(
            f"claimed exponent a = {a} does not exceed dimension/2 = {half_n}"
        )
    fields = [("initial datum", phi_full)]
    fields += [(f"source factor {i}", g_full) for i, (g_full, _q) in enumerate(sources_full)]
    for name, c in fields:
        radii, weight_sq = radial_weight_sq(c)
        if tail_verdicts(radii, weight_sq, [a], math.sqrt(c.truncation_radius_sq)) == ["divergent"]:
            failures.append(f"{name} fails the tail test at exponent a = {a}")
    return failures


# --- solution container ----------------------------------------------------------


@dataclass(frozen=True)
class SolutionField:
    """Mode trajectories as arrays, plus enough metadata to render and verify.

    Row i of the int64 index matrix (modes x N) is mode n_i, in modes_within
    (lexicographic) order.  values[i] is its trajectory at times, phi[i] its
    initial coefficient, lam[i] = |n_i|^2, and quadrature_error_est[i] the
    mesh discrepancy of its convolution.  The arrays are read-only.
    mode_solutions, and its alias modes, is a read-only MultiIndex ->
    ModeSolution view in the same order, built on first use.
    """

    dimension: int
    rho: float
    T: float
    times: tuple
    truncation_radius_sq: int
    grid_M: int
    real_valued: bool
    max_quadrature_error: float
    index: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    quadrature_error_est: np.ndarray = field(repr=False)
    _view: MappingProxyType | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("index", "phi", "lam", "values", "quadrature_error_est"):
            getattr(self, name).setflags(write=False)

    @property
    def mode_solutions(self):
        if self._view is None:
            view = {
                MultiIndex(tuple(row)): ModeSolution(
                    lam=lam, phi_n=phi_n, times=self.times, values=values, quadrature_error_est=est
                )
                for row, lam, phi_n, values, est in zip(
                    self.index.tolist(),
                    self.lam.tolist(),
                    self.phi.tolist(),
                    self.values,
                    self.quadrature_error_est.tolist(),
                )
            }
            object.__setattr__(self, "_view", MappingProxyType(view))
        return self._view

    @property
    def modes(self):
        return self.mode_solutions

    def spectral_at(self, time_index: int) -> SpectralField:
        return SpectralField.from_arrays(
            self.index,
            self.values[:, time_index],
            self.truncation_radius_sq,
            real_valued=self.real_valued,
        )

    def grid_at(self, time_index: int, points_per_axis: int | None = None) -> GridField:
        m = self.grid_M if points_per_axis is None else int(points_per_axis)
        return synthesize(self.spectral_at(time_index), m)

    def mode_history(self, n) -> np.ndarray:
        sol = self.mode_solutions.get(as_multi_index(n, self.dimension))
        if sol is None:
            return np.zeros(len(self.times), dtype=complex)
        return sol.values


def solve(
    spec: ProblemSpec,
    times,
    truncation_radius_sq: int,
    grid_M: int,
    mesh_M: int = 256,
    grading_r: float | None = None,
    tolerance: float | None = None,
    strict: bool = False,
    workers: int | None = None,
) -> SolutionField:
    """Assemble the truncated field solution at the requested times.

    Every mode in the ball |n|^2 < truncation_radius_sq with nonzero data is
    solved (zero-data modes contribute the zero trajectory and are skipped)
    by modal.solve_shells: the modes with equal |n|^2 share their
    Mittag-Leffler values and kernel moments, each source profile's
    convolution is formed once per shell, and each mode still refines its
    quadrature mesh to its own tolerance.  With workers > 1 the shells are
    split into contiguous groups of about equal mode count, solved on a
    process pool by the same function.
    In strict mode a failed smoothness gate raises RegularityError; otherwise
    failures are issued as warnings and the solve proceeds.
    """
    k = int(truncation_radius_sq)
    require_alias_free(k, grid_M)
    n_dim = spec.dimension

    phi_full = _as_spectral(spec.phi, n_dim)
    sources_full = [(_as_spectral(g, n_dim), q) for g, q in spec.source]

    failures = check_hypothesis(spec, phi_full, sources_full)
    if failures:
        if strict:
            raise RegularityError("; ".join(failures))
        for msg in failures:
            warnings.warn(msg, stacklevel=2)

    times_arr = np.asarray(times, dtype=float)
    if times_arr.ndim != 1 or times_arr.size == 0:
        raise DomainError("times must be a nonempty 1-d sequence")
    if times_arr[-1] > spec.T * (1.0 + 1e-12):
        raise DomainError(f"times exceed the horizon T = {spec.T}")

    fields = [_truncate(phi_full, k)] + [_truncate(g, k) for g, _q in sources_full]
    index, table = _coefficient_table(fields, n_dim)
    profiles = [q for _g, q in sources_full]
    weights = table[1:].T
    live = [not q.is_zero for q in profiles]
    keep = (table[0] != 0.0) | np.any(weights[:, live] != 0.0, axis=1)
    index, phi, weights = index[keep], table[0][keep], weights[keep]
    lam = _norm_sq(index).astype(float)

    mesh_r = default_grading(spec.rho) if grading_r is None else float(grading_r)
    mesh = GradedMesh(spec.T, mesh_M, mesh_r)
    parts = [slice(None)]
    if workers is not None and workers > 1:
        # contiguous groups of shells, each cut at the first shell boundary
        # past a multiple of modes / workers
        order = np.argsort(lam, kind="stable")
        _, shell_start = np.unique(lam[order], return_index=True)
        edges = np.append(shell_start, lam.size)
        cuts = edges[np.searchsorted(edges, lam.size * np.arange(1, workers) / workers)]
        bounds = np.unique(np.concatenate([[0], cuts, [lam.size]]))
        if bounds.size > 2:
            parts = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    n = len(parts)
    tasks = (
        [spec.rho] * n,
        [lam[p] for p in parts],
        [phi[p] for p in parts],
        [weights[p] for p in parts],
        [profiles] * n,
        [times_arr] * n,
        [mesh] * n,
        [tolerance] * n,
    )
    if n > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=int(workers)) as pool:
            results = list(pool.map(solve_shells, *tasks))
    else:
        results = list(map(solve_shells, *tasks))
    values = np.empty((lam.size, times_arr.size), dtype=complex)
    est = np.empty(lam.size)
    for p, (v, e) in zip(parts, results):
        values[p], est[p] = v, e

    real = phi_full.real_valued and all(
        g.real_valued and q.is_real for g, q in sources_full
    )
    return SolutionField(
        dimension=n_dim,
        rho=spec.rho,
        T=spec.T,
        times=tuple(float(t) for t in times_arr),
        truncation_radius_sq=k,
        grid_M=int(grid_M),
        real_valued=real,
        max_quadrature_error=float(np.max(est, initial=0.0)),
        index=index,
        phi=phi,
        lam=lam,
        values=values,
        quadrature_error_est=est,
    )


# --- termwise operators -----------------------------------------------------------


def _uniform_dt(times: tuple) -> float:
    ts = np.asarray(times, dtype=float)
    if ts.size < 2:
        raise MeshError("need at least two time samples")
    if ts[0] != 0.0:
        raise MeshError("termwise time differentiation needs a history starting at t = 0")
    steps = np.diff(ts)
    dt = float(steps[0])
    if dt <= 0.0 or np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise MeshError("time samples are not uniformly spaced")
    return dt


def apply_termwise(sol: SolutionField, which: str) -> SolutionField:
    """Apply the spatial operator or the fractional time derivative per mode.

    which = "A": multiplies each mode history by |n|^2 (exact, per time slice).
    which = "caputo": applies the uniform-grid L1 derivative to each history;
    the result lives on times[1:].  Raises MeshError off uniform grids.
    """
    if which == "A":
        return replace(
            sol,
            max_quadrature_error=float(np.max(sol.lam, initial=0.0)) * sol.max_quadrature_error,
            phi=sol.lam * sol.phi,
            values=sol.lam[:, None] * sol.values,
            quadrature_error_est=sol.lam * sol.quadrature_error_est,
        )
    if which == "caputo":
        dt = _uniform_dt(sol.times)
        dv = np.zeros((len(sol.lam), len(sol.times) - 1), dtype=complex)
        for row, w in zip(dv, sol.values):
            row[:] = caputo_l1(w, sol.rho, dt)
        return replace(sol, times=sol.times[1:], phi=dv[:, 0], values=dv)
    raise DomainError(f"operator must be 'A' or 'caputo', got {which!r}")


# --- residual verification --------------------------------------------------------

# Grid points per batched inverse FFT when residual synthesizes its time slices.
_RESIDUAL_BLOCK_POINTS = 2_000_000


@dataclass(frozen=True)
class ResidualReport:
    """Discrete residual of the solved equation, synthesized on the grid."""

    sup_residual: float
    initial_layer_sup: float
    initial_error: float
    truncation_radius_sq: int
    tail_norm_estimates: tuple
    per_mode_worst: MultiIndex
    dt: float


def residual(sol: SolutionField, spec: ProblemSpec, dt: float) -> ResidualReport:
    """Sup of |D^rho u + A u - f| over the grid and times in [0.05 T, T].

    The fractional derivative acts per mode via the L1 scheme (backward
    second-order centered differencing in the classical limit rho = 1), A is
    exact per mode, and f uses the same truncation the solve used.  The
    initial layer t < 0.05 T is reported separately; the initial-condition
    mismatch is measured on the grid at t = 0.
    """
    grid_dt = _uniform_dt(sol.times)
    if abs(grid_dt - dt) > 1e-9 * dt:
        raise MeshError(f"solution grid spacing {grid_dt} does not match dt = {dt}")
    times = np.asarray(sol.times, dtype=float)
    n = times.size - 1
    horizon = times[-1]

    k = sol.truncation_radius_sq
    if sol.rho < 1.0:
        eval_times = times[1:]
        dw = apply_termwise(sol, "caputo").values
        w_eval = sol.values[:, 1:]
    else:
        eval_times = times[1:n]
        dw = (sol.values[:, 2:] - sol.values[:, :-2]) / (2.0 * dt)
        w_eval = sol.values[:, 1:n]
    rows = dw + sol.lam[:, None] * w_eval
    if spec.source:
        # each mode's source, sum_i g_i[n] q_i(t), as one product over the modes
        fields = [_truncate(_as_spectral(g, spec.dimension), k) for g, _q in spec.source]
        _, table = _coefficient_table(fields, spec.dimension, sol.index)
        rows -= table.T @ np.array([q(eval_times) for _g, q in spec.source])

    keep = eval_times >= 0.05 * horizon
    grid_axes = tuple(range(1, spec.dimension + 1))
    block = max(1, _RESIDUAL_BLOCK_POINTS // sol.grid_M**spec.dimension)
    amps = np.zeros(eval_times.size)
    for j in range(0, eval_times.size, block):
        samples = _synthesize_rows(sol.index, rows[:, j : j + block].T, k, sol.grid_M)
        amps[j : j + block] = np.max(np.abs(samples), axis=grid_axes)
    sup_body = float(np.max(amps[keep], initial=0.0))
    sup_layer = float(np.max(amps[~keep], initial=0.0))

    if len(sol.lam):
        per_mode = np.max(np.abs(rows[:, keep]), axis=1) if np.any(keep) else np.max(
            np.abs(rows), axis=1
        )
        worst = MultiIndex(tuple(sol.index[int(np.argmax(per_mode))].tolist()))
    else:
        worst = MultiIndex((0,) * spec.dimension)

    if times[0] == 0.0:
        phi_t = _truncate(_as_spectral(spec.phi, spec.dimension), k)
        u0 = sol.grid_at(0).samples
        p0 = synthesize(phi_t, sol.grid_M).samples
        init_err = float(np.max(np.abs(u0 - p0)))
    else:
        init_err = math.nan

    tails = _tail_parts(spec, spec.claimed_exponent, k, horizon)
    return ResidualReport(
        sup_residual=sup_body,
        initial_layer_sup=sup_layer,
        initial_error=init_err,
        truncation_radius_sq=k,
        tail_norm_estimates=tails,
        per_mode_worst=worst,
        dt=float(dt),
    )


# --- truncation tail indicator ----------------------------------------------------


def _tail_parts(spec: ProblemSpec, a: float, truncation_radius_sq: int, t: float):
    if not (t > 0.0):
        raise DomainError(f"tail indicator needs t > 0, got {t}")
    k = int(truncation_radius_sq)
    phi_full = _as_spectral(spec.phi, spec.dimension)
    norm_sq = _norm_sq(phi_full._index)
    tail = norm_sq >= k
    phi_tail = sum(
        float(n) ** a * abs(v) ** 2
        for n, v in zip(norm_sq[tail].tolist(), phi_full._values[tail].tolist())
    )
    phi_part = t ** (-2.0 * spec.rho) * phi_tail

    src_part = 0.0
    if spec.source:
        fields = [_as_spectral(g, spec.dimension) for g, _q in spec.source]
        index, table = _coefficient_table(fields, spec.dimension)
        norm_sq = _norm_sq(index)
        tail = norm_sq >= k
        probe = np.linspace(0.0, spec.T, 65)
        sources = table[:, tail].T @ np.array([q(probe) for _g, q in spec.source])
        peaks = np.max(np.abs(sources), axis=1, initial=0.0)
        src_part = sum(
            float(n) ** a * p**2 for n, p in zip(norm_sq[tail].tolist(), peaks.tolist())
        )
    return (float(phi_part), float(src_part))


def truncation_tail(spec: ProblemSpec, a: float, truncation_radius_sq: int, t: float) -> float:
    """Stored-coefficient tail indicator used to judge a truncation radius.

    Returns t^{-2 rho} sum_{|n|^2 >= k} |n|^{2a} |phi_n|^2 plus the source
    analogue sum |n|^{2a} max_t |f_n(t)|^2 over stored modes beyond the radius.
    """
    phi_part, src_part = _tail_parts(spec, a, truncation_radius_sq, t)
    return phi_part + src_part
