"""Field-level driver: truncation, per-shell solves, termwise operators, residuals.

The field u(x, t) = sum over retained modes of w_n(t) e^{i n.x} is assembled
from scalar mode problems (lam = |n|^2).  Modes with equal |n|^2 form one
eigenvalue shell and are solved together, sharing the Mittag-Leffler values
and kernel moments, which depend on lam alone.  Everything downstream of
the mode solves is linear bookkeeping: applying the spatial operator multiplies
a mode history by |n|^2, the fractional time derivative acts per mode through
the L1 scheme, and residuals are synthesized back onto the grid, every time
slice of a block in one batched inverse FFT.

Two diagnostics frame the truncation: a regularity gate on the claimed
smoothness exponent (advisory by default, enforced in strict mode), which
rejects data only when spectra.tail_verdicts calls their weighted sum
divergent, and a tail indicator over the stored-but-discarded coefficients
used to judge the radius.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DomainError, MeshError, RegularityError
from .modal import (
    GradedMesh,
    ModeSolution,
    TimeProfile,
    caputo_l1,
    default_grading,
    solve_shell,
)
from .spectra import (
    GridField,
    MultiIndex,
    SpectralField,
    _norm_sq,
    _synthesize_rows,
    analyze,
    modes_within,
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
    """Per-mode trajectories plus enough metadata to render and verify."""

    dimension: int
    rho: float
    T: float
    times: tuple
    truncation_radius_sq: int
    grid_M: int
    real_valued: bool
    max_quadrature_error: float
    mode_solutions: dict = field(repr=False)

    @property
    def modes(self):
        return MappingProxyType(self.mode_solutions)

    def spectral_at(self, time_index: int) -> SpectralField:
        modes = self.mode_solutions
        index = np.array([idx.components for idx in modes], dtype=np.int64)
        values = np.array([sol.values[time_index] for sol in modes.values()], dtype=complex)
        return SpectralField.from_arrays(
            index.reshape(len(modes), self.dimension),
            values,
            self.truncation_radius_sq,
            real_valued=self.real_valued,
        )

    def grid_at(self, time_index: int, points_per_axis: int | None = None) -> GridField:
        m = self.grid_M if points_per_axis is None else int(points_per_axis)
        return synthesize(self.spectral_at(time_index), m)

    def mode_history(self, n) -> np.ndarray:
        from .spectra import as_multi_index

        idx = as_multi_index(n, self.dimension)
        sol = self.mode_solutions.get(idx)
        if sol is None:
            return np.zeros(len(self.times), dtype=complex)
        return sol.values


def _shell_task(args):
    rho, lam, members, times, mesh_t, mesh_m, mesh_r, tol = args
    mesh = GradedMesh(mesh_t, mesh_m, mesh_r)
    return solve_shell(rho, lam, members, np.asarray(times), mesh, tol)


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
    solved (zero-data modes contribute the zero trajectory and are skipped),
    one eigenvalue shell at a time: the modes with equal |n|^2 share their
    Mittag-Leffler values and kernel moments, and each still refines its
    quadrature mesh to its own tolerance.  With workers > 1 the shells are
    spread over a process pool.
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

    phi_t = _truncate(phi_full, k)
    sources_t = [(_truncate(g, k), q) for g, q in sources_full]

    mesh_r = default_grading(spec.rho) if grading_r is None else float(grading_r)
    mode_solutions: dict = {}  # modes_within order, filled shell by shell
    shells: dict = {}
    for idx in modes_within(n_dim, k):
        phi_n = phi_t.get(idx)
        terms = [(g.get(idx), q) for g, q in sources_t]
        f_n = TimeProfile.weighted_sum(terms)
        if phi_n == 0j and f_n.is_zero:
            continue
        mode_solutions[idx] = None
        shells.setdefault(float(idx.norm_sq), []).append((idx, phi_n, f_n))
    tasks = [
        (spec.rho, lam, [(phi_n, f_n) for _, phi_n, f_n in group],
         tuple(times_arr), spec.T, mesh_M, mesh_r, tolerance)
        for lam, group in shells.items()
    ]

    if workers is not None and workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=int(workers)) as pool:
            results = list(
                pool.map(_shell_task, tasks,
                         chunksize=max(1, len(tasks) // (4 * int(workers)) or 1))
            )
    else:
        results = [_shell_task(t) for t in tasks]
    for group, sols in zip(shells.values(), results):
        for (idx, _, _), sol in zip(group, sols):
            mode_solutions[idx] = sol

    real = phi_full.real_valued and all(
        g.real_valued and q.is_real for g, q in sources_full
    )
    max_est = max((s.quadrature_error_est for s in mode_solutions.values()), default=0.0)
    return SolutionField(
        dimension=n_dim,
        rho=spec.rho,
        T=spec.T,
        times=tuple(float(t) for t in times_arr),
        truncation_radius_sq=k,
        grid_M=int(grid_M),
        real_valued=real,
        max_quadrature_error=max_est,
        mode_solutions=mode_solutions,
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
        new = {
            idx: ModeSolution(
                lam=s.lam,
                phi_n=s.lam * s.phi_n,
                times=s.times,
                values=s.lam * s.values,
                quadrature_error_est=s.lam * s.quadrature_error_est,
            )
            for idx, s in sol.mode_solutions.items()
        }
        scale = max((s.lam for s in sol.mode_solutions.values()), default=0.0)
        return SolutionField(
            dimension=sol.dimension,
            rho=sol.rho,
            T=sol.T,
            times=sol.times,
            truncation_radius_sq=sol.truncation_radius_sq,
            grid_M=sol.grid_M,
            real_valued=sol.real_valued,
            max_quadrature_error=scale * sol.max_quadrature_error,
            mode_solutions=new,
        )
    if which == "caputo":
        dt = _uniform_dt(sol.times)
        new = {}
        for idx, s in sol.mode_solutions.items():
            dv = caputo_l1(s.values, sol.rho, dt)
            dv = np.asarray(dv, dtype=complex)
            dv.setflags(write=False)
            new[idx] = ModeSolution(
                lam=s.lam,
                phi_n=complex(dv[0]),
                times=s.times[1:],
                values=dv,
                quadrature_error_est=s.quadrature_error_est,
            )
        return SolutionField(
            dimension=sol.dimension,
            rho=sol.rho,
            T=sol.T,
            times=sol.times[1:],
            truncation_radius_sq=sol.truncation_radius_sq,
            grid_M=sol.grid_M,
            real_valued=sol.real_valued,
            max_quadrature_error=sol.max_quadrature_error,
            mode_solutions=new,
        )
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
    sources_t = [
        (_truncate(_as_spectral(g, spec.dimension), k), q) for g, q in spec.source
    ]

    idx_list = sorted(sol.mode_solutions, key=lambda m: m.components)
    if sol.rho < 1.0:
        eval_times = times[1:]
    else:
        eval_times = times[1:n]
    rows = np.zeros((len(idx_list), eval_times.size), dtype=complex)
    for i, idx in enumerate(idx_list):
        s = sol.mode_solutions[idx]
        w = np.asarray(s.values)
        if sol.rho < 1.0:
            dw = caputo_l1(w, sol.rho, dt)
            dw = np.asarray(dw, dtype=complex)
            w_eval = w[1:]
        else:
            dw = (w[2:] - w[:-2]) / (2.0 * dt)
            w_eval = w[1:n]
        terms = [(g.get(idx), q) for g, q in sources_t]
        f_n = TimeProfile.weighted_sum(terms)
        rows[i] = dw + s.lam * w_eval - f_n(eval_times)

    keep = eval_times >= 0.05 * horizon
    index = np.array([idx.components for idx in idx_list], dtype=np.int64)
    index = index.reshape(len(idx_list), spec.dimension)
    grid_axes = tuple(range(1, spec.dimension + 1))
    block = max(1, _RESIDUAL_BLOCK_POINTS // sol.grid_M**spec.dimension)
    amps = np.zeros(eval_times.size)
    for j in range(0, eval_times.size, block):
        samples = _synthesize_rows(index, rows[:, j : j + block].T, k, sol.grid_M)
        amps[j : j + block] = np.max(np.abs(samples), axis=grid_axes)
    sup_body = float(np.max(amps[keep], initial=0.0))
    sup_layer = float(np.max(amps[~keep], initial=0.0))

    if idx_list:
        per_mode = np.max(np.abs(rows[:, keep]), axis=1) if np.any(keep) else np.max(
            np.abs(rows), axis=1
        )
        worst = idx_list[int(np.argmax(per_mode))]
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
    phi_tail = sum(
        float(idx.norm_sq) ** a * abs(val) ** 2
        for idx, val in phi_full.items()
        if idx.norm_sq >= k
    )
    phi_part = t ** (-2.0 * spec.rho) * phi_tail

    probe = np.linspace(0.0, spec.T, 65)
    src_part = 0.0
    if spec.source:
        sources_full = [(_as_spectral(g, spec.dimension), q) for g, q in spec.source]
        tail_modes = set()
        for g, _q in sources_full:
            tail_modes.update(
                idx for idx, _v in g.items() if idx.norm_sq >= k
            )
        for idx in tail_modes:
            prof = TimeProfile.weighted_sum([(g.get(idx), q) for g, q in sources_full])
            peak = float(np.max(np.abs(prof(probe)))) if not prof.is_zero else 0.0
            src_part += float(idx.norm_sq) ** a * peak**2
    return (float(phi_part), float(src_part))


def truncation_tail(spec: ProblemSpec, a: float, truncation_radius_sq: int, t: float) -> float:
    """Stored-coefficient tail indicator used to judge a truncation radius.

    Returns t^{-2 rho} sum_{|n|^2 >= k} |n|^{2a} |phi_n|^2 plus the source
    analogue sum |n|^{2a} max_t |f_n(t)|^2 over stored modes beyond the radius.
    """
    phi_part, src_part = _tail_parts(spec, a, truncation_radius_sq, t)
    return phi_part + src_part
