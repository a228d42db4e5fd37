"""Scalar fractional Cauchy problem per Fourier mode.

Each mode solves D^rho w + lam w = f with w(0) = phi, whose solution is
w(t) = phi E_{rho,1}(-lam t^rho) + (f * kernel)(t) with the relaxation
kernel xi^{rho-1} E_{rho,rho}(-lam xi^rho).

The convolution is computed by product integration: the kernel, which
carries the xi^{rho-1} singularity, is integrated exactly per subinterval
(differences of its running integral, stable by construction), while f is
frozen at subinterval midpoints.  A graded mesh concentrates nodes at the
singular end; accuracy is certified by mesh doubling, not by an a priori
estimate.

The homogeneous factor and the kernel moments depend on lam but not on the
mode, and the source is separable, f_n(t) = sum_i g_i[n] q_i(t), so the
convolution of each q_i is needed once per eigenvalue shell lam = |n|^2.
solve_shells solves the modes of every shell together: one Mittag-Leffler
call for the homogeneous factor; on each mesh level the new kernel points of
all shells still refining, in blocks that span shells (the previous level's
nodes are reused); each q_i evaluated at the lags once per batch of shells,
not per mode; and a mode's convolution formed as sum_i g_i[n] C_i(lam, t).
Only the refinement decision is per mode.  solve_mode is its one-mode case.

The L1 differentiator closes the loop: residuals of the computed w under the
discrete Caputo operator verify the equation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mlf
from .errors import ConvergenceError, DomainError, MeshError

_EPS = float(np.finfo(float).eps)
_M_CAP = 65536  # refinement ceiling for the certified convolution


class TimeProfile:
    """Time dependence of one source coefficient; continuous on its domain.

    Construct via the classmethods:
      constant(c), polynomial(coeffs ascending), cosine(omega, phase),
      exponential(rate), sampled(nodes, values).
    Calling the profile with a float or array returns complex values.
    """

    __slots__ = ("kind", "_data")

    def __init__(self, kind, data):
        self.kind = kind
        self._data = data

    @classmethod
    def constant(cls, c) -> "TimeProfile":
        return cls("constant", complex(c))

    @classmethod
    def polynomial(cls, coeffs) -> "TimeProfile":
        cs = tuple(complex(c) for c in coeffs)
        if not cs:
            cs = (0j,)
        return cls("polynomial", cs)

    @classmethod
    def cosine(cls, omega: float, phase: float = 0.0) -> "TimeProfile":
        return cls("cosine", (float(omega), float(phase)))

    @classmethod
    def exponential(cls, rate: float) -> "TimeProfile":
        return cls("exponential", float(rate))

    @classmethod
    def sampled(cls, nodes, values) -> "TimeProfile":
        t = np.asarray(nodes, dtype=float)
        v = np.asarray(values, dtype=complex)
        if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
            raise DomainError("sampled profile needs matching 1-d nodes and values")
        if not np.all(np.diff(t) > 0.0):
            raise DomainError("sampled profile nodes must be strictly increasing")
        return cls("sampled", (t.copy(), v.copy()))

    @classmethod
    def zero(cls) -> "TimeProfile":
        return cls("constant", 0j)

    @classmethod
    def weighted_sum(cls, terms) -> "TimeProfile":
        """Linear combination sum_i c_i p_i(t) of existing profiles."""
        flat = []
        for coeff, prof in terms:
            c = complex(coeff)
            if c == 0j or prof.is_zero:
                continue
            if prof.kind == "sum":
                flat.extend((c * ci, pi) for ci, pi in prof._data)
            else:
                flat.append((c, prof))
        if not flat:
            return cls.zero()
        return cls("sum", tuple(flat))

    @property
    def is_zero(self) -> bool:
        if self.kind == "constant":
            return self._data == 0j
        if self.kind == "polynomial":
            return all(c == 0j for c in self._data)
        if self.kind == "sum":
            return not self._data
        return False

    @property
    def is_real(self) -> bool:
        """Whether the profile takes only real values on its domain."""
        if self.kind == "constant":
            return self._data.imag == 0.0
        if self.kind == "polynomial":
            return all(c.imag == 0.0 for c in self._data)
        if self.kind in ("cosine", "exponential"):
            return True
        if self.kind == "sum":
            return all(c.imag == 0.0 and p.is_real for c, p in self._data)
        return bool(np.all(self._data[1].imag == 0.0))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if self.kind == "constant":
            out = np.full(arr.shape, self._data, dtype=complex)
        elif self.kind == "polynomial":
            out = np.zeros(arr.shape, dtype=complex)
            for c in reversed(self._data):
                out = out * arr + c
        elif self.kind == "cosine":
            omega, phase = self._data
            out = np.cos(omega * arr + phase).astype(complex)
        elif self.kind == "exponential":
            out = np.exp(self._data * arr).astype(complex)
        elif self.kind == "sum":
            out = np.zeros(arr.shape, dtype=complex)
            for coeff, prof in self._data:
                out += coeff * prof(arr)
        else:
            nodes, values = self._data
            lo, hi = nodes[0], nodes[-1]
            span = hi - lo
            if np.any(arr < lo - 1e-12 * span) or np.any(arr > hi + 1e-12 * span):
                raise DomainError("sampled profile queried outside its node range")
            q = np.clip(arr, lo, hi)
            out = np.interp(q, nodes, values.real) + 1j * np.interp(
                q, nodes, values.imag
            )
        return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class GradedMesh:
    """Nodes xi_j = T (j/M)^r, clustering at 0 for r > 1."""

    T: float
    M: int
    r: float = 1.0

    def __post_init__(self):
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise MeshError(f"final time must be positive and finite, got {self.T}")
        if int(self.M) != self.M or self.M < 1:
            raise MeshError(f"subinterval count must be a positive integer, got {self.M}")
        if not (self.r >= 1.0) or not math.isfinite(self.r):
            raise MeshError(f"grading exponent must be >= 1, got {self.r}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "T", float(self.T))

    def node_fractions(self) -> np.ndarray:
        return (np.arange(self.M + 1) / self.M) ** self.r

    def midpoint_fractions(self) -> np.ndarray:
        return ((np.arange(self.M) + 0.5) / self.M) ** self.r

    def nodes(self) -> np.ndarray:
        return self.T * self.node_fractions()

    def doubled(self) -> "GradedMesh":
        return GradedMesh(self.T, 2 * self.M, self.r)


def default_grading(rho: float) -> float:
    """Grading exponent 2/rho, clipped to [1, 4]: compensates the t^rho layer."""
    return min(max(2.0 / rho, 1.0), 4.0)


@dataclass(frozen=True)
class ModeSolution:
    """One mode's trajectory with its quadrature self-certification.

    quadrature_error_est is the discrepancy between the convolution on the
    last two mesh levels, so it bounds the mesh discrepancy only: it carries
    neither the Mittag-Leffler evaluator's own error nor the rounding of the
    values, and near t = 0 it can sit below one ulp of max|w|.
    """

    lam: float
    phi_n: complex
    times: tuple
    values: np.ndarray
    quadrature_error_est: float


# New kernel points per mlf.kernel_cumulative call.  Every shell's (time,
# node) pairs are flattened together, so one call serves many shells, and a
# shell whose times x new nodes exceed the block has its times split.
_KERNEL_BLOCK_POINTS = 32_768


def _kernel_level(rho, lam, times, mesh, profiles, coarse=None):
    """Running kernel integral and profile convolutions of every shell on one mesh.

    lam holds one eigenvalue per shell.  Returns (cum, conv): cum[s, j] is the
    kernel integral from 0 to times[j] * f at each node fraction f of the
    mesh, and conv[s, i, j] the product-integration convolution of
    profiles[i] with shell s's kernel at times[j].  The mesh's fractional
    layout is rescaled to [0, t] per time: the kernel mass of a subinterval
    is a difference of cum, and the profile is frozen at its midpoint (in
    the kernel variable).  Each profile is evaluated once per block of
    times, for all shells.

    coarse, when given, is cum on the mesh with half as many subintervals.
    Its nodes are this mesh's even nodes bit for bit, so only the odd nodes
    are evaluated.
    """
    fractions = mesh.node_fractions()
    cum = np.empty((lam.size, times.size, mesh.M + 1))
    if coarse is None:
        cum[..., 0] = 0.0  # the integral over [0, 0]
        new = slice(1, None)
    else:
        cum[..., ::2] = coarse
        new = slice(1, None, 2)
    target, fr_new = cum[..., new], fractions[new]
    pairs = lam.size * times.size
    rows = max(1, _KERNEL_BLOCK_POINTS // fr_new.size)
    for start in range(0, pairs, rows):
        s, j = np.divmod(np.arange(start, min(start + rows, pairs)), times.size)
        target[s, j] = mlf.kernel_cumulative(rho, lam[s, None], times[j, None] * fr_new)

    conv = np.empty((lam.size, len(profiles), times.size), dtype=complex)
    lag_fractions = 1.0 - mesh.midpoint_fractions()
    rows = max(1, _KERNEL_BLOCK_POINTS // mesh.M)
    for start in range(0, times.size, rows):
        part = slice(start, start + rows)
        lags = times[part, None] * lag_fractions
        q = np.array([np.asarray(p(lags), dtype=complex) for p in profiles])
        for s in range(lam.size):
            conv[s, :, part] = np.sum(np.diff(cum[s, part], axis=1) * q, axis=-1)
    return cum, conv


def convolve_kernel(rho: float, lam: float, f_n: TimeProfile, t: float, mesh: GradedMesh) -> complex:
    """Integral of f_n(t-xi) xi^{rho-1} E_{rho,rho}(-lam xi^rho) over [0, t], on mesh alone."""
    _check_mode_params(rho, lam)
    if not (0.0 < t <= mesh.T * (1.0 + 1e-12)):
        raise DomainError(f"need 0 < t <= mesh.T = {mesh.T}, got t = {t}")
    _, conv = _kernel_level(rho, np.array([float(lam)]), np.array([float(t)]), mesh, [f_n])
    return complex(conv[0, 0, 0])


def _check_mode_params(rho: float, lam) -> None:
    if not (0.0 < rho <= 1.0) or not math.isfinite(rho):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0.0) or not np.all(np.isfinite(lam)):
        raise DomainError(f"eigenvalue must be finite and nonnegative, got {lam}")


def solve_shells(
    rho: float,
    lam,
    phi,
    weights,
    profiles,
    times,
    mesh: GradedMesh,
    tolerance: float | None = None,
):
    """Trajectories of many modes at once, the work shared per eigenvalue shell.

    Mode m has eigenvalue lam[m], initial value phi[m] and source
    f_m(t) = sum_i weights[m, i] profiles[i](t), so its trajectory is
    w_m(t) = phi[m] E_{rho,1}(-lam[m] t^rho) + sum_i weights[m, i] C_i(lam[m], t)
    with C_i the kernel convolution of profiles[i].  Modes with equal lam
    form a shell.  E_{rho,1} is evaluated for every (shell, time) pair in one
    call; on each mesh level the kernel and the C_i are computed once for
    every shell that still has a member refining.

    Each mode follows the solve_mode rule on its own: the mesh is doubled
    until max_t |w_fine - w_coarse| over its own convolution is within the
    tolerance, that discrepancy is its quadrature_error_est, and a mode
    still above it at the ceiling raises ConvergenceError.  A shell's
    results do not depend on which other shells are solved with it.

    Returns (values, quadrature_error_est): a (modes x times) complex array
    and a (modes,) float array.
    """
    lam = np.asarray(lam, dtype=float)
    _check_mode_params(rho, lam)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a nonempty 1-d sequence")
    if np.any(np.diff(times) < 0.0):
        raise DomainError("times must be sorted ascending")
    if times[0] < 0.0 or times[-1] > mesh.T * (1.0 + 1e-12):
        raise DomainError(f"times must lie in [0, {mesh.T}]")
    if tolerance is None:
        tolerance = 1e-8 if rho == 1.0 else 1e-6
    phi = np.asarray(phi, dtype=complex)
    # a zero profile contributes nothing, as in TimeProfile.weighted_sum
    live = [i for i, p in enumerate(profiles) if not p.is_zero]
    weights = np.asarray(weights, dtype=complex).reshape(lam.size, len(profiles))[:, live]
    profiles = [profiles[i] for i in live]

    shell_lam, shell_of = np.unique(lam, return_inverse=True)
    homog, _, _ = mlf.mlf_neg_array(mlf.MlfParams(rho, 1.0), shell_lam[:, None] * times**rho)
    values = phi[:, None] * homog[shell_of]
    est = np.zeros(lam.size)

    pos = np.flatnonzero(times > 0.0)
    t_pos = times[pos]
    # the modes with a convolution to refine, grouped by shell
    active = np.any(weights != 0.0, axis=1) & (pos.size > 0)
    order = np.argsort(shell_of, kind="stable")
    order = order[active[order]]
    shells, starts = np.unique(shell_of[order], return_index=True)
    members = np.split(order, starts[1:]) if order.size else []
    current = mesh
    if members:
        cum, conv = _kernel_level(rho, shell_lam[shells], t_pos, current, profiles)
        coarse = [weights[m] @ c for m, c in zip(members, conv)]
    while members:
        refined = current.doubled()
        # a level is refined a few shells at a time, about one kernel block of
        # new nodes each, so only the fine nodes of shells still refining are
        # held beside the coarse level
        step = max(1, _KERNEL_BLOCK_POINTS // (t_pos.size * current.M))
        keep, kept_cum = [], []
        for start in range(0, len(members), step):
            part = slice(start, start + step)
            fine_cum, conv = _kernel_level(
                rho, shell_lam[shells[part]], t_pos, refined, profiles, cum[part]
            )
            still = []
            for j, c in enumerate(conv):
                m = members[start + j]
                fine = weights[m] @ c
                err = np.max(np.abs(fine - coarse[start + j]), axis=1)
                est[m] = err
                done = err <= tolerance
                values[np.ix_(m[done], pos)] += fine[done]
                if done.all():
                    continue
                if refined.M >= _M_CAP:
                    raise ConvergenceError(
                        f"mesh doubling up to M={refined.M} leaves quadrature "
                        f"discrepancy {err[~done][0]:.3e} above tolerance {tolerance:.1e}"
                    )
                members[start + j], coarse[start + j] = m[~done], fine[~done]
                still.append(j)
            keep += [start + j for j in still]
            kept_cum.append(fine_cum[still])
        shells, cum = shells[keep], np.concatenate(kept_cum)
        members = [members[s] for s in keep]
        coarse = [coarse[s] for s in keep]
        current = refined

    # exact initial value, by definition rather than by quadrature
    values[:, times == 0.0] = phi[:, None]
    return values, est


def solve_mode(
    rho: float,
    lam: float,
    phi_n: complex,
    f_n: TimeProfile,
    times,
    mesh: GradedMesh,
    tolerance: float | None = None,
) -> ModeSolution:
    """Mode trajectory phi E_{rho,1}(-lam t^rho) + (f * kernel)(t) at given times.

    The convolution runs on the mesh and on its doubling; the maximum
    discrepancy is reported as quadrature_error_est.  If it exceeds the
    tolerance (default 1e-8 in the classical limit rho = 1, 1e-6 otherwise),
    the mesh is doubled again, up to a ceiling, before giving up.  The
    estimate bounds the mesh discrepancy only, not the Mittag-Leffler error
    or the rounding of the values.  This is the one-mode, one-profile case
    of solve_shells.
    """
    profiles = [] if f_n is None else [f_n]
    values, est = solve_shells(
        rho, [lam], [phi_n], [[1.0] * len(profiles)], profiles, times, mesh, tolerance
    )
    values.setflags(write=False)
    return ModeSolution(
        lam=float(lam),
        phi_n=complex(phi_n),
        times=tuple(float(t) for t in np.asarray(times, dtype=float)),
        values=values[0],
        quadrature_error_est=float(est[0]),
    )


# --- L1 discrete differentiators ---------------------------------------------


def _l1_weights(rho: float, count: int) -> np.ndarray:
    j = np.arange(count, dtype=float)
    return (j + 1.0) ** (1.0 - rho) - j ** (1.0 - rho)


def _conv_full_prefix(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First len(d) entries of the full convolution d * b."""
    n = d.size
    if n <= 4096:
        return np.convolve(d, b)[:n]
    size = 1
    while size < 2 * n:
        size *= 2
    return (np.fft.ifft(np.fft.fft(d, size) * np.fft.fft(b, size)))[:n]


def caputo_l1(h, rho: float, dt: float) -> np.ndarray:
    """L1 discretization of the Caputo derivative on a uniform grid.

    Input: samples h(0), h(dt), ..., h(n dt).  Output: derivative values at
    t = dt, ..., n dt (length n).  Exact for piecewise-linear h; O(dt^{2-rho})
    for twice-differentiable h.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError(f"the L1 scheme needs rho in (0, 1), got {rho}")
    if not (dt > 0.0) or not math.isfinite(dt):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    hv = np.asarray(h, dtype=complex).ravel()
    if hv.size < 2:
        raise DomainError("need at least two samples")
    d = np.diff(hv)
    b = _l1_weights(rho, d.size)
    out = _conv_full_prefix(d, b) * (dt ** (-rho) / math.gamma(2.0 - rho))
    if np.all(hv.imag == 0.0):
        return out.real.copy()
    return out


def riemann_liouville_l1(h, rho: float, dt: float) -> np.ndarray:
    """Riemann-Liouville companion: Caputo output plus h(0) t^{-rho}/Gamma(1-rho).

    Output points start at t = dt, so the t = 0 singularity of the correction
    is never evaluated.
    """
    base = caputo_l1(h, rho, dt)
    hv = np.asarray(h, dtype=complex).ravel()
    m = np.arange(1, hv.size)
    corr = hv[0] * (m * dt) ** (-rho) / math.gamma(1.0 - rho)
    if base.dtype != complex:
        return base + corr.real
    return base + corr


@dataclass(frozen=True)
class CauchyResidualReport:
    """Discrete-equation residuals for one mode at two resolutions."""

    dt: float
    max_residual: float
    initial_layer_max: float
    observed_rate: float
    initial_value_error: float


def verify_cauchy(
    rho: float,
    lam: float,
    phi_n: complex,
    f_n: TimeProfile,
    dt: float,
    T: float,
    mesh: GradedMesh | None = None,
) -> CauchyResidualReport:
    """Check D^rho w + lam w = f and w(0) = phi on the discrete grid.

    The max residual is taken over t in [0.05 T, T]; the initial layer is
    reported separately because the exact solution's t^rho behaviour caps the
    L1 rate there.  The observed rate compares dt with dt/2 residuals.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError(f"residual verification needs rho in (0, 1), got {rho}")
    _check_mode_params(rho, lam)
    if not (T > 0.0) or not (0.0 < dt < T):
        raise DomainError(f"need 0 < dt < T, got dt={dt}, T={T}")
    n = round(T / dt)
    if abs(n * dt - T) > 1e-9 * T or n < 4:
        raise MeshError(f"T must be an integral multiple (>= 4) of dt, got T/dt = {T/dt}")
    if mesh is None:
        mesh = GradedMesh(T, 256, default_grading(rho))

    def residuals(steps: int) -> tuple[np.ndarray, float]:
        step = T / steps
        times = step * np.arange(steps + 1)
        sol = solve_mode(rho, lam, phi_n, f_n, times, mesh)
        dw = caputo_l1(sol.values, rho, step)
        w_tail = np.asarray(sol.values[1:])
        f_tail = f_n(times[1:]) if f_n is not None else np.zeros(steps, dtype=complex)
        res = np.abs(dw + lam * w_tail - f_tail)
        iv_err = abs(sol.values[0] - phi_n)
        return res, iv_err

    res1, iv_err = residuals(n)
    res2, _ = residuals(2 * n)
    t1 = dt * np.arange(1, n + 1)
    t2 = (dt / 2) * np.arange(1, 2 * n + 1)
    layer = 0.05 * T
    body1 = float(np.max(res1[t1 >= layer]))
    body2 = float(np.max(res2[t2 >= layer]))
    layer1 = float(np.max(res1[t1 < layer])) if np.any(t1 < layer) else 0.0

    scale = max(abs(phi_n), float(np.max(np.abs(f_n(t1)))) if f_n is not None else 0.0, 1e-30)
    if body1 <= 1e-12 * scale and body2 <= 1e-12 * scale:
        rate = math.inf  # both residuals at rounding level: exact cases
    else:
        if body2 >= body1:
            raise ConvergenceError(
                f"residual did not decrease under refinement: {body1:.3e} -> {body2:.3e}"
            )
        rate = math.log2(body1 / body2)
    return CauchyResidualReport(
        dt=float(dt),
        max_residual=body1,
        initial_layer_max=layer1,
        observed_rate=rate,
        initial_value_error=iv_err,
    )
