"""The four workloads of the fracspec benchmark.

Each workload builds its inputs from the seed (set-up), runs a fixed batch of
operations through fracspec's public functions, and checks the outputs of the
first batch.  The program only ever sees the generated inputs.  Functions are
called through their module attributes (``solver.solve``, not an imported
name), so the tracer in ``spans.py`` sees every call the benchmark makes.

Moduli of all seeded data are fixed and only phases or values inside a fixed
branch zone are drawn from the seed, so the amount of work (modes, mesh
levels, MLF branches) is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
from fracspec import counterexample, mlf, solver, spectra
from fracspec.modal import TimeProfile

ROOT = Path(__file__).resolve().parent.parent
# q(t) of every seeded source; fixed so the mesh refinement is seed-independent
PROFILE = (1.0, -0.5, 0.25)
ORACLE_POINTS = 24


class Batch:
    """Times the operations of one batch.  An exception fails its operation only."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.times: list = []  # (operation, seconds)
        self.failed: list = []
        self.out: dict = {}
        self.summaries: list = []  # tracer summaries, one per traced process
        self.wall = 0.0
        self.reference = None  # mean seconds of run.reference() during the batch
        self.digest = None

    def op(self, name, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, and the batch goes on
            traceback.print_exc(file=sys.stderr)
            result = None
            self.failed.append(name)
        self.times.append((name, time.perf_counter() - start))
        self.out[name] = result
        return result


def power_law_field(rng, dimension: int, k: int) -> spectra.SpectralField:
    """|c_n| = (1 + |n|^2)^-2 on the ball |n|^2 < k, with seeded phases."""
    modes = spectra.modes_within(dimension, k)
    phases = rng.uniform(0.0, 2.0 * math.pi, len(modes))
    return spectra.SpectralField(
        {
            idx: (1.0 + idx.norm_sq) ** -2 * complex(math.cos(p), math.sin(p))
            for idx, p in zip(modes, phases)
        },
        k,
        dimension=dimension,
    )


def fill_caches(pairs) -> float:
    """First gap-zone call per (rho, mu) pair; returns the summed cold-build time."""
    cold = 0.0
    for rho, mu in pairs:
        params = mlf.MlfParams(rho, mu)
        t = 12.0**rho  # s = t^(1/rho) = 12 lies in the Chebyshev zone for every mu
        start = time.perf_counter()
        mlf.mlf_neg(params, t)
        first = time.perf_counter() - start
        start = time.perf_counter()
        mlf.mlf_neg(params, t)
        cold += first - (time.perf_counter() - start)
    return cold


def digest(*parts) -> str:
    """Hash of the exact bits of numeric results; equal digests mean equal results."""
    h = hashlib.sha256()

    def feed(x):
        if x is None:
            h.update(b"<none>")
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        elif isinstance(x, bytes):
            h.update(x)
        else:
            h.update(repr(x).encode())

    feed(parts)
    return h.hexdigest()


def solution_parts(sol):
    if sol is None:
        return None
    return [
        (idx.components, sol.mode_solutions[idx].values, sol.mode_solutions[idx].quadrature_error_est)
        for idx in sorted(sol.mode_solutions, key=lambda m: m.components)
    ]


def oracle_check(sol, phi, g, rng, count):
    """Largest |w - w_exact| over seeded (mode, time) points, against the solver tolerance."""
    if sol is None:
        return False, "no solution to check"
    tolerance = 1e-8 if sol.rho == 1.0 else 1e-6
    modes = sorted(sol.mode_solutions, key=lambda m: m.components)
    points = [
        (idx, i)
        for idx in modes
        for i, t in enumerate(sol.times)
        if oracle.eligible(sol.mode_solutions[idx].lam, sol.rho, t)
    ]
    chosen = rng.choice(len(points), size=min(count, len(points)), replace=False)
    worst = 0.0
    for j in chosen:
        idx, i = points[j]
        mode = sol.mode_solutions[idx]
        exact = oracle.mode_value(
            sol.rho, mode.lam, phi.get(idx), g.get(idx), PROFILE, sol.times[i]
        )
        worst = max(worst, abs(exact - mode.values[i]))
    return worst <= tolerance, (
        f"max |w - w_exact| = {worst:.3g} over {len(chosen)} points, tolerance {tolerance:g}"
    )


class SolveShells3D:
    """3D field solve with ~14 modes per eigenvalue shell, then residual and grid_at."""

    name = "solve_shells_3d"
    pairs = ((0.5, 1.0),)
    min_batches = 1
    in_process = True
    RHO, K, GRID, STEPS = 0.5, 10, 9, 64

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.phi = power_law_field(rng, 3, self.K)
        self.g = power_law_field(rng, 3, self.K)
        self.spec = solver.ProblemSpec(
            3, self.RHO, 1.0, self.phi, ((self.g, TimeProfile.polynomial(PROFILE)),)
        )
        self.times = np.arange(self.STEPS + 1) / self.STEPS
        self.check_rng = np.random.default_rng([seed, 1])

    def batch(self, b: Batch):
        sol = b.op("solve", lambda: solver.solve(self.spec, self.times, self.K, self.GRID))
        b.op("residual", lambda: solver.residual(sol, self.spec, 1.0 / self.STEPS))
        b.op("grid_at", lambda: sol.grid_at(-1))

    def digest(self, b: Batch) -> str:
        grid = b.out["grid_at"]
        return digest(
            solution_parts(b.out["solve"]),
            b.out["residual"],
            None if grid is None else grid.samples,
        )

    def checks(self, b: Batch) -> list:
        ok, detail = oracle_check(b.out["solve"], self.phi, self.g, self.check_rng, ORACLE_POINTS)
        return [("closed_form", ok, detail)]


class Verify1D:
    """The residual-under-halving workflow: solve and residual at dt and at dt/2."""

    name = "verify_1d"
    pairs = ((0.7, 1.0),)
    min_batches = 1
    in_process = True
    # 33/65 times and mesh_M 64/128: with 129/257 times and mesh_M 256/512 a
    # batch took ~14 s, too long for one run to hold several
    RHO, K, GRID, STEPS, MESH = 0.7, 401, 43, 32, 64

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.phi = power_law_field(rng, 1, self.K)
        self.g = power_law_field(rng, 1, self.K)
        self.spec = solver.ProblemSpec(
            1, self.RHO, 1.0, self.phi, ((self.g, TimeProfile.polynomial(PROFILE)),)
        )
        self.check_rng = np.random.default_rng([seed, 1])

    def batch(self, b: Batch):
        for divider in (1, 2):
            steps = self.STEPS * divider
            times = np.arange(steps + 1) / steps
            sol = b.op(
                f"solve_dt{divider}",
                lambda: solver.solve(
                    self.spec, times, self.K, self.GRID, mesh_M=self.MESH * divider
                ),
            )
            b.op(f"residual_dt{divider}", lambda: solver.residual(sol, self.spec, 1.0 / steps))
        # a fifth, short operation keeps the median on one operation
        b.op("grid_at", lambda: sol.grid_at(-1))

    def digest(self, b: Batch) -> str:
        return digest(
            solution_parts(b.out["solve_dt1"]),
            b.out["residual_dt1"],
            solution_parts(b.out["solve_dt2"]),
            b.out["residual_dt2"],
            None if b.out["grid_at"] is None else b.out["grid_at"].samples,
        )

    def checks(self, b: Batch) -> list:
        out = []
        r1, r2 = b.out["residual_dt1"], b.out["residual_dt2"]
        if r1 is None or r2 is None:
            out.append(("halving_rate", False, "a residual failed"))
        else:
            rate = math.log2(r1.sup_residual / r2.sup_residual)
            out.append(("halving_rate", rate >= 0.8, f"log2(sup/sup_half) = {rate:.4f}, bound 0.8"))
        half = ORACLE_POINTS // 2
        for key in ("solve_dt1", "solve_dt2"):
            ok, detail = oracle_check(b.out[key], self.phi, self.g, self.check_rng, half)
            out.append((f"closed_form_{key}", ok, detail))
        return out


def holder_reference(datum, grid_m: int, exponent: float) -> float:
    """Hoelder quotient scan of the HL datum, synthesized here with a plain FFT."""
    n = np.arange(1, datum.k_max + 1)
    # x_j = -pi + 2 pi j / m, so e^{i n x_j} = (-1)^n e^{2 pi i n j / m}
    signed = np.where(n % 2 == 0, 1.0, -1.0) * datum.coeffs_pos
    spectrum = np.zeros(grid_m, dtype=complex)
    spectrum[n] = signed
    spectrum[grid_m - n] = np.conj(signed)
    samples = (np.fft.ifft(spectrum) * grid_m).real
    h = 2.0 * math.pi / grid_m
    best, stride = 0.0, 1
    while stride <= grid_m // 2:
        diff = float(np.max(np.abs(np.roll(samples, -stride) - samples)))
        best = max(best, diff / (stride * h) ** exponent)
        stride *= 2
    return best


def grid_from_coefficients(field, m: int) -> np.ndarray:
    """Samples of sum c_n e^{i n.x} on the grid x_j = -pi + 2 pi j / m, by a plain FFT."""
    cube = np.zeros((m,) * field.dimension, dtype=complex)
    for idx, value in field.items():
        sign = -1.0 if sum(idx.components) % 2 else 1.0
        cube[tuple(c % m for c in idx.components)] += sign * value
    return np.fft.ifftn(cube) * m**field.dimension


class Diagnostics:
    """The sharpness pipeline: growth law, Hoelder scan, critical exponent, gate, spectra."""

    name = "diagnostics"
    pairs = ((0.3, 1.0), (0.5, 1.0), (0.8, 1.0), (0.9, 1.0))
    min_batches = 1
    in_process = True
    HL_K = 10**6
    # (rho, t) with k0^2 t^rho >= 50 at k0 = 10.  With these the batch has 11
    # operations, so the median operation is one operation, not a mean of two.
    DIVERGENCE = ((0.3, 0.5), (0.5, 1.0), (0.8, 2.0), (0.9, 1.0))
    K0 = 10
    CHECKPOINTS = tuple(sorted(set(np.logspace(2, 6, 16).astype(int).tolist())))
    HOLDER_K = 2**14
    A_GRID = (0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7)
    DECADES = tuple(10**j for j in range(1, 7))
    FIELD_K, FIELD_GRID = 400, 41
    # |c_n| = (1+|n|^2)^-2 in 3D has weighted sums finite exactly for a < 4 - 3/2
    A_FINITE, A_DIVERGENT = 2.0, 3.0

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.holder_datum = counterexample.hl_coefficients(self.HOLDER_K)
        self.field = power_law_field(rng, 3, self.FIELD_K)
        self.grid = spectra.GridField(grid_from_coefficients(self.field, self.FIELD_GRID))
        self.specs = {
            a: solver.ProblemSpec(3, 0.5, 1.0, self.field, (), regularity_exponent_a=a)
            for a in (self.A_FINITE, self.A_DIVERGENT)
        }
        self.check_rng = np.random.default_rng([seed, 1])

    def batch(self, b: Batch):
        datum = b.op("hl_coefficients", lambda: counterexample.hl_coefficients(self.HL_K))
        for rho, t in self.DIVERGENCE:
            b.op(
                f"divergence_sum_rho{rho}",
                lambda: counterexample.divergence_sum(datum, rho, t, self.K0, self.CHECKPOINTS),
            )
        b.op(
            "holder_constant",
            lambda: counterexample.holder_constant(
                self.holder_datum, 2 * self.HOLDER_K + 3, 0.5
            ),
        )
        b.op(
            "critical_exponent",
            lambda: counterexample.critical_exponent(datum, self.A_GRID, self.DECADES),
        )
        for a, spec in self.specs.items():
            b.op(f"check_hypothesis_a{a}", lambda: solver.check_hypothesis(spec, self.field, []))
        coeffs = b.op("analyze", lambda: spectra.analyze(self.grid, self.FIELD_K))
        b.op("synthesize", lambda: spectra.synthesize(coeffs, self.FIELD_GRID))

    def digest(self, b: Batch) -> str:
        datum, coeffs, grid = b.out["hl_coefficients"], b.out["analyze"], b.out["synthesize"]
        return digest(
            None if datum is None else datum.coeffs_pos,
            [b.out[f"divergence_sum_rho{rho}"] for rho, _t in self.DIVERGENCE],
            b.out["holder_constant"],
            b.out["critical_exponent"],
            [b.out[f"check_hypothesis_a{a}"] for a in self.specs],
            None if coeffs is None else sorted((i.components, v) for i, v in coeffs.items()),
            None if grid is None else grid.samples,
        )

    def checks(self, b: Batch) -> list:
        out = []
        datum = b.out["hl_coefficients"]
        if datum is None:
            out.append(("hl_coefficients", False, "no datum"))
        else:
            ns = self.check_rng.integers(1, self.HL_K + 1, size=64)
            exact = np.array([complex(math.cos(n * math.log(n)), math.sin(n * math.log(n))) / (2 * n) for n in ns])
            err = float(np.max(np.abs(datum.coeffs_pos[ns - 1] - exact) * 2 * ns))
            out.append(("hl_coefficients", err <= 1e-8, f"max relative error {err:.3g} at 64 seeded n"))
        for rho, _t in self.DIVERGENCE:
            fit = b.out[f"divergence_sum_rho{rho}"]
            err = math.inf if fit is None else fit.relative_slope_error
            out.append((f"growth_fit_rho{rho}", err <= 0.05, f"relative slope error {err:.4g}, bound 0.05"))
        got = b.out["holder_constant"]
        ref = holder_reference(self.holder_datum, 2 * self.HOLDER_K + 3, 0.5)
        rel = math.inf if got is None else abs(got - ref) / ref
        out.append(("holder_constant", rel <= 1e-9, f"{got} against FFT reference {ref}"))
        crit = b.out["critical_exponent"]
        ok = crit is not None and abs(crit - 0.5) <= 0.05
        out.append(("critical_exponent", ok, f"{crit} on the HL datum, expected 0.5 +- 0.05"))
        passed = b.out[f"check_hypothesis_a{self.A_FINITE}"]
        rejected = b.out[f"check_hypothesis_a{self.A_DIVERGENT}"]
        ok = passed == [] and bool(rejected)
        out.append(("hypothesis_gate", ok, f"a={self.A_FINITE}: {passed}; a={self.A_DIVERGENT}: {rejected}"))
        coeffs, grid = b.out["analyze"], b.out["synthesize"]
        if coeffs is None or grid is None:
            out.append(("roundtrip", False, "analyze or synthesize failed"))
        else:
            scale = max(abs(v) for _i, v in self.field.items())
            c_err = max(abs(coeffs.get(i) - v) for i, v in self.field.items()) / scale
            g_err = float(np.max(np.abs(grid.samples - self.grid.samples))) / float(
                np.max(np.abs(self.grid.samples))
            )
            ok = len(coeffs) == len(self.field) and c_err <= 1e-12 and g_err <= 1e-12
            out.append(("roundtrip", ok, f"coefficients {c_err:.3g}, grid {g_err:.3g} relative, bound 1e-12"))
        return out


class CliCold:
    """The five CLI subcommands, each a fresh ``python -m fracspec.cli`` process."""

    name = "cli_cold"
    pairs = ()  # every CLI process builds its own Chebyshev models
    cli_pairs = ((0.3, 0.3), (0.5, 1.0), (0.6, 1.0))
    min_batches = 2  # outputs of repeated invocations are compared byte for byte
    in_process = False  # traced batches run each command under cli_traced.py
    COMMANDS = ("mlf", "solve", "residual", "counterexample", "norm")

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.dir = out_dir / f"cli-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True)
        # (0.3, 0.3): series for s <= 3 (t < 1.39), Chebyshev gap, asymptotic for s >= 36
        # (t > 2.93); t = 3 is the slowest point, just past the asymptotic cut
        t_list = np.concatenate(
            [rng.uniform(0.05, 1.35, 2), rng.uniform(1.45, 2.9, 2), [3.0], rng.uniform(3.0, 60.0, 2)]
        )
        self._write_config(inputs / "solve.json", rng, dimension=2, rho=0.5, k=3, grid=7, dt=1 / 16)
        self._write_config(inputs / "residual.json", rng, dimension=1, rho=0.6, k=10, grid=9, dt=1 / 32)
        with open(inputs / "coeffs.csv", "w", encoding="utf-8") as fh:
            fh.write("n1,re,im\n")
            for n, p in zip(range(1, 3001), rng.uniform(0.0, 2.0 * math.pi, 3000)):
                m = (1.0 + n * n) ** -0.5
                fh.write(f"{n},{m * math.cos(p)!r},{m * math.sin(p)!r}\n")
                fh.write(f"{-n},{m * math.cos(p)!r},{-m * math.sin(p)!r}\n")
        rel = inputs.relative_to(ROOT).as_posix()
        self.argv = {
            "mlf": ["mlf", "0.3", "0.3", *(repr(float(t)) for t in t_list)],
            "solve": ["solve", "--config", f"{rel}/solve.json"],
            "residual": ["residual", "--config", f"{rel}/residual.json"],
            "counterexample": ["counterexample", "0.5", "1.0", "20000"],
            "norm": ["norm", f"{rel}/coeffs.csv", "--a", "0.3", "0.4", "0.5", "0.6", "0.7"],
        }

    @staticmethod
    def _write_config(path, rng, dimension, rho, k, grid, dt):
        def modes():
            rows = []
            for idx in spectra.modes_within(dimension, k):
                p = rng.uniform(0.0, 2.0 * math.pi)
                m = (1.0 + idx.norm_sq) ** -2
                rows.append([*idx.components, m * math.cos(p), m * math.sin(p)])
            return {"modes": rows}

        config = {
            "dimension": dimension,
            "rho": rho,
            "T": 1.0,
            "phi": modes(),
            "source": [{"g": modes(), "q": {"kind": "polynomial", "coeffs": list(PROFILE)}}],
            "truncation_radius_sq": k,
            "grid_M": grid,
            "dt": dt,
        }
        path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")

    def batch(self, b: Batch):
        for cmd in self.COMMANDS:
            out = (self.dir / f"b{b.index}" / cmd).relative_to(ROOT).as_posix()
            argv = [*self.argv[cmd], "--out", out]
            if b.traced:
                summary = self.dir / f"trace-b{b.index}-{cmd}"
                line = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(summary), *argv]
            else:
                line = [sys.executable, "-m", "fracspec.cli", *argv]
            if b.op(cmd, lambda: run_checked(line)) and b.traced:
                b.summaries.append(json.loads(summary.with_suffix(".json").read_text()))

    def outputs(self, b: Batch) -> list:
        base = self.dir / f"b{b.index}"
        return [(p.relative_to(base).as_posix(), p.read_bytes()) for p in sorted(base.rglob("*")) if p.is_file()]

    def digest(self, b: Batch) -> str:
        return digest(self.outputs(b))

    def checks(self, b: Batch) -> list:
        path = self.dir / f"b{b.index}" / "mlf" / "mlf.csv"
        branches = set()
        if path.is_file():
            branches = {line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]}
        want = {"series", "extended_precision", "asymptotic"}
        return [("mlf_branches", want <= branches, f"branches taken: {sorted(branches)}")]

    def bytes_written(self, b: Batch) -> int:
        return sum(len(data) for _name, data in self.outputs(b))

    @staticmethod
    def import_seconds() -> float:
        """Median time of three bare ``import fracspec.cli`` processes."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run_checked([sys.executable, "-c", "import fracspec.cli"])
            times.append(time.perf_counter() - start)
        return float(np.median(times))


# Children run at a lower priority than the benchmark process on the same CPU,
# so the host-speed samples the benchmark takes while it waits for a child run
# at once and whole, instead of sharing the CPU with the child.
CHILD_NICE = 10


def run_checked(line) -> bool:
    """Run one child process to completion; a nonzero exit code is a failure."""
    proc = subprocess.run(
        line, cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: os.nice(CHILD_NICE),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{line[1:4]} exited with {proc.returncode}: {proc.stderr[-400:]}")
    return True


WORKLOADS = {w.name: w for w in (SolveShells3D, Verify1D, Diagnostics, CliCold)}
