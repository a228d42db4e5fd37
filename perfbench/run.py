#!/usr/bin/env python3
"""fracspec benchmark: run one seeded workload and report its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload solve_shells_3d --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  ``--workload all`` runs every workload, each in its own process.
Full records (samples, checks, environment) and span dumps go to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: imports, inputs, cache fill

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("solve_shells_3d", "verify_1d", "diagnostics", "cli_cold")
SETUP_SAMPLES = 5  # fresh processes per run whose set-up time is measured
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))  # the one CPU the benchmark runs on
SAMPLE_INTERVAL_S = 0.02  # how often HostSpeed times the reference loop in a batch
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# wall_s, op_p50_s and fail_ratio are printed and recorded too, but are not
# in BENCHMARK.json: see README.md
END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm", "ref"),
    ("peak_rss_mb", "MiB"),
)
PER_LAYER = (
    ("gammafn.calls", "count"),
    ("gammafn.self_s", "s"),
    ("mlf.calls", "count"),
    ("mlf.points", "count"),
    ("mlf.self_s", "s"),
    ("mlf.branch.series", "count"),
    ("mlf.branch.asymptotic", "count"),
    ("mlf.branch.extended_precision", "count"),
    ("mlf.branch.closed_form", "count"),
    ("mlf.cold_build_s", "s"),
    ("modal.solve_mode.calls", "count"),
    ("modal.solve_mode.self_s", "s"),
    ("modal.kernel_cumulative.calls", "count"),
    ("modal.kernel_cumulative.points", "count"),
    ("modal.caputo_l1.calls", "count"),
    ("modal.caputo_l1.self_s", "s"),
    ("modal.distinct_lambda_ratio", "1"),
    ("solver.solve.self_s", "s"),
    ("solver.residual.self_s", "s"),
    ("solver.check_hypothesis.self_s", "s"),
    ("solver.modes_solved", "count"),
    ("spectra.synthesize.calls", "count"),
    ("spectra.synthesize.self_s", "s"),
    ("spectra.analyze.self_s", "s"),
    ("spectra.modes_within.self_s", "s"),
    ("spectra.grid_points", "count"),
    ("counterexample.divergence_sum.self_s", "s"),
    ("counterexample.holder_constant.self_s", "s"),
    ("counterexample.critical_exponent.self_s", "s"),
    ("cli.mlf.process_s", "s"),
    ("cli.solve.process_s", "s"),
    ("cli.residual.process_s", "s"),
    ("cli.counterexample.process_s", "s"),
    ("cli.norm.process_s", "s"),
    ("cli.import_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
)


def pin_environment():
    """Single-threaded numpy, one CPU, this checkout's src first on the path, no process pool.

    The process and every child it starts run on one CPU, so the host-speed
    samples that HostSpeed takes in this process see the CPU that the CLI
    subprocesses of `cli_cold` run on, too.
    """
    os.sched_setaffinity(0, {CPU})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FRACSPEC_WORKERS", None)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import mpmath
    import numpy

    import fracspec

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": NPROC,
        "cpu": CPU,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "fracspec": fracspec.__file__,
        "commit": commit,
    }


def reference() -> float:
    """A fixed scalar float loop that runs no fracspec code (~1 ms)."""
    total = 0.0
    for i in range(1, 2001):
        x = 1.0 + (i % 97) * 0.01
        total += math.exp(math.lgamma(x)) * math.sin(x) / x
    return total


class HostSpeed:
    """Times `reference` every SAMPLE_INTERVAL_S seconds while a batch runs.

    A SIGALRM interval timer runs the loop in the main thread between the
    batch's own bytecodes, so the samples see the same slow and fast spells of
    the shared host as the batch does.  `measure` takes the samples' time out
    of the batch's wall time, and `wall_norm` divides the rest by the mean
    sample.
    """

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)


def measure(wl, args):
    """Run batches (untraced, then traced when tracing) until `seconds` of them have run.

    Each batch's results are reduced to a digest, and the first untraced batch's
    are checked, before the next batch starts, so no run holds more than one
    batch's results in memory.  Untraced runs start the fresh set-up processes
    between batches, spread over the run, so that set-up is sampled across the
    host's slow and fast spells like the batches are.  Returns the batches, the
    checks and the set-up samples.
    """
    import workloads
    from spans import Tracer

    trace = bool(args.trace)
    wanted = 0 if trace else SETUP_SAMPLES - 1
    batches, checks, setups = [], None, []
    measured = 0.0
    while measured < args.seconds or sum(not b.traced for b in batches) < wl.min_batches:
        for traced in (False, True) if trace else (False,):
            b = workloads.Batch(len(batches), traced)
            tracer = Tracer() if traced and wl.in_process else None
            # end-to-end runs sample the host's speed; traced runs add nothing
            context = tracer or (contextlib.nullcontext() if trace else HostSpeed())
            began = time.perf_counter()
            with context:
                wl.batch(b)
            b.wall = time.perf_counter() - began
            if isinstance(context, HostSpeed):
                b.wall -= sum(context.samples)
                b.reference = statistics.mean(context.samples)
            measured += b.wall
            if tracer is not None:
                b.summaries.append(tracer.summary())
                tracer.dump(OUT / f"{wl.name}.spans.csv")
            b.digest = wl.digest(b)
            if checks is None and not traced:
                checks = [(name, bool(ok), detail) for name, ok, detail in wl.checks(b)]
            b.out = {}
            batches.append(b)
        if len(setups) < wanted and measured >= len(setups) * args.seconds / wanted:
            setups.append(setup_sample(args))
    while len(setups) < wanted:
        setups.append(setup_sample(args))
    return batches, checks, setups


def layer_metrics(wl, batches, cold_build_s) -> dict:
    import spans
    import workloads

    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    per_batch = [spans.merge(b.summaries) for b in traced]
    first = per_batch[0]
    out = {key: first[key] for key in spans.COUNT_KEYS}
    for key in spans.TIME_KEYS:
        out[key] = statistics.median(s[key] for s in per_batch)
    calls = first["modal.solve_mode.calls"]
    out["modal.distinct_lambda_ratio"] = first["modal.distinct_lambdas"] / calls if calls else 0.0
    out["mlf.cold_build_s"] = cold_build_s
    for name in workloads.CliCold.COMMANDS:
        out[f"cli.{name}.process_s"] = 0.0
    out["cli.import_s"] = 0.0
    out["cli.bytes_written"] = 0
    if not wl.in_process:
        for name in wl.COMMANDS:
            out[f"cli.{name}.process_s"] = statistics.median(
                t for b in plain for op, t in b.times if op == name
            )
        out["cli.import_s"] = wl.import_seconds()
        out["cli.bytes_written"] = wl.bytes_written(plain[0])
        out["mlf.cold_build_s"] = workloads.fill_caches(wl.cli_pairs)
    out["trace.overhead_s"] = statistics.median(b.wall for b in traced) - statistics.median(
        b.wall for b in plain
    )
    return out


def counts_repeat(batches) -> tuple:
    import spans

    merged = [spans.merge(b.summaries) for b in batches if b.traced]
    same = all(all(m[k] == merged[0][k] for k in spans.COUNT_KEYS) for m in merged)
    return ("trace_counts_repeat", same, f"counts of {len(merged)} traced batches compared")


def setup_sample(args) -> float:
    """Set-up time of a fresh process that stops once its caches are filled."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(args) -> int:
    pin_environment()
    OUT.mkdir(parents=True, exist_ok=True)
    import workloads

    import fracspec

    if not Path(fracspec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"fracspec was imported from {fracspec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / "setup" if args.setup_only else OUT)
    cold_build_s = workloads.fill_caches(wl.pairs)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    batches, checks, setup_samples = measure(wl, args)
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    plain = [b for b in batches if not b.traced]
    digests = [b.digest for b in batches]
    checks.append(
        ("identical_results", len(set(digests)) == 1,
         f"{len(digests)} batches ({sum(b.traced for b in batches)} traced), {len(set(digests))} distinct results")
    )
    if sum(b.traced for b in batches) >= 2:
        checks.append(counts_repeat(batches))
    op_times = [t for b in plain for _op, t in b.times]
    attempted = sum(len(b.times) for b in batches) + len(checks)
    failed = sum(len(b.failed) for b in batches) + sum(not ok for _n, ok, _d in checks)

    if args.trace:
        values = layer_metrics(wl, batches, cold_build_s)
        table = PER_LAYER
    else:
        setups = [setup_s, *setup_samples]
        values = {
            "setup_s": statistics.median(setups),
            "wall_norm": statistics.median(b.wall / b.reference for b in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": metrics,
        "wall_s": statistics.median(b.wall for b in plain),
        "op_p50_s": statistics.median(op_times),
        "op_samples": len(op_times),
        "batches": [
            {"traced": b.traced, "wall_s": b.wall, "reference_s": b.reference, "ops": b.times,
             "failed": b.failed}
            for b in batches
        ],
        "setup_samples_s": None if args.trace else setups,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "attempted": attempted,
        "failed": failed,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(batches) - len(plain)} traced batches, {len(op_times)} operation samples")
    for name, ok, detail in checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  wall_s = {record['wall_s']!r} s (median of {len(plain)} batches)")
    print(f"  op_p50_s = {record['op_p50_s']!r} s (median of {len(op_times)} operations)")
    print(f"  fail_ratio = {failed / attempted!r} 1 ({failed} of {attempted} attempted)")
    env = record["environment"]
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, mpmath {env['mpmath']}, "
          f"nproc {env['nproc']}, BLAS/OpenMP threads 1, commit {env['commit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"summary-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "fracspec" / "__init__.py").is_file():
        print(f"no fracspec sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
