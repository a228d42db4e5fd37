"""Command-line front end: batch runs with machine-readable CSV/JSON output.

Subcommands: mlf, solve, residual, counterexample, norm.  Configuration is a
single JSON document; coefficient files are CSV with index columns then
re, im.  Numbers are written with 17 significant digits so files round-trip
bit-exactly; fixed iteration orders keep reruns byte-identical.

Exit codes: 0 success, 1 configuration or input error, 2 convergence or fit
failure, 3 regularity gate rejection (strict mode only).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .counterexample import divergence_sum, hl_coefficients
from .errors import (
    AccuracyError,
    AliasError,
    ConfigError,
    ConvergenceError,
    DomainError,
    InconclusiveError,
    MeshError,
    RegularityError,
)
from .mlf import MlfParams, mlf_neg
from .modal import TimeProfile
from .solver import ProblemSpec, builtin_field, residual, solve
from .spectra import (
    GridField,
    MultiIndex,
    SpectralField,
    liouville_norm_sq,
)

_USER_ERRORS = (ConfigError, DomainError, AliasError, MeshError, AccuracyError)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# --- configuration parsing ---------------------------------------------------------


def _parse_field(obj, dimension: int) -> SpectralField:
    if not isinstance(obj, dict):
        raise ConfigError(f"field spec must be an object, got {type(obj).__name__}")
    if "builtin" in obj:
        params = {k: v for k, v in obj.items() if k != "builtin"}
        return builtin_field(str(obj["builtin"]), dimension, **params)
    if "modes" in obj:
        entries = {}
        for row in obj["modes"]:
            if len(row) != dimension + 2:
                raise ConfigError(
                    f"mode rows need {dimension} indices plus re, im; got {row}"
                )
            idx = MultiIndex(tuple(int(c) for c in row[:dimension]))
            entries[idx] = complex(float(row[-2]), float(row[-1]))
        k = max((idx.norm_sq for idx in entries), default=0) + 1
        hermitian = all(
            abs(entries.get(-idx, 0j) - v.conjugate())
            <= 1e-12 * max(abs(v), 1e-300)
            for idx, v in entries.items()
        )
        return SpectralField(
            entries, k, dimension=dimension, real_valued=hermitian
        )
    raise ConfigError("field spec needs either 'builtin' or 'modes'")


def _parse_profile(obj) -> TimeProfile:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("time profile spec must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "constant":
        return TimeProfile.constant(_parse_scalar(obj.get("value", 1.0)))
    if kind == "polynomial":
        return TimeProfile.polynomial([_parse_scalar(c) for c in obj["coeffs"]])
    if kind == "cosine":
        return TimeProfile.cosine(float(obj["omega"]), float(obj.get("phase", 0.0)))
    if kind == "exponential":
        return TimeProfile.exponential(float(obj["rate"]))
    if kind == "sampled":
        return TimeProfile.sampled(
            [float(t) for t in obj["nodes"]],
            [_parse_scalar(v) for v in obj["values"]],
        )
    raise ConfigError(f"unknown time profile kind {kind!r}")


def _parse_scalar(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ConfigError(f"complex scalar needs [re, im], got {v}")
        return complex(float(v[0]), float(v[1]))
    return complex(float(v))


class RunConfig:
    """Resolved run parameters: a ProblemSpec plus numerics and output policy."""

    def __init__(self, raw: dict, args):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        try:
            self.dimension = int(raw["dimension"])
            rho = float(raw["rho"])
            horizon = float(raw["T"])
        except KeyError as missing:
            raise ConfigError(f"config lacks required key {missing}") from None
        phi = _parse_field(raw.get("phi", {"builtin": "zero"}), self.dimension)
        source = tuple(
            (_parse_field(item["g"], self.dimension), _parse_profile(item["q"]))
            for item in raw.get("source", [])
        )
        self.spec = ProblemSpec(
            dimension=self.dimension,
            rho=rho,
            T=horizon,
            phi=phi,
            source=source,
            regularity_exponent_a=raw.get("regularity_exponent_a"),
        )
        self.truncation_radius_sq = int(
            _override(args, "truncation", raw.get("truncation_radius_sq", 2))
        )
        self.grid_M = int(_override(args, "grid", raw.get("grid_M", 9)))
        self.dt = float(_override(args, "dt", raw.get("dt", horizon / 64)))
        self.mesh_M = int(raw.get("mesh_M", 256))
        self.grading_r = raw.get("grading_r")
        if self.grading_r is not None:
            self.grading_r = float(self.grading_r)
        self.tolerance = raw.get("tolerance")
        if self.tolerance is not None:
            self.tolerance = float(self.tolerance)
        self.strict = bool(raw.get("strict", False)) or bool(
            getattr(args, "strict", False)
        )
        self.workers = _resolve_workers(args, raw)

        for name, val in (
            ("truncation_radius_sq", self.truncation_radius_sq),
            ("grid_M", self.grid_M),
            ("dt", self.dt),
            ("mesh_M", self.mesh_M),
        ):
            if val <= 0:
                raise ConfigError(f"{name} must be positive, got {val}")
        if self.grid_M % 2 == 0:
            raise ConfigError(f"grid_M must be odd, got {self.grid_M}")
        steps = round(horizon / self.dt)
        if steps < 1 or abs(steps * self.dt - horizon) > 1e-9 * horizon:
            raise ConfigError(
                f"dt = {self.dt} must divide the horizon T = {horizon} evenly"
            )
        if raw.get("times") is not None:
            self.times = np.asarray([float(t) for t in raw["times"]], dtype=float)
        else:
            self.times = self.dt * np.arange(steps + 1)

    def echo(self) -> dict:
        """Fully resolved parameters, sufficient to reproduce the run."""
        return {
            "dimension": self.dimension,
            "rho": self.spec.rho,
            "T": self.spec.T,
            "regularity_exponent_a": self.spec.claimed_exponent,
            "truncation_radius_sq": self.truncation_radius_sq,
            "grid_M": self.grid_M,
            "dt": self.dt,
            "mesh_M": self.mesh_M,
            "grading_r": self.grading_r,
            "tolerance": self.tolerance,
            "strict": self.strict,
            "workers": self.workers,
            "times": [float(t) for t in self.times],
            "n_source_terms": len(self.spec.source),
        }


def _override(args, name, fallback):
    val = getattr(args, name, None)
    return fallback if val is None else val


def _resolve_workers(args, raw: dict):
    w = getattr(args, "workers", None)
    if w is None:
        w = raw.get("workers")
    if w is None:
        env = os.environ.get("FRACSPEC_WORKERS")
        if env:
            try:
                w = int(env)
            except ValueError:
                raise ConfigError(
                    f"FRACSPEC_WORKERS must be an integer, got {env!r}"
                ) from None
    if w is not None and int(w) < 1:
        raise ConfigError(f"worker count must be >= 1, got {w}")
    return None if w is None else int(w)


def _load_config(args) -> RunConfig:
    path = getattr(args, "config", None)
    if not path:
        raise ConfigError("this command needs --config PATH")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return RunConfig(raw, args)


# --- output helpers ------------------------------------------------------------------


def _write_text(out_dir: str, name: str, content: str) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from None
    return path


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- subcommands --------------------------------------------------------------------


def cmd_mlf(args) -> int:
    params = MlfParams(float(args.rho), float(args.mu))
    lines = ["t,value,est_rel_error,branch"]
    for t in args.t:
        rep = mlf_neg(params, float(t))
        lines.append(
            f"{_fmt(t)},{_fmt(rep.value)},{_fmt(rep.est_rel_error)},{rep.branch.value}"
        )
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        _write_text(args.out, "mlf.csv", table)
    return 0


def _solution_csv(sol, cfg: RunConfig) -> str:
    header = (
        ",".join(f"x_{i + 1}" for i in range(cfg.dimension)) + ",t,re_u,im_u"
    )
    axis = GridField.axis_points(cfg.grid_M)
    rows = [header]
    for j, t in enumerate(sol.times):
        cube = sol.grid_at(j).samples
        for point in np.ndindex(cube.shape):
            coords = ",".join(_fmt(axis[c]) for c in point)
            val = cube[point]
            rows.append(f"{coords},{_fmt(t)},{_fmt(val.real)},{_fmt(val.imag)}")
    return "\n".join(rows) + "\n"


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    from .solver import _as_spectral, check_hypothesis, truncation_tail

    sol = solve(
        cfg.spec,
        cfg.times,
        cfg.truncation_radius_sq,
        cfg.grid_M,
        mesh_M=cfg.mesh_M,
        grading_r=cfg.grading_r,
        tolerance=cfg.tolerance,
        strict=cfg.strict,
        workers=cfg.workers,
    )
    phi_full = _as_spectral(cfg.spec.phi, cfg.dimension)
    sources_full = [
        (_as_spectral(g, cfg.dimension), q) for g, q in cfg.spec.source
    ]
    failures = check_hypothesis(cfg.spec, phi_full, sources_full)
    tail = truncation_tail(
        cfg.spec, cfg.spec.claimed_exponent, cfg.truncation_radius_sq, cfg.spec.T
    )
    diag = {
        "config": cfg.echo(),
        "hypothesis_failures": failures,
        "hypothesis_ok": not failures,
        "max_quadrature_error": sol.max_quadrature_error,
        "n_modes_solved": len(sol.lam),
        "real_valued": sol.real_valued,
        "tail_indicator": tail,
    }
    out = args.out or "."
    _write_text(out, "solution.csv", _solution_csv(sol, cfg))
    _write_text(out, "diagnostics.json", _json_text(diag))
    sys.stdout.write(f"wrote solution.csv and diagnostics.json to {out}\n")
    return 0


def cmd_residual(args) -> int:
    cfg = _load_config(args)
    reports = []
    for divider in (1, 2):
        dt = cfg.dt / divider
        steps = round(cfg.spec.T / dt)
        times = dt * np.arange(steps + 1)
        sol = solve(
            cfg.spec,
            times,
            cfg.truncation_radius_sq,
            cfg.grid_M,
            mesh_M=cfg.mesh_M * divider,
            grading_r=cfg.grading_r,
            tolerance=cfg.tolerance,
            strict=cfg.strict,
            workers=cfg.workers,
        )
        reports.append(residual(sol, cfg.spec, dt))
    sup1, sup2 = reports[0].sup_residual, reports[1].sup_residual
    scale = max((abs(v) for _, v in _data_scale(cfg)), default=0.0)
    exact = sup1 <= 1e-12 * max(scale, 1e-30) and sup2 <= 1e-12 * max(scale, 1e-30)
    if exact:
        rate = math.inf
    elif sup2 == 0.0:
        rate = math.inf
    else:
        rate = math.log2(sup1 / sup2) if sup1 > 0 else math.inf
    payload = {
        "config": cfg.echo(),
        "dt": reports[0].dt,
        "dt_half": reports[1].dt,
        "sup_residual": sup1,
        "sup_residual_half": sup2,
        "initial_layer_sup": reports[0].initial_layer_sup,
        "initial_error": reports[0].initial_error,
        "observed_rate": None if math.isinf(rate) else rate,
        "exact_to_rounding": exact,
        "tail_norm_estimates": list(reports[0].tail_norm_estimates),
        "per_mode_worst": list(reports[0].per_mode_worst.components),
    }
    out = args.out or "."
    _write_text(out, "residual.json", _json_text(payload))
    sys.stdout.write(
        f"sup residual {_fmt(sup1)} -> {_fmt(sup2)} under dt halving "
        f"(rate {'inf' if math.isinf(rate) else _fmt(rate)})\n"
    )
    if not exact and rate < 0.8:
        return 2
    return 0


def _data_scale(cfg: RunConfig):
    vals = [(idx, v) for idx, v in cfg.spec.phi.items()] if isinstance(
        cfg.spec.phi, SpectralField
    ) else []
    for g, _q in cfg.spec.source:
        if isinstance(g, SpectralField):
            vals.extend(g.items())
    return vals


def cmd_counterexample(args) -> int:
    k_max = int(args.k_max)
    if k_max < 200:
        raise ConfigError(f"k_max must be >= 200 for a meaningful fit, got {k_max}")
    datum = hl_coefficients(k_max)
    k0 = int(args.k0)
    top = math.log10(k_max)
    checkpoints = sorted(set(np.logspace(2, top, 16).astype(int)))
    fit = divergence_sum(datum, float(args.rho), float(args.t), k0, checkpoints)
    payload = {
        "rho": float(args.rho),
        "t": float(args.t),
        "k_max": k_max,
        "k0": k0,
        "fitted_slope": fit.fitted_slope,
        "predicted_slope": fit.predicted_slope,
        "relative_slope_error": fit.relative_slope_error,
        "k_values": list(fit.k_values),
        "partial_sums": list(fit.partial_sums),
    }
    lines = ["k,partial_sum"]
    for k, u in zip(fit.k_values, fit.partial_sums):
        lines.append(f"{k},{_fmt(u)}")
    out = args.out or "."
    _write_text(out, "counterexample.csv", "\n".join(lines) + "\n")
    _write_text(out, "growthfit.json", _json_text(payload))
    sys.stdout.write(
        f"fitted slope {_fmt(fit.fitted_slope)} vs predicted "
        f"{_fmt(fit.predicted_slope)} (rel err {_fmt(fit.relative_slope_error)})\n"
    )
    if fit.relative_slope_error > 0.10:
        return 2
    return 0


def _read_coeff_csv(path: str) -> SpectralField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise ConfigError(f"{path} is empty; a header row is mandatory")
    header = [col.strip() for col in lines[0].split(",")]
    if len(header) < 3 or header[-2:] != ["re", "im"]:
        raise ConfigError(
            f"{path} header must be index columns then re, im; got {header}"
        )
    dim = len(header) - 2
    entries = {}
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) != dim + 2:
            raise ConfigError(f"row {ln!r} does not match the header width")
        try:
            idx = MultiIndex(tuple(int(c) for c in cols[:dim]))
            entries[idx] = complex(float(cols[-2]), float(cols[-1]))
        except ValueError as exc:
            raise ConfigError(f"malformed row {ln!r}: {exc}") from None
    k = max((idx.norm_sq for idx in entries), default=0) + 1
    return SpectralField(entries, k, dimension=dim)


def cmd_norm(args) -> int:
    from .counterexample import critical_exponent

    field = _read_coeff_csv(args.coeff_file)
    lines = ["a,liouville_norm_sq"]
    for a in args.a:
        lines.append(f"{_fmt(a)},{_fmt(liouville_norm_sq(field, float(a)))}")
    max_r = math.isqrt(max((idx.norm_sq for idx, _ in field.items()), default=0))
    critical: str
    if len(args.a) >= 2 and len(field) > 0:
        try:
            decades = [10**j for j in range(1, 13) if 10**j <= max_r]
            crit = critical_exponent(field, [float(a) for a in args.a], decades or [10])
            critical = "inf" if math.isinf(crit) else _fmt(crit)
        except (InconclusiveError, DomainError):
            critical = "inconclusive"
    else:
        critical = "inconclusive"
    lines.append(f"critical_exponent,{critical}")
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        _write_text(args.out, "norm.csv", table)
    return 0


# --- entry point ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracspec",
        description="Spectral workflows for time-fractional diffusion on the torus.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_mlf = sub.add_parser("mlf", help="tabulate the relaxation function")
    p_mlf.add_argument("rho", type=float)
    p_mlf.add_argument("mu", type=float)
    p_mlf.add_argument("t", type=float, nargs="+")
    p_mlf.add_argument("--out", default=None)

    for name in ("solve", "residual"):
        q = sub.add_parser(name, help=f"run the {name} workflow from a JSON config")
        q.add_argument("--config", required=True)
        q.add_argument("--strict", action="store_true")
        q.add_argument("--workers", type=int, default=None)
        q.add_argument("--out", default=None)
        q.add_argument("--dt", type=float, default=None)
        q.add_argument("--truncation", type=int, default=None)
        q.add_argument("--grid", type=int, default=None)

    p_ce = sub.add_parser("counterexample", help="fit the divergent-series growth law")
    p_ce.add_argument("rho", type=float)
    p_ce.add_argument("t", type=float)
    p_ce.add_argument("k_max", type=int)
    p_ce.add_argument("--k0", type=int, default=8)
    p_ce.add_argument("--out", default=None)

    p_norm = sub.add_parser("norm", help="weighted coefficient norms from a CSV file")
    p_norm.add_argument("coeff_file")
    p_norm.add_argument("--a", type=float, nargs="+", required=True)
    p_norm.add_argument("--out", default=None)

    return p


_HANDLERS = {
    "mlf": cmd_mlf,
    "solve": cmd_solve,
    "residual": cmd_residual,
    "counterexample": cmd_counterexample,
    "norm": cmd_norm,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except _USER_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return 2
    except RegularityError as exc:
        sys.stderr.write(f"regularity gate: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
