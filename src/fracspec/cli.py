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

from .counterexample import HLDatum, divergence_sum
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
    SpectralField,
    _norm_sq,
    liouville_norm_sq,
)

_USER_ERRORS = (ConfigError, DomainError, AliasError, MeshError, AccuracyError)

# size bounds, checked before any array is made
_MAX_STEPS = 1 << 20  # time steps T/dt (residual halves dt once more)
_MAX_GRID_POINTS = 1 << 24  # grid_M**dimension points in each synthesized time slice
_MAX_DIMENSION = 15  # 3**15 points, the smallest grid (grid_M = 3), still within the bound
_MAX_K_MAX = 1 << 24  # Hardy-Littlewood coefficients, 16 bytes each, and the arrays made from them


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# --- configuration parsing ---------------------------------------------------------


def _parse_field(obj, dimension: int) -> SpectralField:
    if not isinstance(obj, dict):
        raise ConfigError(f"field spec must be an object, got {type(obj).__name__}")
    if "builtin" in obj:
        params = {key: _parse_scalar(obj[key], key) for key in ("amplitude", "value") if key in obj}
        if obj.get("k_max") is not None:
            params["k_max"] = _bounded_k_max(_number(obj, "k_max", int))
        if obj.get("mode") is not None:
            mode = obj["mode"] if isinstance(obj["mode"], list) else [obj["mode"]]
            params["mode"] = [_as_number(c, "mode", int) for c in mode]
        return builtin_field(str(obj["builtin"]), dimension, **params)
    if "modes" in obj:
        return _rows_field(_listed(obj["modes"], "modes"), dimension)
    raise ConfigError("field spec needs either 'builtin' or 'modes'")


def _rows_field(rows, dimension: int) -> SpectralField:
    """Field from rows of dimension indices then re, im, on the ball |n|^2 <= max |n|^2.

    The rows become an int64 index matrix and a value vector for
    SpectralField.from_arrays, so a repeated index raises DomainError.  The
    field is real-valued when it passes spectra's Hermitian rule.
    """
    comps, values = [], []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != dimension + 2:
            raise ConfigError(f"row {row} does not hold {dimension} indices then re, im")
        comps.extend([_as_number(c, "modes", int) for c in row[:dimension]])
        values.append(complex(_as_number(row[-2], "modes"), _as_number(row[-1], "modes")))
    try:
        index = np.array(comps, dtype=np.int64).reshape(-1, dimension)
    except OverflowError:
        raise DomainError("an index component is too large for int64 indices") from None
    k = int(np.max(_norm_sq(index), initial=0)) + 1
    try:
        return SpectralField.from_arrays(index, values, k, real_valued=True)
    except DomainError:  # not Hermitian; a repeated index raises again below
        return SpectralField.from_arrays(index, values, k)


def _bounded_k_max(k_max: int) -> int:
    if k_max > _MAX_K_MAX:
        raise ConfigError(f"k_max must be at most {_MAX_K_MAX}, got {k_max}")
    return k_max


def _parse_profile(obj) -> TimeProfile:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("time profile spec must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return TimeProfile.constant(_parse_scalar(obj.get("value", 1.0), "value"))
        if kind == "polynomial":
            return TimeProfile.polynomial(
                [_parse_scalar(c, "coeffs") for c in _listed(obj["coeffs"], "coeffs")]
            )
        if kind == "cosine":
            return TimeProfile.cosine(_number(obj, "omega"), _number(obj, "phase", default=0.0))
        if kind == "exponential":
            return TimeProfile.exponential(_number(obj, "rate"))
        if kind == "sampled":
            return TimeProfile.sampled(
                [_as_number(t, "nodes") for t in _listed(obj["nodes"], "nodes")],
                [_parse_scalar(v, "values") for v in _listed(obj["values"], "values")],
            )
    except KeyError as missing:
        raise ConfigError(f"time profile {kind!r} lacks required key {missing}") from None
    raise ConfigError(f"unknown time profile kind {kind!r}")


def _parse_scalar(v, key: str) -> complex:
    """A number or an [re, im] pair as a complex; ConfigError naming key otherwise."""
    parts = v if isinstance(v, list) else (v, 0.0)
    if len(parts) != 2:
        raise ConfigError(f"{key} must be a number or [re, im], got {v!r}")
    return complex(_as_number(parts[0], key), _as_number(parts[1], key))


def _listed(val, key: str) -> list:
    if not isinstance(val, list):
        raise ConfigError(f"{key} must be a list, got {val!r}")
    return val


def _number(raw: dict, key: str, kind=float, default=...):
    """raw[key] as a float, or an int for kind=int; default when absent (the key
    is required without one), None when null.  A missing key, a non-number or
    a count that is not whole (2.7 is not truncated) raises ConfigError naming it.
    """
    val = raw.get(key, default)
    if val is ...:
        raise ConfigError(f"config lacks required key {key!r}")
    return None if val is None else _as_number(val, key, kind)


def _as_number(val, key: str, kind=float):
    """val as _number reads it, a ConfigError naming key when it is no finite number."""
    try:
        num = float(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {val!r}") from None
    if not math.isfinite(num):
        raise ConfigError(f"{key} must be finite, got {val!r}")
    if kind is float:
        return num
    if not num.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {val!r}")
    return val if type(val) is int else int(num)


class RunConfig:
    """Resolved run parameters: a ProblemSpec plus numerics and output policy.

    Every numeric key is read by _number, after the command-line overrides.
    """

    # command-line flags and the config keys they override
    _FLAGS = {"truncation": "truncation_radius_sq", "grid": "grid_M", "dt": "dt"}

    def __init__(self, raw: dict, args):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.dimension = _number(raw, "dimension", int)
        if self.dimension > _MAX_DIMENSION:
            raise ConfigError(f"dimension must be at most {_MAX_DIMENSION}, got {self.dimension}")
        rho, horizon = _number(raw, "rho"), _number(raw, "T")
        phi = _parse_field(raw.get("phi", {"builtin": "zero"}), self.dimension)
        source = []
        for item in _listed(raw.get("source", []), "source"):
            if not isinstance(item, dict) or not {"g", "q"} <= item.keys():
                raise ConfigError("each source item needs a field 'g' and a time profile 'q'")
            source.append((_parse_field(item["g"], self.dimension), _parse_profile(item["q"])))
        self.spec = ProblemSpec(
            dimension=self.dimension,
            rho=rho,
            T=horizon,
            phi=phi,
            source=tuple(source),
            regularity_exponent_a=_number(raw, "regularity_exponent_a", default=None),
        )
        raw = dict(raw)
        for flag, key in self._FLAGS.items():
            if getattr(args, flag, None) is not None:
                raw[key] = getattr(args, flag)
        self.truncation_radius_sq = _number(raw, "truncation_radius_sq", int, 2)
        self.grid_M = _number(raw, "grid_M", int, 9)
        self.dt = _number(raw, "dt", default=horizon / 64)
        self.mesh_M = _number(raw, "mesh_M", int, 256)
        self.grading_r = _number(raw, "grading_r", default=None)
        self.tolerance = _number(raw, "tolerance", default=None)
        strict = raw.get("strict", False)
        if not isinstance(strict, bool):
            raise ConfigError(f"strict must be true or false, got {strict!r}")
        self.strict = strict or bool(getattr(args, "strict", False))

        for name, val in (
            ("truncation_radius_sq", self.truncation_radius_sq),
            ("grid_M", self.grid_M),
            ("dt", self.dt),
            ("mesh_M", self.mesh_M),
        ):
            if not val > 0:
                raise ConfigError(f"{name} must be positive, got {val}")
        if self.grid_M % 2 == 0:
            raise ConfigError(f"grid_M must be odd, got {self.grid_M}")
        if self.grid_M**self.dimension > _MAX_GRID_POINTS:
            raise ConfigError(
                f"grid_M**dimension = {self.grid_M}**{self.dimension} exceeds "
                f"{_MAX_GRID_POINTS} grid points"
            )
        if horizon / self.dt > _MAX_STEPS:
            raise ConfigError(
                f"dt = {self.dt} asks for more than {_MAX_STEPS} steps over T = {horizon}"
            )
        steps = round(horizon / self.dt)
        if steps < 1 or abs(steps * self.dt - horizon) > 1e-9 * horizon:
            raise ConfigError(
                f"dt = {self.dt} must divide the horizon T = {horizon} evenly"
            )
        if raw.get("times") is not None:
            self.times = np.array([_as_number(t, "times") for t in _listed(raw["times"], "times")])
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
            "times": [float(t) for t in self.times],
            "n_source_terms": len(self.spec.source),
        }


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
    from .solver import check_hypothesis, truncation_tail

    sol = solve(
        cfg.spec,
        cfg.times,
        cfg.truncation_radius_sq,
        cfg.grid_M,
        mesh_M=cfg.mesh_M,
        grading_r=cfg.grading_r,
        tolerance=cfg.tolerance,
        strict=cfg.strict,
    )
    failures = check_hypothesis(cfg.spec, cfg.spec.phi, cfg.spec.source)
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
        )
        reports.append(residual(sol, cfg.spec, dt))
    sup1, sup2 = reports[0].sup_residual, reports[1].sup_residual
    scale = _data_scale(cfg)
    exact = sup1 <= 1e-12 * max(scale, 1e-30) and sup2 <= 1e-12 * max(scale, 1e-30)
    rate = math.log2(sup1 / sup2) if not exact and sup1 > 0 and sup2 > 0 else math.inf
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


def _data_scale(cfg: RunConfig) -> float:
    """Largest |coefficient| of the initial datum and the source factors."""
    fields = [cfg.spec.phi] + [g for g, _q in cfg.spec.source]
    return max(float(np.max(np.abs(f._values), initial=0.0)) for f in fields)


def cmd_counterexample(args) -> int:
    k_max = _bounded_k_max(int(args.k_max))
    if k_max < 200:
        raise ConfigError(f"k_max must be >= 200 for a meaningful fit, got {k_max}")
    datum = HLDatum(k_max)  # the fit reads no coefficient, so none is built
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
    return _rows_field([ln.split(",") for ln in lines[1:]], len(header) - 2)


def cmd_norm(args) -> int:
    from .counterexample import critical_exponent

    exponents = [_as_number(a, "a") for a in args.a]
    field = _read_coeff_csv(args.coeff_file)
    lines = ["a,liouville_norm_sq"]
    for a in exponents:
        lines.append(f"{_fmt(a)},{_fmt(liouville_norm_sq(field, a))}")
    max_r = math.isqrt(int(np.max(_norm_sq(field._index), initial=0)))
    critical: str
    if len(exponents) >= 2 and len(field) > 0:
        try:
            decades = [10**j for j in range(1, 13) if 10**j <= max_r]
            crit = critical_exponent(field, exponents, decades or [10])
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
