"""Front-end tests: parsing, file outputs, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracspec
from fracspec import cli
from fracspec.cli import main
from fracspec.counterexample import hl_coefficients
from fracspec.spectra import MultiIndex


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "dimension": 1,
        "rho": 0.5,
        "T": 1.0,
        "phi": {"builtin": "cosine_mode"},
        "truncation_radius_sq": 2,
        "grid_M": 9,
        "dt": 0.125,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- mlf -------------------------------------------------------------------------


def test_mlf_classical_value(capsys):
    assert main(["mlf", "1", "1", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "t,value,est_rel_error,branch"
    cols = lines[1].split(",")
    assert float(cols[1]) == pytest.approx(0.36787944117144233, rel=1e-12)
    assert cols[3] == "closed_form"


def test_mlf_at_zero(capsys):
    assert main(["mlf", "0.5", "0.5", "0"]) == 0
    val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
    assert val == pytest.approx(0.5641895835477563, rel=1e-12)


def test_mlf_series_value(capsys):
    assert main(["mlf", "0.5", "1", "1"]) == 0
    val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
    assert val == pytest.approx(0.4275835761558070, rel=1e-10)


def test_mlf_writes_file(tmp_path, capsys):
    assert main(["mlf", "0.5", "1", "0.5", "2", "--out", str(tmp_path)]) == 0
    table = (tmp_path / "mlf.csv").read_text()
    assert table == capsys.readouterr().out
    assert len(table.strip().split("\n")) == 3


# what a cold `python -m fracspec.cli ...` process may leave out of sys.modules
_HEAVY_PROBE = """
import runpy, sys
sys.argv = ["fracspec", *sys.argv[1:]]
import fracspec.cli
if len(sys.argv) > 1:
    try:
        runpy.run_module("fracspec.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
print("loaded:" + ",".join(m for m in ("mpmath", "scipy", "concurrent.futures.process") if m in sys.modules))
"""


@pytest.mark.parametrize("argv", [[], ["mlf", "0.5", "1.0", "0.3", "2", "9", "60"]])
def test_cold_cli_leaves_heavy_modules_unloaded(tmp_path, argv):
    # mpmath is only the MLF escalation valve, and nothing starts a process
    # pool, so neither is imported by an ordinary run
    src = str(Path(fracspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _HEAVY_PROBE, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n").split("\n")[-1] == "loaded:"


def test_mlf_invalid_parameters(capsys):
    assert main(["mlf", "0", "1", "1"]) == 1
    assert main(["mlf", "0.5", "-1", "1"]) == 1


def test_mlf_value_below_normal_doubles_exits_1(capsys):
    assert main(["mlf", "0.5", "0.5", "1e200"]) == 1
    err = capsys.readouterr().err
    assert "below the normal doubles" in err and "cancellation" not in err


def mlf_rows(capsys, *argv):
    """(t, value, est, branch) rows that `fracspec mlf` prints."""
    assert main(["mlf", *argv]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.split()[1:]]
    return [(float(t), float(v), float(e), b) for t, v, e, b in rows]


def test_mlf_gap_model_rows_against_erfc(capsys):
    # rho = 0.5, mu = 1: the gap model, summed by Horner's rule, gives every
    # gap point, within 1e-12 of E_{1/2,1}(-t) = exp(t^2) erfc(t)
    rows = mlf_rows(capsys, "0.5", "1.0", "0.6", "1.0", "2.0", "4.0", "5.9")
    assert len(rows) == 5 and {b for *_, b in rows} == {"extended_precision"}
    assert max(abs(v / (math.exp(t * t) * math.erfc(t)) - 1.0) for t, v, _, _ in rows) <= 1e-12
    # rho = 0.9, mu = 1: the gap model summed by Clenshaw's recurrence
    rows = mlf_rows(capsys, "0.9", "1.0", "1.0", "5.0", "20.0")
    assert [b for *_, b in rows] == ["extended_precision"] * 3


def test_mlf_rows_of_a_pair_without_model(capsys):
    # (0.5, 1.3): its gap point t = 2.5 comes from the extended-precision valve
    rows = mlf_rows(capsys, "0.5", "1.3", "0.3", "2.5", "10.0")
    assert [b for *_, b in rows] == ["series", "extended_precision", "asymptotic"]
    # (0.5, 1.5): E(-t) = (1 - erfcx(t))/t within 1e-10, and the inverse-power
    # series (`asymptotic`) takes t >= 10
    from scipy.special import erfcx

    rows = mlf_rows(capsys, "0.5", "1.5", "0.3", "2.0", "10.0", "40.0", "1e4")
    assert len(rows) == 5
    assert max(abs(v * t / (1.0 - erfcx(t)) - 1.0) for t, v, _, _ in rows) <= 1e-10
    assert all(b == "asymptotic" for t, _, _, b in rows if t >= 10.0)


def test_mlf_far_rows_stay_asymptotic(capsys):
    # near rho = 1 the points past s = 36 do not fall to the valve, nor do
    # t = 1e200 and 1e300
    rows = mlf_rows(capsys, "0.9999", "0.9999", "36.5", "40.0")
    assert [b for *_, b in rows] == ["asymptotic"] * 2
    rows = mlf_rows(capsys, "0.5", "1.0", "1e200", "1e300")
    assert [b for *_, b in rows] == ["asymptotic"] * 2


def test_mlf_large_mu(capsys):
    # E_{0.5,150}(-10) = 1.4442882267129972e-261 (mpmath); past mu ~ 171.6
    # Gamma(mu) overflows, and E_{0.5,200}(-1) ~ 2.4e-373 is below the doubles
    ((_, v, est, _),) = mlf_rows(capsys, "0.5", "150", "10")
    assert abs(v / 1.4442882267129972e-261 - 1.0) <= 1e-10 and est <= 1e-10
    for t in ("0", "1.0"):
        assert main(["mlf", "0.5", "200", t]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "below the normal doubles" in err
        assert "Traceback" not in err


# --- solve -----------------------------------------------------------------------


def test_solve_heat_limit_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, rho=1.0)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "solution.csv has no data rows"
    worst = max(
        abs(float(r["re_u"]) - math.exp(-float(r["t"])) * math.cos(float(r["x_1"])))
        for r in rows
    )
    assert worst < 1e-8
    assert all(float(r["im_u"]) == 0.0 for r in rows)


def test_solve_constant_source_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        phi={"builtin": "zero"},
        source=[{"g": {"builtin": "constant"}, "q": {"kind": "constant", "value": 1.0}}],
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        t = float(r["t"])
        assert float(r["re_u"]) == pytest.approx(
            t**0.5 / math.gamma(1.5), abs=1e-9
        )


def test_solve_diagnostics_echo(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    echo = diag["config"]
    assert echo["rho"] == 0.5 and echo["dt"] == 0.125
    assert echo["mesh_M"] == 256  # defaulted, still echoed
    assert diag["hypothesis_ok"] is True
    assert diag["n_modes_solved"] == 2
    assert diag["real_valued"] is True


def test_solve_inline_modes(tmp_path):
    cfg = write_config(
        tmp_path, phi={"modes": [[1, 0.5, 0.0], [-1, 0.5, 0.0]]}
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["real_valued"] is True


def test_solve_modes_real_flag_follows_hermitian_rule(tmp_path):
    # spectra's rule: a mirror holds the conjugate to 1e-12 of the larger modulus
    for im_mirror, real in ((-1e-3 * (1 + 5e-13), True), (-1e-3 * (1 + 1e-8), False)):
        cfg = write_config(tmp_path, phi={"modes": [[1, 0.5, 1e-3], [-1, 0.5, im_mirror]]})
        out = tmp_path / f"run-{real}"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["real_valued"] is real


def test_repeated_index_row_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, phi={"modes": [[1, 0.5, 0.0], [-1, 0.5, 0.0], [1, 0.25, 0.0]]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "(1,) appears more than once" in capsys.readouterr().err
    f = tmp_path / "twice.csv"
    f.write_text("n_1,n_2,re,im\n1,2,0.5,0\n0,0,1,0\n1,2,0.25,0\n")
    assert main(["norm", str(f), "--a", "1.0"]) == 1
    assert "(1, 2) appears more than once" in capsys.readouterr().err


def test_cli_readers_build_no_multi_index(tmp_path, monkeypatch, capsys):
    built = []
    post_init = MultiIndex.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    modes = [[n1, n2, 1.0 / (1 + n1 * n1 + n2 * n2), 0.0] for n1 in range(-2, 3) for n2 in range(-2, 3)]
    cfg = write_config(
        tmp_path, dimension=2, phi={"modes": modes}, truncation_radius_sq=5,
        source=[{"g": {"modes": modes}, "q": {"kind": "constant", "value": 1.0}}],
    )
    lines = ["n_1,re,im"] + [f"{n},{(1 + n * n) ** -0.5!r},0" for n in range(-1200, 1201)]
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(MultiIndex, "__post_init__", counting_post_init)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["norm", str(coeffs), "--a", "0.2", "0.4", "0.6", "0.8"]) == 0
    assert built == []
    diag = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    assert diag["real_valued"] is True and diag["n_modes_solved"] == 13
    assert capsys.readouterr().out.strip().split("\n")[-1] == "critical_exponent,0.5"


def test_solve_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, rho=0.7,
                       source=[{"g": {"builtin": "cosine_mode"},
                                "q": {"kind": "cosine", "omega": 2.0}}])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (
        out1 / "diagnostics.json"
    ).read_bytes() == (out2 / "diagnostics.json").read_bytes()


def test_solve_flag_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main([
        "solve", "--config", cfg, "--out", str(out),
        "--dt", "0.25", "--truncation", "5", "--grid", "11",
    ]) == 0
    echo = json.loads((out / "diagnostics.json").read_text())["config"]
    assert echo["dt"] == 0.25
    assert echo["truncation_radius_sq"] == 5
    assert echo["grid_M"] == 11


def test_solve_strict_gate_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        phi={"builtin": "hardy_littlewood", "k_max": 256},
        regularity_exponent_a=0.5,
        strict=True,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_solve_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 1
    missing = write_config(tmp_path, "missing.json")
    data = json.loads(Path(missing).read_text())
    del data["rho"]
    (tmp_path / "missing.json").write_text(json.dumps(data))
    assert main(["solve", "--config", missing]) == 1
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    even = write_config(tmp_path, "even.json", grid_M=8)
    assert main(["solve", "--config", even]) == 1
    ragged = write_config(tmp_path, "ragged.json", dt=0.3)  # does not divide T
    assert main(["solve", "--config", ragged]) == 1


def cosine_source(profile):
    return {"source": [{"g": {"builtin": "cosine_mode"}, "q": profile}]}


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"tolerance": -1.0}, "tolerance"),
        ({"tolerance": 0}, "tolerance"),
        ({"mesh_M": "lots"}, "mesh_M"),
        ({"dimension": "one"}, "dimension"),
        ({"tolerance": [1]}, "tolerance"),
        ({"grid_M": 9.5}, "grid_M"),  # a count is never truncated
        ({"source": [{"g": {"builtin": "cosine_mode"}}]}, "'q'"),
        ({"source": [{"g": {"builtin": "cosine_mode"}, "q": {"kind": "cosine"}}]}, "'omega'"),
        ({"times": [0.0, "late"]}, "times"),
        ({"strict": "no"}, "strict"),  # only JSON true/false, never bool("no")
        ({"phi": {"builtin": "cosine_mode", "amplitude": "x"}}, "amplitude"),
        ({"phi": {"builtin": "cosine_mode", "mode": ["x"]}}, "mode"),
        ({"phi": {"builtin": "hardy_littlewood", "k_max": "x"}}, "k_max"),
        ({"phi": {"builtin": "constant", "value": [1, 2, 3]}}, "value"),
        (cosine_source({"kind": "polynomial", "coeffs": 3}), "coeffs"),
        ({"phi": {"modes": 3}}, "modes"),
        ({"phi": {"modes": [3]}}, "row 3"),
        (cosine_source({"kind": "sampled", "nodes": ["x", 1], "values": [1, 2]}), "nodes"),
        ({"source": 5}, "source"),
        ({"phi": {"modes": [[1.5, 1, 0]]}}, "modes"),  # an index is never truncated
        # non-finite numbers, also bare JSON NaN, are refused where they are read
        ({"phi": {"builtin": "cosine_mode", "amplitude": "inf"}}, "amplitude"),
        ({"phi": {"builtin": "constant", "value": "nan"}}, "value"),
        ({"phi": {"modes": [[1, "nan", 0]]}}, "modes"),
        ({"regularity_exponent_a": "nan"}, "regularity_exponent_a"),
        ({"tolerance": math.nan}, "tolerance"),
        (cosine_source({"kind": "cosine", "omega": "nan"}), "omega"),
        # size bounds: stated limits, never an array request that fails
        ({"dt": 1e-300}, "dt"),
        ({"dt": 5e-324}, "dt"),  # T/dt overflows to inf
        ({"dimension": 1e20}, "dimension"),
        ({"dimension": 30}, "dimension"),
        ({"dimension": 8}, "grid_M"),  # 9**8 grid points per time slice
    ],
)
def test_malformed_config_values_are_config_errors(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err


# --- residual ---------------------------------------------------------------------


def test_residual_smooth_rate(tmp_path, capsys):
    cfg = write_config(tmp_path, dt=1 / 64)
    out = tmp_path / "run"
    assert main(["residual", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "residual.json").read_text())
    assert payload["observed_rate"] >= 1.0
    assert payload["sup_residual"] > payload["sup_residual_half"]
    assert payload["initial_error"] == 0.0


def test_residual_zero_data(tmp_path):
    cfg = write_config(tmp_path, phi={"builtin": "zero"})
    out = tmp_path / "run"
    assert main(["residual", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "residual.json").read_text())
    assert payload["sup_residual"] == 0.0
    assert payload["exact_to_rounding"] is True


def test_residual_classical_limit(tmp_path):
    cfg = write_config(tmp_path, rho=1.0, dt=1 / 2048)
    out = tmp_path / "run"
    assert main(["residual", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "residual.json").read_text())
    assert payload["sup_residual"] <= 1e-6


# --- counterexample -----------------------------------------------------------------


def test_counterexample_files_and_fit(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["counterexample", "0.5", "1", "20000", "--out", str(out)]) == 0
    payload = json.loads((out / "growthfit.json").read_text())
    assert payload["relative_slope_error"] < 0.05
    assert payload["predicted_slope"] == pytest.approx(0.5641895835477563, rel=1e-12)
    rows = (out / "counterexample.csv").read_text().strip().split("\n")
    assert rows[0] == "k,partial_sum"
    sums = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b > a for a, b in zip(sums, sums[1:]))


def test_counterexample_growth_slope_at_rho_0_3(tmp_path, capsys):
    # nearly all of its points on the asymptotic model's linear part
    out = tmp_path / "ce"
    assert main(["counterexample", "0.3", "0.5", "200000", "--out", str(out)]) == 0
    assert json.loads((out / "growthfit.json").read_text())["relative_slope_error"] <= 0.05


def test_counterexample_at_largest_k_max_builds_no_datum(tmp_path):
    # the fit reads no coefficient: at k_max = 2^24 the run must stay under
    # half of the 816 MiB peak it reached building the datum, and its last
    # sum must keep the value it had then (8.248368155744407, within 1e-15).
    # A wrapper process whose one child is the run reads the child's peak RSS
    probe = (
        "import resource, subprocess, sys\n"
        "p = subprocess.run([sys.executable, '-W', 'ignore', '-m', 'fracspec.cli', *sys.argv[1:]])\n"
        "print(p.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(fracspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["counterexample", "0.5", "1.0", str(2**24), "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    code, peak_kib = proc.stdout.split("\n")[-2].split()
    assert code == "0", proc.stderr
    assert int(peak_kib) < 408 * 1024, peak_kib
    fit = json.loads((tmp_path / "growthfit.json").read_text())
    assert fit["k_values"][-1] == 2**24 - 1  # logspace(2, log10 k_max) truncated
    assert abs(fit["partial_sums"][-1] - 8.248368155744407) <= 1e-15 * 8.25
    assert fit["relative_slope_error"] < 0.01


def test_counterexample_scaled_time(tmp_path):
    out = tmp_path / "run"
    assert main(["counterexample", "0.5", "4", "20000", "--out", str(out)]) == 0
    payload = json.loads((out / "growthfit.json").read_text())
    assert payload["fitted_slope"] == pytest.approx(0.5 * 0.5641895835, rel=0.05)


def test_counterexample_rejects_bad_params(capsys):
    assert main(["counterexample", "1.0", "1", "20000"]) == 1  # classical limit
    assert main(["counterexample", "0.5", "1", "50"]) == 1  # k_max too small


def test_k_max_above_its_bound_is_a_config_error(tmp_path, capsys):
    # refused before 16 bytes per coefficient are allocated, on both paths
    too_big = cli._MAX_K_MAX + 1
    assert main(["counterexample", "0.5", "1", str(too_big)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "k_max" in err
    cfg = write_config(tmp_path, phi={"builtin": "hardy_littlewood", "k_max": too_big})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "k_max" in err and "Traceback" not in err


# --- norm -------------------------------------------------------------------------


def test_norm_cosine_file(tmp_path, capsys):
    f = tmp_path / "cos.csv"
    f.write_text("n_1,re,im\n1,0.5,0\n-1,0.5,0\n")
    assert main(["norm", str(f), "--a", "1.0"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "a,liouville_norm_sq"
    assert float(out[1].split(",")[1]) == pytest.approx(1.0, rel=1e-15)


def test_norm_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("n_1,re,im\n")
    assert main(["norm", str(f), "--a", "0.5", "1.0", "2.0"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    for line in out[1:4]:
        assert float(line.split(",")[1]) == 0.0


def test_norm_hl_critical(tmp_path, capsys):
    datum = hl_coefficients(2000)
    lines = ["n_1,re,im"]
    for n in range(1, 2001):
        c = datum.coeffs_pos[n - 1]
        re, im = format(float(c.real), ".17g"), format(float(c.imag), ".17g")
        lines.append(f"{n},{re},{im}")
        lines.append(f"{-n},{re},{format(-float(c.imag), '.17g')}")
    f = tmp_path / "hl.csv"
    f.write_text("\n".join(lines) + "\n")
    assert main(["norm", str(f), "--a", "0.3", "0.4", "0.45", "0.55", "0.6", "0.7"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    crit_line = out[-1]
    assert crit_line.startswith("critical_exponent,")
    assert float(crit_line.split(",")[1]) == pytest.approx(0.5, abs=0.05)


def test_norm_places_slow_decay_at_one_half(tmp_path, capsys):
    # (1 + n^2)^-1/2 for |n| <= 1200 has critical exponent 1/2
    f = tmp_path / "slow_decay.csv"
    rows = "".join(f"{n},{(1 + n * n) ** -0.5!r},0\n" for n in range(-1200, 1201))
    f.write_text("n_1,re,im\n" + rows)
    assert main(["norm", str(f), "--a", "0.2", "0.4", "0.6", "0.8"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[-1] == "critical_exponent,0.5"


def test_norm_malformed_input(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("re,im\n0.5,0\n")  # no index column
    assert main(["norm", str(f), "--a", "1.0"]) == 1
    g = tmp_path / "ragged.csv"
    g.write_text("n_1,re,im\n1,0.5\n")
    assert main(["norm", str(g), "--a", "1.0"]) == 1
    h = tmp_path / "text.csv"
    h.write_text("n_1,re,im\none,0.5,0\n")
    assert main(["norm", str(h), "--a", "1.0"]) == 1


@pytest.mark.parametrize("a", ["nan", "inf", "-inf"])
def test_norm_refuses_non_finite_exponent(tmp_path, capsys, a):
    f = tmp_path / "cos.csv"
    f.write_text("n_1,re,im\n1,0.5,0\n-1,0.5,0\n")
    # "--a=-inf", since argparse reads a bare "-inf" as an option
    assert main(["norm", str(f), f"--a={a}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "a must be finite" in captured.err


def test_unknown_subcommand_exits_nonzero(capsys):
    assert main(["transmogrify"]) == 1
