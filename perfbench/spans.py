"""Span tracer that wraps fracspec's public functions from outside the package.

Every traced function is replaced at each module attribute that holds it,
so calls made through names imported into other modules (``solver`` imports
``solve_mode`` and ``synthesize`` by name, ``counterexample`` imports
``mlf_neg_array``, ``cli`` imports ``solve``) are recorded too.  Spans stay in
memory as (name, start, end, parent id) and are summarized, and optionally
written out, after the traced work ends.

A span's self time is its duration minus the durations of its direct
children.  A layer's call count counts entries into the layer, that is spans
whose parent is not in the same layer.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# (layer, defining module, traced public functions)
TARGETS = (
    ("gammafn", "fracspec.gammafn", ("gamma", "lgamma", "rgamma")),
    ("mlf", "fracspec.mlf", ("mlf_neg", "mlf_neg_array", "kernel_cumulative")),
    ("modal", "fracspec.modal", ("solve_mode", "caputo_l1")),
    ("solver", "fracspec.solver", ("solve", "residual", "check_hypothesis")),
    ("spectra", "fracspec.spectra", ("analyze", "synthesize", "modes_within")),
    (
        "counterexample",
        "fracspec.counterexample",
        ("hl_coefficients", "divergence_sum", "holder_constant", "critical_exponent"),
    ),
)

# summary keys that are counts; every other key is seconds
COUNT_KEYS = (
    "gammafn.calls",
    "mlf.calls",
    "mlf.points",
    "mlf.branch.series",
    "mlf.branch.asymptotic",
    "mlf.branch.extended_precision",
    "mlf.branch.closed_form",
    "modal.solve_mode.calls",
    "modal.kernel_cumulative.calls",
    "modal.kernel_cumulative.points",
    "modal.caputo_l1.calls",
    "modal.distinct_lambdas",
    "solver.modes_solved",
    "spectra.synthesize.calls",
    "spectra.grid_points",
)
TIME_KEYS = (
    "gammafn.self_s",
    "mlf.self_s",
    "modal.solve_mode.self_s",
    "modal.caputo_l1.self_s",
    "solver.solve.self_s",
    "solver.residual.self_s",
    "solver.check_hypothesis.self_s",
    "spectra.synthesize.self_s",
    "spectra.analyze.self_s",
    "spectra.modes_within.self_s",
    "counterexample.divergence_sum.self_s",
    "counterexample.holder_constant.self_s",
    "counterexample.critical_exponent.self_s",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# What each span remembers about its call, beyond its timing.  The hooks keep
# references only; arrays are reduced when the summary is built.
_NOTES = {
    "mlf.mlf_neg": lambda a, k, r: ("branch", r.branch.value),
    "mlf.mlf_neg_array": lambda a, k, r: ("codes", r[2]),
    "mlf.kernel_cumulative": lambda a, k, r: ("points", np.size(r)),
    "modal.solve_mode": lambda a, k, r: ("lam", float(_arg(a, k, 1, "lam"))),
    "solver.solve": lambda a, k, r: ("modes", len(r.mode_solutions)),
    "spectra.synthesize": lambda a, k, r: ("points", r.samples.size),
    "spectra.analyze": lambda a, k, r: ("points", _arg(a, k, 0, "g").samples.size),
}


class Tracer:
    """Records spans of the traced functions while installed (a context manager)."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent id); parent -1 at top level
        self.notes: dict = {}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, notes, stack = self.spans, self.notes, self._stack
        note = _NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if note is not None:
                notes[sid] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        wrappers = {}
        for layer, module_name, names in TARGETS:
            module = importlib.import_module(module_name)
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "fracspec" or module_name.startswith("fracspec.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Additive per-layer totals, COUNT_KEYS and TIME_KEYS among them.

        ``modal.distinct_lambdas`` counts distinct lam values per enclosing
        ``solver.solve`` span: the mode problems a per-shell cache would leave.
        """
        from fracspec.mlf import branch_from_code

        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(COUNT_KEYS, 0)
        out.update(dict.fromkeys(TIME_KEYS, 0.0))
        shells = set()
        for sid, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            own = (end - start) - child[sid]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
            key = f"{name}.self_s"
            out[key] = out.get(key, 0.0) + own
            key = f"{name}.calls"
            out[key] = out.get(key, 0) + 1
            if parent < 0 or not spans[parent][0].startswith(layer + "."):
                out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
            note = self.notes.get(sid)
            if note is None:
                continue
            kind, value = note
            if kind == "branch":
                out["mlf.points"] += 1
                out[f"mlf.branch.{value}"] += 1
            elif kind == "codes":
                out["mlf.points"] += int(np.size(value))
                for code, count in enumerate(np.bincount(np.ravel(value))):
                    if count:
                        out[f"mlf.branch.{branch_from_code(code).value}"] += int(count)
            elif name == "mlf.kernel_cumulative":
                out["mlf.points"] += int(value)
                if self._enclosing(sid, "modal.solve_mode") >= 0:
                    out["modal.kernel_cumulative.calls"] += 1
                    out["modal.kernel_cumulative.points"] += int(value)
            elif kind == "lam":
                shells.add((self._enclosing(sid, "solver.solve"), value))
            elif kind == "modes":
                out["solver.modes_solved"] += int(value)
            elif kind == "points":
                out["spectra.grid_points"] += int(value)
        out["modal.distinct_lambdas"] = len(shells)
        return out

    def _enclosing(self, sid, name) -> int:
        """Id of the nearest enclosing span called `name`, or -1."""
        parent = self.spans[sid][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent

    def dump(self, path):
        """Write the spans as CSV: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")


def merge(summaries) -> dict:
    """Sum additive summaries (one per traced process) into one."""
    out: dict = {}
    for s in summaries:
        for key, value in s.items():
            out[key] = out.get(key, 0) + value
    return out
