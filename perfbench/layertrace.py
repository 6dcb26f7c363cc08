"""Span recorder that times dwellgain's layers from outside the package.

`Tracer.install()` replaces each public function in `TARGETS` with a wrapper
that records one span per call: (name, start, end, parent, op id).  A function
is replaced under every name a dwellgain module binds it to, because callers
look names up in different places: `analysis` binds `lp_solve` at import time,
while `poly` looks up `lp.lp_solve` at call time.  Methods are replaced on
their class.  A target that no longer exists is listed in `missing` and its
metrics read 0; it never stops the run.

Spans stay in memory; `write_spans` saves them when the run ends.  A layer's
busy time counts its outermost spans only; its self time is busy time minus
the time covered by the wrapped calls made inside it.  Work the tracer does
for itself after a call (LP size counting) is subtracted from every open span.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

# (layer, module, public attribute).  The span name is "<layer>.<last part>".
LP_TARGET = ("lp", "dwellgain.lp", "lp_solve")
TARGETS = (
    ("poly", "dwellgain.poly", "certify_nonneg"),
    LP_TARGET,
    ("analysis", "dwellgain.analysis", "analyze_arbitrary"),
    ("analysis", "dwellgain.analysis", "analyze_constant"),
    ("analysis", "dwellgain.analysis", "analyze_minimum"),
    ("analysis", "dwellgain.analysis", "analyze_range"),
    ("analysis", "dwellgain.analysis", "analyze_switched_min"),
    ("analysis", "dwellgain.analysis", "analyze_switched_blanchini"),
    ("analysis", "dwellgain.analysis", "analyze_lti"),
    ("synthesis", "dwellgain.synthesis", "synthesize"),
    ("synthesis", "dwellgain.synthesis", "synthesize_switched"),
    ("synthesis", "dwellgain.synthesis", "ControllerRealization.kc_mesh"),
    ("cert", "dwellgain.cert", "verify"),
    ("cert", "dwellgain.cert", "cross_check_discrete"),
    ("cert", "dwellgain.cert", "flow_grid"),
    ("sim", "dwellgain.sim", "simulate"),
    ("sim", "dwellgain.sim", "estimate_gain"),
    ("model", "dwellgain.model", "PolyMatrix.eval_mesh"),
    ("model", "dwellgain.model", "check_positive"),
    ("model", "dwellgain.model", "load_system"),
    ("model", "dwellgain.model", "save_system"),
    ("cli", "dwellgain.cli", "main"),
)

ANALYSIS = {
    "analysis.analyze_arbitrary",
    "analysis.analyze_constant",
    "analysis.analyze_minimum",
    "analysis.analyze_range",
    "analysis.analyze_switched_min",
    "analysis.analyze_switched_blanchini",
    "analysis.analyze_lti",
}
DESIGN = {"synthesis.synthesize", "synthesis.synthesize_switched"}
REPORTS = {"cert.verify", "cert.cross_check_discrete"}
IO = {"model.load_system", "model.save_system"}


def span_name(target) -> str:
    layer, _, attr = target
    return f"{layer}.{attr.split('.')[-1]}"


def _lp_note(args, kwargs, out) -> dict:
    """LP size from the public LinearProgram fields, plus the solve status."""
    prog = args[0] if args else kwargs.get("lp")
    return {
        "status": out.status,
        "rows": len(prog.rows),
        "cols": int(prog.num_vars),
        "nnz": sum(len(coeffs) for coeffs, _, _ in prog.rows),
        "eq_rows": sum(1 for _, rel, _ in prog.rows if rel == "="),
    }


def _sim_note(args, kwargs, out) -> dict:
    return {"points": len(out.times), "jumps": len(out.jump_times)}


def _report_note(args, kwargs, out) -> dict:
    return {"passed": bool(out.passed)}


NOTES = {"lp.lp_solve": _lp_note, "sim.simulate": _sim_note,
         "cert.verify": _report_note, "cert.cross_check_discrete": _report_note}


class Tracer:
    """Wraps the targets while installed; spans are [name, start, end, parent,
    op, excluded seconds, note]."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        note_fn = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                rec[6] = {"error": type(exc).__name__}
                raise
            rec[2] = perf_counter()
            stack.pop()
            if note_fn is not None:
                try:
                    rec[6] = note_fn(args, kwargs, out)
                except (AttributeError, TypeError, ValueError):
                    rec[6] = {}  # result type changed: its counts read 0
                spent = perf_counter() - rec[2]
                for i in stack:
                    spans[i][5] += spent
            return out

        return wrapper

    def install(self) -> "Tracer":
        self.missing.clear()
        for target in self.targets:
            _, modname, attr = target
            name = span_name(target)
            try:
                owner = importlib.import_module(modname)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, last)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig)
            if path:
                self._undo.append((owner, last, orig))
                setattr(owner, last, wrapper)
                continue
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "")
                if modname_ != "dwellgain" and not modname_.startswith("dwellgain."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, excl, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "excluded": excl, "note": note}) + "\n")


class _Index:
    """Span-tree queries over one slice of spans (parents are global indices)."""

    def __init__(self, spans, indices):
        self.spans = spans
        self.indices = indices
        self.children: dict[int, list[int]] = {}
        for i in indices:
            p = spans[i][3]
            if p >= 0:
                self.children.setdefault(p, []).append(i)

    def busy_of(self, i) -> float:
        s = self.spans[i]
        return s[2] - s[1] - s[5]

    def has_ancestor(self, i, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def of(self, names):
        return [i for i in self.indices if self.spans[i][0] in names]

    def count(self, names) -> int:
        return len(self.of(names))

    def busy(self, names) -> float:
        return sum(self.busy_of(i) for i in self.of(names) if not self.has_ancestor(i, names))

    def self_time(self, names) -> float:
        return sum(self.busy_of(i) - sum(self.busy_of(c) for c in self.children.get(i, ()))
                   for i in self.of(names))

    def notes(self, names, key):
        return [self.spans[i][6][key] for i in self.of(names)
                if self.spans[i][6] and key in self.spans[i][6]]


# metric -> (unit, groups of span names); the metric is missing when every
# span name of one of its groups is missing
PER_LAYER = {
    "poly.nonneg_calls": ("count", ({"poly.certify_nonneg"},)),
    "poly.nonneg_s": ("s", ({"poly.certify_nonneg"},)),
    "lp.solves": ("count", ({"lp.lp_solve"},)),
    "lp.solve_s": ("s", ({"lp.lp_solve"},)),
    "lp.rows": ("count", ({"lp.lp_solve"},)),
    "lp.cols": ("count", ({"lp.lp_solve"},)),
    "lp.nnz": ("count", ({"lp.lp_solve"},)),
    "lp.eq_rows": ("count", ({"lp.lp_solve"},)),
    "lp.infeasible": ("count", ({"lp.lp_solve"},)),
    "lp.numerical_failures": ("count", ({"lp.lp_solve"},)),
    "analysis.calls": ("count", (ANALYSIS,)),
    "analysis.s": ("s", (ANALYSIS,)),
    "analysis.self_s": ("s", (ANALYSIS,)),
    "analysis.solves_per_call": ("ratio", (ANALYSIS, {"lp.lp_solve"})),
    "synthesis.calls": ("count", (DESIGN,)),
    "synthesis.s": ("s", (DESIGN,)),
    "synthesis.self_s": ("s", (DESIGN,)),
    "synthesis.kc_mesh_calls": ("count", ({"synthesis.kc_mesh"},)),
    "synthesis.kc_mesh_s": ("s", ({"synthesis.kc_mesh"},)),
    "cert.verify_calls": ("count", ({"cert.verify"},)),
    "cert.verify_s": ("s", ({"cert.verify"},)),
    "cert.cross_check_s": ("s", ({"cert.cross_check_discrete"},)),
    "cert.flow_grid_calls": ("count", ({"cert.flow_grid"},)),
    "cert.flow_grid_s": ("s", ({"cert.flow_grid"},)),
    "cert.pass_ratio": ("ratio", (REPORTS,)),
    "sim.runs": ("count", ({"sim.simulate"},)),
    "sim.simulate_s": ("s", ({"sim.simulate"},)),
    "sim.mesh_points": ("count", ({"sim.simulate"},)),
    "sim.mesh_points_per_s": ("1/s", ({"sim.simulate"},)),
    "sim.jumps": ("count", ({"sim.simulate"},)),
    "model.eval_mesh_calls": ("count", ({"model.eval_mesh"},)),
    "model.eval_mesh_s": ("s", ({"model.eval_mesh"},)),
    "model.check_positive_s": ("s", ({"model.check_positive"},)),
    "model.io_s": ("s", (IO,)),
    "cli.commands": ("count", ({"cli.main"},)),
    "cli.s": ("s", ({"cli.main"},)),
    "cli.self_s": ("s", ({"cli.main"},)),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(ix: _Index) -> dict[str, float]:
    """Every PER_LAYER metric over the spans of `ix`."""
    lp = {"lp.lp_solve"}
    solves = ix.of(lp)
    status = ix.notes(lp, "status")
    errors = ix.notes(lp, "error")
    reports = ix.notes(REPORTS, "passed")
    sim_s = ix.busy({"sim.simulate"})
    points = sum(ix.notes({"sim.simulate"}, "points"))
    analysis_calls = ix.count(ANALYSIS)
    return {
        "poly.nonneg_calls": ix.count({"poly.certify_nonneg"}),
        "poly.nonneg_s": ix.busy({"poly.certify_nonneg"}),
        "lp.solves": len(solves),
        "lp.solve_s": ix.busy(lp),
        "lp.rows": sum(ix.notes(lp, "rows")),
        "lp.cols": sum(ix.notes(lp, "cols")),
        "lp.nnz": sum(ix.notes(lp, "nnz")),
        "lp.eq_rows": sum(ix.notes(lp, "eq_rows")),
        "lp.infeasible": sum(1 for s in status if s == "Infeasible"),
        "lp.numerical_failures": sum(1 for e in errors if e == "NumericalFailure"),
        "analysis.calls": analysis_calls,
        "analysis.s": ix.busy(ANALYSIS),
        "analysis.self_s": ix.self_time(ANALYSIS),
        "analysis.solves_per_call": _ratio(
            sum(1 for i in solves if ix.has_ancestor(i, ANALYSIS)), analysis_calls),
        "synthesis.calls": ix.count(DESIGN),
        "synthesis.s": ix.busy(DESIGN),
        "synthesis.self_s": ix.self_time(DESIGN),
        "synthesis.kc_mesh_calls": ix.count({"synthesis.kc_mesh"}),
        "synthesis.kc_mesh_s": ix.busy({"synthesis.kc_mesh"}),
        "cert.verify_calls": ix.count({"cert.verify"}),
        "cert.verify_s": ix.busy({"cert.verify"}),
        "cert.cross_check_s": ix.busy({"cert.cross_check_discrete"}),
        "cert.flow_grid_calls": ix.count({"cert.flow_grid"}),
        "cert.flow_grid_s": ix.busy({"cert.flow_grid"}),
        "cert.pass_ratio": _ratio(sum(reports), len(reports)),
        "sim.runs": ix.count({"sim.simulate"}),
        "sim.simulate_s": sim_s,
        "sim.mesh_points": points,
        "sim.mesh_points_per_s": _ratio(points, sim_s),
        "sim.jumps": sum(ix.notes({"sim.simulate"}, "jumps")),
        "model.eval_mesh_calls": ix.count({"model.eval_mesh"}),
        "model.eval_mesh_s": ix.busy({"model.eval_mesh"}),
        "model.check_positive_s": ix.busy({"model.check_positive"}),
        "model.io_s": ix.busy(IO),
        "cli.commands": ix.count({"cli.main"}),
        "cli.s": ix.busy({"cli.main"}),
        "cli.self_s": ix.self_time({"cli.main"}),
    }


def per_pass_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Median over passes of each per-layer metric (op ids are (pass, index))."""
    by_pass: dict[int, list[int]] = {p: [] for p in range(passes)}
    for i, span in enumerate(tracer.spans):
        if span[4] is not None and span[4][0] in by_pass:
            by_pass[span[4][0]].append(i)
    rows = [layer_values(_Index(tracer.spans, idx)) for idx in by_pass.values()]
    return {name: statistics.median(row[name] for row in rows) for name in PER_LAYER}


# metric -> (span name, note key) for metrics read from call arguments or results
NOTED = {
    "lp.rows": ("lp.lp_solve", "rows"),
    "lp.cols": ("lp.lp_solve", "cols"),
    "lp.nnz": ("lp.lp_solve", "nnz"),
    "lp.eq_rows": ("lp.lp_solve", "eq_rows"),
    "lp.infeasible": ("lp.lp_solve", "status"),
    "sim.mesh_points": ("sim.simulate", "points"),
    "sim.mesh_points_per_s": ("sim.simulate", "points"),
    "sim.jumps": ("sim.simulate", "jumps"),
    "cert.pass_ratio": ("cert.verify", "passed"),
}


def missing_metrics(tracer: Tracer) -> list[str]:
    """Metrics whose public names are gone, or whose calls ran but yielded no
    readable size or result."""
    gone = set(tracer.missing)
    ix = _Index(tracer.spans, range(len(tracer.spans)))
    for name, (span, key) in NOTED.items():
        if ix.count({span}) and not ix.notes({span}, key):
            gone.add(name)
    return [name for name, (_, groups) in PER_LAYER.items()
            if name in gone or any(group <= gone for group in groups)]


def lp_sizes(tracer: Tracer, pass_no=None) -> dict:
    """LP-size totals and per-solve maxima over the solves of one pass (all
    recorded solves when pass_no is None)."""
    ix = _Index(tracer.spans, [i for i, s in enumerate(tracer.spans)
                               if pass_no is None or s[4] is not None and s[4][0] == pass_no])
    lp = {"lp.lp_solve"}
    out = {"solves": ix.count(lp)}
    for key in ("rows", "cols", "nnz", "eq_rows"):
        vals = ix.notes(lp, key)
        out[f"total_{key}"] = sum(vals)
        out[f"max_{key}"] = max(vals, default=0)
    return out
