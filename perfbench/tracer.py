"""Traced runs: spans around the public entry points of each nlsdual layer.

The wrappers are installed at run time from the benchmark's own files; the
library is never edited.  Every wrapped call records one span (name, start,
end, parent) in flat arrays kept in memory.  Self time is a span's duration
minus the durations of its child spans; calls nest strictly because the
library is single-threaded, so this equals the part of the interval that no
child covers.  The per-layer metrics are derived from these spans plus a few
counts taken at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Per-layer metrics of a traced run, with their units.  BENCHMARK.json lists
# the same names; perfbench/tests checks that the two agree.
CLI_COMMANDS = ("gen-v", "gen-dual", "charges", "verify-zc", "verify-rmatrix",
                "dirac-time", "dirac-space", "sim-charges", "sim-monodromy")

PER_LAYER = (
    [(f"ringcore.{op}.{k}", "count" if k == "calls" else "s")
     for op in ("mul", "add", "diff", "d_x", "d_t", "substitute") for k in ("calls", "self_s")]
    + [("ringcore.mul.terms_out", "count"), ("ringcore.diff.nonzero_ratio", "ratio"),
       ("ringcore.jet_eq.calls", "count")]
    + [(f"laxalg.{op}.{k}", "count" if k == "calls" else "s")
       for op in ("matmul", "substitute", "divided_difference", "rmatrix_bracket_rhs")
       for k in ("calls", "self_s")]
    + [("laxalg.tensor_sub.self_s", "s"),
       ("hierarchy.solve_W.calls", "count"), ("hierarchy.solve_W.self_s", "s")]
    + [(f"hierarchy.{op}.self_s", "s")
       for op in ("generate_partner", "generating_function_expand", "density_ladder",
                  "solve_evolution", "dual_hierarchy")]
    + [("hierarchy.partner_terms", "count")]
    + [(f"brackets.{op}.self_s", "s")
       for op in ("dirac_pipeline", "verify_rmatrix", "matrix_bracket", "hamilton_check",
                  "integral_bracket", "build_level_lagrangian", "byparts_normal_form")]
    + [("brackets.leibniz_bracket.calls", "count"), ("brackets.leibniz_bracket.self_s", "s"),
       ("brackets.leibniz_bracket.nonzero_ratio", "ratio"),
       ("brackets.dirac_pipeline.top_level_s", "s"),
       ("brackets.table_entries", "count"), ("brackets.constraints", "count")]
    + [("numlab.evolve_nls.self_s", "s"), ("numlab.evolve_nls.point_steps_per_s", "1/s"),
       ("numlab.transfer_matrix.along_x.self_s", "s"),
       ("numlab.transfer_matrix.along_t.self_s", "s"),
       ("numlab.spectral_derivative.calls", "count"), ("numlab.spectral_derivative.self_s", "s"),
       ("numlab.plane_wave_convergence.self_s", "s"), ("numlab.fine_fields_mb", "MB")]
    + [("cli.import_s", "s")]
    + [(f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS]
    + [("cli.report_bytes", "bytes"),
       ("bench.trace_overhead_s", "s"), ("bench.unattributed_s", "s")]
)


class Recorder:
    """Spans and counts of one process, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, int] = {}        # span index -> integer tag
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span; tests build synthetic span trees with it."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def spanned(self, fn, name, extract=None):
        """Wrap fn so each call records a span; ``name`` may be a function of
        the call's arguments; ``extract(rec, idx, args, kwargs, result)`` adds
        counts measured on the result."""
        rec = self
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fixed if fixed is not None else rec.name_id(name(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extract is not None:
                extract(rec, idx, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing and removing wrappers --------------------------------------
    def _replace(self, owner, attr, new):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls, attrs, name, extract=None, count_only=False):
        """Wrap one method of a class under every attribute name that holds it
        (``__rmul__ = __mul__`` aliases share one wrapper)."""
        orig = cls.__dict__[attrs[0]]
        new = self.counted(orig, name) if count_only else self.spanned(orig, name, extract)
        for attr in attrs:
            if cls.__dict__[attr] is not orig:
                raise RuntimeError(f"{cls.__name__}.{attr} is not an alias of {attrs[0]}")
            self._replace(cls, attr, new)

    def wrap_function(self, module, attr, name, extract=None):
        """Wrap a module-level function under its own name and under every
        ``from ... import`` alias held by a loaded nlsdual module."""
        orig = module.__dict__[attr]
        new = self.spanned(orig, name, extract)
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "nlsdual" or modname.startswith("nlsdual.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._replace(mod, key, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    # -- derived quantities --------------------------------------------------------
    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def summary(self) -> dict:
        """Per-name calls and self time, counts, and root-span coverage."""
        name, parent, start, end = self.arrays()
        selft = self_times(parent, start, end)
        calls = np.bincount(name, minlength=len(self.names))
        self_sum = np.bincount(name, weights=selft, minlength=len(self.names))
        incl = end - start
        incl_sum = np.bincount(name, weights=incl, minlength=len(self.names))
        by_tag: dict[str, dict[int, float]] = {}
        for idx, tag in self.tags.items():
            per = by_tag.setdefault(self.names[name[idx]], {})
            per[tag] = per.get(tag, 0.0) + float(incl[idx])
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_sum[i]) for i, n in enumerate(self.names)},
            "incl_s": {n: float(incl_sum[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
            "incl_by_tag": {n: {str(t): v for t, v in d.items()} for n, d in by_tag.items()},
            "root_s": float(incl[parent < 0].sum()),
            "spans": int(name.size),
        }

    def write(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


# -- what gets wrapped ---------------------------------------------------------


def _mul_terms(rec, idx, args, kwargs, result):
    rec.counts["ringcore.mul.terms_out"] += len(result.terms)


def _nonzero(key):
    def extract(rec, idx, args, kwargs, result):
        if not result.is_zero():
            rec.counts[key] += 1
    return extract


def _partner_terms(rec, idx, args, kwargs, result):
    rec.counts["hierarchy.partner_terms"] += sum(
        len(x.terms) for e in result.coeffs.values() for x in e)


def _dirac_sizes(rec, idx, args, kwargs, result):
    rec.tags[idx] = result.level
    rec.counts["brackets.table_entries"] += len(result.table.entries)
    if result.constraints is not None:
        rec.counts["brackets.constraints"] += len(result.constraints.constraints)


def _evolve_sizes(rec, idx, args, kwargs, result):
    initial, steps = args[0], args[2]
    rec.counts["numlab.evolve_nls.point_steps"] += initial.n * steps
    if result.fine_fields is not None:
        rec.counts["numlab.fine_fields_bytes"] += result.fine_fields.nbytes


def _transfer_name(args, kwargs):
    direction = args[3] if len(args) > 3 else kwargs["direction"]
    return f"numlab.transfer_matrix.{direction}"


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer that the metrics name."""
    from nlsdual import ringcore, laxalg, hierarchy, brackets, numlab

    DP = ringcore.DiffPoly
    # The functional aliases in ringcore (add, mul, d_x, ...) call these
    # methods, so wrapping the methods counts every route exactly once.
    rec.wrap_method(DP, ("__mul__", "__rmul__"), "ringcore.mul", _mul_terms)
    rec.wrap_method(DP, ("__add__",), "ringcore.add")
    rec.wrap_method(DP, ("diff",), "ringcore.diff", _nonzero("ringcore.diff.nonzero"))
    rec.wrap_method(DP, ("d_x",), "ringcore.d_x")
    rec.wrap_method(DP, ("d_t",), "ringcore.d_t")
    rec.wrap_method(DP, ("substitute",), "ringcore.substitute")
    # Jet equality runs millions of times per pass: counted, not spanned.
    rec.wrap_method(ringcore.JetVar, ("__eq__",), "ringcore.jet_eq", count_only=True)

    rec.wrap_method(laxalg.LaxMatrix, ("matmul",), "laxalg.matmul")
    rec.wrap_method(laxalg.LaxMatrix, ("substitute",), "laxalg.substitute")
    rec.wrap_method(laxalg.TensorMatrix, ("__sub__",), "laxalg.tensor_sub")
    rec.wrap_function(laxalg, "divided_difference", "laxalg.divided_difference")
    rec.wrap_function(laxalg, "rmatrix_bracket_rhs", "laxalg.rmatrix_bracket_rhs")

    rec.wrap_function(hierarchy, "solve_W", "hierarchy.solve_W")
    rec.wrap_function(hierarchy, "generate_partner", "hierarchy.generate_partner", _partner_terms)
    for fn in ("generating_function_expand", "density_ladder", "solve_evolution", "dual_hierarchy"):
        rec.wrap_function(hierarchy, fn, f"hierarchy.{fn}")

    rec.wrap_function(brackets, "dirac_pipeline", "brackets.dirac_pipeline", _dirac_sizes)
    for fn in ("verify_rmatrix", "matrix_bracket", "hamilton_check", "integral_bracket",
               "build_level_lagrangian", "byparts_normal_form"):
        rec.wrap_function(brackets, fn, f"brackets.{fn}")
    rec.wrap_function(brackets, "leibniz_bracket", "brackets.leibniz_bracket",
                      _nonzero("brackets.leibniz_bracket.nonzero"))

    rec.wrap_function(numlab, "evolve_nls", "numlab.evolve_nls", _evolve_sizes)
    rec.wrap_function(numlab, "transfer_matrix", _transfer_name)
    rec.wrap_function(numlab, "spectral_derivative", "numlab.spectral_derivative")
    rec.wrap_function(numlab, "plane_wave_convergence", "numlab.plane_wave_convergence")


# -- per-layer metrics -----------------------------------------------------------


def merge(summaries: list[dict]) -> dict:
    out = {"calls": Counter(), "self_s": Counter(), "incl_s": Counter(), "counts": Counter(),
           "incl_by_tag": {}, "root_s": 0.0, "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "incl_s", "counts"):
            out[key].update(s[key])
        out["root_s"] += s["root_s"]
        out["spans"] += s["spans"]
        for n, d in s["incl_by_tag"].items():
            acc = out["incl_by_tag"].setdefault(n, {})
            for t, v in d.items():
                acc[t] = acc.get(t, 0.0) + v
    return out


def layer_metrics(summary: dict, cli: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric, from a merged span summary.  ``cli`` carries the
    CLI measurements (import time, per-command wall, report bytes); it is
    empty for workloads that do not run the CLI."""
    calls, selfs, counts = summary["calls"], summary["self_s"], summary["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(base, 0)
        elif kind == "self_s":
            values[name] = selfs.get(base, 0.0)
    values["ringcore.jet_eq.calls"] = counts["ringcore.jet_eq"]
    values["ringcore.mul.terms_out"] = counts["ringcore.mul.terms_out"]
    values["ringcore.diff.nonzero_ratio"] = ratio(counts["ringcore.diff.nonzero"],
                                                  calls["ringcore.diff"])
    values["hierarchy.partner_terms"] = counts["hierarchy.partner_terms"]
    values["brackets.leibniz_bracket.nonzero_ratio"] = ratio(
        counts["brackets.leibniz_bracket.nonzero"], calls["brackets.leibniz_bracket"])
    dirac = summary["incl_by_tag"].get("brackets.dirac_pipeline", {})
    values["brackets.dirac_pipeline.top_level_s"] = (
        dirac[max(dirac, key=int)] if dirac else 0.0)
    values["brackets.table_entries"] = counts["brackets.table_entries"]
    values["brackets.constraints"] = counts["brackets.constraints"]
    values["numlab.evolve_nls.point_steps_per_s"] = ratio(
        counts["numlab.evolve_nls.point_steps"], summary["incl_s"].get("numlab.evolve_nls", 0.0))
    values["numlab.fine_fields_mb"] = counts["numlab.fine_fields_bytes"] / 1e6
    values["cli.import_s"] = cli.get("import_s", 0.0)
    for c in CLI_COMMANDS:
        values[f"cli.{c}.wall_s"] = cli.get("wall_s", {}).get(c, 0.0)
    values["cli.report_bytes"] = cli.get("report_bytes", 0)
    values["bench.trace_overhead_s"] = traced_wall - untraced_wall
    values["bench.unattributed_s"] = traced_wall - summary["root_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
