"""Spans around levelgeo's public functions, and the per-layer numbers they give.

The traced run replaces functions by wrappers under the names levelgeo's own
modules look them up by at call time (``harness.run``, ``diagnostics.trace_row``
and so on), so every call the program makes passes through a wrapper.  The
program itself is not changed.  A span is (name, start, end, parent, op,
count); the layer is the part of the name before the first dot.  Spans are
kept in memory and written out once, at the end.

All work runs on one thread at a time (the harness is never given --jobs), so
one stack of open spans serves even the calls made in the harness's
single-worker thread pool.
"""

from __future__ import annotations

import csv
import importlib
import time
from array import array
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    op: int  # the operation (one timed repeat) the span belongs to
    count: int  # points for a field call, iterations for a solver call


def _points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    shape = getattr(x, "shape", None)
    if shape is None:
        return 0
    return 1 if len(shape) == 1 else int(shape[0])


def _run_iterations(args, kwargs, result):
    return 0 if result is None else int(result[0].iteration)


def _planar_iterations(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["max_iters"])


# (module, attribute, span name, counter).  The same function can be looked up
# under two names (harness.run and schemes.run); both are wrapped.
WRAPPED_FUNCTIONS = (
    ("levelgeo.cli", "main", "cli.main", None),
    ("levelgeo.harness", "cmd_run", "harness.cmd_run", None),
    ("levelgeo.harness", "cmd_benchmark", "harness.cmd_benchmark", None),
    ("levelgeo.harness", "cmd_planar", "harness.cmd_planar", None),
    ("levelgeo.harness", "run", "schemes.run", _run_iterations),
    ("levelgeo.schemes", "run", "schemes.run", _run_iterations),
    ("levelgeo.harness", "run_planar", "planar.run_planar", _planar_iterations),
    ("levelgeo.harness", "load_point_cloud", "levelset.load_point_cloud", None),
    ("levelgeo.diagnostics", "trace_row", "diagnostics.trace_row", None),
    ("levelgeo.diagnostics", "write_trace_csv", "diagnostics.write_trace_csv", None),
    ("levelgeo.schemes", "curve_length", "curve.curve_length", None),
    ("levelgeo.diagnostics", "curve_length", "curve.curve_length", None),
    ("levelgeo.planar", "implicit_gamma_solve", "planar.implicit_gamma_solve", None),
)


def public_methods(cls):
    """Every public callable of a LevelSet subclass, inherited ones included."""
    return sorted(n for n in dir(cls)
                  if not n.startswith("_") and callable(getattr(cls, n)))


class Tracer:
    """Installs span-recording wrappers and removes them again on close().

    Spans go into flat arrays rather than tuples: a list of a few hundred
    thousand tuples makes the cyclic garbage collector rescan it over and
    over, which slowed the traced run by a third.
    """

    _FIELDS = ("start", "end", "parent", "op", "count", "name")

    def __init__(self):
        self.names: list[str] = []
        self.columns = {f: array("d" if f in ("start", "end") else "q")
                        for f in self._FIELDS}
        self.op = -1
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr, None)
        if not callable(original):
            raise LookupError(f"cannot trace {name}: "
                              f"{getattr(owner, '__name__', owner)}.{attr} is missing")
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        c = self.columns
        starts, ends, parents, ops, counts, name_ids = (c[f] for f in self._FIELDS)
        stack, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            name_ids.append(name_id)
            counts.append(0)
            ends.append(0.0)
            stack.append(index)
            result = None
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                ends[index] = clock()
                stack.pop()
                if count is not None:
                    counts[index] = count(args, kwargs, result)

        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def install(self, surface_class=None):
        """Wrap the module functions and, if given, the field class's methods."""
        try:
            for module, attr, name, count in WRAPPED_FUNCTIONS:
                self.wrap(importlib.import_module(module), attr, name, count)
            if surface_class is not None:
                for method in public_methods(surface_class):
                    self.wrap(surface_class, method, f"levelset.{method}", _points)
        except BaseException:
            self.close()
            raise

    def close(self):
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @property
    def spans(self) -> list[Span]:
        c = self.columns
        return [Span(self.names[n], s, e, p, o, k) for s, e, p, o, k, n in
                zip(*(c[f] for f in self._FIELDS))]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(Span._fields)
            writer.writerows(self.spans)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, own, op: int, wall: float, requested: int,
                  m: int) -> dict:
    """Per-layer numbers of one operation.

    spans, own : every span recorded, and self_times(spans)
    op : the operation to report
    wall : traced wall time of that operation
    requested : iterations the workload's inputs ask for
    m : curve resolution, for node updates
    """
    mine = [i for i, s in enumerate(spans) if s.op == op]
    layer_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    counts: dict[str, int] = {}
    field_points = 0
    top_level = 0.0
    for i in mine:
        s = spans[i]
        layer = s.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
        counts[s.name] = counts.get(s.name, 0) + s.count
        if s.parent < 0:
            top_level += s.end - s.start
        if layer == "levelset" and (
                s.parent < 0 or not spans[s.parent].name.startswith("levelset.")):
            field_points += s.count

    def us_per_call(name):
        return 1e6 * _ratio(inclusive.get(name, 0.0), calls.get(name, 0))

    scheme_iters = counts.get("schemes.run", 0)
    executed = scheme_iters + counts.get("planar.run_planar", 0)
    schemes_self = layer_self.get("schemes", 0.0)
    return {
        "levelset.evals_per_iter": _ratio(field_points, executed),
        "levelset.value.us_per_call": us_per_call("levelset.value"),
        "levelset.grad.us_per_call": us_per_call("levelset.grad"),
        "levelset.self_s": layer_self.get("levelset", 0.0),
        "levelset.share": _ratio(layer_self.get("levelset", 0.0), wall),
        "levelset.build_s": inclusive.get("levelset.load_point_cloud", 0.0),
        "schemes.us_per_iter": 1e6 * _ratio(schemes_self, scheme_iters),
        "schemes.node_updates_per_s":
            _ratio((m - 1) * scheme_iters, schemes_self),
        "schemes.runs": calls.get("schemes.run", 0),
        "curve.curve_length.calls_per_iter":
            _ratio(calls.get("curve.curve_length", 0), scheme_iters),
        "curve.self_s": layer_self.get("curve", 0.0),
        "diagnostics.trace_row.calls": calls.get("diagnostics.trace_row", 0),
        "diagnostics.trace_row.us_per_call": us_per_call("diagnostics.trace_row"),
        "diagnostics.self_s": layer_self.get("diagnostics", 0.0),
        "diagnostics.share": _ratio(layer_self.get("diagnostics", 0.0), wall),
        "diagnostics.csv_write_s": inclusive.get("diagnostics.write_trace_csv", 0.0),
        "planar.solve.calls": calls.get("planar.implicit_gamma_solve", 0),
        "planar.solve.us_per_call": us_per_call("planar.implicit_gamma_solve"),
        "planar.self_s": layer_self.get("planar", 0.0),
        "planar.share": _ratio(layer_self.get("planar", 0.0), wall),
        "harness.executed_iters": executed,
        "harness.useful_iter_ratio": _ratio(requested, executed),
        "harness.self_s": layer_self.get("harness", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.unattributed_share": _ratio(max(0.0, wall - top_level), wall),
    }
