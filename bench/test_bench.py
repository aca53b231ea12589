"""Tests of the benchmark's own helpers:  python3 -m pytest bench -q"""

import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

from metrics import END_TO_END, PER_LAYER, error_rate, upper_percentile
from run import Tally, compare, verify
from tracing import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, max_distance

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1, count=0, op=0):
    return Span(name, start, end, parent, op, count)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("harness.cmd_run", 1.0, 9.0, parent=0),
        span("schemes.run", 2.0, 8.0, parent=1),
        span("levelset.grad", 3.0, 5.0, parent=2),
        span("levelset.value", 3.5, 4.0, parent=3),
        span("levelset.value", 6.0, 7.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.5, 0.5, 1.0])


def test_layer_metrics_on_nested_spans():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("harness.cmd_run", 1.0, 9.0, parent=0),
        span("schemes.run", 2.0, 8.0, parent=1, count=4),
        span("levelset.grad", 3.0, 5.0, parent=2, count=99),
        span("levelset.value", 3.5, 4.0, parent=3, count=99),  # nested: not counted
        span("levelset.value", 6.0, 7.0, parent=2, count=99),
        span("curve.curve_length", 7.0, 7.5, parent=2),
        span("levelset.value", 20.0, 21.0, op=1, count=5),  # another operation
    ]
    got = layer_metrics(spans, self_times(spans), op=0, wall=12.0, requested=2, m=100)
    assert got["levelset.evals_per_iter"] == pytest.approx(198 / 4)
    assert got["levelset.self_s"] == pytest.approx(3.0)
    assert got["levelset.share"] == pytest.approx(0.25)
    assert got["levelset.value.us_per_call"] == pytest.approx(0.75e6)
    assert got["schemes.us_per_iter"] == pytest.approx(2.5 / 4 * 1e6)
    assert got["schemes.node_updates_per_s"] == pytest.approx(99 * 4 / 2.5)
    assert got["curve.curve_length.calls_per_iter"] == pytest.approx(0.25)
    assert got["harness.executed_iters"] == 4
    assert got["harness.useful_iter_ratio"] == pytest.approx(0.5)
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["trace.unattributed_share"] == pytest.approx(2.0 / 12.0)
    assert got["planar.share"] == 0.0 and got["planar.solve.us_per_call"] == 0.0


def test_error_rate_arithmetic():
    assert error_rate(0, 7) == 0.0
    assert error_rate(1, 4) == 0.25
    assert error_rate(3, 3) == 1.0
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(5, 4)


def test_upper_percentile_leaves_ten_samples_above():
    assert upper_percentile(list(range(10))) is None
    percent, value = upper_percentile(list(range(40, 0, -1)))
    assert percent == 75.0 and value == 30
    assert sum(1 for v in range(1, 41) if v > value) == 10


def test_tracer_records_nesting_and_restores_names():
    class Field:
        def value(self, x):
            return x

        def grad(self, x):
            return self.value(x)

    module = types.ModuleType("fake")
    module.solve = lambda field, x: field.grad(x)
    original = module.solve

    tracer = Tracer()
    tracer.wrap(module, "solve", "planar.solve")
    for method in ("value", "grad"):
        tracer.wrap(Field, method, f"levelset.{method}",
                    lambda args, kwargs, result: len(args[1]))
    tracer.op = 3
    module.solve(Field(), np.zeros((5, 3)))
    tracer.close()

    assert module.solve is original and "value" in Field.__dict__
    assert [(s.name, s.parent, s.op, s.count) for s in tracer.spans] == [
        ("planar.solve", -1, 3, 0), ("levelset.grad", 0, 3, 5),
        ("levelset.value", 1, 3, 5)]
    with pytest.raises(LookupError):
        Tracer().wrap(module, "missing", "planar.missing")


def test_compare_uses_a_relative_tolerance():
    assert compare([1.0, 2.0], [1.0 + 1e-9, 2.0]) == []
    assert compare(3.0, 3.0 * (1 + 1e-5), "x")
    assert compare([1.0], [1.0, 2.0], "x")


def test_verify_counts_a_missing_or_moved_reference_number_as_a_failure():
    class Fake:
        name = "fake"
        reference_keys = ("x",)

        def check(self, outcome, inputs, out, deep):
            return []

    def tally():
        t = Tally()
        t.attempted = 1
        t.first = types.SimpleNamespace(numbers={"x": 2.0})
        return t

    for reference, failed in (({"x": 2.0}, 0), ({"x": 2.1}, 1), ({}, 1), (None, 0)):
        t = tally()
        verify(Fake(), {}, t, reference)
        assert t.failed == failed, reference


def test_max_distance_matches_a_direct_computation():
    rng = np.random.default_rng(0)
    nodes, cloud = rng.normal(size=(37, 3)), rng.normal(size=(200, 3))
    direct = np.linalg.norm(nodes[:, None] - cloud[None], axis=2).min(axis=1).max()
    assert max_distance(nodes, cloud, block=8) == pytest.approx(direct, rel=1e-12)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in doc["end_to_end"]] == [
        (n, u, b, bound) for n, u, b, bound, _ in END_TO_END]
    assert [tuple(m.values()) for m in doc["per_layer"]] == list(PER_LAYER)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = doc["end_to_end"] + doc["per_layer"]
    assert all(name.match(m["name"]) for m in metrics + doc["workloads"])
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
