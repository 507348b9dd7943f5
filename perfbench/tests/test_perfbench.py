"""Tests for the benchmark's own statistics, spans and configuration."""

from __future__ import annotations

import json
import statistics
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import load  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TestTail:
    def test_ten_samples_beyond(self):
        values = list(range(1, 401))  # 400 samples
        percentile, value = metrics.tail(values)
        assert percentile == 97.5
        assert value == 390
        assert sum(1 for v in values if v > value) == metrics.TAIL_BEYOND

    @pytest.mark.parametrize("n", [11, 20, 100, 1000, 1234])
    def test_exactly_ten_beyond_for_any_size(self, n):
        values = [float(i) for i in range(n)]
        percentile, value = metrics.tail(values[::-1])  # order must not matter
        assert sum(1 for v in values if v > value) == 10
        assert percentile == pytest.approx(100.0 * (n - 10) / n)

    def test_highest_such_percentile(self):
        # One rank higher would leave only nine samples beyond.
        values = [float(i) for i in range(100)]
        _, value = metrics.tail(values)
        higher = sorted(values)[values.index(value) + 1]
        assert sum(1 for v in values if v > higher) == 9

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_too_few_samples(self, n):
        with pytest.raises(ValueError):
            metrics.tail([1.0] * n)

    def test_point_phase_has_a_tail(self):
        assert load.POINT_QUERIES > metrics.TAIL_BEYOND


class TestSelfTime:
    @staticmethod
    def span(span_id, parent, start, end):
        return {"id": span_id, "parent": parent, "start": start, "end": end}

    def test_nested_children_subtracted_once(self):
        times = metrics.self_times(
            [
                self.span(1, None, 0.0, 10.0),
                self.span(2, 1, 1.0, 4.0),
                self.span(3, 2, 2.0, 3.0),  # grandchild: only 2 loses it
                self.span(4, 1, 6.0, 7.0),
            ]
        )
        assert times == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}

    def test_overlapping_children_count_once(self):
        times = metrics.self_times(
            [
                self.span(1, None, 0.0, 10.0),
                self.span(2, 1, 1.0, 5.0),
                self.span(3, 1, 3.0, 6.0),
            ]
        )
        assert times[1] == 5.0

    def test_child_clipped_to_parent(self):
        times = metrics.self_times(
            [self.span(1, None, 0.0, 2.0), self.span(2, 1, 1.0, 5.0)]
        )
        assert times[1] == 1.0

    def test_tracer_records_parents_per_thread(self):
        tracer = spans.Tracer("t")

        def inner():
            with tracer.span("b:inner"):
                pass

        with tracer.span("a:outer"):
            inner()
            worker = threading.Thread(target=inner)
            worker.start()
            worker.join(10)
        assert not worker.is_alive()
        by_name = {}
        for record in tracer.spans:
            by_name.setdefault(record["name"], []).append(record)
        outer = by_name["a:outer"][0]
        parents = sorted(str(s["parent"]) for s in by_name["b:inner"])
        assert parents == sorted([str(outer["id"]), "None"])

    def test_layer_metrics_count_entries_and_self_time(self):
        records = [
            {"run": "r", "id": 1, "parent": None, "name": "sim.levels:run",
             "start": 0.0, "end": 4.0},
            {"run": "r", "id": 2, "parent": 1, "name": "sim.fastsplit:run",
             "start": 1.0, "end": 3.0},
            {"run": "r", "id": 3, "parent": 1, "name": "sim.levels:split_reference",
             "start": 3.0, "end": 3.5},
            # Same ids in another run are a different span.
            {"run": "s", "id": 1, "parent": None, "name": "sim.levels:run",
             "start": 0.0, "end": 1.0},
        ]
        out = spans.layer_metrics(records)
        assert out["sim.levels.calls"] == (2, "count")
        assert out["sim.levels.self_s"] == (3.0, "s")
        assert out["sim.fastsplit.self_s"] == (2.0, "s")
        assert out["sim.fastsplit.fast_ratio"] == (0.5, "ratio")
        assert out["service.calls"] == (0, "count")


class TestNames:
    @pytest.mark.parametrize(
        "name", ["setup_s", "sim.levels.self_s", "service.cell.requests", "a-b", "9x"]
    )
    def test_valid(self, name):
        assert metrics.valid_name(name)

    @pytest.mark.parametrize(
        "name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é", "a:b"]
    )
    def test_invalid(self, name):
        assert not metrics.valid_name(name)

    def test_every_traced_metric_name_is_valid(self):
        for name, (_, unit) in spans.layer_metrics([]).items():
            assert metrics.valid_name(name), name
            assert metrics.valid_unit(unit), unit

    def test_benchmark_json_is_consistent(self):
        config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = config["end_to_end"] + config["per_layer"]
        names = [m["name"] for m in declared] + [w["name"] for w in config["workloads"]]
        assert len(names) == len(set(names))
        assert all(metrics.valid_name(name) for name in names)
        assert all(metrics.valid_unit(m["unit"]) for m in declared)
        traced = set(spans.layer_metrics([])) | {"trace.overhead"}
        assert {m["name"] for m in config["per_layer"]} == traced
        assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
        assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
        assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])


def test_spread_uses_python_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == (q3 - q1) / q2


def test_host_scale_maps_the_median_reference_to_nominal():
    nominal = run.reference.NOMINAL_S
    assert run.host_scale([nominal]) == 1.0
    # A host on which the reference ran twice as long halves every time.
    slow = [2 * nominal, 2.2 * nominal, 1.9 * nominal]
    assert run.host_scale(slow) == pytest.approx(0.5)


def test_point_order_is_seeded_and_covers_keys():
    keys = [f"k{i}" for i in range(7)]
    first = load.point_order(keys, 3, 20)
    assert first == load.point_order(keys, 3, 20)
    assert first != load.point_order(keys, 4, 20)
    assert sorted(first[:7]) == sorted(keys)


def test_install_traces_module_copies_and_restores():
    pytest.importorskip("repro")
    import repro.ecc.montecarlo as montecarlo
    import repro.sim.residency as residency
    from repro.circuits import workloads as circuit_workloads

    original = montecarlo.logical_error_rate
    tracer = spans.Tracer("t")
    restore = spans.install(tracer)
    try:
        # residency bound its own copy at import; it must be traced too.
        assert residency.logical_error_rate is not original
        circuit_workloads.build_workload("draper_adder", 4)
    finally:
        restore()
    assert residency.logical_error_rate is original
    assert montecarlo.logical_error_rate is original
    assert [s["name"] for s in tracer.spans] == ["circuits.workloads:build"]


def test_row_mismatches_count_rows():
    import checks

    rows = [{"a": 1}, {"a": 2}, None]
    pins = [checks.digest({"a": 1}), checks.digest({"a": 3}), checks.digest({"a": 4})]
    assert checks.row_mismatches(rows, pins) == 2
    assert checks.row_mismatches(rows, pins[:2]) == 3
