"""The benchmark's own arithmetic: QP subset counts, the tail-percentile rule,
self time of nested spans, and the metric names BENCHMARK.json declares."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from arith import (  # noqa: E402
    percentile,
    self_times,
    subset_order,
    subsets_tried,
    tail,
    tail_percentile,
)
from tracing import Tracer, layer_metrics, self_time_table  # noqa: E402


class TestSubsetsTried:
    # The controller's QP: decision (u, slack), stability row 0, safety row 1.
    def test_each_active_set_of_the_controller_qp(self):
        assert subsets_tried((), 2, 2) == 1
        assert subsets_tried((0,), 2, 2) == 2
        assert subsets_tried((1,), 2, 2) == 3
        assert subsets_tried((0, 1), 2, 2) == 4

    def test_no_optimal_candidate_tries_every_subset(self):
        assert subsets_tried((), 2, 2, optimal=False) == 4

    def test_sizes_stop_at_the_decision_dimension(self):
        assert list(subset_order(3, 1)) == [(), (0,), (1,), (2,)]
        assert subsets_tried((2,), 3, 1) == 4

    def test_lexicographic_within_a_size(self):
        order = subset_order(3, 3)
        assert [s for s in order if len(s) == 2] == [(0, 1), (0, 2), (1, 2)]
        assert order[(0, 1, 2)] == 8

    def test_unknown_active_set_is_an_error(self):
        with pytest.raises(KeyError):
            subsets_tried((0, 1), 2, 1)


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, q",
        [(100000, 99), (1000, 99), (999, 90), (100, 90), (99, 75), (40, 75),
         (39, 50), (20, 50), (19, None), (0, None)],
    )
    def test_highest_with_ten_beyond(self, n, q):
        assert tail_percentile(n) == q

    def test_tail_falls_back_to_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == ("max", 3.0)

    def test_tail_reports_the_percentile_used(self):
        values = list(range(1001))
        assert tail(values) == ("p99", 990.0)

    def test_percentile_interpolates(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        # root [0, 10] holds a [1, 4] and b [5, 7]; b holds c [5.5, 6].
        starts = [0.0, 1.0, 5.0, 5.5]
        ends = [10.0, 4.0, 7.0, 6.0]
        parents = [-1, 0, 0, 2]
        assert list(self_times(starts, ends, parents)) == [5.0, 3.0, 1.5, 0.5]

    def test_tracer_records_self_time_by_parent(self, monkeypatch):
        mod = types.ModuleType("fake_layer")

        def leaf(x):
            return x + 1

        def outer(x):
            return mod.leaf(x) + mod.leaf(x)

        mod.leaf, mod.outer = leaf, outer
        monkeypatch.setitem(sys.modules, "fake_layer", mod)
        tracer = Tracer()
        tracer.install([
            ("layer.outer", [("fake_layer", "outer")], None),
            ("layer.leaf", [("fake_layer", "leaf")], None),
            ("layer.gone", [("fake_layer", "missing")], None),
        ])
        with tracer.span("root"):
            assert mod.outer(1) == 4
        tracer.uninstall()
        assert mod.leaf is leaf and mod.outer is outer
        assert tracer.absent == {"layer.gone"}
        rows = {(r[0], r[1]): r for r in self_time_table(tracer)}
        assert rows[("layer.leaf", "layer.outer")][2] == 2
        assert rows[("layer.outer", "root")][2] == 1
        outer_row = rows[("layer.outer", "root")]
        leaf_row = rows[("layer.leaf", "layer.outer")]
        assert outer_row[4] == pytest.approx(outer_row[3] - leaf_row[3])

    def test_class_methods_are_restored(self, monkeypatch):
        class Chain:
            def evaluate(self, x):
                return 2 * x

        mod = types.ModuleType("fake_chain")
        mod.Chain = Chain
        monkeypatch.setitem(sys.modules, "fake_chain", mod)
        original = Chain.__dict__["evaluate"]
        tracer = Tracer()
        tracer.install([("chain", [("fake_chain", "Chain.evaluate")], None)])
        assert Chain().evaluate(3) == 6
        tracer.uninstall()
        assert Chain.__dict__["evaluate"] is original
        assert len(tracer.starts) == 1

    def test_metrics_of_a_missing_name_are_absent(self):
        tracer = Tracer()
        tracer.install([("qp.solve_qp", [("no_such_module", "solve_qp")], None)])
        out = layer_metrics(tracer, operations=1, control_period=1e-3)
        assert out["qp.solve_us"] is None
        assert out["simulate.integrate_step_us"] == (0.0, 0)


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
