"""Unit tests for the benchmark's arithmetic and its metric map.

    python3 -m pytest bench
"""

import json
import statistics
import types
from pathlib import Path

import pytest

import spans as sp

BENCH = Path(__file__).resolve().parent


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert sp.percentile(values, 0) == 1.0
    assert sp.percentile(values, 100) == 4.0
    assert sp.percentile(values, 50) == 2.5
    assert sp.percentile(values, 90) == pytest.approx(3.7)
    assert sp.percentile([7.0], 90) == 7.0


def test_percentile_matches_statistics_inclusive_quartiles():
    values = [0.3, 9.1, 2.2, 5.5, 1.0, 8.4, 3.3, 7.7, 4.4]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert sp.percentile(values, 25) == pytest.approx(q1)
    assert sp.percentile(values, 50) == pytest.approx(q2)
    assert sp.percentile(values, 75) == pytest.approx(q3)


@pytest.mark.parametrize("bad", [-1.0, 100.5])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        sp.percentile([1.0], bad)
    with pytest.raises(ValueError):
        sp.percentile([], 50)


def test_union_length_merges_overlaps_and_gaps():
    assert sp.union_length([]) == 0.0
    assert sp.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == 4.0
    assert sp.union_length([(2, 3), (0, 1)]) == 2.0


def nested_batch():
    """One batch [0, 10]: stream 0-1 > corrupt 0.2-0.6; scores 2-8 >
    forward 2-3; step 8.5-9.5. Uncovered: 1-2, 8-8.5, 9.5-10."""
    return [
        sp.Span("stream.batch", 0.0, 1.0, -1),
        sp.Span("stream.corrupt", 0.2, 0.6, 0),
        sp.Span("fisher.scores", 2.0, 8.0, -1),
        sp.Span("model.forward", 2.0, 3.0, 2),
        sp.Span("scheduler.step", 8.5, 9.5, -1),
    ]


def test_self_time_subtracts_child_coverage():
    assert sp.self_times(nested_batch()) == pytest.approx([0.6, 0.4, 5.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        sp.Span("outer", 0.0, 10.0, -1),
        sp.Span("a", 1.0, 4.0, 0),
        sp.Span("b", 3.0, 5.0, 0),
        sp.Span("late", 9.0, 12.0, 0),  # only 9-10 lies inside the parent
        sp.Span("grandchild", 1.5, 2.0, 1),
    ]
    own = sp.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)


def test_split_by_batch_partitions_batch_time():
    first = nested_batch()
    second = [sp.Span(s.name, s.start + 10.0, s.end + 10.0, s.parent + 5 if s.parent >= 0 else -1) for s in first]
    # the final request finds the stream exhausted; its span is dropped
    tail = [sp.Span("stream.batch", 20.0, 20.1, -1)]
    requests = [0.0, 10.0, 20.0]
    split = sp.split_by_batch(first + second + tail, requests)
    assert len(split.uncovered) == 2
    for i in range(2):
        assert split.calls[i] == {
            "stream.batch": 1,
            "stream.corrupt": 1,
            "fisher.scores": 1,
            "model.forward": 1,
            "scheduler.step": 1,
        }
        assert split.inclusive[i]["fisher.scores"] == pytest.approx(6.0)
        assert split.exclusive[i]["fisher.scores"] == pytest.approx(5.0)
        assert split.uncovered[i] == pytest.approx(2.0)
        # self times plus uncovered time add up to the batch interval
        assert sum(split.exclusive[i].values()) + split.uncovered[i] == pytest.approx(10.0)


def test_batch_intervals_and_throughput():
    requests = [0.0, 0.02, 0.05, 0.06]  # 3 batches, then the exhausted request
    assert sp.batch_intervals(requests) == pytest.approx([0.02, 0.03, 0.01])
    assert sp.samples_per_s(64, 3, 0.06) == pytest.approx(3200.0)
    with pytest.raises(ValueError):
        sp.samples_per_s(64, 3, 0.0)


def test_recorder_nests_and_restores_patched_attributes():
    owner = types.SimpleNamespace()
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: owner.inner(x) * 2
    original = owner.inner, owner.outer

    rec = sp.Recorder()
    wrap = lambda name: (lambda fn: rec.wrap(fn, name))
    with sp.Patched([(owner, "inner", wrap("inner")), (owner, "outer", wrap("outer"))]):
        assert owner.outer(1) == 4
    assert (owner.inner, owner.outer) == original
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", -1), ("inner", 0)]
    outer, inner = rec.spans
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_layer_map_names_only_declared_metrics_and_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == {"continual_layerwise", "continual_tent", "gradual_dump_b128"}
    mapped = set()
    for entry in layer_map:
        assert set(entry["per_layer"]) <= per_layer, entry
        mapped |= set(entry["per_layer"])
        for effect in entry["moves"]:
            assert effect["metric"] in end_to_end, effect
            assert set(effect["workloads"]) <= workloads, effect
    assert mapped == per_layer
