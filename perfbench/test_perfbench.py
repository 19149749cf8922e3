"""Tests of the benchmark's own helpers: percentiles, self times, the
ledger, layer wrapping, and agreement with ``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest

import ledger
from ledger import ROOT, SpanRecorder


class ScriptedClock:
    """Returns the given timestamps in order, one per call."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def record(clock, script):
    """Replay ``script`` (("open", group) / ("close",)) on a recorder."""
    rec = SpanRecorder(clock=clock)
    stack = []
    for step in script:
        if step[0] == "open":
            stack.append(rec.open(step[1]))
        else:
            rec.close(stack.pop())
    return rec


def test_percentile_reports_sample_count():
    samples = [float(i) for i in range(1, 101)]
    assert ledger.percentile(samples, 50) == (pytest.approx(50.5), 100)
    assert ledger.percentile(samples, 90) == (pytest.approx(90.1), 100)
    assert ledger.percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)


def test_tail_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="need >= 10"):
        ledger.percentile([1.0] * 99, 90)
    with pytest.raises(ValueError):
        ledger.percentile([], 50)


def test_self_time_of_nested_spans():
    # A [0, 10] > B [2, 7] > C [3, 4]
    rec = record(ScriptedClock(0, 2, 3, 4, 7, 10), [
        ("open", ROOT), ("open", "b"), ("open", "c"),
        ("close",), ("close",), ("close",),
    ])
    assert ledger.self_times(rec.spans()) == [5, 4, 1]


def test_self_time_of_reentrant_spans():
    # a [0, 10] > a [1, 6] > b [2, 3]: one outermost call of a, and a's
    # group self time is its whole interval minus b.
    rec = record(ScriptedClock(-1, 0, 1, 2, 3, 6, 10, 11), [
        ("open", ROOT), ("open", "a"), ("open", "a"), ("open", "b"),
        ("close",), ("close",), ("close",), ("close",),
    ])
    rows = ledger.ledger(rec.spans())
    assert rows["a"] == 9
    assert rows["b"] == 1
    assert rec.calls == {ROOT: 1, "a": 1, "b": 1}


def test_self_time_merges_overlapping_children():
    spans = [(ROOT, 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 8.0, 0)]
    assert ledger.self_times(spans)[0] == pytest.approx(3.0)


def test_ledger_closes_on_wall_time():
    rec = record(ScriptedClock(0.0, 0.5, 1.25, 2.0, 3.5, 3.75, 3.875, 4.0), [
        ("open", ROOT), ("open", "a"), ("open", "b"), ("close",),
        ("close",), ("open", "a"), ("close",), ("close",),
    ])
    rows = ledger.ledger(rec.spans())
    assert rows["wall"] == 4.0
    assert rows == {ROOT: 0.875, "a": 2.375, "b": 0.75, "wall": 4.0}
    assert ledger.closure_error(rows) == pytest.approx(0.0)


def test_ledger_needs_one_root():
    with pytest.raises(ValueError):
        ledger.ledger([("a", 0.0, 1.0, -1)])
    with pytest.raises(ValueError):
        ledger.ledger([(ROOT, 0.0, 1.0, -1), (ROOT, 1.0, 2.0, -1)])


def test_out_of_order_close_is_refused():
    rec = SpanRecorder(clock=ScriptedClock(0, 1, 2))
    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_spread_is_iqr_over_median():
    assert ledger.spread([10, 10, 10, 10]) == 0
    assert ledger.spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3)


def test_chrome_trace_lists_every_span():
    spans = [(ROOT, 1.0, 2.0, -1), ("nn.decode", 1.25, 1.5, 0)]
    doc = json.loads(ledger.chrome_trace(spans))
    assert [e["name"] for e in doc["traceEvents"]] == [ROOT, "nn.decode"]
    assert doc["traceEvents"][1]["ts"] == 250000.0
    assert doc["traceEvents"][1]["dur"] == 250000.0


def test_instrument_wraps_definition_and_import_sites():
    pytest.importorskip("repro")
    import numpy as np

    import layers
    from repro.core import pipeline, token_pruning, topk

    original = topk.topk_indices
    rec = SpanRecorder()
    inst = layers.Instrument(rec).install()
    try:
        assert token_pruning.topk_indices is topk.topk_indices
        assert topk.topk_indices is not original
        assert pipeline.prune_tokens is token_pruning.prune_tokens
        root = rec.open(ROOT)
        token_pruning.prune_tokens(np.arange(6), np.arange(6.0), 3)
        rec.close(root)
    finally:
        inst.uninstall()
    assert topk.topk_indices is original
    assert rec.calls["core.prune"] == 1 and rec.calls["core.topk"] >= 1
    rows = ledger.ledger(rec.spans())
    assert ledger.closure_error(rows) == pytest.approx(0.0, abs=1e-12)


def test_metric_names_match_benchmark_json():
    pytest.importorskip("repro")
    import bench
    import workloads

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


def test_compare_refuses_other_environments(tmp_path, capsys):
    import compare

    def write(name, env, tok_per_s):
        rows = [{"workload": "w", "seed": s, "trace": 0, "env": env,
                 "correct": True, "metrics": {"tok_per_s": tok_per_s}}
                for s in range(4)]
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return str(path)

    base = write("base.jsonl", {"cores": 2}, 100.0)
    assert compare.main([base, write("same.jsonl", {"cores": 2}, 99.0)]) == 0
    assert compare.main([base, write("slow.jsonl", {"cores": 2}, 50.0)]) == 1
    assert compare.main([base, write("other.jsonl", {"cores": 4}, 100.0)]) \
        == 2
    assert "environments differ" in capsys.readouterr().err
