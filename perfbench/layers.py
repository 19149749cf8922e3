"""Timing of the program's layers from outside, by wrapping public calls.

:data:`TARGETS` names each public function or method and the ledger
group its time belongs to.  :class:`Instrument` swaps each for a
wrapper that records one span per call into a :class:`SpanRecorder`,
and swaps the originals back afterwards.  A module-level function is
replaced where it is defined and in every ``repro`` module that
imported it by name (``repro.core.pipeline.prune_tokens`` is the same
object as ``repro.core.token_pruning.prune_tokens``).  A target the
program no longer has is skipped with a note on stderr, and its time
then shows up in the caller's self time.

:class:`StepTimer` is not tracing: it times every ``ServingEngine.step``
in every run, for the ``step_p50_ms``/``step_p90_ms`` metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from ledger import SpanRecorder

# (module, attribute path, ledger group).  The group of
# ``SpAttenExecutor.run_layer`` is picked per call from its stage.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.serving.engine", "ServingEngine.run", "serving.run"),
    ("repro.serving.engine", "ServingEngine.step", "serving.step"),
    ("repro.serving.engine", "ServingEngine.finish", "serving.report"),
    ("repro.serving.stats", "ServingStats.table", "serving.report"),
    ("repro.cluster.stats", "ClusterStats.table", "serving.report"),
    ("repro.eval.reporting", "Table.render", "serving.report"),
    ("repro.serving.engine", "ServingEngine.outstanding_flops",
     "serving.backlog"),
    ("repro.serving.engine", "ServingEngine.outstanding_page_seconds",
     "serving.backlog"),
] + [
    ("repro.serving.memory_pool", f"KVMemoryPool.{name}", "serving.pool")
    for name in ("can_admit", "admit", "can_admit_optimistic",
                 "admit_optimistic", "sync", "try_grow", "pressure_pages",
                 "finish_prefill", "release", "preempt_release", "audit")
] + [
    ("repro.cluster.sharded_pool", "ShardedKVPool.audit", "serving.pool"),
    ("repro.cluster.engine", "ClusterEngine.run", "cluster.run"),
    ("repro.cluster.router", "ClusterRouter.choose", "cluster.route"),
    ("repro.nn.transformer", "TransformerModel.decode_step_batch",
     "nn.decode"),
    ("repro.nn.transformer", "TransformerModel.prefill_chunk_batch",
     "nn.prefill"),
] + [
    ("repro.nn.kv_cache", f"LayerKVCache.{name}", "nn.kv_append")
    for name in ("append", "append_quantized", "append_decode_col",
                 "append_decode_col_quantized")
] + [
    ("repro.nn.kv_cache", "LayerKVCache.keep", "nn.kv_keep"),
    ("repro.core.pipeline", "SpAttenExecutor.decode_attend_packed",
     "core.attend"),
    ("repro.core.pipeline", "SpAttenExecutor.run_layer", "core.summarize"),
    ("repro.core.topk", "topk_indices", "core.topk"),
    ("repro.core.token_pruning", "prune_tokens", "core.prune"),
    ("repro.core.head_pruning", "prune_heads", "core.prune"),
    ("repro.core.value_pruning", "local_value_keep_indices", "core.prune"),
    ("repro.core.value_pruning", "apply_local_value_pruning", "core.prune"),
    ("repro.core.importance", "TokenImportanceAccumulator.accumulate",
     "core.importance"),
    ("repro.core.importance", "HeadImportanceAccumulator.accumulate",
     "core.importance"),
] + [
    ("repro.telemetry.tracer", f"Tracer.{name}", "telemetry.emit")
    for name in ("span", "instant", "counter")
] + [
    ("repro.telemetry.metrics", path, "telemetry.emit")
    for path in ("MetricsRegistry.record_sample", "MetricsRegistry.counter",
                 "MetricsRegistry.gauge", "MetricsRegistry.histogram",
                 "Counter.inc", "Gauge.set", "Histogram.observe")
] + [
    ("repro.telemetry.export", name, "telemetry.export")
    for name in ("chrome_trace_json", "metrics_jsonl", "prometheus_text")
] + [
    ("repro.insight.slo", "SLOPolicy.evaluate_records", "insight.slo"),
]


def _decode_probe(rec: SpanRecorder, call: Dict[str, object]) -> None:
    """Rows and KV bytes read of one decode step, computed from the
    executors' live KV lengths (storage dtype width, live heads)."""
    cfg = call["self"].config
    rec.count("nn.decode_rows", len(call["token_ids"]))
    total = 0
    for executor in call["executors"]:
        width = np.dtype(executor.numerics.kv_dtype).itemsize
        total += (sum(executor.kv_lengths()) * executor.n_live_heads
                  * cfg.head_dim * 2 * width)
    rec.count("nn.decode_kv_bytes", total)


def _prefill_probe(rec: SpanRecorder, call: Dict[str, object]) -> None:
    for state in call["states"]:
        start, end = state.next_span(call["max_tokens"])
        rec.count("nn.prefill_tokens", end - start)


def _run_layer_group(call: Dict[str, object]) -> str:
    return "core.summarize" if call["stage"] == "summarize" else "core.attend"


PROBES = {
    "TransformerModel.decode_step_batch": _decode_probe,
    "TransformerModel.prefill_chunk_batch": _prefill_probe,
}


def _span_wrapper(fn: Callable, group: str, rec: SpanRecorder,
                  probe=None, group_of=None) -> Callable:
    """One span per call; ``probe`` (counts) and ``group_of`` (group
    chosen per call) see the call's arguments bound by name."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        call = (signature.bind(*args, **kwargs).arguments
                if probe or group_of else None)
        idx = rec.open(group_of(call) if group_of else group)
        try:
            if probe is not None:
                p = rec.open("bench.probe")
                try:
                    probe(rec, call)
                finally:
                    rec.close(p)
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


class Instrument:
    """Install span wrappers on every target; restore on uninstall."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo: List[Tuple[object, str, object]] = []
        #: Every SpAttenExecutor begun while installed (token keep ratio).
        self.spatten_executors: list = []

    def _swap(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> "Instrument":
        for module_name, path, group in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            if attr not in getattr(owner, "__dict__", {}):
                print(f"perfbench: {module_name}.{path} not found; its time "
                      f"counts to its caller", file=sys.stderr)
                continue
            original = owner.__dict__[attr]
            if isinstance(original, (staticmethod, classmethod, property)):
                raise TypeError(f"{path}: only plain functions are wrapped")
            wrapper = _span_wrapper(
                original, group, self.rec, probe=PROBES.get(path),
                group_of=(_run_layer_group
                          if path == "SpAttenExecutor.run_layer" else None),
            )
            if owner_name:
                self._swap(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if (name == "repro" or name.startswith("repro.")) and \
                        mod.__dict__.get(attr) is original:
                    self._swap(mod, attr, wrapper)
        executor_cls = importlib.import_module(
            "repro.core.pipeline").SpAttenExecutor
        begin = executor_cls.__dict__["begin_sequence"]
        seen = self.spatten_executors

        @functools.wraps(begin)
        def begin_sequence(executor, model):
            seen.append(executor)
            return begin(executor, model)

        self._swap(executor_cls, "begin_sequence", begin_sequence)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def token_keep_ratio(self) -> float:
        """Live KV columns over columns ever appended, across every
        SpAtten sequence of the run (1.0 when none ran)."""
        live = sum(sum(e.kv_lengths()) for e in self.spatten_executors)
        evicted = sum(e.evicted_kv_tokens for e in self.spatten_executors)
        return live / (live + evicted) if live + evicted else 1.0


class StepTimer:
    """Wall time of every ``ServingEngine.step`` that ran model work.

    Steps that only advance an idle engine's clock to the next arrival
    are not inter-token gaps and are left out.
    """

    def __init__(self, engine_cls):
        self.samples: List[float] = []
        original = engine_cls.__dict__["step"]
        samples = self.samples

        @functools.wraps(original)
        def step(engine, *args, **kwargs):
            busy = bool(engine.live or engine.prefilling)
            t0 = time.perf_counter()
            out = original(engine, *args, **kwargs)
            dt = time.perf_counter() - t0
            if busy or engine.live or engine.prefilling:
                samples.append(dt)
            return out

        engine_cls.step = step

    def take(self) -> List[float]:
        out = list(self.samples)
        self.samples.clear()
        return out
