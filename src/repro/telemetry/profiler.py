"""Wall-clock hot-path profiler for the packed decode backend.

Everything else in :mod:`repro.telemetry` runs on the *simulated*
clock; this profiler is the deliberate exception.  The simulated cost
model answers "what would this schedule cost on modeled hardware" —
it cannot answer "where does the *real* Python/BLAS time go in the
packed decode hot path".  :class:`HotPathProfiler` measures that with
``time.perf_counter`` around the
:class:`~repro.nn.batched_attention.PackedDecodeBackend` stages and
the cluster router:

* ``decode_qkv_proj`` — the fused ``[d,3d]`` projection, in whichever
  GEMM kernel the numerics tier runs (the ``[B,1,d]`` gufunc under
  ``exact``, one 2-D ``[B,d]`` GEMM otherwise);
* ``decode_dense_core`` — the dense rows' KV append plus
  scores/softmax/A·V (exact-length cache views, or the arena);
* ``decode_spatten_core`` — the batched SpAtten core (one call per
  layer for every SpAtten row: pruning decisions, eviction, KV append,
  attention, importance);
* ``decode_output_fc`` — the fused output projection;
* ``decode_fallback`` — opt-out executors' ``run_layer`` rows;
* ``prefill_chunk_proj`` — the fused chunked-prefill projections;
* ``cluster_route`` — :meth:`ClusterRouter.choose
  <repro.cluster.router.ClusterRouter.choose>` inside the cluster
  engine: placement scoring, backlog reads included.

Shares are taken against end-to-end wall time when the caller wraps the
run in :meth:`HotPathProfiler.wall_clock` (``repro serve --profile``
does): an ``unattributed`` row then holds the wall time outside every
stage — FFN, LayerNorm, LM head, prefill, scheduling, telemetry — so
the rows add up to the run.  Both clock reads live here, the one
sanctioned wall-clock module.

Wall times are inherently nondeterministic, so profiler output is kept
*out* of the trace and metrics artifacts (whose bytes must reproduce);
it renders its own table and exposes raw totals for programmatic use.
With no profiler attached the backend pays a single ``is None`` check
per stage — the off path stays allocation-free.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..eval.reporting import Table

__all__ = ["HotPathProfiler"]


class HotPathProfiler:
    """Accumulates wall-clock (calls, seconds) per named stage."""

    #: Row name of the wall time no stage covers.
    UNATTRIBUTED = "unattributed"

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}
        self._wall: Optional[float] = None

    # The backend calls these inline — start/stop, not a context
    # manager, to keep per-stage overhead to two perf_counter reads.
    def start(self) -> float:
        return time.perf_counter()

    def stop(self, stage: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        self._calls[stage] = self._calls.get(stage, 0) + 1
        self._seconds[stage] = self._seconds.get(stage, 0.0) + dt

    @contextmanager
    def wall_clock(self) -> Iterator[None]:
        """Measure the enclosed run's end-to-end wall time.

        Repeated runs accumulate.  Once measured, :meth:`as_rows` adds
        the ``unattributed`` row and takes shares against this time.
        """
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._wall = (self._wall or 0.0) + time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def stages(self) -> List[str]:
        return sorted(self._calls)

    def calls(self, stage: str) -> int:
        return self._calls.get(stage, 0)

    def seconds(self, stage: str) -> float:
        return self._seconds.get(stage, 0.0)

    @property
    def total_seconds(self) -> float:
        """Seconds inside every stage (the staged time)."""
        return sum(self._seconds.values())

    @property
    def wall_seconds(self) -> Optional[float]:
        """End-to-end wall time from :meth:`wall_clock`, or ``None``."""
        return self._wall

    def as_rows(self) -> List[Tuple[str, int, float, float]]:
        """(stage, calls, seconds, share) sorted by descending cost.

        With a measured wall time the rows include ``unattributed``
        (wall minus staged time, 0 calls) and sum to the wall time;
        shares are fractions of it.  Otherwise shares are fractions of
        the staged time.
        """
        seconds = dict(self._seconds)
        calls = dict(self._calls)
        if self._wall is not None:
            seconds[self.UNATTRIBUTED] = self._wall - self.total_seconds
            calls[self.UNATTRIBUTED] = 0
        total = sum(seconds.values()) or 1.0
        rows = [
            (stage, calls[stage], seconds[stage], seconds[stage] / total)
            for stage in seconds
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows

    def table(self) -> Table:
        t = Table(
            title="hot-path profile (wall clock)",
            headers=["stage", "calls", "total ms", "us/call", "share"],
        )
        for stage, calls, seconds, share in self.as_rows():
            per_call = seconds / calls * 1e6 if calls else 0.0
            t.add_row(stage, str(calls), f"{seconds * 1e3:.2f}",
                      f"{per_call:.1f}", f"{share:.1%}")
        t.add_note(
            "real time.perf_counter seconds around PackedDecodeBackend "
            "and cluster-router stages — separate from the simulated "
            "serving clock"
        )
        if self._wall is not None:
            t.add_note(
                f"share of {self._wall * 1e3:.2f} ms end-to-end wall time; "
                f"{self.UNATTRIBUTED} = wall time outside every stage"
            )
        else:
            t.add_note("share of staged time (no end-to-end wall time taken)")
        return t
