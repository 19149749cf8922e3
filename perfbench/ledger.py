"""Span recording, self times, the per-layer ledger, and run statistics.

Pure Python (no numpy), so the helpers are cheap to test and importing
this module never touches BLAS.

A span is ``(group, start, end, parent)``.  Spans are opened and closed
by :class:`SpanRecorder` in strict stack order, so a span's children
never overlap each other; :func:`self_times` still merges child
intervals, so a hand-built span list with overlapping children is
handled too.  A layer's self time is its span's duration minus the part
of that interval covered by its child spans.  The ledger sums self
times per group; its closure rule is that those sums add up to the
duration of the root span, whose own self time is the ``unattributed``
row.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = "unattributed"


class SpanRecorder:
    """In-memory span log with a parent stack.

    ``clock`` is injectable so tests can script exact timestamps.
    ``calls`` counts, per group, only the outermost span of a
    re-entrant chain (a group nested in itself is one call).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.group: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def open(self, group: str) -> int:
        idx = len(self.start)
        self.group.append(group)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        depth = self._depth.get(group, 0)
        if depth == 0:
            self.calls[group] = self.calls.get(group, 0) + 1
        self._depth[group] = depth + 1
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed out of order (top {top})")
        self._depth[self.group[idx]] -= 1

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def spans(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self.group, self.start, self.end, self.parent))


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Per-span self time: duration minus the union of child intervals
    (clipped to the span)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def ledger(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Self time summed per group, plus ``wall`` (root span duration).

    The single root span must be the only span without a parent and
    belong to the :data:`ROOT` group.
    """
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != ROOT:
        raise ValueError(f"ledger needs exactly one {ROOT!r} root span")
    rows: Dict[str, float] = {}
    for (group, *_), value in zip(spans, self_times(spans)):
        rows[group] = rows.get(group, 0.0) + value
    _, start, end, _ = spans[roots[0]]
    rows["wall"] = end - start
    return rows


def closure_error(rows: Dict[str, float]) -> float:
    """Wall time minus the sum of every row (0 when the ledger closes)."""
    return rows["wall"] - sum(v for k, v in rows.items() if k != "wall")


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Linear-interpolated ``q``-th percentile and the sample count.

    Raises when fewer than ten samples lie beyond the percentile, the
    least a tail percentile needs to mean anything.
    """
    n = len(samples)
    beyond = math.floor(n * (100 - q) / 100)
    if q > 50 and beyond < 10:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need >= 10"
        )
    if n == 0:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), n


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def chrome_trace(spans: Sequence[Tuple[str, float, float, int]]) -> str:
    """Spans as a Chrome trace-event document (microseconds)."""
    if not spans:
        return json.dumps({"traceEvents": []})
    t0 = min(s[1] for s in spans)
    events = [
        {"name": group, "cat": group.split(".")[0], "ph": "X", "pid": 1,
         "tid": 1, "ts": round((start - t0) * 1e6, 3),
         "dur": round((end - start) * 1e6, 3)}
        for group, start, end, _ in spans
    ]
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
