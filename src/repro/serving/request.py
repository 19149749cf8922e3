"""Requests, per-request lifecycle records, and the arrival queue.

A :class:`Request` is a prompt plus a generation budget, stamped with a
simulated arrival time and a priority.  The :class:`RequestQueue` orders
waiting requests by ``(priority, arrival_time, push order)`` — lower
priority values are served first, ties break FIFO on arrival time, and
requests that are equal on both pop in the order they were pushed
(a monotonic per-queue counter, so pop order never depends on request
ids or payload comparison).

The lifecycle vocabulary lives here too, next to :class:`RequestStatus`:
the phase spans a request's trace track is tiled with, the instants that
end it, and the track-name format.  The serving engine emits with it and
:mod:`repro.insight.timeline` parses with it.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "INHERIT_PRUNING",
    "LIFECYCLE_PHASES",
    "REQUEST_TRACK_RE",
    "TERMINAL_INSTANTS",
    "RequestStatus",
    "Request",
    "RequestRecord",
    "RequestQueue",
    "request_track",
]


class _InheritPruning:
    """Sentinel: the request follows the engine's pruning schedule.

    Distinct from ``None``, which *forces* the dense path for one
    request even on an engine whose default schedule prunes.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "INHERIT_PRUNING"


#: Default for :attr:`Request.pruning`: inherit the engine's schedule.
INHERIT_PRUNING = _InheritPruning()


class RequestStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    #: The request can never be placed again (e.g. every replica whose
    #: shard could hold its reservation was drained mid-run).  Failed
    #: requests keep their record — with no admission timestamps — so
    #: the run's report counts them instead of crashing or dead-looping.
    FAILED = "failed"


#: Lifecycle phases, in order: each is one span on the request's track,
#: closed by whichever transition ends it (with that transition's
#: outcome), so the spans tile the request's time on a replica.
LIFECYCLE_PHASES = ("queued", "prefill", "decode")

#: Instants that end a request's timeline: served, failed on a replica
#: (load shed or deadline), or failed by the fleet router.
TERMINAL_INSTANTS = ("finished", "shed", "route_failed")

_REQUEST_TRACK_PREFIX = "req "

#: Matches a :func:`request_track` name; group 1 is the request id.
REQUEST_TRACK_RE = re.compile(rf"^{_REQUEST_TRACK_PREFIX}(\d+)$")


def request_track(request_id: int) -> str:
    """Trace track that carries one request's lifecycle events."""
    return f"{_REQUEST_TRACK_PREFIX}{request_id}"


@dataclass
class Request:
    """One generation request entering the serving system.

    Attributes:
        request_id: unique id (also the tiebreaker for queue ordering).
        prompt_ids: prompt token ids.
        max_new_tokens: decode budget (>= 1).
        arrival_time: simulated-clock arrival timestamp in seconds.
        priority: scheduling class; *lower* values are admitted first.
        pruning: per-request cascade schedule.  The default
            :data:`INHERIT_PRUNING` follows whatever the serving engine
            was configured with; a :class:`~repro.config.PruningConfig`
            overrides it for this request only, and ``None`` forces the
            dense path.  Heterogeneous traces (requests with different
            schedules in one trace) are what make the cluster router's
            schedule-bound cost estimates meaningful.
    """

    request_id: int
    prompt_ids: np.ndarray
    max_new_tokens: int
    arrival_time: float = 0.0
    priority: int = 0
    pruning: object = INHERIT_PRUNING

    def __post_init__(self) -> None:
        self.prompt_ids = np.asarray(self.prompt_ids, dtype=np.int64)
        if self.prompt_ids.ndim != 1 or len(self.prompt_ids) == 0:
            raise ValueError("prompt_ids must be a non-empty 1-D sequence")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_ids)

    @property
    def total_len(self) -> int:
        """Worst-case sequence length (prompt + full decode budget)."""
        return self.prompt_len + self.max_new_tokens


@dataclass
class RequestRecord:
    """Lifecycle timestamps and output of one served request."""

    request: Request
    status: RequestStatus = RequestStatus.QUEUED
    admit_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    token_ids: List[int] = field(default_factory=list)
    #: Simulated inter-token gap of each decode token: clock delta from
    #: the previous committed token of *this* request to this one.  The
    #: gap includes any stall the scheduler imposed between the two
    #: steps (e.g. another request's monolithic prefill), which is what
    #: makes decode-latency percentiles sensitive to head-of-line
    #: blocking.  The first token's latency is ``time_to_first_token``.
    token_latencies: List[float] = field(default_factory=list)
    #: Times this request was preempted (optimistic admission releasing
    #: its pages under pool pressure).  Cumulative across preempt /
    #: requeue cycles — :meth:`reset_for_requeue` does *not* clear it.
    n_preemptions: int = 0
    #: Prompt and decode tokens discarded by preemptions and recomputed
    #: from scratch on readmission.  Greedy decoding replays the exact
    #: same stream, so this is pure latency cost, never token loss.
    recompute_tokens: int = 0
    #: Livelock guard: set when the request is preempted, cleared the
    #: next time it commits any work (a prefill chunk or a decode
    #: token).  A protected request is never selected as a preemption
    #: victim, so no request can be preempted twice without progress.
    preempt_protected: bool = False
    #: Routing attempts consumed by retry-with-backoff after a failed
    #: placement (cluster mode).  Bounded by the cluster's retry
    #: budget; exhaustion fails the request cleanly.
    n_retries: int = 0
    #: KV-page corruption strikes survived: each one quarantined the
    #: sequence's pages and recomputed it from scratch (greedy decoding
    #: replays the identical stream, so corruption costs latency, never
    #: tokens).
    n_corruptions: int = 0
    #: Set when the degradation ladder escalated this request to a more
    #: aggressive cascade-pruning schedule under pool pressure.  A
    #: degraded request still receives its full decode budget, but its
    #: token stream is not comparable to a fault-free run's.
    degraded: bool = False
    #: The escalated schedule applied by the degradation ladder; when
    #: set, :meth:`ServingEngine.pruning_of` returns it instead of the
    #: request's own schedule.  Lives on the record (not the request)
    #: so it survives cross-replica requeues.
    pruning_override: Optional[object] = None
    #: Terminal failure reason for ``FAILED`` records: ``"unplaceable"``
    #: (no surviving replica can ever hold the reservation),
    #: ``"retry_budget"`` (placement retries exhausted), ``"deadline"``
    #: (per-request deadline expired before admission), or ``"shed"``
    #: (best-effort load dropped by the degradation ladder).
    failure: Optional[str] = None

    @property
    def queue_wait(self) -> float:
        """Seconds spent waiting for admission (pool + batch pressure)."""
        if self.admit_time is None:
            raise ValueError("request was never admitted")
        return self.admit_time - self.request.arrival_time

    @property
    def time_to_first_token(self) -> float:
        if self.first_token_time is None:
            raise ValueError("request produced no tokens")
        return self.first_token_time - self.request.arrival_time

    @property
    def n_generated(self) -> int:
        return len(self.token_ids)

    def reset_for_requeue(self) -> None:
        """Return the record to its pre-admission state (replica drain).

        A drained or failed replica's in-flight requests restart from
        scratch on another replica.  Greedy decoding is deterministic,
        so the regenerated token stream is identical; the original
        ``arrival_time`` is kept, so the drain penalty stays visible in
        the queue-wait and TTFT percentiles.
        """
        self.status = RequestStatus.QUEUED
        self.admit_time = None
        self.first_token_time = None
        self.finish_time = None
        self.token_ids.clear()
        self.token_latencies.clear()

    def reset_for_preempt(self, recompute_tokens: int) -> None:
        """Return to the queue after a preemption, keeping the tally.

        Lifecycle state resets exactly like a drain requeue (greedy
        decoding guarantees the replayed stream is bit-identical), but
        the preemption counters accumulate: ``recompute_tokens`` is the
        work discarded this time (committed prompt tokens plus decode
        tokens), and the livelock-guard flag protects the request from
        being victimized again before it makes progress.
        """
        self.n_preemptions += 1
        self.recompute_tokens += int(recompute_tokens)
        self.preempt_protected = True
        self.reset_for_requeue()

    def reset_for_corruption(self, recompute_tokens: int) -> None:
        """Return to the queue after a KV-corruption quarantine.

        The sequence's poisoned pages were released; the request
        recomputes from scratch exactly like a preemption (and is
        protected from immediate preemption the same way), but the
        strike is tallied separately in ``n_corruptions``.
        """
        self.n_corruptions += 1
        self.recompute_tokens += int(recompute_tokens)
        self.preempt_protected = True
        self.reset_for_requeue()


class RequestQueue:
    """Priority + FIFO queue over not-yet-admitted requests.

    Pop order is ``(priority, arrival_time, push order)``.  The third
    key is a monotonic per-queue counter stamped at :meth:`push`, so
    requests that tie on priority *and* arrival time pop exactly in the
    order they entered the queue — never by request id and never by
    comparing request payloads (which are not orderable).  Requeued
    requests (a drained cluster replica pushing its in-flight work back
    through the router) therefore line up behind equal-priority
    originals instead of jumping the line.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._push_counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, request: Request) -> None:
        heapq.heappush(
            self._heap,
            (
                request.priority,
                request.arrival_time,
                next(self._push_counter),
                request,
            ),
        )

    def peek(self) -> Request:
        if not self._heap:
            raise IndexError("queue is empty")
        return self._heap[0][3]

    def pop(self) -> Request:
        if not self._heap:
            raise IndexError("queue is empty")
        return heapq.heappop(self._heap)[3]

    def as_ordered_list(self) -> Sequence[Request]:
        """Waiting requests in admission order (non-destructive)."""
        return [entry[3] for entry in sorted(self._heap)]

    def remove(self, request: Request) -> bool:
        """Drop one waiting request (deadline expiry / load shedding).

        Returns False if the request is not in the queue.  The
        remaining entries keep their original push counters, so
        relative pop order is untouched.
        """
        for i, entry in enumerate(self._heap):
            if entry[3] is request:
                last = self._heap.pop()
                if i < len(self._heap):
                    self._heap[i] = last
                    heapq.heapify(self._heap)
                return True
        return False

    def drain(self) -> List[Request]:
        """Pop every waiting request, in admission order."""
        drained = [entry[3] for entry in sorted(self._heap)]
        self._heap.clear()
        return drained
