"""Top-k selection algorithms (paper Section IV-B, Algorithm 3).

Cascade pruning needs, at every layer, the ``k`` most important tokens or
heads out of the live set.  The paper's hardware uses a quick-select
engine (average O(n)) rather than a full sort (O(n log n)); this module
implements the *functional* algorithms that the rest of the library uses:

* :func:`topk_indices` — order-preserving top-k, the semantic ground
  truth everything is tested against (the hardware engine "keeps the
  original order of inputs").
* :func:`topk_rows` — the same selection for every row of a padded
  plane at once, as a keep mask (the batched decode core's token, head
  and value top-k; one stable sort per call, like the paper's parallel
  top-k engine serving many rankings).
* :func:`quick_select_kth` — the paper's Algorithm 3 as a pure function,
  returning the k-th largest value and the tie budget, along with the
  per-round partition sizes that drive the cycle model in
  :mod:`repro.hardware.topk_engine`.
* :func:`filter_topk` — the post-quick-select filtering step: keep
  elements strictly greater than the threshold plus exactly
  ``num_eq_k_th_largest`` elements equal to it, preserving input order.

The cycle-accurate engine (comparator arrays, zero eliminators, FIFO
occupancy) lives in the hardware package; the functions here are the
specification it must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "topk_indices",
    "topk_rows",
    "quick_select_kth",
    "filter_topk",
    "QuickSelectStats",
]


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, in original (ascending) order.

    Ties are broken toward earlier indices, matching the hardware
    behaviour of keeping the first ``num_eq_k_th_largest`` ties in stream
    order.  ``k`` is clipped to ``[0, len(scores)]``.
    """
    scores = np.asarray(scores)
    n = len(scores)
    k = int(min(max(k, 0), n))
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if k == n:
        return np.arange(n, dtype=np.int64)
    # Stable selection: sort by (-score, index) and take the first k.
    order = np.lexsort((np.arange(n), -scores))
    return np.sort(order[:k]).astype(np.int64)


def topk_rows(
    scores: np.ndarray, k, forced: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-wise :func:`topk_indices` over a padded ``[..., N]`` plane.

    Returns a boolean keep mask shaped like ``scores``: row ``r`` keeps
    its ``k[r]`` largest entries (``k`` broadcasts against
    ``scores.shape[:-1]`` and is clipped to ``[0, N]``), ties broken
    toward earlier columns — on every row exactly the columns
    ``topk_indices(row, k[r])`` returns.  Rows shorter than ``N`` are
    padded with ``-inf`` after their last entry; padding ranks behind
    every real entry, so it is kept only when ``k`` exceeds the row's
    length.  Scores must not be NaN.

    ``forced`` (same shape as ``scores``, boolean) marks entries that
    rank ahead of all others (real scores must be below ``+inf``) and
    count toward ``k`` — the protected query token of cascade token
    pruning.

    Like the hardware engine (:func:`quick_select_kth` then
    :func:`filter_topk`), each row finds its k-th largest value — here
    with one sort of the whole plane — then keeps every entry above it
    plus the first ties in stream order.
    """
    scores = np.asarray(scores)
    shape = scores.shape
    n = shape[-1]
    s = scores.reshape(-1, n)
    if forced is not None:
        s = np.where(forced.reshape(-1, n), np.inf, s)
    k = np.clip(np.broadcast_to(k, shape[:-1]), 0, n).reshape(-1)
    rows = np.arange(len(s))
    kth = np.sort(s, axis=-1)[rows, n - np.maximum(k, 1)][:, None]
    above = s > kth
    equal = s == kth
    keep = above | equal
    excess = np.flatnonzero(np.count_nonzero(keep, axis=-1) > k)
    if len(excess):
        # More ties at the k-th value than slots left: keep the first.
        need = k[excess] - np.count_nonzero(above[excess], axis=-1)
        first = np.cumsum(equal[excess], axis=-1) <= need[:, None]
        keep[excess] = above[excess] | (equal[excess] & first)
    return keep.reshape(shape)


@dataclass
class QuickSelectStats:
    """Work profile of one quick-select run (drives the cycle model).

    ``partition_sizes`` lists the number of elements pushed through the
    comparator arrays at each STATE_RUN iteration; total comparator work
    is their sum, and with parallelism ``P`` each round costs roughly
    ``ceil(size / P)`` cycles (plus pipeline constants).
    """

    partition_sizes: List[int]
    pivots: List[float]

    @property
    def n_rounds(self) -> int:
        return len(self.partition_sizes)

    @property
    def total_elements_processed(self) -> int:
        return int(sum(self.partition_sizes))


def quick_select_kth(
    values: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, int, QuickSelectStats]:
    """Find the k-th largest value via the paper's Algorithm 3.

    The loop mirrors the hardware state machine: a pivot is drawn from
    the FIFO being drained, the comparator arrays partition its contents
    into FIFO_L (``< pivot``) and FIFO_R (``> pivot``) while counting
    ties, and the START logic decides which FIFO to refine next.

    Args:
        values: input array (any real values, length >= 1).
        k: rank, 1-based (``k=1`` is the maximum), ``1 <= k <= len``.
        rng: pivot-selection randomness (deterministic default).

    Returns:
        ``(k_th_largest, num_eq_k_th_largest, stats)`` where
        ``num_eq_k_th_largest`` is how many elements equal to the
        threshold must be kept so that exactly ``k`` elements survive
        filtering (the paper's tie-handling output).
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        raise ValueError("quick_select_kth requires a non-empty array")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} elements")
    if rng is None:
        rng = np.random.default_rng(0)

    stats = QuickSelectStats(partition_sizes=[], pivots=[])
    source = values  # contents of the FIFO currently being drained
    target = k  # how many of the largest elements remain to be located
    while True:
        pivot = float(source[int(rng.integers(len(source)))])
        stats.pivots.append(pivot)
        stats.partition_sizes.append(int(len(source)))
        smaller = source[source < pivot]  # -> FIFO_L
        larger = source[source > pivot]  # -> FIFO_R
        num_eq_pivot = int(len(source) - len(smaller) - len(larger))
        if len(larger) > target:
            # Pivot too small: the k-th largest is among the larger ones.
            source = larger
        elif len(larger) + num_eq_pivot >= target:
            # larger <= target <= larger + ties: the pivot itself is the
            # k-th largest; keep (target - larger) of its ties.
            return pivot, target - len(larger), stats
        else:
            # Pivot too large: everything >= pivot is accounted for; the
            # k-th largest is among the smaller elements.
            target -= len(larger) + num_eq_pivot
            source = smaller


def filter_topk(
    values: np.ndarray, threshold: float, num_eq_keep: int
) -> np.ndarray:
    """Order-preserving filter after quick-select.

    Keeps every element strictly greater than ``threshold`` and the first
    ``num_eq_keep`` elements equal to it (stream order), mirroring the
    zero-eliminator filtering stage of the hardware engine.

    Returns the kept indices in ascending order.
    """
    values = np.asarray(values)
    above = values > threshold
    equal = values == threshold
    eq_positions = np.flatnonzero(equal)[: max(int(num_eq_keep), 0)]
    kept = np.flatnonzero(above)
    return np.sort(np.concatenate([kept, eq_positions])).astype(np.int64)
