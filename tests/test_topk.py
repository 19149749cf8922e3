"""Unit and property tests for the top-k selection algorithms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.head_pruning import prune_heads
from repro.core.token_pruning import prune_tokens
from repro.core.topk import (
    filter_topk,
    quick_select_kth,
    topk_indices,
    topk_rows,
)

score_arrays = hnp.arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestTopkIndices:
    def test_simple_selection(self):
        assert np.array_equal(
            topk_indices(np.array([0.4, 1.0, 0.3, 1.2, 1.7]), 2), [3, 4]
        )

    def test_order_preserved(self):
        indices = topk_indices(np.array([5.0, 1.0, 4.0, 3.0]), 3)
        assert np.all(np.diff(indices) > 0)

    def test_ties_break_toward_earlier(self):
        indices = topk_indices(np.array([1.0, 2.0, 2.0, 2.0]), 2)
        assert np.array_equal(indices, [1, 2])

    def test_k_clipping(self):
        scores = np.array([1.0, 2.0])
        assert len(topk_indices(scores, 0)) == 0
        assert len(topk_indices(scores, 5)) == 2
        assert len(topk_indices(scores, -3)) == 0

    @given(score_arrays, st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_matches_sorted_selection(self, scores, k):
        k = min(k, len(scores))
        chosen = topk_indices(scores, k)
        assert len(chosen) == k
        # The selected multiset of values equals the k largest values.
        expected = np.sort(scores)[::-1][:k]
        assert np.allclose(np.sort(scores[chosen])[::-1], expected)


class TestQuickSelect:
    def test_paper_example(self):
        # Fig. 9's example: [0.6, 0.1, 0.5, 1.2, 0.6], k=3 -> 0.6, 2 ties.
        value, n_eq, _ = quick_select_kth(
            np.array([0.6, 0.1, 0.5, 1.2, 0.6]), 3
        )
        assert value == pytest.approx(0.6)
        assert n_eq == 2

    def test_k_equals_one_is_max(self):
        value, n_eq, _ = quick_select_kth(np.array([3.0, 9.0, 1.0]), 1)
        assert value == 9.0 and n_eq == 1

    def test_k_equals_n_is_min(self):
        value, _, _ = quick_select_kth(np.array([3.0, 9.0, 1.0]), 3)
        assert value == 1.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            quick_select_kth(np.array([1.0]), 2)
        with pytest.raises(ValueError):
            quick_select_kth(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            quick_select_kth(np.array([]), 1)

    @given(score_arrays, st.integers(1, 64), st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_threshold_contract(self, scores, k, pivot_seed):
        """Algorithm 3's contract: (threshold, tie budget) such that the
        order-preserving filter emits exactly the top-k set.  When the
        FIFO_R partition holds exactly ``target`` elements the returned
        threshold may sit *below* the true k-th largest with a zero tie
        budget — still selecting the correct set."""
        k = min(k, len(scores))
        rng = np.random.default_rng(pivot_seed)
        value, n_eq, stats = quick_select_kth(scores, k, rng)
        kth_true = np.sort(scores)[::-1][k - 1]
        assert value <= kth_true
        if n_eq >= 1:
            assert value == kth_true
        assert n_eq >= 0
        assert stats.n_rounds >= 1
        assert stats.partition_sizes[0] == len(scores)

    @given(score_arrays, st.integers(1, 64), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_filter_yields_exactly_k(self, scores, k, pivot_seed):
        k = min(k, len(scores))
        rng = np.random.default_rng(pivot_seed)
        value, n_eq, _ = quick_select_kth(scores, k, rng)
        kept = filter_topk(scores, value, n_eq)
        assert len(kept) == k
        assert np.array_equal(kept, topk_indices(scores, k))


class TestFilterTopk:
    def test_strictly_greater_always_kept(self):
        kept = filter_topk(np.array([1.0, 5.0, 3.0]), 2.0, 0)
        assert np.array_equal(kept, [1, 2])

    def test_tie_budget_respected(self):
        kept = filter_topk(np.array([2.0, 2.0, 2.0]), 2.0, 2)
        assert np.array_equal(kept, [0, 1])

    def test_negative_budget_treated_as_zero(self):
        kept = filter_topk(np.array([2.0, 3.0]), 2.0, -1)
        assert np.array_equal(kept, [1])


# ----------------------------------------------------------------------
# Batched row top-k (the packed SpAtten decode core's selection)
# ----------------------------------------------------------------------
#: A small value set forces heavy ties, signed zeros, and real -inf.
TIE_VALUES = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0]

#: One row: its values, a requested k in [0, n + 2], and a protected
#: column index (reduced modulo n where used).
batch_rows = st.lists(
    st.tuples(
        st.lists(st.sampled_from(TIE_VALUES), min_size=0, max_size=10),
        st.integers(0, 12),
        st.integers(0, 9),
    ),
    min_size=1, max_size=6,
)


def _plane(rows):
    """Stack rows into a -inf padded plane; also return their lengths."""
    width = max(1, max(len(values) for values, _, _ in rows))
    plane = np.full((len(rows), width), -np.inf)
    for r, (values, _, _) in enumerate(rows):
        plane[r, : len(values)] = values
    return plane, [len(values) for values, _, _ in rows]


class TestTopkRows:
    @given(batch_rows)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example([([0.0, -0.0, 0.0, -0.0], 2, 0)])
    @example([([1.0, 1.0, 1.0], 0, 0), ([], 3, 0), ([-np.inf, 0.5], 2, 0)])
    def test_matches_topk_indices_per_row(self, rows):
        plane, lens = _plane(rows)
        k = np.array([min(want, n) for (_, want, _), n in zip(rows, lens)])
        mask = topk_rows(plane, k)
        for r, ((values, _, _), n) in enumerate(zip(rows, lens)):
            expect = topk_indices(np.array(values), k[r])
            assert np.array_equal(np.flatnonzero(mask[r, :n]), expect)
            assert not mask[r, n:].any(), "padding kept"

    @given(batch_rows)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example([([0.5, 0.5, 0.5, 0.5], 2, 3), ([-0.0, 0.0], 0, 1)])
    def test_forced_column_matches_prune_tokens(self, rows):
        """Token pruning: the protected column is forced in and counts
        toward k, which is at least 1 (the core's clip)."""
        rows = [row for row in rows if row[0]]
        if not rows:
            return
        plane, lens = _plane(rows)
        protected = [p % n for (_, _, p), n in zip(rows, lens)]
        forced = np.zeros(plane.shape, dtype=bool)
        forced[np.arange(len(rows)), protected] = True
        k = np.array([max(min(want, n), 1)
                      for (_, want, _), n in zip(rows, lens)])
        mask = topk_rows(plane, k, forced=forced)
        for r, ((values, want, _), n) in enumerate(zip(rows, lens)):
            decision = prune_tokens(
                np.arange(n), np.array(values), want,
                protected_ids=[protected[r]],
            )
            assert np.array_equal(np.flatnonzero(mask[r, :n]),
                                  decision.kept_rows)

    @given(batch_rows)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example([([1.0, 0.0, 0.0], 0, 0), ([0.0], 0, 0)])
    def test_head_variant_clips_to_at_least_one(self, rows):
        rows = [row for row in rows if row[0]]
        if not rows:
            return
        plane, lens = _plane(rows)
        k = np.clip([want for _, want, _ in rows], 1, lens)
        mask = topk_rows(plane, k)
        for r, ((values, want, _), n) in enumerate(zip(rows, lens)):
            decision = prune_heads(np.arange(n), np.array(values), want)
            assert np.array_equal(np.flatnonzero(mask[r, :n]),
                                  decision.kept_rows)

    def test_broadcasts_k_over_leading_axes(self):
        plane = np.array([[[3.0, 1.0, 2.0], [0.0, 0.0, 5.0]]])
        mask = topk_rows(plane, np.array([[2]]))
        assert mask.tolist() == [[[True, False, True], [True, False, True]]]
