"""The SpAtten attention pipeline as an :class:`AttentionExecutor`.

``SpAttenExecutor`` composes everything the paper proposes:

* **cascade token pruning** — entry pruning per layer against the
  schedule, driven by cumulative token importance (Algorithm 2); pruned
  tokens leave the residual stream (saving FFN work) and are evicted
  from every layer's KV cache (saving DRAM traffic in generation);
* **cascade head pruning** — a global live-head set shrinking across
  layers, driven by cumulative output magnitudes;
* **local value pruning** — per-head, per-layer V-vector skipping from
  the current attention probabilities (Section III-C);
* **progressive quantization** — MSB-only attention first, per-row LSB
  refetch when the probability distribution is flat (Section III-D).

The executor emits an :class:`~repro.core.trace.AttentionTrace` whose
count fields are guaranteed (and tested) to match the analytic
:func:`~repro.core.trace.spatten_trace`, because both call the same
schedule functions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import ModelConfig, PruningConfig, QuantConfig
from ..nn.attention import AttentionRecord, expand_pruned_heads, merge_heads
from ..nn.functional import softmax
from ..nn.kv_cache import KVCache
from ..nn.numerics import resolve_numerics
from ..nn.transformer import AttentionExecutor, LayerExecution, TransformerModel
from . import schedule as sched
from .head_pruning import prune_heads
from .importance import HeadImportanceAccumulator, TokenImportanceAccumulator
from .quantization import LinearQuantizer, needs_lsb
from .token_pruning import prune_tokens
from .topk import topk_rows
from .trace import AttentionTrace, LayerStep
from .value_pruning import apply_local_value_pruning, local_value_keep_indices

__all__ = ["SpAttenExecutor", "SpAttenDecodeBatch"]

#: Score of padding columns in the batched decode core; underflows to an
#: exact 0.0 after the softmax's exp (the packed backend's convention).
_MASKED = -1e30


class SpAttenExecutor(AttentionExecutor):
    """Attention executor implementing the full SpAtten algorithm stack.

    Args:
        pruning: cascade/local pruning schedule.  The default
            (:class:`PruningConfig` with all keeps at 1.0) disables
            pruning, which makes the executor a quantization-only or
            pure-reference path.
        quant: progressive-quantization settings, or ``None`` for fp
            numerics.
        kv_page_tokens: KV-cache growth quantum in columns; the serving
            engine passes its memory pool's page size so buffer growth
            and pool-page accounting share one unit.
        numerics: :class:`~repro.nn.numerics.NumericsPolicy` (or tier
            name) governing KV storage dtype and DRAM accounting.  The
            SpAtten attention core itself keeps its own per-sequence
            semantics — progressive quantization is configured through
            ``quant`` — but the cache underneath stores at the policy's
            dtype so a mixed fleet shares one storage contract.
    """

    def __init__(
        self,
        pruning: Optional[PruningConfig] = None,
        quant: Optional[QuantConfig] = None,
        kv_page_tokens: int = 16,
        numerics=None,
    ):
        self.pruning = pruning or PruningConfig()
        self.quant = quant
        self._kv_page_tokens = kv_page_tokens
        self._numerics = resolve_numerics(numerics)
        # Per-sequence state (populated by begin_sequence).
        self._model_config: Optional[ModelConfig] = None
        self.token_acc: Optional[TokenImportanceAccumulator] = None
        self.head_acc: Optional[HeadImportanceAccumulator] = None
        self.trace: Optional[AttentionTrace] = None
        self._cache: Optional[KVCache] = None
        self._alive_tokens: Optional[np.ndarray] = None
        self._alive_heads: Optional[np.ndarray] = None
        self._token_counts: Optional[np.ndarray] = None
        self._token_fracs: Optional[np.ndarray] = None
        self._head_counts: Optional[np.ndarray] = None
        self._original_length: Optional[int] = None
        self._total_length = 0

    # ------------------------------------------------------------------
    # Sequence lifecycle
    # ------------------------------------------------------------------
    def begin_sequence(self, model: TransformerModel) -> None:
        cfg = model.config
        self._model_config = cfg
        self.token_acc = TokenImportanceAccumulator()
        self.head_acc = HeadImportanceAccumulator(cfg.n_heads)
        self._alive_heads = np.arange(cfg.n_heads, dtype=np.int64)
        self._alive_tokens = None
        policy = self._numerics
        self._cache = (
            KVCache(
                cfg.n_layers, cfg.n_heads, cfg.head_dim,
                bytes_per_element=policy.storage_bytes_per_element(
                    cfg.bytes_per_element
                ),
                page_tokens=self._kv_page_tokens,
                dtype=policy.kv_dtype,
            )
            if cfg.causal
            else None
        )
        self.trace = None
        self._token_counts = None
        self._token_fracs = None
        self._head_counts = None
        self._original_length = None
        self._total_length = 0

    def _init_schedules(self, sentence_length: int) -> None:
        cfg = self._model_config
        self._original_length = sentence_length
        self._total_length = sentence_length
        self._token_counts = sched.token_keep_counts(
            self.pruning, cfg.n_layers, sentence_length
        )
        self._token_fracs = sched.token_keep_fractions(
            self.pruning, cfg.n_layers, sentence_length
        )
        self._head_counts = sched.head_keep_counts(
            self.pruning, cfg.n_layers, cfg.n_heads
        )
        self.trace = AttentionTrace(
            cfg, sentence_length, 0, quant=self.quant, pruning=self.pruning
        )

    @property
    def supports_incremental_prefill(self) -> bool:
        """Cascade pruning decides over the whole sentence at once.

        Entry token pruning at layer ``l`` ranks *every* prompt token's
        accumulated importance, so summarization cannot commit a prefix
        chunk without changing the pruning decisions.  Chunked serving
        therefore defers SpAtten summarization to the final chunk
        (:meth:`repro.nn.transformer.TransformerModel.
        prefill_chunk_batch`), keeping results bit-identical to the
        monolithic pass.
        """
        return False

    # ------------------------------------------------------------------
    # Serving introspection (KV bookkeeping for the memory pool)
    # ------------------------------------------------------------------
    def kv_lengths(self) -> List[int]:
        """Per-layer live KV column counts after cascade eviction."""
        return self._cache.lengths() if self._cache is not None else []

    @property
    def n_live_heads(self) -> int:
        """Heads surviving cascade head pruning so far."""
        return len(self._alive_heads) if self._alive_heads is not None else 0

    @property
    def evicted_kv_tokens(self) -> int:
        """Cumulative KV columns evicted by cascade token pruning."""
        return self._cache.total_evicted_tokens if self._cache is not None else 0

    @property
    def kv_nbytes(self) -> int:
        """Live KV-cache footprint in storage bytes (dtype-aware)."""
        return self._cache.nbytes if self._cache is not None else 0

    # ------------------------------------------------------------------
    # Quantized / progressive attention probabilities
    # ------------------------------------------------------------------
    def _attention_probs(
        self,
        q: np.ndarray,
        k: np.ndarray,
        mask: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, float]:
        """Probabilities under the configured quantization.

        Returns ``(probs [h, L0, L1], lsb_fraction)`` where
        ``lsb_fraction`` is the fraction of softmax rows that required
        the LSB refetch (0.0 without progressive quantization).
        """
        head_dim = q.shape[-1]

        def scores_of(qq: np.ndarray, kk: np.ndarray) -> np.ndarray:
            s = qq @ kk.transpose(0, 2, 1) / np.sqrt(head_dim)
            if mask is not None:
                s = np.where(mask[None, :, :], s, -1e30)
            return s

        if self.quant is None:
            return softmax(scores_of(q, k), axis=-1), 0.0

        quantizer = LinearQuantizer(self.quant.msb_bits, self.quant.lsb_bits)
        q_q, k_q = quantizer.quantize(q), quantizer.quantize(k)
        q_msb = quantizer.dequantize_msb(q_q)
        k_msb = quantizer.dequantize_msb(k_q)
        probs_msb = softmax(scores_of(q_msb, k_msb), axis=-1)
        if not self.quant.progressive:
            # Static quantization (the paper's BERT setting): a single
            # MSB-width fetch, never refined.
            return probs_msb, 0.0

        refetch = needs_lsb(probs_msb, self.quant.threshold)  # [h, L0]
        if not refetch.any():
            return probs_msb, 0.0
        q_full = quantizer.dequantize_full(q_q)
        k_full = quantizer.dequantize_full(k_q)
        probs_full = softmax(scores_of(q_full, k_full), axis=-1)
        probs = np.where(refetch[:, :, None], probs_full, probs_msb)
        return probs, float(refetch.mean())

    def _quantize_values(self, v: np.ndarray) -> np.ndarray:
        """Round-trip V through the configured storage width."""
        if self.quant is None:
            return v
        if self.quant.progressive:
            bits = LinearQuantizer(self.quant.msb_bits, self.quant.lsb_bits)
        else:
            bits = LinearQuantizer(self.quant.msb_bits, 0)
        return bits.dequantize_full(bits.quantize(v))

    # ------------------------------------------------------------------
    # Layer execution
    # ------------------------------------------------------------------
    def run_layer(
        self,
        layer_idx: int,
        model: TransformerModel,
        x: np.ndarray,
        positions: np.ndarray,
        stage: str,
        projected=None,
    ) -> LayerExecution:
        if projected is not None:
            raise ValueError(
                "SpAttenExecutor projects live heads itself; only the packed "
                "backend's SpAttenDecodeBatch consumes precomputed projections"
            )
        if stage == "summarize":
            return self._run_summarize(layer_idx, model, x, positions)
        if stage == "decode":
            return self._run_decode(layer_idx, model, x, positions)
        raise ValueError(f"unknown stage {stage!r}")

    def _prune_heads_at(self, layer_idx: int) -> None:
        target = int(self._head_counts[layer_idx])
        if target < len(self._alive_heads):
            decision = prune_heads(
                self._alive_heads,
                self.head_acc.scores_for(self._alive_heads),
                target,
            )
            self._alive_heads = decision.kept_ids

    def _project_live(
        self, model: TransformerModel, layer_idx: int, x_live: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Q/K/V of the live heads only (``[h_live, L, D]`` each)."""
        attn = model.attention(layer_idx)
        q = attn.project_q(x_live)[self._alive_heads]
        k, v = attn.project_kv(x_live)
        return q, k[self._alive_heads], v[self._alive_heads]

    def _finish_layer(
        self,
        model: TransformerModel,
        layer_idx: int,
        probs: np.ndarray,
        v_live: np.ndarray,
        key_ids: np.ndarray,
        query_ids: np.ndarray,
        lsb_fraction: float,
        stage: str,
    ) -> Tuple[np.ndarray, AttentionRecord]:
        """Local V pruning, importance accumulation, output projection."""
        kept_per_head = local_value_keep_indices(probs, self.pruning.value_keep)
        head_out, kept_counts = apply_local_value_pruning(
            probs, v_live, kept_per_head
        )
        self.token_acc.accumulate(probs, key_ids)
        self.head_acc.accumulate(head_out, self._alive_heads)

        cfg = self._model_config
        full = expand_pruned_heads(head_out, self._alive_heads, cfg.n_heads)
        output = model.attention(layer_idx).project_merged(merge_heads(full))
        record = AttentionRecord(
            probs=probs,
            head_outputs=head_out,
            key_token_ids=key_ids.copy(),
            query_token_ids=query_ids.copy(),
            head_ids=self._alive_heads.copy(),
            value_kept=kept_counts,
            lsb_refetched=lsb_fraction > 0.0,
        )
        self.trace.add(
            LayerStep(
                layer=layer_idx,
                stage=stage,
                n_queries=len(query_ids),
                n_keys=len(key_ids),
                n_heads=len(self._alive_heads),
                n_values=int(kept_counts[0]) if len(kept_counts) else 0,
                lsb_fraction=lsb_fraction,
            )
        )
        return output, record

    def _run_summarize(
        self,
        layer_idx: int,
        model: TransformerModel,
        x: np.ndarray,
        positions: np.ndarray,
    ) -> LayerExecution:
        cfg = self._model_config
        if layer_idx == 0:
            self._init_schedules(len(x))
            self._alive_tokens = positions.copy()

        # --- cascade token pruning (entry, schedule-driven) -----------
        target = int(self._token_counts[layer_idx])
        protected = (
            [self._original_length - 1] if cfg.causal else [0]
        )
        decision = prune_tokens(
            positions, self.token_acc.scores_for(positions), target, protected
        )
        kept_rows = decision.kept_rows
        x_live = x[kept_rows]
        live_positions = positions[kept_rows]
        self._alive_tokens = decision.kept_ids

        # --- cascade head pruning (entry) ------------------------------
        self._prune_heads_at(layer_idx)

        q_live, k_live, v_live = self._project_live(model, layer_idx, x_live)

        if cfg.causal:
            layer_cache = self._cache[layer_idx]
            # Summarization visits each layer once, so the cache is empty
            # here; appending keeps decode and summarize on one code path.
            k_full = np.zeros((cfg.n_heads, len(x_live), cfg.head_dim))
            v_full = np.zeros_like(k_full)
            k_full[self._alive_heads] = k_live
            v_full[self._alive_heads] = v_live
            layer_cache.append(k_full, v_full, live_positions)
            key_ids = layer_cache.token_ids
            mask = key_ids[None, :] <= live_positions[:, None]
        else:
            key_ids = live_positions
            mask = None

        probs, lsb_fraction = self._attention_probs(q_live, k_live, mask)
        v_used = self._quantize_values(v_live)
        output, record = self._finish_layer(
            model, layer_idx, probs, v_used, key_ids, live_positions,
            lsb_fraction, "summarize",
        )
        return LayerExecution(output, record, kept_rows)

    def _decode_control(self, layer_idx: int, positions: np.ndarray) -> None:
        """Pre-projection decode control: pruning decisions + eviction.

        Everything in a decode layer that precedes the Q/K/V projection:
        admitting the new token to the live set (layer 0), cascade token
        pruning over the global live set, cascade head pruning, and
        evicting pruned columns from this layer's KV cache.  The packed
        backend commits the same decisions for a whole batch at once
        (:class:`SpAttenDecodeBatch`).
        """
        if self._original_length is None:
            raise RuntimeError("decode before summarize; call encode/generate")

        if layer_idx == 0:
            # A new token enters the live set.
            self._total_length += 1
            self.trace.n_generated += 1
            self._alive_tokens = np.append(self._alive_tokens, positions)

        # --- cascade token pruning over the global live set -----------
        target = sched.decode_token_target(
            self.pruning, float(self._token_fracs[layer_idx]), self._total_length
        )
        if target < len(self._alive_tokens):
            decision = prune_tokens(
                self._alive_tokens,
                self.token_acc.scores_for(self._alive_tokens),
                target,
                protected_ids=[int(positions[0])],
            )
            self._alive_tokens = decision.kept_ids

        self._prune_heads_at(layer_idx)

        # --- evict pruned tokens from this layer's KV cache ------------
        layer_cache = self._cache[layer_idx]
        keep_cols = np.flatnonzero(
            np.isin(layer_cache.token_ids, self._alive_tokens)
        )
        if len(keep_cols) < len(layer_cache):
            layer_cache.keep(keep_cols)

    def _run_decode(
        self,
        layer_idx: int,
        model: TransformerModel,
        x: np.ndarray,
        positions: np.ndarray,
    ) -> LayerExecution:
        """Looped decode of one token: the packed path's bit-exact oracle.

        Appends the (full-width, dead-head-zeroed) K/V column, runs the
        quantization-aware attention probabilities over the live heads,
        and finishes with local value pruning, importance accumulation,
        and the output FC.
        """
        if len(x) != 1:
            raise ValueError("decode processes exactly one token")
        self._decode_control(layer_idx, positions)
        q_live, k_live, v_live = self._project_live(model, layer_idx, x)
        cfg = self._model_config
        layer_cache = self._cache[layer_idx]
        k_full = np.zeros((cfg.n_heads, 1, cfg.head_dim))
        v_full = np.zeros_like(k_full)
        k_full[self._alive_heads] = k_live
        v_full[self._alive_heads] = v_live
        layer_cache.append(k_full, v_full, positions)

        key_ids = layer_cache.token_ids
        k_use = layer_cache.keys[self._alive_heads]
        v_use = layer_cache.values[self._alive_heads]
        probs, lsb_fraction = self._attention_probs(q_live, k_use, mask=None)
        output, record = self._finish_layer(
            model, layer_idx, probs, self._quantize_values(v_use), key_ids,
            positions, lsb_fraction, "decode",
        )
        return LayerExecution(output, record, np.arange(1))

    # ------------------------------------------------------------------
    # Packed decode protocol (repro.nn.batched_attention)
    # ------------------------------------------------------------------
    @property
    def numerics(self):
        """The numerics ladder tier this executor stores KV state at."""
        return self._numerics

    @property
    def packed_decode_style(self) -> str:
        """``"spatten"``: the backend runs :class:`SpAttenDecodeBatch`.

        The packed backend projects every row at once and hands all
        SpAtten rows of a step to one batch-level core, which commits
        the looped path's pruning decisions, KV evictions, importance
        updates, and trace steps bit for bit (non-causal models keep
        no cache and fall back to ``run_layer``).
        """
        return "spatten" if self._cache is not None else "none"


class SpAttenDecodeBatch:
    """One packed decode step of every SpAtten row in a batch.

    :class:`~repro.nn.batched_attention.PackedDecodeBackend` builds one
    per step from the rows whose style is ``"spatten"``, calls
    :meth:`decode_layer` once per layer, and :meth:`finish` after the
    last one.  The looped :meth:`SpAttenExecutor.run_layer` path stays
    the oracle; this core reproduces it bit for bit under ``exact``.

    Step-scoped planes hold the per-row control state: cumulative token
    importance and the live-token mask over positions (``[B, P]``),
    head importance and the live-head mask (``[B, H]``).  Each discrete
    decision is one :func:`~repro.core.topk.topk_rows` call per layer
    over all rows — token pruning with the query token forced in, head
    pruning, and the local value top-k over every live head — and KV
    eviction is a mask lookup instead of ``np.isin``.  The float math
    keeps the oracle's grouping:

    * scores, softmax denominators, and A·V run per sequence at exact
      lengths (BLAS and pairwise sums are not padding-invariant),
      stacked over heads; max, exp and normalization run over the
      padded plane (elementwise or order-exact);
    * importance sums add dead heads and padding as exact zeros, so
      the head-order accumulation matches the oracle's live-head sum.

    Rows with progressive quantization (``quant``) keep their
    per-sequence probability and V-quantization path inside the core.
    No :class:`~repro.nn.attention.AttentionRecord` is built — the
    serving engine reads only counts — but every row's trace still gets
    one :class:`~repro.core.trace.LayerStep` per layer.
    """

    def __init__(
        self, executors: List[SpAttenExecutor], positions: np.ndarray
    ):
        for e in executors:
            if e._original_length is None:
                raise RuntimeError(
                    "decode before summarize; call encode/generate"
                )
        n = len(executors)
        self._executors = executors
        self._rows = np.arange(n)
        self._positions = positions
        cfg = executors[0]._model_config
        self._head_dim = cfg.head_dim
        # Layer-0 admission: the new token enters every live set.
        for e in executors:
            e._total_length += 1
            e.trace.n_generated += 1
        self._total = np.array([e._total_length for e in executors])
        score_lens = np.array([len(e.token_acc) for e in executors])
        # Importance arrays grow to cover the new position, as the
        # looped path's scores_for/accumulate do.
        self._score_lens = np.maximum(score_lens, positions + 1)
        width = int(self._score_lens.max())
        self._tok = np.zeros((n, width))
        self._alive = np.zeros((n, width), dtype=bool)
        for b, e in enumerate(executors):
            self._tok[b, : score_lens[b]] = e.token_acc._scores
            self._alive[b, e._alive_tokens] = True
        self._alive[self._rows, positions] = True
        self._query = np.zeros_like(self._alive)
        self._query[self._rows, positions] = True
        self._heads = np.array([e.head_acc._scores for e in executors])
        self._head_ids = [e._alive_heads for e in executors]
        self._head_alive = np.zeros(self._heads.shape, dtype=bool)
        for b, ids in enumerate(self._head_ids):
            self._head_alive[b, ids] = True
        self._fracs = np.array([e._token_fracs for e in executors])
        self._head_targets = np.array([e._head_counts for e in executors])
        self._min_tokens = np.array([e.pruning.min_tokens for e in executors])
        self._value_keep = np.array([e.pruning.value_keep for e in executors])
        self._quant_rows = [
            b for b, e in enumerate(executors) if e.quant is not None
        ]

    def _control(self, layer_idx: int) -> List[object]:
        """Token + head pruning and KV eviction; returns the layer caches."""
        # --- cascade token pruning (decode_token_target, vectorized) ---
        floor = np.minimum(self._total, np.maximum(1, self._min_tokens))
        target = np.maximum(
            np.rint(self._fracs[:, layer_idx] * self._total).astype(np.int64),
            floor,
        )
        n_alive = self._alive.sum(axis=1)
        if (target < n_alive).any():
            keep = np.maximum(np.minimum(target, n_alive), 1)
            self._alive = topk_rows(
                np.where(self._alive, self._tok, -np.inf), keep,
                forced=self._query,
            )

        # --- cascade head pruning -------------------------------------
        target = self._head_targets[:, layer_idx]
        n_alive = self._head_alive.sum(axis=1)
        pruning = target < n_alive
        if pruning.any():
            self._head_alive = topk_rows(
                np.where(self._head_alive, self._heads, -np.inf),
                np.clip(target, 1, n_alive),
            )
            for b in np.flatnonzero(pruning):
                self._head_ids[b] = np.flatnonzero(self._head_alive[b])

        # --- evict pruned tokens from this layer's caches ---------------
        caches = [e._cache[layer_idx] for e in self._executors]
        lens = np.array([len(c) for c in caches])
        row_of = np.repeat(self._rows, lens)
        member = self._alive[row_of, np.concatenate([c.token_ids for c in caches])]
        n_member = np.bincount(row_of, weights=member, minlength=len(caches))
        evict = np.flatnonzero(n_member < lens)
        if len(evict):
            ends = np.cumsum(lens)
            for b in evict:
                caches[b].keep(
                    np.flatnonzero(member[ends[b] - lens[b] : ends[b]])
                )
        return caches

    def decode_layer(
        self,
        layer_idx: int,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        append_kv,
    ) -> np.ndarray:
        """One layer for every row; returns merged features ``[B, h*D]``.

        ``q``/``k``/``v`` are the rows' full-width projections
        ``[B, h, D]``.  ``append_kv(caches, k_cols, v_cols, positions)``
        is the backend's KV append, so int8 rows share its fused
        quantization pass; the new columns are staged in fp64 with dead
        heads zeroed — exactly what the looped path appends.
        """
        executors = self._executors
        n = len(executors)
        caches = self._control(layer_idx)
        kv = np.zeros((2,) + k.shape)
        kv[0] = k
        kv[1] = v
        kv[:, ~self._head_alive] = 0.0
        append_kv(caches, kv[0], kv[1], self._positions)

        # --- scores and softmax (all heads; dead ones zeroed after) -----
        lens = np.array([len(c) for c in caches])
        max_len = int(lens.max())
        scores = np.empty(q.shape[:2] + (1, max_len), dtype=q.dtype)
        if lens.min() < max_len:
            scores[..., lens.min() :] = _MASKED
        q4 = q[:, :, None, :]
        for b, cache in enumerate(caches):
            np.matmul(
                q4[b], cache.keys.transpose(0, 2, 1),
                out=scores[b, :, :, : lens[b]],
            )
        probs = scores / np.sqrt(self._head_dim)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        denom = np.empty(probs.shape[:2] + (1, 1))
        for b, length in enumerate(lens):
            np.add.reduce(
                probs[b, :, :, :length], axis=-1, keepdims=True, out=denom[b]
            )
        probs /= denom
        probs *= self._head_alive[:, :, None, None]
        probs = probs[:, :, 0, :]
        lsb = [0.0] * n
        quant_values = {}
        for b in self._quant_rows:
            # Progressive quantization: the per-sequence probability
            # path (data-dependent scales) and quantized V.
            e, ids, length = executors[b], self._head_ids[b], lens[b]
            row, lsb[b] = e._attention_probs(
                q4[b][ids], caches[b].keys[ids], mask=None
            )
            probs[b] = 0.0
            probs[b, ids, :length] = row[:, 0, :]
            quant_values[b] = e._quantize_values(caches[b].values[ids])

        # --- local value pruning over the live heads, head-stacked A·V ----
        n_values = np.maximum(
            np.ceil(self._value_keep * lens).astype(np.int64),
            np.minimum(1, lens),
        )
        live_b, live_h = np.nonzero(self._head_alive)
        live = probs[live_b, live_h]
        kept = topk_rows(live, n_values[live_b])
        kept_p = live[kept]
        kept_cols = np.nonzero(kept)[1]
        out = np.empty((len(live_b), 1, self._head_dim))
        head = flat = 0
        for b, cache in enumerate(caches):
            ids = self._head_ids[b]
            h, kb = len(ids), int(n_values[b])
            executors[b].trace.add(
                LayerStep(
                    layer=layer_idx, stage="decode", n_queries=1,
                    n_keys=int(lens[b]), n_heads=h, n_values=kb,
                    lsb_fraction=lsb[b],
                )
            )
            span = slice(flat, flat + h * kb)
            cols = kept_cols[span].reshape(h, kb)
            if b in quant_values:
                vals = quant_values[b][np.arange(h)[:, None], cols]
            else:
                vals = cache.values[ids[:, None], cols]
            np.matmul(
                kept_p[span].reshape(h, 1, kb), vals,
                out=out[head : head + h],
            )
            head += h
            flat += h * kb
        head_out = np.zeros(probs.shape[:2] + (self._head_dim,))
        head_out[live_b, live_h] = out[:, 0, :]

        # --- importance: one scatter-add per plane ------------------------
        self._heads += np.abs(head_out).sum(axis=-1)
        row_of = np.repeat(self._rows, lens)
        cols = np.arange(len(row_of)) - np.repeat(np.cumsum(lens) - lens, lens)
        ids = np.concatenate([c.token_ids for c in caches])
        self._tok[row_of, ids] += probs.sum(axis=1)[row_of, cols]
        return head_out.reshape(n, -1)

    def finish(self) -> None:
        """Write the step's planes back to the executors."""
        for b, e in enumerate(self._executors):
            e.token_acc._scores = self._tok[b, : self._score_lens[b]].copy()
            e._alive_tokens = np.flatnonzero(self._alive[b])
            e.head_acc._scores = self._heads[b].copy()
            e._alive_heads = self._head_ids[b]
