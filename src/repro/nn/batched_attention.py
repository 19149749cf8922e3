"""Packed batched attention backend for the serving decode hot path.

The looped decode path issues ``B × n_layers`` separate single-row
``run_layer`` calls per mixed step — dozens of tiny NumPy ops per
sequence per layer, which leaves the interpreter, not BLAS, as the
bottleneck (PAPER.md §IV's accelerator wins precisely because it feeds
wide batched Q·K·V units).  :meth:`PackedDecodeBackend.decode_step`
restructures one whole decode step — embedding gather, attention,
residual + LayerNorm, FFN, LM head — so that everything that *can* run
as a single batch-level BLAS call does:

* **fused Q/K/V projection** — one ``[B, d] @ [d, 3d]`` product per
  layer replaces ``3B`` single-row GEMMs;
* **central dense attention core** — the backend appends every dense
  sequence's new K/V column to its
  :class:`~repro.nn.kv_cache.LayerKVCache` and runs scores, the masked
  softmax, and A·V for all of them at once;
* **batched SpAtten core** — every SpAtten row of the step goes through
  one :class:`~repro.core.pipeline.SpAttenDecodeBatch` call per layer:
  token, head, and local value top-k over padded planes, KV eviction by
  mask lookup, head-stacked A·V, and one importance scatter-add;
* **fused output FC** — one ``[B, h·D] @ [d, d]`` product replaces
  ``B`` per-sequence projections;
* **fused chunk projection** — during chunked prefill, the Q/K/V
  projections of every in-flight prompt's chunk run as one GEMM over
  the concatenated rows.

One stack, three tier-selected points
-------------------------------------

Rows are grouped by
:attr:`~repro.nn.transformer.AttentionExecutor.packed_decode_style`
once per step: ``"dense"`` caches run the central core above;
``"spatten"`` rows run the batched SpAtten core on backend-supplied
projections, their new K/V columns appended (and, under int8,
quantized) by the same fused append as the dense rows; ``"none"``
rows fall back to an fp64 ``run_layer`` call each.  That dispatch, the
central KV append, and the :class:`~repro.telemetry.HotPathProfiler`
stops are written once for every
:class:`~repro.nn.numerics.NumericsPolicy` tier.  The policy's
``is_exact`` flag picks between two implementations at exactly three
points:

1. **QKV / output GEMM kernel** — the ``[B, 1, d]`` gufunc (exact) or
   one 2-D GEMM (cast tiers);
2. **attention core** — :meth:`PackedDecodeBackend._dense_core` over
   exact-length cache views, or
   :meth:`PackedDecodeBackend._dense_core_policy` over a padded arena
   (the SpAtten core runs its looped path's math on every tier: scores
   in the projections' dtype, softmax, A·V, and importance in fp64);
3. **LN / FFN / LM-head math** — :func:`repro.nn.functional.layer_norm`
   and the model's FFN over the fp64 weights, or the in-place
   compute-dtype versions over weights cast once at construction.

Exact tier: bit-identity contract
---------------------------------

Under ``exact`` the packed step must produce logits **bit-identical**
to the looped oracle (``tests/test_packed_decode.py`` enforces this
property across executors, ragged lengths, pruned-head sets, and
mid-generation evictions).  That constraint dictates the design,
because BLAS reductions are not grouping-invariant:

* multi-slice ``np.matmul`` (the gufunc) computes each 2-D slice with
  the same kernel as a standalone single-row matmul, so batching the
  projections is exact — but a *2-D* ``[B, d] @ [d, d]`` GEMM is not
  (single-row products take a GEMV-shaped path whose accumulation
  differs in the last ulp);
* fusing Q/K/V into one ``[d, 3d]`` weight is exact (output columns are
  independent), and concatenating chunk rows is exact for blocks of
  ≥ 2 rows (row blocks of a GEMM are independent) — single-row chunks
  are projected solo;
* zero-padding the *reduction* axis is **not** exact on OpenBLAS (the
  k-loop blocking changes with length), so scores and A·V run per
  sequence at exact lengths over zero-copy cache views, never over a
  padded pack;
* ``max`` is order-exact, and exp/shift/normalize are elementwise, so
  those softmax stages batch across the padded scratch; the softmax
  *denominator* (a length-sensitive pairwise sum) reduces per sequence
  over exact-length views.

Cast tiers (fp32 / int8)
------------------------

A non-exact policy trades bit identity for a declared accuracy budget,
which unlocks the padded-pack design the contract above forbids:

* every dense sequence's K/V live in a persistent per-layer **arena**
  — ``[S, h, cap, D]`` compute-dtype planes in batch-row order — so
  the score and A·V stages run as *one* batched ``[B, h, 1, max_len]``
  gufunc matmul each, with a masked softmax batched over the padded
  scratch (padding columns are masked to ``-1e30`` and underflow to
  exact 0);
* arena rows sync incrementally: an unchanged
  :attr:`~repro.nn.kv_cache.LayerKVCache.version` plus one new column
  means an O(h·D) tail write; eviction, preemption, or batch-order
  churn trigger an O(L) rebuild from the cache (dequantizing int8
  codes through their per-row scales);
* the ``int8`` tier quantizes each step's *batch* of new K/V columns in
  one fused pass before handing each cache its pre-quantized slice, so
  score GEMMs read dequantized int8 operands with fp32 accumulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import split_heads
from .functional import layer_norm
from .numerics import resolve_numerics
from .transformer import AttentionExecutor, TransformerModel

__all__ = ["PackedDecodeBackend", "ATTENTION_BACKENDS"]

#: Selectable attention backends for the serving decode path.
ATTENTION_BACKENDS = ("looped", "packed")

#: Sentinel score for padding columns; matches the masking convention of
#: :func:`repro.nn.attention.scaled_dot_attention` and underflows to an
#: exact 0.0 after the softmax's exp.
_MASKED = -1e30

#: tanh-approximation gelu constant (Python float: binary ops against
#: it preserve the array's compute dtype instead of promoting to fp64).
_GELU_C = float(np.sqrt(2.0 / np.pi))


def _policy_layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """LayerNorm staying in the array's compute dtype.

    Same math as :func:`repro.nn.functional.layer_norm` (eps 1e-5);
    kept separate so the exact path's fp64 oracle normalization is
    untouched while the policy path avoids fp64 promotion.  Reductions
    go through ``np.add.reduce`` + an inverse-width multiply instead of
    ``np.mean`` — the raw ufunc skips ``np.mean``'s dispatch/dtype
    bookkeeping (~2× on decode-step-sized rows, and this runs twice per
    layer on the hot path; exact for power-of-two widths, within one
    ulp otherwise — inside every tier's declared budget).
    """
    inv_d = 1.0 / x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean *= inv_d
    centered = x - mean
    var = np.multiply(centered, centered)
    var = np.add.reduce(var, axis=-1, keepdims=True)
    var *= inv_d
    var += 1e-5
    np.sqrt(var, out=var)
    centered /= var
    centered *= gamma
    centered += beta
    return centered


class _DecodeWeights:
    """Model weights in a policy's compute dtype.

    Built with ``astype(ct, copy=False)``: the exact tier holds the
    fp64 originals themselves (no copy), the cast tiers hold copies
    cast once at backend construction, so every decode step is
    allocation-free on the weight side.
    """

    __slots__ = (
        "tok_emb", "pos_emb", "lm_proj", "wqkv", "bqkv", "wo", "bo",
        "ln1_g", "ln1_b", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2",
    )

    def __init__(self, model, wqkv, bqkv, policy):
        ct = policy.compute_dtype
        params = model.params
        self.tok_emb = params.token_embedding.astype(ct, copy=False)
        self.pos_emb = params.pos_embedding.astype(ct, copy=False)
        lm_proj = params.lm_projection()
        # Exact multiplies the very operand the looped oracle's LM head
        # does (GEMV kernels differ by operand layout); the cast tiers
        # take a C-contiguous copy.
        self.lm_proj = (
            lm_proj.astype(ct, copy=False) if policy.is_exact
            else np.ascontiguousarray(lm_proj, dtype=ct)
        )
        self.wqkv = [w.astype(ct, copy=False) for w in wqkv]
        self.bqkv = [b.astype(ct, copy=False) for b in bqkv]
        self.wo, self.bo = [], []
        self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b = [], [], [], []
        self.w1, self.b1, self.w2, self.b2 = [], [], [], []
        for layer_idx in range(model.config.n_layers):
            bp = model.block(layer_idx)
            aw = model.attention(layer_idx).weights
            self.wo.append(aw.wo.astype(ct, copy=False))
            self.bo.append(aw.bo.astype(ct, copy=False))
            self.ln1_g.append(bp.ln1_gamma.astype(ct, copy=False))
            self.ln1_b.append(bp.ln1_beta.astype(ct, copy=False))
            self.ln2_g.append(bp.ln2_gamma.astype(ct, copy=False))
            self.ln2_b.append(bp.ln2_beta.astype(ct, copy=False))
            self.w1.append(bp.ffn_w1.astype(ct, copy=False))
            self.b1.append(bp.ffn_b1.astype(ct, copy=False))
            self.w2.append(bp.ffn_w2.astype(ct, copy=False))
            self.b2.append(bp.ffn_b2.astype(ct, copy=False))


class _ArenaPlane:
    """One layer's persistent padded KV arena (cast tiers).

    ``k`` is a ``[S, h, D, cap]`` and ``v`` a ``[S, h, cap, D]``
    compute-dtype plane holding the dequantized KV columns of up to
    ``S`` sequences in *batch-row order* (K is stored pre-transposed so
    the score GEMM needs no strided transpose view);
    ``owners[j]`` is the :class:`~repro.nn.kv_cache.LayerKVCache`
    whose columns currently fill row ``j`` (identity-checked every
    step, so stale or deep-copied caches can never alias a row).
    Rows are rebuilt from cache truth whenever ownership, content
    version, or batch order changes; growth reallocates the plane and
    clears ownership, forcing a one-step rebuild of every row.
    """

    __slots__ = ("k", "v", "owners")

    def __init__(self, k: np.ndarray, v: np.ndarray):
        self.k = k
        self.v = v
        self.owners: List[Optional[object]] = [None] * k.shape[0]


class PackedDecodeBackend:
    """Batched attention executor state shared across decode steps.

    One backend instance serves one model; the serving engine creates it
    once and passes it to every
    :meth:`~repro.nn.transformer.TransformerModel.decode_step_batch` /
    :meth:`~repro.nn.transformer.TransformerModel.prefill_chunk_batch`
    call.  The backend holds the fused per-layer projection weights, the
    decode weights in the policy's compute dtype, and reusable scratch
    tensors (scores, head outputs, arena planes), which grow
    page-aligned with the live batch instead of being rebuilt every
    step.
    """

    def __init__(
        self,
        model: TransformerModel,
        scratch_page_tokens: int = 64,
        numerics=None,
    ):
        if scratch_page_tokens < 1:
            raise ValueError("scratch_page_tokens must be >= 1")
        self._model = model
        self._scratch_page = scratch_page_tokens
        #: The numerics ladder tier this backend runs decode steps at;
        #: ``exact`` (the default) stays bit-identical to the looped path.
        self.policy = resolve_numerics(numerics)
        ct = self.policy.compute_dtype
        cfg = model.config
        d, n_heads, head_dim = cfg.d_model, cfg.n_heads, cfg.head_dim
        # Fused [d, 3d] QKV weights: output column blocks of a GEMM are
        # independent, so (x @ wqkv)[:, :d] is bit-identical to x @ wq.
        # Prefill projects through these fp64 originals on every tier.
        self._wqkv: List[np.ndarray] = []
        self._bqkv: List[np.ndarray] = []
        for layer_idx in range(cfg.n_layers):
            w = model.attention(layer_idx).weights
            self._wqkv.append(np.concatenate([w.wq, w.wk, w.wv], axis=1))
            self._bqkv.append(np.concatenate([w.bq, w.bk, w.bv]))
        self._weights = _DecodeWeights(model, self._wqkv, self._bqkv, self.policy)
        self._inv_sqrt_d = 1.0 / float(np.sqrt(head_dim))
        # Reusable scratch, grown on demand.
        self._scores = np.zeros((0, n_heads, 1, 0), dtype=ct)
        self._planes: List[Optional[_ArenaPlane]] = [None] * cfg.n_layers
        d_ff = self._weights.w1[0].shape[1]
        per_head = (n_heads, head_dim)
        self._row_scratch: Dict[str, np.ndarray] = {
            "merged": np.zeros((0, d), dtype=ct),
            "denom": np.zeros((0, n_heads, 1, 1), dtype=ct),
            "head_out": np.zeros((0, n_heads, 1, head_dim), dtype=ct),
            "q_pack": np.zeros((0, n_heads, 1, head_dim), dtype=ct),
            # int8 tier: KV staging rows, float codes, scales, codes.
            "kv_rows": np.zeros((0,) + per_head, dtype=ct),
            "codes_f": np.zeros((0,) + per_head, dtype=ct),
            "scales": np.zeros((0, n_heads, 1), dtype=np.float32),
            "codes": np.zeros((0,) + per_head, dtype=np.int8),
            "ffn_hidden": np.zeros((0, d_ff), dtype=ct),
            "ffn_inner": np.zeros((0, d_ff), dtype=ct),
        }
        #: Optional :class:`repro.telemetry.HotPathProfiler` measuring
        #: real wall-clock time per stage (the serving engine attaches
        #: it when profiling is requested).  ``None`` costs one ``is
        #: None`` check per stage — the hot path stays unchanged.
        self.profiler = None

    # ------------------------------------------------------------------
    # Scratch management
    # ------------------------------------------------------------------
    def _scores_scratch(self, n: int, max_len: int) -> np.ndarray:
        h = self._model.config.n_heads
        if self._scores.shape[0] < n or self._scores.shape[3] < max_len:
            pages = -(-max_len // self._scratch_page)
            cap = max(pages * self._scratch_page, self._scores.shape[3])
            self._scores = np.zeros(
                (max(n, self._scores.shape[0]), h, 1, cap),
                dtype=self.policy.compute_dtype,
            )
        return self._scores[:n, :, :, :max_len]

    def _rows(self, name: str, n: int) -> np.ndarray:
        """The first ``n`` rows of persistent scratch ``name``.

        Buffers grow on demand along their leading axis; growth drops
        old content, which no caller depends on.  One set serves every
        layer of every step allocation-free.
        """
        buf = self._row_scratch[name]
        if buf.shape[0] < n:
            buf = np.zeros((n,) + buf.shape[1:], dtype=buf.dtype)
            self._row_scratch[name] = buf
        return buf[:n]

    def _plane(self, layer_idx: int, n_rows: int, cap_needed: int) -> _ArenaPlane:
        """The layer's arena, grown (rows and columns) to fit this step.

        Columns grow (page-aligned, at least doubling) only when
        ``cap_needed`` exceeds the current capacity; growing the batch
        keeps the column capacity.  Growth reallocates and clears
        ownership — every row rebuilds from its cache next sync, so
        stale plane content can never leak.
        """
        cfg = self._model.config
        plane = self._planes[layer_idx]
        if (
            plane is None
            or plane.k.shape[0] < n_rows
            or plane.k.shape[3] < cap_needed
        ):
            old_rows = plane.k.shape[0] if plane is not None else 0
            cap = plane.k.shape[3] if plane is not None else 0
            rows = max(n_rows, old_rows)
            if cap < cap_needed:
                pages = -(-cap_needed // self._scratch_page)
                cap = max(pages * self._scratch_page, 2 * cap)
            ct = self.policy.compute_dtype
            plane = _ArenaPlane(
                np.zeros((rows, cfg.n_heads, cfg.head_dim, cap), dtype=ct),
                np.zeros((rows, cfg.n_heads, cap, cfg.head_dim), dtype=ct),
            )
            self._planes[layer_idx] = plane
        return plane

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode_step(
        self,
        model: TransformerModel,
        token_ids: np.ndarray,
        positions: np.ndarray,
        executors: Sequence[AttentionExecutor],
    ) -> np.ndarray:
        """One whole packed decode step; returns ``[B, vocab]`` logits.

        :meth:`~repro.nn.transformer.TransformerModel.decode_step_batch`
        delegates here (after its input validation) for every numerics
        tier.  The layer stack mirrors the looped path
        operation-for-operation — embedding gather, packed attention,
        residual + LayerNorm, tanh/gelu FFN, LM head — over the
        policy's weights; see the module docstring for the three points
        where the tier picks the implementation.
        """
        if model is not self._model:
            raise ValueError(
                "PackedDecodeBackend is bound to a different model; create "
                "one backend per TransformerModel"
            )
        w = self._weights
        if self.policy.is_exact:
            norm, ffn = layer_norm, model._ffn
        else:
            norm, ffn = _policy_layer_norm, self._ffn_policy
        # Executor styles cannot change mid-step: group rows once and
        # reuse the grouping across every layer.
        groups: Dict[str, List[Tuple[int, AttentionExecutor]]] = {
            "dense": [], "spatten": [], "none": [],
        }
        for i, executor in enumerate(executors):
            style = executor.packed_decode_style
            if style not in groups:
                raise ValueError(
                    f"unknown packed_decode_style {style!r} from "
                    f"{type(executor).__name__}"
                )
            groups[style].append((i, executor))
        # A group that is the whole batch (the common serving case)
        # indexes with a plain slice — views, not fancy-index copies.
        sel = {
            style: slice(None) if len(rows) == len(executors)
            else [i for i, _ in rows]
            for style, rows in groups.items()
        }
        spatten = None
        if groups["spatten"]:
            from ..core.pipeline import SpAttenDecodeBatch

            spatten = SpAttenDecodeBatch(
                [e for _, e in groups["spatten"]], positions[sel["spatten"]]
            )
        x = w.tok_emb[token_ids] + w.pos_emb[positions]
        for layer_idx in range(model.config.n_layers):
            attn_out = self._decode_layer(
                model, layer_idx, x, positions, groups, sel, spatten,
            )
            # Residual adds run in place on the freshly produced left
            # operand (attn/FFN output buffers are never aliased to x;
            # float addition commutes, so this equals x + attn_out).
            attn_out += x
            x = norm(attn_out, w.ln1_g[layer_idx], w.ln1_b[layer_idx])
            ffn_out = ffn(layer_idx, x)
            ffn_out += x
            x = norm(ffn_out, w.ln2_g[layer_idx], w.ln2_b[layer_idx])
        if spatten is not None:
            spatten.finish()
        return x @ w.lm_proj

    def _gemm(self, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``x @ w + b`` over ``[B, k]`` rows in the tier's GEMM kernel.

        Exact runs the ``[B, 1, k]`` gufunc, which computes each row
        with the single-row kernel, so row ``i`` is bit-identical to
        the looped path's ``x[i:i+1] @ w``.  Cast tiers run one 2-D
        GEMM (not ``B`` separate GEMVs).
        """
        if self.policy.is_exact:
            out = np.matmul(x[:, None, :], w)[:, 0, :]
        else:
            out = x @ w
        out += b
        return out

    def _decode_layer(
        self,
        model: TransformerModel,
        layer_idx: int,
        x: np.ndarray,
        positions: np.ndarray,
        groups: Dict[str, List[Tuple[int, AttentionExecutor]]],
        sel: Dict[str, object],
        spatten,
    ) -> np.ndarray:
        """Packed attention of one block: ``attn_out [B, d_model]``."""
        cfg = model.config
        d, n_heads, head_dim = cfg.d_model, cfg.n_heads, cfg.head_dim
        batch = len(x)
        w = self._weights
        prof = self.profiler
        t0 = prof.start() if prof is not None else 0.0
        qkv = self._gemm(x, w.wqkv[layer_idx], w.bqkv[layer_idx])
        # Batched head split: views, replacing 3·B per-row reshapes.
        q_all = qkv[:, :d].reshape(batch, n_heads, head_dim)
        k_all = qkv[:, d : 2 * d].reshape(batch, n_heads, head_dim)
        v_all = qkv[:, 2 * d :].reshape(batch, n_heads, head_dim)
        if prof is not None:
            prof.stop("decode_qkv_proj", t0)

        # Fallback rows ride through the batched GEMMs and are
        # overwritten below; opt-out executors are rare enough that the
        # wasted rows cost less than gathering the batch around them.
        merged = self._rows("merged", batch)
        if spatten is not None:
            t0 = prof.start() if prof is not None else 0.0
            rows = sel["spatten"]
            merged[rows] = spatten.decode_layer(
                layer_idx, q_all[rows], k_all[rows], v_all[rows],
                self._append_kv,
            )
            if prof is not None:
                prof.stop("decode_spatten_core", t0)
        if groups["dense"]:
            t0 = prof.start() if prof is not None else 0.0
            rows = sel["dense"]
            caches = [e.decode_kv_cache(layer_idx) for _, e in groups["dense"]]
            lens, k_cols, v_cols = self._append_kv(
                caches, k_all[rows], v_all[rows], positions[rows]
            )
            if self.policy.is_exact:
                self._dense_core(q_all[rows], caches, lens, merged, rows)
            else:
                self._dense_core_policy(
                    layer_idx, q_all[rows], caches, lens,
                    k_cols, v_cols, merged, rows,
                )
            if prof is not None:
                prof.stop("decode_dense_core", t0)

        t0 = prof.start() if prof is not None else 0.0
        attn_out = self._gemm(merged, w.wo[layer_idx], w.bo[layer_idx])
        if prof is not None:
            prof.stop("decode_output_fc", t0)
        for i, executor in groups["none"]:
            t0 = prof.start() if prof is not None else 0.0
            attn_out[i] = executor.run_layer(
                layer_idx, model,
                # repro: allow[det-dtype-literal] -- fallback rows run the
                # per-sequence fp64 oracle regardless of the policy tier
                np.asarray(x[i : i + 1], dtype=np.float64),
                positions[i : i + 1], "decode",
            ).output[0]
            if prof is not None:
                prof.stop("decode_fallback", t0)
        return attn_out

    def _append_kv(
        self,
        caches: List[object],
        k_cols: np.ndarray,
        v_cols: np.ndarray,
        positions: np.ndarray,
    ):
        """Append one decode column (``[h, D]`` per plane) to each cache.

        Returns ``(lens, k_cols, v_cols)``: the caches' new lengths and
        the appended columns as the cast-tier arena will read them.
        Under int8 the whole group's k and v rows are quantized in
        *one* fused pass — inlined
        :func:`repro.core.quantization.quantize_rows` (bit-identical
        codes and scales for input of the staged rows' dtype, asserted
        by tests/test_numerics.py) over persistent scratch: every op
        runs in place, and the finite-input guard is skipped because
        decode activations are bounded by construction (LayerNormed
        hidden state through finite weights).  The arena then reads the
        dequantized columns, matching what the caches store.  SpAtten
        rows stage fp64 columns (what their looped path quantizes), so
        their quotients run in fp64 scratch of their own.
        """
        n = len(caches)
        quantized = self.policy.quantized_gemm
        if quantized:
            if k_cols.dtype == self.policy.compute_dtype:
                kv_rows = self._rows("kv_rows", 2 * n)
                codes_f = self._rows("codes_f", 2 * n)
            else:
                kv_rows = np.empty((2 * n,) + k_cols.shape[1:], k_cols.dtype)
                codes_f = np.empty_like(kv_rows)
            kv_rows[:n] = k_cols
            kv_rows[n:] = v_cols
            scales, codes = self._rows("scales", 2 * n), self._rows("codes", 2 * n)
            np.abs(kv_rows, out=codes_f)
            np.fmax.reduce(codes_f, axis=-1, keepdims=True, out=scales)
            np.divide(scales, 127.0, out=scales)
            scales[scales == 0.0] = 1.0
            np.divide(kv_rows, scales, out=codes_f)
            np.rint(codes_f, out=codes_f)
            np.clip(codes_f, -127.0, 127.0, out=codes_f)
            # codes_f holds exact integers in [-127, 127] after the
            # rint+clip, so the int8 assignment cast is value-exact.
            codes[...] = codes_f
            # Dequantize in place over the staging rows: these are the
            # arena columns (what the score GEMM reads back).
            np.multiply(codes_f, scales, out=kv_rows)
            k_cols = kv_rows[:n]
            v_cols = kv_rows[n:]
            k_codes, k_scales = codes[:n], scales[:n, :, 0]
            v_codes, v_scales = codes[n:], scales[n:, :, 0]
        lens = np.empty(n, dtype=np.int64)
        for j, cache in enumerate(caches):
            if quantized:
                cache.append_decode_col_quantized(
                    k_codes[j], k_scales[j],
                    v_codes[j], v_scales[j], positions[j],
                )
            else:
                cache.append_decode_col(k_cols[j], v_cols[j], positions[j])
            lens[j] = cache._len
        return lens, k_cols, v_cols

    def _dense_core(
        self,
        q: np.ndarray,
        caches: List[object],
        lens: np.ndarray,
        merged: np.ndarray,
        dense_sel,
    ) -> None:
        """Exact attention core for the dense rows of one layer.

        Scores and A·V run per sequence at exact lengths over zero-copy
        cache views (BLAS reductions are not padding-invariant); the
        elementwise softmax stages batch across the padded scratch.
        """
        n, max_len, min_len = len(caches), int(lens.max()), int(lens.min())
        scores = self._scores_scratch(n, max_len)
        if min_len < max_len:
            # Mask the ragged tail once for the whole batch; each
            # sequence's real columns are then overwritten in place by
            # its exact-length scores below.
            scores[:, :, :, min_len:] = _MASKED
        for j, cache in enumerate(caches):
            np.matmul(
                q[j][:, None, :], cache.keys.transpose(0, 2, 1),
                out=scores[j, :, :, : lens[j]],
            )
        scores /= np.sqrt(self._model.config.head_dim)
        # max is order-exact and shift/exp/normalize are elementwise, so
        # they batch; the denominator's pairwise sum is length-sensitive
        # and reduces per sequence over the exact live width.
        shift = scores.max(axis=-1, keepdims=True)
        scores -= shift
        np.exp(scores, out=scores)
        denom, head_out = self._rows("denom", n), self._rows("head_out", n)
        for j in range(n):
            np.sum(
                scores[j, :, :, : lens[j]], axis=-1, keepdims=True,
                out=denom[j],
            )
        scores /= denom
        for j, cache in enumerate(caches):
            np.matmul(scores[j, :, :, : lens[j]], cache.values, out=head_out[j])
        merged[dense_sel] = head_out.transpose(0, 2, 1, 3).reshape(n, -1)

    def _dense_core_policy(
        self,
        layer_idx: int,
        q: np.ndarray,
        caches: List[object],
        lens: np.ndarray,
        k_cols: np.ndarray,
        v_cols: np.ndarray,
        merged: np.ndarray,
        dense_sel,
    ) -> None:
        """Arena-packed attention core for the dense rows of one layer.

        Syncs each cache into its batch-order arena row (a single
        vectorized fancy-index tail write in the steady state), then
        runs scores → masked softmax → A·V as three batched tensor ops
        over the ``[n, h, ...]`` pack — no per-sequence BLAS calls.
        """
        n = len(caches)
        max_len = int(lens.max())
        min_len = int(lens.min())
        plane = self._plane(layer_idx, n, max_len)
        owners = plane.owners
        plane_k, plane_v = plane.k, plane.v
        rebuild: List[int] = []
        for j in range(n):
            cache = caches[j]
            if owners[j] is cache:
                synced_len, synced_version = cache._arena_state
                if synced_version == cache.version and synced_len == lens[j] - 1:
                    cache._arena_state = (synced_len + 1, synced_version)
                    continue
            rebuild.append(j)
        if not rebuild and min_len == max_len:
            # Steady state, uniform lengths: the new columns land in one
            # basic-slice write per plane.
            plane_k[:n, :, :, max_len - 1] = k_cols
            plane_v[:n, :, max_len - 1] = v_cols
        elif len(rebuild) < n:
            # Steady state, ragged lengths: one vectorized fancy-index
            # tail write lands every append-only row's new column at
            # its own length.
            if rebuild:
                skip = set(rebuild)
                fast = np.array([j for j in range(n) if j not in skip])
            else:
                fast = np.arange(n)
            tail = lens[fast] - 1
            plane_k[fast, :, :, tail] = k_cols[fast]
            plane_v[fast, :, tail] = v_cols[fast]
        for j in rebuild:
            # Ownership, order, or content (eviction) changed: rebuild
            # the row from cache truth (dequantized under int8).
            cache = caches[j]
            length = int(lens[j])
            k, v = cache.compute_columns(0, length)
            plane_k[j, :, :, :length] = k.transpose(0, 2, 1)
            plane_v[j, :, :length] = v
            owners[j] = cache
            cache._arena_state = (length, cache.version)

        q_pack = self._rows("q_pack", n)
        np.multiply(q[:, :, None, :], self._inv_sqrt_d, out=q_pack)
        scores = self._scores_scratch(n, max_len)
        np.matmul(q_pack, plane_k[:n, :, :, :max_len], out=scores)
        if min_len < max_len:
            for j in range(n):
                if lens[j] < max_len:
                    scores[j, :, :, lens[j] :] = _MASKED
        # fmax skips NaN handling (scores are finite by construction).
        shift = np.fmax.reduce(scores, axis=-1, keepdims=True)
        scores -= shift
        np.exp(scores, out=scores)
        denom = np.add.reduce(scores, axis=-1, keepdims=True)
        # Normalize after A·V: dividing the [n, h, 1, D] head outputs
        # touches max_len/D fewer elements than dividing the scores,
        # and (exp·V)/denom distributes over the dot product.
        head_out = np.matmul(scores, plane_v[:n, :, :max_len])
        head_out /= denom
        # [n, h, 1, D] → [n, h·D] reshapes in place (the moved axis is
        # the singleton), so no transpose copy is needed.
        merged[dense_sel] = head_out.reshape(n, -1)

    def _ffn_policy(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        """Vectorized compute-dtype tanh/gelu FFN (no fp64 promotion)."""
        w = self._weights
        hidden = self._rows("ffn_hidden", len(x))
        inner = self._rows("ffn_inner", len(x))
        np.matmul(x, w.w1[layer_idx], out=hidden)
        hidden += w.b1[layer_idx]
        # h + 0.044715 h^3 factored as h (1 + 0.044715 h^2): one fewer
        # full-array multiply, every op in-place on the scratch.
        np.square(hidden, out=inner)
        inner *= 0.044715
        inner += 1.0
        inner *= hidden
        inner *= _GELU_C
        np.tanh(inner, out=inner)
        inner += 1.0
        inner *= hidden
        inner *= 0.5
        out = inner @ w.w2[layer_idx]
        out += w.b2[layer_idx]
        return out

    # ------------------------------------------------------------------
    # Chunked prefill
    # ------------------------------------------------------------------
    def project_chunk_rows(
        self,
        model: TransformerModel,
        layer_idx: int,
        rows: Dict[int, np.ndarray],
        executors: Sequence[AttentionExecutor],
        order: Sequence[int],
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Fused Q/K/V projection of every incremental prefill chunk.

        ``rows[i]`` holds sequence ``i``'s chunk hidden rows
        ``[L_i, d]``.  Chunks of ≥ 2 rows are concatenated into one
        GEMM (row blocks of a multi-row GEMM are bit-identical to solo
        products); single-row chunks take a solo fused matmul because
        the single-row kernel groups its accumulation differently.
        Only executors whose :attr:`packed_decode_style` is ``"dense"``
        are projected — others keep their own projection semantics.
        """
        if model is not self._model:
            raise ValueError(
                "PackedDecodeBackend is bound to a different model; create "
                "one backend per TransformerModel"
            )
        prof = self.profiler
        t0 = prof.start() if prof is not None else 0.0
        eligible = [
            i for i, executor in zip(order, executors)
            if executor.packed_decode_style == "dense"
        ]
        multi = [i for i in eligible if len(rows[i]) >= 2]
        solo = [i for i in eligible if len(rows[i]) == 1]
        wqkv, bqkv = self._wqkv[layer_idx], self._bqkv[layer_idx]
        projected: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if multi:
            proj = np.concatenate([rows[i] for i in multi], axis=0) @ wqkv
            proj += bqkv
            offset = 0
            for i in multi:
                n_rows = len(rows[i])
                projected[i] = self._split_qkv(proj[offset : offset + n_rows])
                offset += n_rows
        for i in solo:
            proj = rows[i] @ wqkv
            proj += bqkv
            projected[i] = self._split_qkv(proj)
        if prof is not None:
            prof.stop("prefill_chunk_proj", t0)
        return projected

    def _split_qkv(
        self, proj: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split fused ``[L, 3d]`` rows into per-head q/k/v ``[h, L, D]``."""
        cfg = self._model.config
        d, n_heads = cfg.d_model, cfg.n_heads
        return (
            split_heads(proj[:, :d], n_heads),
            split_heads(proj[:, d : 2 * d], n_heads),
            split_heads(proj[:, 2 * d :], n_heads),
        )
