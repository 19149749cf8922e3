"""Decode-step wall clock: packed backend vs the looped oracle.

Two variants of the same batched exact-tier decode step, both
committing bit-identical logits (asserted while timing):

* ``looped``  — the looped oracle: per-sequence ``run_layer`` calls
  over page-aligned, preallocated KV buffers;
* ``packed``  — :class:`repro.nn.batched_attention.PackedDecodeBackend`:
  fused batch-level Q/K/V + output projections, central dense attention
  core over zero-copy cache views (the batching win), and for SpAtten
  rows the batched cascade core
  (:class:`repro.core.pipeline.SpAttenDecodeBatch`).

The dense sweep covers B ∈ {4, 16, 64} at the serving benchmark's
prompt scale and a long-context row; a SpAtten row (cascade token/head
pruning, local value pruning) runs at B=16.  A second section times
the serving engine end to end under both backends.

Honest-ceiling note (recorded in the published table): a ≥ 3× step
speedup at batch 16 is not reachable on this substrate under the
bit-identity constraint.  OpenBLAS reductions are not
padding-invariant (zero-padding the k-axis or the score columns
changes last-ulp results), so the packed core must keep exact-length
per-sequence matmuls and softmax denominators; what remains removable
is interpreter overhead, and the (shared) FFN/gelu tax is identical in
both variants.  The non-exact numerics tiers
(``benchmarks/bench_numerics.py``) are the way past that ceiling.  The
CI smoke variant fails the build on any looped-vs-packed regression
(speedup < 1×), dense or SpAtten.
"""

import copy
import time

import numpy as np
import pytest

from repro.config import GPT2_SMALL, PruningConfig
from repro.core.pipeline import SpAttenExecutor
from repro.eval.reporting import Table
from repro.nn import PackedDecodeBackend
from repro.nn.transformer import DenseExecutor
from repro.serving import KVMemoryPool, ServingEngine
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    make_lm_corpus,
    synthetic_request_trace,
)

PAGE_TOKENS = 16
VARIANTS = ("looped", "packed")
#: Cascade schedule of the SpAtten rows (the serving benchmark's).
PRUNING = PruningConfig(
    token_keep_final=0.35, head_keep_final=0.75, value_keep=0.9
)


@pytest.fixture(scope="module")
def decode_world():
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=6, d_model=128, n_heads=8,
        max_seq_len=2048,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    return config, model, PackedDecodeBackend(model)


def build_executors(model, batch, prompt_len, kind="dense"):
    """Prefill one prototype executor and clone it across the batch."""
    rng = np.random.default_rng(1)
    prompt = rng.integers(0, model.config.vocab_size, size=prompt_len)
    if kind == "spatten":
        prototype = SpAttenExecutor(PRUNING, kv_page_tokens=PAGE_TOKENS)
    else:
        prototype = DenseExecutor(kv_page_tokens=PAGE_TOKENS)
    state = model.prefill_begin(prompt.tolist(), prototype)
    while not state.done:
        model.prefill_chunk(state, 256)
    return [copy.deepcopy(prototype) for _ in range(batch)]


def time_decode_steps(model, backend, batch, prompt_len, variant,
                      steps=6, trials=3, kind="dense"):
    """Best-of-trials per-step wall clock; returns (seconds, logits).

    Best-of is the noise-robust estimator for a microbenchmark on a
    shared runner: scheduling hiccups only ever inflate a trial, so the
    minimum tracks the code's true cost — a genuine regression slows
    every trial and still moves it.
    """
    executors = build_executors(model, batch, prompt_len, kind)
    use = backend if variant == "packed" else None
    logits = model.decode_step_batch(
        [3] * batch, [prompt_len] * batch, executors, backend=use
    )
    position = prompt_len + 1
    samples = []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(steps):
            logits = model.decode_step_batch(
                [int(np.argmax(row)) for row in logits],
                [position] * batch, executors, backend=use,
            )
            position += 1
        samples.append((time.perf_counter() - start) / steps)
    return float(np.min(samples)), logits


def decode_sweep(model, backend, cases, steps=6, trials=3, kind="dense"):
    rows = []
    for batch, prompt_len in cases:
        per_variant = {}
        final_logits = {}
        for variant in VARIANTS:
            per_variant[variant], final_logits[variant] = time_decode_steps(
                model, backend, batch, prompt_len, variant,
                steps=steps, trials=trials, kind=kind,
            )
        # Both variants must have sampled identical token streams.
        assert np.array_equal(final_logits["looped"], final_logits["packed"])
        rows.append((kind, batch, prompt_len, per_variant))
    return rows


def speedup_table(rows, title):
    table = Table(
        title=title,
        headers=["executor", "batch", "context", "looped (ms)",
                 "packed (ms)", "packed vs looped"],
    )
    for kind, batch, prompt_len, r in rows:
        table.add_row(
            kind, str(batch), str(prompt_len),
            f"{r['looped'] * 1e3:.2f}", f"{r['packed'] * 1e3:.2f}",
            f"{r['looped'] / r['packed']:.2f}x",
        )
    table.add_note(
        "identical logits asserted across both variants every run; "
        "best-of-trials per-step wall clock"
    )
    table.add_note(
        "looped = per-sequence run_layer over preallocated KV buffers; "
        "packed = fused batched projections + central attention core "
        "(dense) or the batched cascade core (spatten)"
    )
    table.add_note(
        "a 3x-at-batch-16 dense step speedup is unreachable "
        "bit-identically on this BLAS: padding-variant reductions force "
        "exact-length per-sequence matmuls (see module docstring); "
        "spatten rows gain more because the looped oracle's per-row "
        "top-k, eviction and value pruning are what the batched core "
        "removes"
    )
    return table


def test_decode_step_speedup(decode_world, benchmark, publish):
    config, model, backend = decode_world
    cases = [(4, 192), (16, 192), (64, 192), (16, 1024)]
    rows = benchmark.pedantic(
        decode_sweep, args=(model, backend, cases), rounds=1, iterations=1
    )
    rows += decode_sweep(model, backend, [(16, 192)], kind="spatten")
    table = speedup_table(rows, "decode step: packed backend vs looped")

    # Engine end to end under both attention backends.
    looped_s, packed_s = engine_wall_clock(config, model)
    engine_table = Table(
        title="serving engine wall clock (chunked prefill + decode)",
        headers=["attention backend", "wall clock (s)", "speedup"],
    )
    engine_table.add_row("looped", f"{looped_s:.2f}", "1.00x")
    engine_table.add_row(
        "packed", f"{packed_s:.2f}", f"{looped_s / packed_s:.2f}x"
    )
    engine_table.add_note(
        "identical token streams asserted; the engine clock includes the "
        "(backend-independent) FFN/gelu tax, which bounds this ratio"
    )
    publish("decode_step", table, engine_table)

    for kind, batch, prompt_len, r in rows:
        if batch >= 16:
            # Regression gate on the batches with real headroom; the
            # B=4 row is informational (its measured margin is ~3%,
            # within scheduler noise on a shared runner).
            assert r["looped"] / r["packed"] >= 1.0, (
                f"{kind}: packed slower than looped at B={batch}, "
                f"L={prompt_len}"
            )
    # Engine must not regress, and tokens matched inside engine_wall_clock.
    assert packed_s <= looped_s * 1.10


def engine_wall_clock(config, model):
    corpus = make_lm_corpus(
        build_vocabulary(size=512, n_classes=4, seed=0), n_tokens=8192, seed=2
    )
    requests = synthetic_request_trace(
        corpus, n_requests=8, rate_per_s=1000.0, prompt_len=192,
        max_new_tokens=(12, 20), seed=11,
    )

    def build(backend):
        per_token = (
            2 * config.n_heads * config.head_dim * config.bytes_per_element
        )
        pool = KVMemoryPool(
            config, budget_bytes=1024 * PAGE_TOKENS * per_token,
            page_tokens=PAGE_TOKENS,
        )
        return ServingEngine(
            model, pool, prefill_chunk=32, attention_backend=backend
        )

    start = time.perf_counter()
    looped_stats = build("looped").run(requests)
    looped_s = time.perf_counter() - start
    start = time.perf_counter()
    packed_stats = build("packed").run(requests)
    packed_s = time.perf_counter() - start
    assert (
        [r.token_ids for r in looped_stats.records]
        == [r.token_ids for r in packed_stats.records]
    ), "packed engine changed the served token streams"
    return looped_s, packed_s


@pytest.mark.smoke
def test_decode_step_smoke(decode_world, publish, history):
    """Batch-16 regression gate for tier-1: packed must not lose to
    looped (speedup < 1x fails the build) and must stay bit-identical,
    for dense rows and for SpAtten rows."""
    from repro.insight import metric

    _, model, backend = decode_world
    rows = decode_sweep(model, backend, [(16, 192)], steps=4, trials=4)
    rows += decode_sweep(model, backend, [(16, 192)], steps=4, trials=4,
                         kind="spatten")
    table = speedup_table(rows, "decode step smoke (batch 16)")
    publish("decode_step_smoke", table)
    speedup = {kind: r["looped"] / r["packed"] for kind, _, _, r in rows}
    # Wall-clock ratios wobble with machine load, so these carry a much
    # wider tolerance floor than the simulated-clock metrics.
    history("decode_step", {
        "looped_over_packed": metric(speedup["dense"], "x", "higher",
                                     rel_tol=0.6),
        "spatten_looped_over_packed": metric(speedup["spatten"], "x",
                                             "higher", rel_tol=0.6),
    }, context={"batch": 16, "seq_len": 192})
    assert speedup["dense"] >= 1.0, "looped-vs-packed regression"
    assert speedup["spatten"] >= 1.0, "spatten looped-vs-packed regression"
