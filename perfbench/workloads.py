"""The benchmark workloads and the one timed region they share.

A workload is a traffic mix plus the serving configuration it runs
under.  Each loads a different layer:

* ``decode_spatten`` — SpAtten cascade decode (``core``) at batch ~20;
* ``prefill_long`` — 160-224 token prompts and 2-4 token outputs, half
  pruned (deferred whole-prompt summarization, ``core``) and half dense
  (incremental chunk prefill, ``nn``);
* ``fleet_pressure`` — a 2-replica cluster under a tight pool with
  optimistic admission, preemption, int8 KV, telemetry and SLOs on.

There is no dense fp32 decode workload: ``PackedDecodeBackend._plane``
doubles an arena's column capacity on every row growth, so its peak
memory ranged from 96 to 389 MiB with the seed's admission ramp.

The model is fixed (the deployed weights); the seed picks the corpus
windows, budgets and class mix, so the program receives only the
generated requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ledger import percentile
from repro.cluster import ClusterEngine, ShardedKVPool
from repro.config import GPT2_SMALL, PruningConfig
from repro.core.pipeline import SpAttenExecutor
from repro.insight import SLOPolicy
from repro.nn.transformer import DenseExecutor
from repro.serving import (
    INHERIT_PRUNING,
    KVMemoryPool,
    PoolExhausted,
    RequestStatus,
    ServingEngine,
)
import repro.telemetry as repro_telemetry
from repro.workloads import (
    TrafficClass,
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    heterogeneous_request_trace,
    make_lm_corpus,
    synthetic_request_trace,
)

#: Seed of the fixed model weights (not the workload seed).
MODEL_SEED = 0
N_LAYERS = 2
D_MODEL = 128
N_HEADS = 8
MAX_SEQ_LEN = 256
PAGE_TOKENS = 16
PREFILL_CHUNK = 32
#: Requests replayed through the fp64 looped oracle after each run.
ORACLE_REQUESTS = 6

PRUNING = PruningConfig(
    token_keep_final=0.35, head_keep_final=0.75, value_keep=0.9
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    numerics: str
    n_requests: int
    pool_kib: int
    traffic: str  # "uniform" | "prefill_mix" | "fleet_mix"
    prompt_len: int = 48
    max_new: Tuple[int, int] = (48, 64)
    spatten: bool = False
    admission: str = "reserve"
    headroom_pages: int = 0
    replicas: int = 1


#: Requests per simulated second.  Every workload is an offline burst:
#: the whole trace arrives within ~2 ms of simulated time, well inside
#: the first few steps, so admission order, not arrival jitter, shapes
#: the batch.  Open-loop rates near saturation made the simulated TTFT
#: tail swing by 40-60% from seed to seed.
BURST_RATE = 1e5

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode_spatten",
            why="SpAtten cascade decode at batch ~20, exact tier: half the "
                "time is the per-sequence core; prefill is small",
            numerics="exact", n_requests=100, pool_kib=2048,
            traffic="uniform", spatten=True,
        ),
        Workload(
            name="prefill_long",
            why="160-224-token prompts, 2-4 new tokens, half pruned and "
                "half dense: both chunked-prefill paths dominate, decode "
                "idles",
            numerics="exact", n_requests=160, pool_kib=1024,
            traffic="prefill_mix", prompt_len=192, max_new=(2, 4),
        ),
        Workload(
            name="fleet_pressure",
            why="2-replica pruning-aware fleet, tight pool, optimistic "
                "admission with preemption, int8 KV, telemetry and SLOs on",
            numerics="int8", n_requests=240, pool_kib=1024,
            traffic="fleet_mix", max_new=(16, 32), admission="optimistic",
            headroom_pages=1, replicas=2,
        ),
    )
}


@dataclass
class Prepared:
    """Everything a timed run needs, built outside the timed region."""

    workload: Workload
    model: object
    requests: list
    engine: object
    pool: object
    telemetry: Optional[repro_telemetry.Telemetry]


def _model():
    vocab = build_vocabulary(size=512, n_classes=4, seed=MODEL_SEED)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=N_LAYERS, d_model=D_MODEL,
        n_heads=N_HEADS, max_seq_len=MAX_SEQ_LEN,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=MODEL_SEED)
    return vocab, config, model


def _requests(workload: Workload, vocab, seed: int, n_requests: int):
    w = workload
    long_prompt = 3 * w.prompt_len
    corpus = make_lm_corpus(
        vocab, n_tokens=max(4096, 8 * long_prompt), seed=seed
    )
    if w.traffic == "uniform":
        return synthetic_request_trace(
            corpus, n_requests=n_requests, rate_per_s=BURST_RATE,
            prompt_len=w.prompt_len, max_new_tokens=w.max_new, seed=seed,
            seed_scheme="spawn",
        )
    if w.traffic == "prefill_mix":
        # Prompt lengths a chunk apart, so final chunks (and SpAtten's
        # deferred summarization) do not fall on the same steps.
        classes = [
            TrafficClass(f"{kind}-{n}", 1.0, n, w.max_new, pruning)
            for kind, pruning in (("pruned", PRUNING), ("dense", None))
            for n in (w.prompt_len - PREFILL_CHUNK, w.prompt_len,
                      w.prompt_len + PREFILL_CHUNK)
        ]
    else:
        classes = [
            TrafficClass("pruned-short", 0.75, w.prompt_len, w.max_new,
                         PRUNING),
            TrafficClass("dense-long", 0.25, long_prompt, w.max_new, None),
        ]
    return heterogeneous_request_trace(
        corpus, classes, n_requests=n_requests, rate_per_s=BURST_RATE,
        seed=seed, seed_scheme="spawn",
    )


def prepare(workload: Workload, seed: int,
            n_requests: Optional[int] = None) -> Prepared:
    """Build model, trace, pool and engine (the ``setup_s`` region)."""
    w = workload
    vocab, config, model = _model()
    requests = _requests(w, vocab, seed, n_requests or w.n_requests)
    tel = None
    if w.replicas > 1:
        tel = repro_telemetry.Telemetry(trace=True, metrics=True)
        pool = ShardedKVPool(
            config, total_budget_bytes=w.pool_kib * 1024,
            n_replicas=w.replicas, page_tokens=PAGE_TOKENS,
        )
        engine = ClusterEngine(
            model, pool, policy="pruning_aware",
            prefill_chunk=PREFILL_CHUNK, admission=w.admission,
            numerics=w.numerics, headroom_pages=w.headroom_pages,
            telemetry=tel,
            slo=SLOPolicy.from_specs(
                ["all:ttft:p90:40", "all:e2e:p99:400"], window_s=0.05
            ),
        )
    else:
        pool = KVMemoryPool(
            config, budget_bytes=w.pool_kib * 1024, page_tokens=PAGE_TOKENS,
        )
        engine = ServingEngine(
            model, pool, pruning=PRUNING if w.spatten else None,
            prefill_chunk=PREFILL_CHUNK, numerics=w.numerics,
            admission=w.admission, headroom_pages=w.headroom_pages,
        )
    return Prepared(w, model, requests, engine, pool, tel)


@dataclass
class RunResult:
    stats: object
    wall_s: float


def timed_run(prep: Prepared) -> RunResult:
    """The timed region: ``run()``, the stats report, and (with
    telemetry on) the trace and metrics artifacts rendered in memory."""
    t0 = time.perf_counter()
    stats = prep.engine.run(prep.requests)
    stats.table().render()
    tel = prep.telemetry
    if tel is not None:
        # Through the package attributes, so traced runs see the calls.
        repro_telemetry.chrome_trace_json(tel.tracer)
        repro_telemetry.metrics_jsonl(tel.metrics)
        repro_telemetry.prometheus_text(tel.metrics)
    return RunResult(stats, time.perf_counter() - t0)


def serving_stats(stats):
    """The fleet-level ServingStats of a serving or cluster report."""
    return getattr(stats, "fleet", stats)


def sim_ttft_p90_ms(stats) -> float:
    ttfts = [r.time_to_first_token for r in serving_stats(stats).records
             if r.first_token_time is not None]
    return percentile(ttfts, 90)[0] * 1e3


def check_run(prep: Prepared, result: RunResult) -> List[str]:
    """Correctness gate on one run; returns the failed checks."""
    fleet = serving_stats(result.stats)
    problems = []
    records = fleet.records
    unfinished = [r for r in records if r.status is not RequestStatus.FINISHED]
    if unfinished or fleet.n_failed_requests or fleet.n_unadmitted:
        problems.append(
            f"{len(unfinished)} requests not finished "
            f"({fleet.n_failed_requests} failed, "
            f"{fleet.n_unadmitted} never admitted)"
        )
    budget = sum(r.max_new_tokens for r in prep.requests)
    if fleet.n_tokens != budget or len(records) != len(prep.requests):
        problems.append(
            f"token loss: generated {fleet.n_tokens} of {budget} budgeted"
        )
    pool = prep.pool
    try:
        pool.audit()
    except PoolExhausted as exc:
        problems.append(f"pool audit: {exc}")
    if pool.allocated_pages or pool.reserved_pages or pool.n_sequences:
        problems.append(
            f"pool not drained: {pool.allocated_pages} allocated, "
            f"{pool.reserved_pages} reserved pages"
        )
    return problems


def oracle_token_match(prep: Prepared, stats) -> Tuple[int, int]:
    """(matching, compared) generated tokens against the fp64 looped
    oracle on a fixed subset of requests (the first ``ORACLE_REQUESTS``
    by id; outside the timed region)."""
    records = {r.request.request_id: r for r in serving_stats(stats).records}
    matched = compared = 0
    for request in sorted(prep.requests,
                          key=lambda r: r.request_id)[:ORACLE_REQUESTS]:
        pruning = request.pruning
        if pruning is INHERIT_PRUNING:
            pruning = PRUNING if prep.workload.spatten else None
        executor = (SpAttenExecutor(pruning) if pruning is not None
                    else DenseExecutor())
        expected = prep.model.generate(
            request.prompt_ids, request.max_new_tokens, executor=executor
        ).token_ids
        got = records[request.request_id].token_ids
        compared += len(expected)
        matched += sum(int(a == b) for a, b in zip(expected, got))
    return matched, compared
