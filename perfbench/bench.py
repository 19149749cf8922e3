"""The benchmark proper: timed runs, correctness gates, metrics, report.

Run it through ``run.py``, which pins the thread pools first; see that
file for what a run does and prints.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import layers
import ledger
import workloads as wl
from repro.serving import ServingEngine
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
#: Fewest timed runs per process, whatever ``--seconds`` says.
MIN_RUNS = 3

END_TO_END = {
    "setup_s": "s",
    "tok_per_s": "tok/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "sim_tok_per_s": "tok/s",
    "sim_ttft_p90_ms": "ms",
    "token_match": "ratio",
    "served_frac": "ratio",
}

#: Ledger group -> metric reporting its summed self time.
SELF_TIME_GROUPS = {
    "serving.step": "serving.step_self_s",
    "serving.run": "serving.run_self_s",
    "serving.report": "serving.report_s",
    "serving.pool": "serving.pool_s",
    "serving.backlog": "serving.backlog_s",
    "cluster.run": "cluster.run_self_s",
    "cluster.route": "cluster.route_s",
    "nn.decode": "nn.decode_s",
    "nn.prefill": "nn.prefill_s",
    "nn.kv_append": "nn.kv_append_s",
    "nn.kv_keep": "nn.kv_keep_s",
    "core.attend": "core.attend_s",
    "core.summarize": "core.summarize_s",
    "core.topk": "core.topk_s",
    "core.prune": "core.prune_s",
    "core.importance": "core.importance_s",
    "telemetry.emit": "telemetry.emit_s",
    "telemetry.export": "telemetry.export_s",
    "insight.slo": "insight.slo_s",
    "bench.probe": "bench.probe_s",
    ledger.ROOT: "unattributed_s",
}
#: Groups also reported as ``<group>_calls`` (outermost calls).
CALL_GROUPS = ("serving.pool", "serving.backlog", "cluster.route",
               "nn.decode", "nn.prefill", "nn.kv_append", "nn.kv_keep",
               "core.attend", "core.summarize", "core.topk")

PER_LAYER = {
    **{name: "s" for name in SELF_TIME_GROUPS.values()},
    **{f"{group}_calls": "count" for group in CALL_GROUPS},
    "serving.steps": "count",
    "serving.batch_mean": "seq",
    "serving.preemptions": "count",
    "serving.recompute_ratio": "ratio",
    "nn.decode_rows": "count",
    "nn.decode_us_per_row": "us",
    "nn.decode_kv_bytes": "bytes",
    "nn.prefill_tokens": "count",
    "core.token_keep_ratio": "ratio",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """What a wall-clock result depends on besides the code."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def source_hash() -> str:
    """Hash of the program and benchmark sources (keys determinism)."""
    root = HERE.parent
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def differs(a: dict, b: dict) -> bool:
    """Whether two fingerprints disagree on any value both carry."""
    return any(a[k] != b[k] for k in a.keys() & b.keys())


def earlier_fingerprints(workload: str, seed: int, src: str):
    """Fingerprints of earlier runs of this seed on this source tree."""
    log = RESULTS / "runs.jsonl"
    if not log.exists():
        return []
    out = []
    for line in log.read_text().splitlines():
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (row.get("workload"), row.get("seed"), row.get("src")) == \
                (workload, seed, src):
            out.append(row.get("fingerprint", {}))
    return out


def one_run(workload, seed: int, traced: bool, timer) -> dict:
    """Set up, then one timed whole-trace run (spans on if ``traced``)."""
    t0 = time.perf_counter()
    prep = wl.prepare(workload, seed)
    setup_s = time.perf_counter() - t0
    run = {"traced": traced, "setup_s": setup_s}
    if traced:
        rec = ledger.SpanRecorder()
        inst = layers.Instrument(rec).install()
        root = rec.open(ledger.ROOT)
        try:
            result = wl.timed_run(prep)
        finally:
            rec.close(root)
            inst.uninstall()
        run["rec"] = rec
    else:
        result = wl.timed_run(prep)
    fleet = wl.serving_stats(result.stats)
    fingerprint = {
        "sim_tok_per_s": fleet.throughput_tps,
        "sim_ttft_p90_ms": wl.sim_ttft_p90_ms(result.stats),
        "serving.preemptions": fleet.n_preemptions,
    }
    if traced:
        fingerprint["core.token_keep_ratio"] = inst.token_keep_ratio()
    run.update(
        prep=prep, n_requests=len(prep.requests), result=result,
        steps=timer.take(), problems=wl.check_run(prep, result),
        tok_per_s=(sum(r.prompt_len for r in prep.requests)
                   + fleet.n_tokens) / result.wall_s,
        fingerprint=fingerprint, total_s=time.perf_counter() - t0,
    )
    return run


def measure(workload, args) -> list:
    """Warm up, then whole-trace runs until ``--seconds`` is spent.

    With tracing, runs alternate untraced and traced.  Only the last
    run keeps its engine (the oracle check needs it).
    """
    timer = layers.StepTimer(ServingEngine)
    wl.timed_run(wl.prepare(workload, args.seed, n_requests=8))
    timer.take()
    runs = []
    started = time.perf_counter()
    while True:
        if runs:
            runs[-1]["prep"] = None
        # Keeps earlier runs out of peak memory and their garbage out
        # of the next timed region.
        gc.collect()
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(one_run(workload, args.seed, traced, timer))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["total_s"] for r in runs)
        if len(runs) >= MIN_RUNS and elapsed + typical > args.seconds:
            return runs


def end_to_end_metrics(runs, verdict) -> dict:
    """name -> (value, sample count), from the untraced runs."""
    untraced = [r for r in runs if not r["traced"]]
    # Step percentiles per run, then the median across runs, so one run
    # caught in a slow spell of the host moves the result least.
    p50 = statistics.median(ledger.percentile(r["steps"], 50)[0]
                            for r in untraced)
    p90 = statistics.median(ledger.percentile(r["steps"], 90)[0]
                            for r in untraced)
    n_steps = sum(len(r["steps"]) for r in untraced)
    last = runs[-1]
    n_requests = last["n_requests"]
    finished = sum(r.status is wl.RequestStatus.FINISHED
                   for r in wl.serving_stats(last["result"].stats).records)
    fp = last["fingerprint"]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in runs),
                    len(runs)),
        "tok_per_s": (statistics.median(r["tok_per_s"] for r in untraced),
                      len(untraced)),
        "step_p50_ms": (p50 * 1e3, n_steps),
        "step_p90_ms": (p90 * 1e3, n_steps),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sim_tok_per_s": (fp["sim_tok_per_s"], 1),
        "sim_ttft_p90_ms": (fp["sim_ttft_p90_ms"], n_requests),
        "token_match": (verdict.matched / verdict.compared,
                        verdict.compared),
        "served_frac": (finished / n_requests, n_requests),
    }


def median_traced(runs) -> dict:
    traced = sorted((r for r in runs if r["traced"]),
                    key=lambda r: r["result"].wall_s)
    return traced[(len(traced) - 1) // 2]


def per_layer_metrics(runs) -> dict:
    """name -> (value, 1): the ledger of the median traced run, plus
    layer counts and the tracing overhead."""
    run = median_traced(runs)
    rec = run["rec"]
    spans = rec.spans()
    rows = ledger.ledger(spans)
    closure = ledger.closure_error(rows)
    if abs(closure) > 1e-6 * rows["wall"]:
        raise RuntimeError(f"ledger does not close: {closure:+.3e} s")
    values = {name: rows.get(group, 0.0)
              for group, name in SELF_TIME_GROUPS.items()}
    for group in CALL_GROUPS:
        values[f"{group}_calls"] = rec.calls.get(group, 0)
    decode_s = sum(end - start for group, start, end, _ in spans
                   if group == "nn.decode")
    decode_rows = rec.counts.get("nn.decode_rows", 0)
    decode_calls = rec.calls.get("nn.decode", 0)
    fleet = wl.serving_stats(run["result"].stats)
    generated = fleet.n_tokens + fleet.recompute_tokens
    values.update({
        "serving.steps": len(run["steps"]),
        "serving.batch_mean": fleet.mean_batch_size,
        "serving.preemptions": fleet.n_preemptions,
        "serving.recompute_ratio": fleet.recompute_tokens / generated,
        "nn.decode_rows": decode_rows,
        # Whole decode step (children included) per batch row.
        "nn.decode_us_per_row": (decode_s * 1e6 / decode_rows
                                 if decode_rows else 0.0),
        "nn.decode_kv_bytes": (rec.counts.get("nn.decode_kv_bytes", 0)
                               / decode_calls if decode_calls else 0.0),
        "nn.prefill_tokens": rec.counts.get("nn.prefill_tokens", 0),
        "core.token_keep_ratio": run["fingerprint"]["core.token_keep_ratio"],
        "traced_wall_s": rows["wall"],
        "trace_overhead": (
            statistics.median(r["tok_per_s"] for r in runs if r["traced"])
            / statistics.median(r["tok_per_s"] for r in runs
                                if not r["traced"])),
    })
    return {name: (value, 1) for name, value in values.items()}


@dataclass
class Verdict:
    """The correctness gate's findings over every run of one process."""

    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Tokens equal to the fp64 looped oracle, and tokens compared.
    matched: int = 0
    compared: int = 0
    #: Simulated values every run of this seed must repeat exactly.
    fingerprint: dict = field(default_factory=dict)


def gate(runs, workload, args, src: str) -> Verdict:
    v = Verdict()
    for i, run in enumerate(runs):
        v.attempted += run["n_requests"]
        if run["problems"]:
            v.failed += run["n_requests"]
            v.problems += [f"run {i}: {p}" for p in run["problems"]]
        if differs(run["fingerprint"], v.fingerprint):
            v.failed += run["n_requests"]
            v.problems.append(f"nondeterminism: run {i} simulated "
                              f"{run['fingerprint']}, earlier runs "
                              f"{v.fingerprint}")
        v.fingerprint.update(run["fingerprint"])
    last = runs[-1]
    v.matched, v.compared = wl.oracle_token_match(last["prep"],
                                                  last["result"].stats)
    if workload.numerics == "exact" and v.matched != v.compared:
        v.failed += wl.ORACLE_REQUESTS
        v.problems.append(f"{v.compared - v.matched} of {v.compared} oracle "
                          f"tokens differ on the exact tier")
    if any(differs(earlier, v.fingerprint) for earlier in
           earlier_fingerprints(args.workload, args.seed, src)):
        v.failed += last["n_requests"]
        v.problems.append(f"nondeterminism: seed {args.seed} simulated "
                          f"other values in an earlier process, now "
                          f"{v.fingerprint}")
    return v


def report(args, metrics, units, runs, problems, env) -> None:
    """Human-readable lines above the JSON result."""
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)} ({sum(r['traced'] for r in runs)} traced)")
    print(f"  env: {json.dumps(env, sort_keys=True)}")
    print("  runs (tok/s): " + " ".join(
        f"{r['tok_per_s']:.0f}{'T' if r['traced'] else ''}" for r in runs))
    if args.trace:
        wall = metrics["traced_wall_s"][0]
        print(f"  ledger (self time, share of traced wall {wall:.3f} s):")
        for group, name in SELF_TIME_GROUPS.items():
            value = metrics[name][0]
            calls = metrics.get(f"{group}_calls", (None,))[0]
            print(f"    {name:<24} {value:9.4f} s {value / wall:7.1%}"
                  + (f"  {calls} calls" if calls is not None else ""))
        total = sum(metrics[n][0] for n in SELF_TIME_GROUPS.values())
        print(f"    {'sum':<24} {total:9.4f} s {total / wall:7.1%}")
    for name, (value, n) in metrics.items():
        if name not in SELF_TIME_GROUPS.values():
            print(f"  {name:<26} {value:14.6f} {units[name]:<6} n={n}")
    for problem in problems:
        print(f"  FAILED: {problem}")


def main(argv) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    runs = measure(workload, args)
    src = source_hash()
    verdict = gate(runs, workload, args, src)
    if args.trace:
        metrics, units = per_layer_metrics(runs), PER_LAYER
    else:
        metrics = end_to_end_metrics(runs, verdict)
        units = END_TO_END
    env = environment()
    report(args, metrics, units, runs, verdict.problems, env)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "src": src, "env": env,
            "fingerprint": verdict.fingerprint,
            "correct": not verdict.problems,
            "metrics": {name: value for name, (value, _) in metrics.items()},
        }) + "\n")
    if args.trace:
        (RESULTS / f"trace-{args.workload}.json").write_text(
            ledger.chrome_trace(median_traced(runs)["rec"].spans()))
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
