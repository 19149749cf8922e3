"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a ``runs.jsonl`` written by ``perfbench/run.py``.  The two
sets must come from one environment (cores, Python, numpy, BLAS and
pinned thread counts); otherwise the comparison is refused with exit
code 2, since wall-clock numbers from different machines or thread
settings say nothing about the code.  For each workload and end-to-end
metric it prints both medians, the base set's spread (interquartile
range over median), and the change against the metric's bound from
``BENCHMARK.json``.  Exit code 1 means some metric got worse by more
than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from ledger import spread

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    envs = {json.dumps(r["env"], sort_keys=True) for r in rows}
    if len(envs) != 1:
        raise ValueError(f"{path}: results from {len(envs)} environments")
    return rows, envs.pop()


def values(rows, workload, metric):
    return [r["metrics"][metric] for r in rows
            if r["workload"] == workload and not r["trace"]
            and r["correct"] and metric in r["metrics"]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        (base, base_env), (new, new_env) = load(argv[0]), load(argv[1])
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if base_env != new_env:
        print(f"compare: refused, environments differ:\n  {base_env}\n  "
              f"{new_env}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    worse = 0
    for workload in sorted({r["workload"] for r in base}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = values(base, workload, name), values(new, workload, name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            regress = -change if metric["better"] == "higher" else change
            flag = "WORSE" if regress > metric["bound"] else ""
            worse += bool(flag)
            base_spread = spread(a) if len(a) > 1 else float("nan")
            print(f"{workload:<18} {name:<16} {ma:12.4f} -> {mb:12.4f} "
                  f"{change:+7.1%} (base spread {base_spread:.1%}, "
                  f"n={len(a)}/{len(b)}) {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
