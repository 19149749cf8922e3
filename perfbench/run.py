"""Wall-clock serving benchmark: one workload, one seed, one process.

Usage, from the repository root::

    python3 perfbench/run.py --workload decode_spatten --seed 1 \\
        --seconds 30 --trace 0

Every run builds the workload from ``--seed`` (model weights are fixed),
warms up on a short trace, then repeats whole-trace runs of the public
serving API (``ServingEngine.run`` / ``ClusterEngine.run``) for about
``--seconds`` seconds, each on a freshly built model, trace, pool and
engine.  Each run is gated for correctness: every request finishes, the
generated tokens equal the budgets, the pool ledger audits clean and is
empty, simulated results repeat exactly, and on the ``exact`` tier a
fixed subset of requests matches the fp64 looped oracle token for token.

``--trace 0`` reports the end-to-end metrics, measured with no spans.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer ledger of the traced run with the median wall time: the self
time of every wrapped public call, grouped by layer, plus the
``unattributed_s`` row, which together add up to the traced wall time.

The last line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``).  Each run is also
appended to ``perfbench/results/runs.jsonl`` with its environment
(compare two such files with ``perfbench/compare.py``), and a traced run
writes its spans as a Chrome trace to
``perfbench/results/trace-<workload>.json``.

This file only pins the BLAS/OpenMP thread pools to one thread, which
must happen before numpy is first imported; ``bench.py`` does the work.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(here), str(src)]
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
