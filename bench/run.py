"""Benchmark of the ``realizability`` library and CLI.

    python3 bench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the repository root.  One process measures one workload against
the library under ``src/``: a set-up phase, then a closed loop of seeded
queries issued by a single caller (at least 200), each output checked
against the benchmark's own reference outside the timed region, then
replays of the same queries; the passes together take about ``--seconds``
and each query's time is the least of its passes.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` then replays the first 200 queries
with spans around every layer call and reports the per-layer metrics and
the tracing overhead, writing the spans to ``.bench_out/``.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and what each metric should move are in
``design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "realizability", "__init__.py")):
        print(f"error: no library source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    from harness import run_workload

    result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
