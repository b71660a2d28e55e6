"""Time the CPU of one bound audit trial, each sample in a fresh process.

Each run starts a new interpreter, builds the ``audit-lmm`` benchmark's
neighbor pair (``perfbench/workloads.py``: dense k=8, n=500, top gaps at
T(1) and T(2)) and its LMM mechanism (alpha=1, delta=0.05), binds the
mechanism to both sides as an audit does, counts every shard once untimed
(so the plans' T(r) lists and weight tables are grown), and then times one
``audit._count_tasks`` call over the same shards with ``time.process_time``.
It reports CPU microseconds per trial and the shard counts.

Usage, from the repository root:

    python3 tools/audit_trials.py [--shards 10] [--runs 10] [--seed 1]
                                  [--src DIR ...]

``--shards`` is the number of 1,024-trial shards per side. Each ``--src`` is
a ``src`` directory holding a ``privmax`` package (default: this
checkout's). With several, runs alternate between them, flipping the order
each run, so two trees are compared under the same host conditions. Prints
one JSON line per run, then per tree the median and quartiles of the
microseconds per trial; with two trees, the quartiles of the per-run ratio
second/first and how many runs the second was faster in; and whether every
tree counted the same outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child(src: str, shards: int, seed: int) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    import workloads
    from privmax import audit
    from privmax.noise import NoiseSource

    pair = workloads.audit_pair(seed)
    mech, _ = workloads.audit_mechanism()
    right_seed = (seed + audit._RIGHT_SEED_OFFSET) % (1 << 64)
    trials = shards * audit._SHARD_TRIALS
    bound = [(audit._bind(mech, u), trials, NoiseSource(s))
             for u, s in ((pair.left, seed), (pair.right, right_seed))]
    tasks = [(j, shard) for j in range(2) for shard in range(shards)]
    audit._count_tasks(bound, tasks)  # grow every table first
    t0 = time.process_time()
    counts = audit._count_tasks(bound, tasks)
    cpu = time.process_time() - t0
    return {
        "src": src,
        "seed": seed,
        "trials": 2 * trials,
        "cpu_s": round(cpu, 4),
        "us_per_trial": round(cpu * 1e6 / (2 * trials), 4),
        "counts": [sorted(c.items()) for c in counts],
    }


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=10, help="1,024-trial shards per side")
    parser.add_argument("--runs", type=int, default=10, help="fresh processes per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", action="append", help="src directory of a tree (repeatable)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in (args.src or [os.path.join(ROOT, "src")])]
    if args.child:
        print(json.dumps(child(srcs[0], args.shards, args.seed)))
        return 0
    results = {src: [] for src in srcs}
    for run in range(args.runs):
        # flip the order each run, so neither tree always goes first
        for src in srcs if run % 2 == 0 else srcs[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--child", "--src", src,
                   "--shards", str(args.shards), "--seed", str(args.seed)]
            line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()
            row = json.loads(line)
            print(json.dumps({k: v for k, v in row.items() if k != "counts"}), flush=True)
            results[src].append(row)
    for src, rows in results.items():
        print(json.dumps({"src": src, "runs": len(rows),
                          "us_per_trial": quartiles([r["us_per_trial"] for r in rows])}))
    if len(srcs) == 2:
        # each run times both trees back to back: the second tree's cost over the first's
        ratios = [b["us_per_trial"] / a["us_per_trial"] for a, b in zip(*results.values())]
        print(json.dumps({"ratio": quartiles(ratios),
                          "second_faster": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}"}))
    counted = {json.dumps(r["counts"]) for rows in results.values() for r in rows}
    print(json.dumps({"counts_identical": len(counted) == 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
