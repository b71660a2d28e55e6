"""Time the CPU of one bound audit trial, each sample in a fresh process.

Each run starts a new interpreter, builds the ``audit-lmm`` benchmark's
neighbor pair (``perfbench/workloads.py``: dense k=8, n=500, top gaps at
T(1) and T(2)) and its LMM mechanism (alpha=1, delta=0.05), binds the
mechanism to both sides as an audit does, counts every shard once untimed
(so the plans' T(r) lists and weight tables are grown), and then times one
``audit._count_tasks`` call over the same shards with ``time.process_time``.
It reports CPU microseconds per trial and the shard counts.

The host's speed drifts by tens of percent over tens of seconds, so, as
``perfbench/run.py`` does, the samples are interleaved with reference probes
(an empty interpreter start, ``perfbench/child.py reference``): one before
the first sample and one after each. Each sample's CPU per trial is also
reported normalised, divided by the mean of the two probes on either side
of it and given at the speed of a host whose empty interpreter starts in
REFERENCE_S. A probe runs in another process at another moment, so each
child also times a fixed pure-Python loop with ``time.process_time`` right
before and right after the timed call, and reports the CPU per trial divided
by the mean of the two, at the speed of a host on which the loop takes
LOOP_S. On two trees with the same audit code at 40 shards, 10 runs, the
per-run ratio spread about half as wide loop-normalised as probe-normalised
(q1-q3 0.97-1.08 against 0.95-1.36 in one run, 0.88-0.99 against 0.84-1.08
in another).

Usage, from the repository root:

    python3 tools/audit_trials.py [--shards 10] [--runs 10] [--seed 1]
                                  [--src DIR ...]

``--shards`` is the number of 1,024-trial shards per side. Each ``--src`` is
a ``src`` directory holding a ``privmax`` package (default: this
checkout's). With several, runs alternate between them, flipping the order
each run, so two trees are compared under the same host conditions. Prints
one JSON line per run, then per tree the median and quartiles of the raw
and the two normalised microseconds per trial; with two trees, the quartiles
of the per-run ratio second/first of each normalised figure and how many
runs the second was faster in by the loop-normalised one; and whether every
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
REFERENCE_S = 0.060  # empty-interpreter start that normalised figures assume, as in perfbench
LOOP_S = 0.030  # CPU seconds of reference_loop that loop-normalised figures assume


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop in this process."""
    t0 = time.process_time()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return time.process_time() - t0


def reference_probe() -> float:
    """Wall seconds of one empty interpreter start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "reference"], check=True)
    return time.perf_counter() - t0


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
    loop = reference_loop()
    t0 = time.process_time()
    counts = audit._count_tasks(bound, tasks)
    cpu = time.process_time() - t0
    loop += reference_loop()
    us_per_trial = cpu * 1e6 / (2 * trials)
    return {
        "src": src,
        "seed": seed,
        "trials": 2 * trials,
        "cpu_s": round(cpu, 4),
        "us_per_trial": round(us_per_trial, 4),
        "loop_ms": round(loop / 2 * 1e3, 2),
        "loop_us_per_trial": round(us_per_trial * 2 * LOOP_S / loop, 4),
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
    before = reference_probe()
    for run in range(args.runs):
        # flip the order each run, so neither tree always goes first
        for src in srcs if run % 2 == 0 else srcs[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--child", "--src", src,
                   "--shards", str(args.shards), "--seed", str(args.seed)]
            line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()
            after = reference_probe()
            row = json.loads(line)
            row["reference_ms"] = round((before + after) / 2 * 1e3, 2)
            row["norm_us_per_trial"] = round(row["us_per_trial"] * 2 * REFERENCE_S / (before + after), 4)
            before = after
            print(json.dumps({k: v for k, v in row.items() if k != "counts"}), flush=True)
            results[src].append(row)
    for src, rows in results.items():
        print(json.dumps({"src": src, "runs": len(rows),
                          "us_per_trial": quartiles([r["us_per_trial"] for r in rows]),
                          "norm_us_per_trial": quartiles([r["norm_us_per_trial"] for r in rows]),
                          "loop_us_per_trial": quartiles([r["loop_us_per_trial"] for r in rows])}))
    if len(srcs) == 2:
        # each run times both trees back to back: the second tree's cost over the first's
        ratios = {key: [b[key] / a[key] for a, b in zip(*results.values())]
                  for key in ("norm_us_per_trial", "loop_us_per_trial")}
        loop = ratios["loop_us_per_trial"]
        print(json.dumps({"ratio": quartiles(ratios["norm_us_per_trial"]), "ratio_loop": quartiles(loop),
                          "second_faster": f"{sum(r < 1.0 for r in loop)}/{len(loop)}"}))
    counted = {json.dumps(r["counts"]) for rows in results.values() for r in rows}
    print(json.dumps({"counts_identical": len(counted) == 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
