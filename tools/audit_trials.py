"""Time the CPU of one bound audit trial, each sample in a fresh process.

Each run starts a new interpreter, builds the ``audit-lmm`` benchmark's
neighbor pair (``perfbench/workloads.py``: dense k=8, n=500, top gaps at
T(1) and T(2)) and its LMM mechanism (alpha=1, delta=0.05), binds the
mechanism to both sides as an audit does, counts every shard once untimed
(so the plans' T(r) lists and weight tables are grown), and then times
PASSES ``audit._count_tasks`` calls over the same shards with
``time.process_time``. It reports the median CPU microseconds per trial of
the passes and the shard counts.

The host's speed drifts by tens of percent over tens of seconds, so, as
``perfbench/run.py`` does, the samples are interleaved with reference probes
(an empty interpreter start, ``perfbench/child.py reference``): one before
the first sample and one after each. Each sample's CPU per trial is also
reported normalised, divided by the mean of the two probes on either side
of it and given at the speed of a host whose empty interpreter starts in
REFERENCE_S. A probe runs in another process at another moment, so each
child also times a fixed pure-Python loop with ``time.process_time`` before
the first pass and after each, and reports the median over the passes of
the CPU per trial divided by the mean of the two loops around the pass, at
the speed of a host on which the loop takes LOOP_S. On two trees with the
same audit code at 40 shards, 10 runs, on a 2-core Xeon host, the
loop-normalised per-run ratio read q1-q3 0.82-1.01 and 0.87-1.03 with one
pass per child, and 0.91-1.01, 0.84-0.99 and 0.94-1.14 with the median of
PASSES: the host's slow state costs the audited loop about 1.6 times its
fast-state CPU and the reference loop about 1.4 times, so a child that runs
in another state than its partner still skews its run's ratio.

Usage, from the repository root:

    python3 tools/audit_trials.py [--shards 10] [--runs 10] [--seed 1]
                                  [--src DIR ...]

``--shards`` is the number of 1,024-trial shards per side. Each ``--src`` is
a ``src`` directory holding a ``privmax`` package (default: this
checkout's); the same directory may be given twice, to measure the spread
between identical trees. With several, runs alternate between them,
flipping the order each run, so two trees are compared under the same host
conditions. Prints
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
PASSES = 5  # timed _count_tasks passes per child, reported by their median


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
    cpus, loops = [], [reference_loop()]
    for _ in range(PASSES):
        t0 = time.process_time()
        counts = audit._count_tasks(bound, tasks)
        cpus.append(time.process_time() - t0)
        loops.append(reference_loop())
    cpu = statistics.median(cpus)
    return {
        "src": src,
        "seed": seed,
        "trials": 2 * trials,
        "cpu_s": round(cpu, 4),
        "us_per_trial": round(cpu * 1e6 / (2 * trials), 4),
        "loop_ms": round(statistics.median(loops) * 1e3, 2),
        "loop_us_per_trial": round(statistics.median(
            c * 1e6 / (2 * trials) * 2 * LOOP_S / (before + after)
            for c, before, after in zip(cpus, loops, loops[1:])), 4),
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
    trees = list(enumerate(srcs))
    results = [[] for _ in srcs]  # per tree, by position: a tree may be given twice
    before = reference_probe()
    for run in range(args.runs):
        # flip the order each run, so neither tree always goes first
        for tree, src in trees if run % 2 == 0 else trees[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--child", "--src", src,
                   "--shards", str(args.shards), "--seed", str(args.seed)]
            line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()
            after = reference_probe()
            row = json.loads(line)
            row["reference_ms"] = round((before + after) / 2 * 1e3, 2)
            row["norm_us_per_trial"] = round(row["us_per_trial"] * 2 * REFERENCE_S / (before + after), 4)
            before = after
            print(json.dumps({k: v for k, v in row.items() if k != "counts"}), flush=True)
            results[tree].append(row)
    for src, rows in zip(srcs, results):
        print(json.dumps({"src": src, "runs": len(rows),
                          "us_per_trial": quartiles([r["us_per_trial"] for r in rows]),
                          "norm_us_per_trial": quartiles([r["norm_us_per_trial"] for r in rows]),
                          "loop_us_per_trial": quartiles([r["loop_us_per_trial"] for r in rows])}))
    if len(srcs) == 2:
        # each run times both trees back to back: the second tree's cost over the first's
        ratios = {key: [b[key] / a[key] for a, b in zip(*results)]
                  for key in ("norm_us_per_trial", "loop_us_per_trial")}
        loop = ratios["loop_us_per_trial"]
        print(json.dumps({"ratio": quartiles(ratios["norm_us_per_trial"]), "ratio_loop": quartiles(loop),
                          "second_faster": f"{sum(r < 1.0 for r in loop)}/{len(loop)}"}))
    counted = {json.dumps(r["counts"]) for rows in results for r in rows}
    print(json.dumps({"counts_identical": len(counted) == 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
