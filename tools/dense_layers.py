"""Time the dense layers of one cold large-k LMM call, each in a fresh process.

Each run starts a new interpreter, generates a shuffled pac-shaped quality
list (a cluster of near-best values a wide margin above the rest, on the 1/n
lattice), and then times, on first use in that process:

- the dense universe build,
- the LMM call (alpha=1, delta=0.05), and within it every head growth
  (``QualityUniverse._descending``),
- ``shell_decomposition`` of the matching error list.

Usage, from the repository root:

    python3 tools/dense_layers.py [--k 1000000] [--cluster 7500] [--runs 5]
                                  [--seed 1] [--src DIR ...]

Each ``--src`` is a ``src`` directory holding a ``privmax`` package (default:
this checkout's). With several, runs alternate between them, so two trees
are compared under the same host conditions. Prints one JSON line per run
and a median summary per tree.
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
N = 20_000
CLUSTER_WIDTH = 60  # error counts
GAP = 500  # error counts between the cluster and the rest


def child(src: str, k: int, cluster: int, seed: int) -> dict:
    import random

    sys.path.insert(0, src)
    from privmax import core
    from privmax.applications import shell_decomposition
    from privmax.core import PrivacyBudget, QualityUniverse
    from privmax.mechanisms import large_margin_mechanism
    from privmax.noise import NoiseSource

    rng = random.Random(f"dense-layers/{seed}")
    best = rng.randint(N // 20, N // 8)
    counts = [best] + [best + rng.randint(0, CLUSTER_WIDTH) for _ in range(cluster - 1)]
    lo = best + CLUSTER_WIDTH + GAP
    counts += [rng.randint(lo, lo + N // 3) for _ in range(k - cluster)]
    rng.shuffle(counts)
    errors = [c / N for c in counts]
    qualities = [1.0 - e for e in errors]

    growths = []
    descending = core.QualityUniverse._descending

    def timed(u, m):
        t0 = time.perf_counter()
        out = descending(u, m)
        growths.append(round((time.perf_counter() - t0) * 1e3, 2))
        return out

    core.QualityUniverse._descending = timed
    t0 = time.perf_counter()
    u = QualityUniverse.dense(qualities, n=N)
    t1 = time.perf_counter()
    out = large_margin_mechanism(u, PrivacyBudget(1.0, 0.05), NoiseSource(seed))
    t2 = time.perf_counter()
    shells = shell_decomposition(errors, d=10, n=N, delta0=0.05)
    t3 = time.perf_counter()
    return {
        "src": src,
        "k": k,
        "seed": seed,
        "ell": out.ell,
        "item": out.item,
        "head": len(u._sorted),
        "shell_sizes": list(shells.shell_sizes),
        "build_ms": round((t1 - t0) * 1e3, 2),
        "lmm_ms": round((t2 - t1) * 1e3, 2),
        "growth_ms": growths,
        "head_ms": round(sum(growths), 2),
        "shells_ms": round((t3 - t2) * 1e3, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=1_000_000)
    parser.add_argument("--cluster", type=int, default=7_500)
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", action="append", help="src directory of a tree (repeatable)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in (args.src or [os.path.join(ROOT, "src")])]
    if args.child:
        print(json.dumps(child(srcs[0], args.k, args.cluster, args.seed)))
        return 0
    trees = list(enumerate(srcs))
    results = [[] for _ in srcs]  # per tree, by position: a tree may be given twice
    for run in range(args.runs):
        # flip the order each run, so neither tree always goes first
        for tree, src in trees if run % 2 == 0 else trees[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--child", "--src", src,
                   "--k", str(args.k), "--cluster", str(args.cluster), "--seed", str(args.seed + run)]
            line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()
            print(line, flush=True)
            results[tree].append(json.loads(line))
    for src, rows in zip(srcs, results):
        summary = {key: statistics.median(r[key] for r in rows)
                   for key in ("build_ms", "lmm_ms", "head_ms", "shells_ms")}
        summary["growths"] = statistics.median(len(r["growth_ms"]) for r in rows)
        print(json.dumps({"src": src, "runs": len(rows), "median": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
