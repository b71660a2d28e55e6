"""Time the layers of one cold fim call, each in a fresh process.

The parent writes the ``fim-sparse`` benchmark's baskets for ``--seed``
(``perfbench/workloads.py``: 20k Zipf baskets over 400 tokens, one planted
pair) to a temporary file. Each run then starts a new interpreter and times,
on first use in that process, what ``privmax fim --r 2 --vocab-size 1000000``
does:

- ``load_baskets`` of the file,
- the itemset count, the ``Counter`` that ``itemset_quality`` builds,
- the rest of ``itemset_quality``: the order and the universe build,
- the LMM call (alpha=1, delta=0.05),
- the first ``decode`` of the released id.

Usage, from the repository root:

    python3 tools/fim_layers.py [--runs 5] [--seed 1] [--src DIR ...]

Each ``--src`` is a ``src`` directory holding a ``privmax`` package (default:
this checkout's). With several, runs alternate between them, flipping the
order each run, so two trees are compared under the same host conditions.
Prints one JSON line per run, a median summary per tree, and whether every
run of the same mechanism seed released the same itemset.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("load_ms", "count_ms", "order_ms", "lmm_ms", "decode_ms", "total_ms")


def child(src: str, path: str, seed: int) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    import workloads
    from privmax import applications
    from privmax.core import PrivacyBudget
    from privmax.mechanisms import large_margin_mechanism
    from privmax.noise import NoiseSource

    counted = []
    real_counter = applications.Counter

    def timed_counter(*args):
        t0 = time.perf_counter()
        out = real_counter(*args)
        counted.append(time.perf_counter() - t0)
        return out

    applications.Counter = timed_counter
    t0 = time.perf_counter()
    d = applications.load_baskets(path)
    t1 = time.perf_counter()
    universe, codec = applications.itemset_quality(d, workloads.FIM_R, vocab_size=workloads.FIM_VOCAB)
    t2 = time.perf_counter()
    out = large_margin_mechanism(universe, PrivacyBudget(workloads.ALPHA, workloads.DELTA), NoiseSource(seed))
    t3 = time.perf_counter()
    itemset = codec.decode(out.item)
    t4 = time.perf_counter()
    count = sum(counted)
    return {
        "src": src,
        "seed": seed,
        "item": out.item,
        "itemset": list(itemset),
        "occurring": universe.explicit_count,
        "load_ms": round((t1 - t0) * 1e3, 2),
        "count_ms": round(count * 1e3, 2),
        "order_ms": round((t2 - t1 - count) * 1e3, 2),
        "lmm_ms": round((t3 - t2) * 1e3, 2),
        "decode_ms": round((t4 - t3) * 1e3, 3),
        "total_ms": round((t4 - t0) * 1e3, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", action="append", help="src directory of a tree (repeatable)")
    parser.add_argument("--child", metavar="BASKETS", help=argparse.SUPPRESS)
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in (args.src or [os.path.join(ROOT, "src")])]
    if args.child:
        print(json.dumps(child(srcs[0], args.child, args.seed)))
        return 0
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    trees = list(enumerate(srcs))
    results = [[] for _ in srcs]  # per tree, by position: a tree may be given twice
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "baskets.txt")
        workloads.write_baskets(path, workloads.fim_baskets(args.seed))
        for run in range(args.runs):
            # flip the order each run, so neither tree always goes first
            for tree, src in trees if run % 2 == 0 else trees[::-1]:
                cmd = [sys.executable, os.path.abspath(__file__), "--child", path, "--src", src,
                       "--seed", str(args.seed + run)]
                line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()
                print(line, flush=True)
                results[tree].append(json.loads(line))
    for src, rows in zip(srcs, results):
        summary = {key: statistics.median(r[key] for r in rows) for key in LAYERS}
        print(json.dumps({"src": src, "runs": len(rows), "median": summary}))
    releases = {json.dumps([(r["item"], r["itemset"]) for r in rows]) for rows in results}
    print(json.dumps({"releases_identical": len(releases) == 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
