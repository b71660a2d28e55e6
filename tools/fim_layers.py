"""Time the layers of one cold fim call, each in a fresh process.

The parent writes the ``fim-sparse`` benchmark's baskets for ``--seed``
(``perfbench/workloads.py``: 20k Zipf baskets over 400 tokens, one planted
pair) to a temporary file. Each run then starts two new interpreters. The
first times, on first use in that process, the serial layers of
``privmax fim --r 2 --vocab-size 1000000``:

- ``load_baskets`` of the file,
- the itemset count, ``applications._count_itemsets`` in ``itemset_quality``
  (the ``Counter`` it builds, in a tree older than the parts path),
- the rest of ``itemset_quality``: the order and the universe build,
- the LMM call (alpha=1, delta=0.05),
- the first ``decode`` of the released id.

The second times what the CLI runs in place of the first three,
``load_itemset_quality``, which counts the file in parts on every usable
core (``parts_ms``), and then makes the same release. A tree without
``load_itemset_quality`` reports ``parts_ms`` as null.

Usage, from the repository root:

    python3 tools/fim_layers.py [--runs 5] [--seed 1] [--src DIR ...]

Each ``--src`` is a ``src`` directory holding a ``privmax`` package (default:
this checkout's). With several, runs alternate between them, flipping the
order each run, so two trees are compared under the same host conditions.
Prints one JSON line per run, a median summary per tree, and whether every
run of the same mechanism seed released the same itemset, on both paths.
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
LAYERS = ("load_ms", "count_ms", "order_ms", "lmm_ms", "decode_ms", "total_ms", "parts_ms")


def child(src: str, path: str, seed: int) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    import workloads
    from privmax import applications
    from privmax.core import PrivacyBudget
    from privmax.mechanisms import large_margin_mechanism
    from privmax.noise import NoiseSource

    counted = []
    # a tree older than the parts path counts with the Counter it imports
    count_name = "_count_itemsets" if hasattr(applications, "_count_itemsets") else "Counter"
    real_count = getattr(applications, count_name)

    def timed_count(*args):
        t0 = time.perf_counter()
        out = real_count(*args)
        counted.append(time.perf_counter() - t0)
        return out

    setattr(applications, count_name, timed_count)
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


def parts_child(src: str, path: str, seed: int) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    import workloads
    from privmax import applications
    from privmax.core import PrivacyBudget
    from privmax.mechanisms import large_margin_mechanism
    from privmax.noise import NoiseSource

    load = getattr(applications, "load_itemset_quality", None)
    if load is None:
        return {"parts_ms": None, "parts_release": None}
    t0 = time.perf_counter()
    universe, codec = load(path, workloads.FIM_R, vocab_size=workloads.FIM_VOCAB)
    t1 = time.perf_counter()
    out = large_margin_mechanism(universe, PrivacyBudget(workloads.ALPHA, workloads.DELTA), NoiseSource(seed))
    return {"parts_ms": round((t1 - t0) * 1e3, 2), "parts_release": [out.item, list(codec.decode(out.item))]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", action="append", help="src directory of a tree (repeatable)")
    parser.add_argument("--child", metavar="BASKETS", help=argparse.SUPPRESS)
    parser.add_argument("--parts-child", metavar="BASKETS", help=argparse.SUPPRESS)
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in (args.src or [os.path.join(ROOT, "src")])]
    if args.child:
        print(json.dumps(child(srcs[0], args.child, args.seed)))
        return 0
    if args.parts_child:
        print(json.dumps(parts_child(srcs[0], args.parts_child, args.seed)))
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
                row = {}
                for mode in ("--child", "--parts-child"):
                    cmd = [sys.executable, os.path.abspath(__file__), mode, path, "--src", src,
                           "--seed", str(args.seed + run)]
                    row.update(json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                                         text=True).stdout))
                print(json.dumps(row), flush=True)
                results[tree].append(row)
    for src, rows in zip(srcs, results):
        summary = {}
        for key in LAYERS:
            values = [r[key] for r in rows if r[key] is not None]
            summary[key] = statistics.median(values) if values else None
        print(json.dumps({"src": src, "runs": len(rows), "median": summary}))
    # one release sequence per tree and path; a tree without the parts path adds none
    releases = {json.dumps([[r["item"], r["itemset"]] for r in rows]) for rows in results}
    releases |= {json.dumps([r["parts_release"] for r in rows]) for rows in results
                 if rows[0]["parts_release"] is not None}
    print(json.dumps({"releases_identical": len(releases) == 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
