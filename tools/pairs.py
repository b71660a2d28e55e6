"""Run one benchmark workload on two trees in alternating pairs.

    python3 tools/pairs.py --tree PARENT --tree CHANGE --workload pac-dense \
        --seeds 101-110 [--seconds 35] [--out pairs.json]

Each ``--tree`` is a checkout holding ``perfbench/`` and ``src/`` (say, a
``git archive`` of a commit). Pair i runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each tree, one run at a time, with
seed S the i-th of ``--seeds`` on both sides; the side that runs first flips
with each pair (even pairs: the first tree first), so a slow drift of the
host's speed favours neither tree. Each run records the 1/5/15-minute load
average read just before it. Prints one JSON line per pair, and last a JSON
summary: per end-to-end metric, each tree's median and quartiles, the median
and range of the per-pair ratio second/first, and in how many pairs the
second tree was better. Exits 1 if any run's outputs were not all correct.

Each run's environment drops PYTHONDONTWRITEBYTECODE, so both trees run in
the same bytecode state. ``perfbench/run.py`` imports privmax in its own
process for ``audit-lmm``, so that workload's ``peak_rss_mb`` includes
compiling privmax whenever a tree has no bytecode cache: with the variable
set and a cache in only one tree, the other read 4.7 % more (21.64 against
20.67 MiB, 2 cores, Python 3.11.7), close to the benchmark's 5 % bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# end-to-end metrics and the direction in which each is better
METRICS = {"call_p50_ms": "lower", "call_p90_ms": "lower", "trials_per_s": "higher",
           "peak_rss_mb": "lower", "setup_s": "lower"}


def seeds(spec: str) -> list[int]:
    """``101-110`` or ``41,43,4243``."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(argv, cwd=tree, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    return {"seed": seed, "host_load": load, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS}}


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name, better in METRICS.items():
        first = [p["runs"][0][name] for p in pairs]
        second = [p["runs"][1][name] for p in pairs]
        ratios = [b / a for a, b in zip(first, second)]
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(first, second))
        out[name] = {"first": quartiles(first), "second": quartiles(second),
                     "ratio_median": statistics.median(ratios), "ratio_range": [min(ratios), max(ratios)],
                     "second_better": f"{wins}/{len(pairs)}"}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, help="a checkout; give two")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="one seed per pair: 101-110 or 41,43")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", default=None, help="also write the pairs and summary here")
    args = parser.parse_args(argv)
    if len(args.tree) != 2:
        parser.error("give --tree twice: the first (parent) and the second (change)")
    pairs = []
    for i, seed in enumerate(seeds(args.seeds)):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs = {side: run(args.tree[side], args.workload, seed, args.seconds) for side in order}
        pairs.append({"pair": i, "first_ran": "first" if order[0] == 0 else "second",
                      "runs": [runs[0], runs[1]]})
        print(json.dumps(pairs[-1]), flush=True)
    doc = {"workload": args.workload, "seconds": args.seconds, "trees": args.tree,
           "pairs": pairs, "summary": summary(pairs)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    print(json.dumps(doc["summary"]))
    return 0 if all(r["correct"] for p in pairs for r in p["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
