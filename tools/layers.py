"""Time the layers of one privmax task, each sample in a fresh process.

    python3 tools/layers.py LAYER [--runs 10] [--seed 1] [--src DIR ...]
                                  [--shards 10] [--k 1000000] [--cluster 7500]

LAYER names what each child process times:

- ``audit``: the CPU (``time.process_time``) of one bound trial of the
  ``audit-lmm`` benchmark's LMM on its pair (``perfbench/workloads.py``),
  over PASSES ``audit._count_tasks`` passes of ``--shards`` 1,024-trial shards
  per side, after one untimed pass grows every table. Each pass times both
  shard loops of an audit, in turns: the sampled one, which counts the item
  of each whole run (``us_per_trial``), and the conditional one, which
  counts the ell of each run's margin search alone (``conditional_us_per_trial``).
  Each figure is the median pass; ``loop_us_per_trial`` and
  ``conditional_loop_us_per_trial`` are the medians of each pass divided by a
  fixed loop timed around it, at a host speed where the loop takes LOOP_S,
  and ``conditional_ratio`` the median of each pass's conditional time over
  its sampled time, two loops timed in one process at one host state. Its
  release is both loops' shard counts. The tree's LMM plan must have
  ``searches``.
- ``dense``: a class of ``--k`` shuffled pac-shaped errors, a cluster of
  ``--cluster`` a wide margin below the rest, written as a ``pac`` class
  spec. One child times a cold LMM call on its qualities: the dense build
  (``build_ms``), the call (``lmm_ms``), its ``growths`` head growths
  (``head_ms`` in all, the head's length read from the tree's
  ``QualityUniverse._head``) and ``shell_decomposition`` (``shells_ms``); a
  second times one whole ``privmax pac --spec`` call on the spec
  (``pac_ms``): the parse and the selection. It passes no
  ``--non-private``, so, as in the benchmark, the call runs no shells.
- ``fim``: one cold ``privmax fim --r 2 --vocab-size 1000000`` on the
  ``fim-sparse`` benchmark's baskets for ``--seed``. One child times what the
  CLI runs: ``load_baskets`` (``load_ms``), ``_count_itemsets``
  (``count_ms``), the rest of ``itemset_quality`` (``order_ms``), the LMM
  (``lmm_ms``), the first ``decode`` (``decode_ms``) and all of them
  (``total_ms``); then the first decode of a fill id, L + 1, which ranks
  the occurring itemsets (``fill_decode_ms``). Its release is the LMM's
  item and itemset, and the fill id's itemset.
- ``import``: the cold import of the package. One child starts fresh
  interpreters, as ``perfbench/run.py`` starts its children (the tree's
  ``src`` on PYTHONPATH, a bytecode cache under a PYTHONPYCACHEPREFIX, which
  an untimed ``import privmax.cli`` fills first). It times, by the median of
  IMPORT_REPEATS interpreters each, ``import privmax`` (``import_ms``),
  ``from privmax import build_mechanism`` (``names_ms``) and ``import
  privmax.cli`` (``cli_ms``), and counts the ``privmax.*`` submodules each
  leaves loaded (``import_modules``, ``names_modules``, ``cli_modules``).
  Its release is the public names of the package.

Each ``--src`` is a ``src`` directory holding a ``privmax`` package (default:
this checkout's); one given twice shows the spread between identical trees.
Every child is seeded with ``--seed``, and each run flips the trees' order.
As in ``perfbench/run.py``, an empty interpreter start is timed before the
first child and after each, and every time figure X is also reported as
``norm_X``: over the mean of the probes around its child, times REFERENCE_S.
Prints a JSON line per run and tree; per tree, the median and quartiles of
every figure; with two trees, those of each figure's per-run ratio
second/first and in how many runs the second read lower; and last, whether
every child of every run released the same on every tree.
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
PERFBENCH = os.path.join(ROOT, "perfbench")
REFERENCE_S = 0.060  # empty-interpreter start that normalised figures assume, as in perfbench
LOOP_S = 0.030  # CPU seconds of reference_loop that loop-normalised figures assume
PASSES = 5  # timed _count_tasks passes per audit child, reported by their median
DENSE_N = 20_000
DENSE_D = 10
CLUSTER_WIDTH = 60  # error counts
GAP = 500  # error counts between the dense cluster and the rest
IMPORT_REPEATS = 5  # timed interpreters per import statement, reported by their median
# what each import child times, by the name of its figure
IMPORTS = {"import": "import privmax", "names": "from privmax import build_mechanism",
           "cli": "import privmax.cli"}


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop in this process."""
    t0 = time.process_time()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return time.process_time() - t0


def timed(fn, spent: list):
    """``fn``, appending the milliseconds of each call to ``spent``."""
    def wrapper(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        spent.append((time.perf_counter() - t0) * 1e3)
        return out
    return wrapper


def audit_child(seed: int, shards: int) -> dict:
    import workloads
    from privmax import audit
    from privmax.noise import NoiseSource

    pair = workloads.audit_pair(seed)
    mech, _ = workloads.audit_mechanism()
    right_seed = (seed + audit._RIGHT_SEED_OFFSET) % (1 << 64)
    trials = shards * audit._SHARD_TRIALS
    sides = [(audit._bind(mech, pair.left), NoiseSource(seed)),
             (audit._bind(mech, pair.right), NoiseSource(right_seed))]
    # the jobs an audit binds, each loop's: (run, trials, base stream, conditional)
    loops = {estimator: [(run, trials, base, estimator == "conditional") for run, base in sides]
             for estimator in ("sampled", "conditional")}
    tasks = [(side, shard) for side in range(2) for shard in range(shards)]
    counts = {estimator: audit._count_tasks(bound, tasks) for estimator, bound in loops.items()}  # grow every table first
    per_trial = {estimator: [] for estimator in loops}
    refs = [reference_loop()]
    for i in range(PASSES):
        for estimator in sorted(loops, reverse=i % 2):  # neither loop always goes first
            t0 = time.process_time()
            audit._count_tasks(loops[estimator], tasks)
            per_trial[estimator].append((time.process_time() - t0) * 1e6 / (2 * trials))
        refs.append(reference_loop())
    figures = {}
    for estimator, prefix in (("sampled", ""), ("conditional", "conditional_")):
        figures[prefix + "loop_us_per_trial"] = statistics.median(
            cpu * 2 * LOOP_S / (before + after) for cpu, before, after in zip(per_trial[estimator], refs, refs[1:]))
    figures["conditional_ratio"] = statistics.median(
        c / s for c, s in zip(per_trial["conditional"], per_trial["sampled"]))
    return {
        "loop_ms": round(statistics.median(refs) * 1e3, 2),
        "release": {estimator: [sorted(shard_counts.items(), key=str) for shard_counts in shard_list]
                    for estimator, shard_list in counts.items()},
        "times": {"us_per_trial": statistics.median(per_trial["sampled"]),
                  "conditional_us_per_trial": statistics.median(per_trial["conditional"])},
        "figures": figures,
    }


def dense_errors(seed: int, k: int, cluster: int) -> list[float]:
    """``k`` shuffled pac-shaped errors on the 1/DENSE_N lattice: a cluster of
    ``cluster`` near the best one, the rest a wide margin above it."""
    import random

    rng = random.Random(f"dense-layers/{seed}")
    best = rng.randint(DENSE_N // 20, DENSE_N // 8)
    counts = [best] + [best + rng.randint(0, CLUSTER_WIDTH) for _ in range(cluster - 1)]
    lo = best + CLUSTER_WIDTH + GAP
    counts += [rng.randint(lo, lo + DENSE_N // 3) for _ in range(k - cluster)]
    rng.shuffle(counts)
    return [c / DENSE_N for c in counts]


def dense_child(seed: int, spec: str) -> dict:
    from privmax.applications import shell_decomposition
    from privmax.core import PrivacyBudget, QualityUniverse
    from privmax.mechanisms import large_margin_mechanism
    from privmax.noise import NoiseSource

    with open(spec, encoding="utf-8") as fh:
        errors = json.load(fh)["error_profile"]
    qualities = [1.0 - e for e in errors]

    growths = []
    QualityUniverse._descending = timed(QualityUniverse._descending, growths)
    t0 = time.perf_counter()
    u = QualityUniverse.dense(qualities, n=DENSE_N)
    t1 = time.perf_counter()
    out = large_margin_mechanism(u, PrivacyBudget(1.0, 0.05), NoiseSource(seed))
    t2 = time.perf_counter()
    shells = shell_decomposition(errors, d=DENSE_D, n=DENSE_N, delta0=0.05)
    t3 = time.perf_counter()
    return {
        "head": len(u._head[0]),
        "shell_sizes": list(shells.shell_sizes),
        "growth_ms": [round(ms, 2) for ms in growths],
        "release": [out.item, out.ell],
        "times": {"build_ms": (t1 - t0) * 1e3, "lmm_ms": (t2 - t1) * 1e3,
                  "head_ms": sum(growths), "shells_ms": (t3 - t2) * 1e3},
        "figures": {"growths": len(growths)},
    }


def pac_child(seed: int, spec: str) -> dict:
    import contextlib
    import io

    import privmax.cli

    text = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(text):
        code = privmax.cli.main(["pac", "--spec", spec, "--seed", str(seed)])
    t1 = time.perf_counter()
    if code not in (0, 4):
        raise SystemExit(f"privmax pac exited {code}")
    out = json.loads(text.getvalue())
    return {"release": [out["item"], out["ell"]], "times": {"pac_ms": (t1 - t0) * 1e3}}


def fim_child(seed: int, baskets: str) -> dict:
    import workloads
    from privmax import applications
    from privmax.core import PrivacyBudget
    from privmax.mechanisms import large_margin_mechanism
    from privmax.noise import NoiseSource

    counted = []
    applications._count_itemsets = timed(applications._count_itemsets, counted)
    t0 = time.perf_counter()
    d = applications.load_baskets(baskets)
    t1 = time.perf_counter()
    universe, codec = applications.itemset_quality(d, workloads.FIM_R, vocab_size=workloads.FIM_VOCAB)
    t2 = time.perf_counter()
    out = large_margin_mechanism(universe, PrivacyBudget(workloads.ALPHA, workloads.DELTA), NoiseSource(seed))
    t3 = time.perf_counter()
    itemset = codec.decode(out.item)
    t4 = time.perf_counter()
    fill = codec.decode(universe.explicit_count + 1)
    t5 = time.perf_counter()
    return {
        "occurring": universe.explicit_count,
        "release": [out.item, list(itemset), list(fill)],
        "times": {"load_ms": (t1 - t0) * 1e3, "count_ms": sum(counted),
                  "order_ms": (t2 - t1) * 1e3 - sum(counted), "lmm_ms": (t3 - t2) * 1e3,
                  "decode_ms": (t4 - t3) * 1e3, "total_ms": (t4 - t0) * 1e3,
                  "fill_decode_ms": (t5 - t4) * 1e3},
    }


def import_child(pycache: str) -> dict:
    env = dict(os.environ, PYTHONPATH=sys.path[0], PYTHONPYCACHEPREFIX=pycache)  # main put src first
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def interpreter(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        return time.perf_counter() - t0, out

    # untimed: fills the bytecode cache, and lists the public names as the release
    _, names = interpreter(
        "import sys, privmax.cli\n"
        "p = sys.modules['privmax']\n"
        "print(*sorted(n for n in dir(p) if n[0] != '_' and not isinstance(getattr(p, n), type(sys))))"
    )
    times, figures = {}, {}
    for name, statement in IMPORTS.items():
        runs = [interpreter(statement + "\nimport sys\nprint(sum(m.startswith('privmax.') for m in sys.modules))")
                for _ in range(IMPORT_REPEATS)]
        times[name + "_ms"] = statistics.median(wall for wall, _ in runs) * 1e3
        figures[name + "_modules"] = int(runs[0][1])
    return {"release": names.split(), "times": times, "figures": figures}


# each child returns its "release", its "times" (also reported probe-normalised),
# any other "figures", and whatever else it reports, printed as it is
LAYERS = {"audit": (audit_child,), "dense": (dense_child, pac_child), "fim": (fim_child,),
          "import": (import_child,)}


def layer_params(args, tmp: str) -> dict:
    """The keyword arguments of every child of the layer."""
    if args.layer == "audit":
        return {"seed": args.seed, "shards": args.shards}
    if args.layer == "import":
        return {"pycache": os.path.join(tmp, "pycache")}
    if args.layer == "dense":
        path = os.path.join(tmp, "class.json")
        spec = {"num_hypotheses": args.k, "n": DENSE_N, "d": DENSE_D,
                "error_profile": dense_errors(args.seed, args.k, args.cluster)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return {"seed": args.seed, "spec": path}
    sys.path.insert(0, PERFBENCH)
    import workloads

    path = os.path.join(tmp, "baskets.txt")
    workloads.write_baskets(path, workloads.fim_baskets(args.seed))
    return {"seed": args.seed, "baskets": path}


def reference_probe() -> float:
    """Wall seconds of one empty interpreter start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), "reference"], check=True)
    return time.perf_counter() - t0


def drive(args, srcs: list[str], params: dict) -> list[list[dict]]:
    """Per tree, by position (a tree may be given twice), a row per run."""
    trees = list(enumerate(srcs))
    rows = [[] for _ in srcs]
    before = reference_probe()
    for run in range(args.runs):
        order = trees[::-1] if run % 2 else trees  # neither tree always goes first
        for tree, src in order:
            row = {"src": src, "figures": {}, "releases": []}
            for child in range(len(LAYERS[args.layer])):
                spec = json.dumps({"child": child, "src": src, **params})
                cmd = [sys.executable, os.path.abspath(__file__), args.layer, "--child", spec]
                out = json.loads(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout)
                after = reference_probe()
                scale = 2 * REFERENCE_S / (before + after)
                before = after
                row["releases"].append(out.pop("release"))
                for key, value in out.pop("times").items():
                    row["figures"][key] = round(value, 4)
                    row["figures"]["norm_" + key] = round(value * scale, 4)
                for key, value in out.pop("figures", {}).items():
                    row["figures"][key] = round(value, 4)
                row.update(out)
            print(json.dumps(row), flush=True)
            rows[tree].append(row)
    return rows


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarise(srcs: list[str], rows: list[list[dict]]) -> None:
    names = list(rows[0][0]["figures"])
    for src, tree_rows in zip(srcs, rows):
        summary = {"src": src, "runs": len(tree_rows)}
        for name in names:
            summary[name] = quartiles([row["figures"][name] for row in tree_rows])
        print(json.dumps(summary))
    if len(srcs) == 2:
        # each run times both trees back to back: the second tree's figure over the first's
        ratio = {}
        for name in names:
            ratios = [b["figures"][name] / a["figures"][name]
                      for a, b in zip(*rows) if a["figures"][name]]
            if ratios:
                ratio[name] = quartiles(ratios)
                ratio[name]["second_faster"] = f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}"
        print(json.dumps({"ratio": ratio}))
    released = set()
    for tree_rows in rows:
        for row in tree_rows:
            released.update(map(json.dumps, row["releases"]))
    print(json.dumps({"releases_identical": len(released) == 1}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--runs", type=int, default=10, help="fresh processes per tree and child")
    parser.add_argument("--seed", type=int, default=1, help="workload and mechanism seed")
    parser.add_argument("--src", action="append", help="src directory of a tree (repeatable)")
    parser.add_argument("--shards", type=int, default=10, help="audit: 1,024-trial shards per side")
    parser.add_argument("--k", type=int, default=1_000_000, help="dense: qualities")
    parser.add_argument("--cluster", type=int, default=7_500, help="dense: near-best qualities")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.child:
        spec = json.loads(args.child)
        sys.path[:0] = [spec.pop("src"), PERFBENCH]
        child = LAYERS[args.layer][spec.pop("child")]
        print(json.dumps(child(**spec)))
        return 0
    srcs = [os.path.abspath(s) for s in (args.src or [os.path.join(ROOT, "src")])]
    with tempfile.TemporaryDirectory() as tmp:
        rows = drive(args, srcs, layer_params(args, tmp))
    summarise(srcs, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
