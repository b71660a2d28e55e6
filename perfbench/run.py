"""privmax benchmark: cold ``pac``/``fim`` CLI calls and a search-path LMM audit.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the repository root; privmax is imported from ``src`` of the same
checkout, so there is nothing to build. Inputs are generated from ``--seed``
into ``perfbench/out/`` and removed afterwards; a machine-readable run record
stays there as ``<workload>-s<seed>-t<trace>.json``.

Closed loop, one client, one process at a time. ``pac-dense`` and
``fim-sparse`` time fresh-interpreter CLI calls, each with its own mechanism
seed, because that is what a CLI user pays (in one process the
``compute_thresholds`` cache would hide most of the threshold work).
``audit-lmm`` times in-process ``check_approx_dp`` calls. Every call's output
is checked; see workloads.py and README.md.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Every timed call is followed by a reference probe (an empty interpreter
start) and a set-up probe. The host's speed drifts by tens of percent over
tens of seconds, so each call time is divided by the mean of the reference
times on either side of it, each set-up time by the reference just before
it, and both are reported at the speed of a host whose empty interpreter
starts in REFERENCE_S; raw times stay in the run record. ``--trace 1``
alternates untraced and traced calls with the same seeds and reports the
per-layer metrics of the traced calls plus the tracing overhead. The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("pac-dense", "fim-sparse", "audit-lmm")
CALL_TIMEOUT_S = 120.0
REFERENCE_S = 0.060  # empty-interpreter start that normalised timings assume


class Run:
    """Per-run state: scratch directory, call seeds, tallies and failure reasons."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        # children read compiled bytecode as an installed package would; the
        # warm-up of a fresh checkout writes it under out/pycache
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
        for name in ("PYTHONDONTWRITEBYTECODE", "PRIVMAX_SEED"):
            self.env.pop(name, None)
        self.seeds = wl.call_seeds(workload, seed)
        self.attempted = 0
        self.failures: list[str] = []

    def tally(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)

    def until(self, seconds: float):
        """Call seeds for a closed loop that stops at the deadline (at least one)."""
        deadline = time.perf_counter() + seconds
        yield next(self.seeds)
        while time.perf_counter() < deadline:
            yield next(self.seeds)

    def child(self, args: list[str]) -> tuple[int, float, float, str]:
        """Run child.py once: exit code, wall seconds, peak RSS MiB, stderr tail."""
        proc = None
        # os.wait4 reaps the child and returns its own rusage; the timer kills
        # a hung child so that the run still ends
        timer = threading.Timer(CALL_TIMEOUT_S, lambda: proc and proc.kill())
        timer.daemon = True
        timer.start()
        try:
            with open(self.work / "child.err", "w+b") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "child.py"), *args],
                    stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                tail = err.read()[-400:].decode(errors="replace").strip()
        finally:
            timer.cancel()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, tail

    def probe(self, *args: str) -> float:
        """Wall seconds of one fresh child that only starts up (``reference``)
        or does the workload's set-up (``setup``)."""
        code, wall, _, tail = self.child(list(args))
        if code != 0:
            raise RuntimeError(f"{args[0]} probe exited {code}: {tail}")
        return wall


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------ CLI workloads

class CliWorkload:
    """pac-dense / fim-sparse: inputs on disk, one fresh process per call."""

    trials_per_call = 1

    def __init__(self, run: Run):
        self.run = run
        self.out_path = run.work / "outcome.json"
        self.trace_path = run.work / "trace.json"
        self.trace_docs: list[dict] = []
        if run.workload == "pac-dense":
            errors = wl.pac_errors(run.seed)
            spec = run.work / "class.json"
            wl.write_pac_spec(spec, errors)
            self.check = wl.PacChecker(errors)
            self.args = ["pac", "--spec", str(spec)]
            self.k = len(errors)
            self.instance = {"hypotheses": len(errors), "n": wl.PAC_N, "d": wl.PAC_D,
                             "cluster": wl.PAC_CLUSTER}
        else:
            baskets = wl.fim_baskets(run.seed)
            path = run.work / "baskets.txt"
            wl.write_baskets(path, baskets)
            self.check = wl.FimChecker(baskets)
            self.args = ["fim", "--baskets", str(path), "--r", str(wl.FIM_R),
                         "--vocab-size", str(wl.FIM_VOCAB)]
            self.k = math.comb(wl.FIM_VOCAB, wl.FIM_R)
            self.instance = {"baskets": len(baskets), "tokens": wl.FIM_TOKENS,
                             "basket_len": [wl.FIM_MIN_LEN, wl.FIM_MAX_LEN], "r": wl.FIM_R,
                             "vocab_size": wl.FIM_VOCAB, "universe_size": str(self.k),
                             "occurring_itemsets": len(self.check.support)}
        self.args += ["--mechanism", "lmm", "--alpha", str(wl.ALPHA), "--delta", str(wl.DELTA)]

    def warm_up(self) -> None:
        """One untimed call, which also compiles privmax.cli into the cache."""
        self.call(next(self.run.seeds))

    def call(self, seed: int, traced: bool = False) -> tuple[float, float]:
        """One checked CLI call: (wall seconds, peak RSS MiB)."""
        self.out_path.unlink(missing_ok=True)
        self.trace_path.unlink(missing_ok=True)
        mode = ["cli-traced", str(self.trace_path)] if traced else ["cli"]
        code, wall, rss, tail = self.run.child(
            mode + self.args + ["--seed", str(seed), "--out", str(self.out_path)]
        )
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                reason = self.check(code, json.load(fh))
            if traced:
                with open(self.trace_path, encoding="utf-8") as fh:
                    self.trace_docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            reason = f"exit code {code}, no readable output ({exc}): {tail}"
        self.run.tally(reason)
        return wall, rss

    def trace_doc(self) -> dict:
        return layertrace.merge(self.trace_docs)


# ----------------------------------------------------------- audit workload

class AuditWorkload:
    """audit-lmm: in-process check_approx_dp calls on a fixed neighbor pair."""

    trials_per_call = 2 * wl.AUDIT_TRIALS

    def __init__(self, run: Run):
        sys.path.insert(0, str(SRC))
        import privmax.audit

        if Path(privmax.audit.__file__).resolve().parent != SRC / "privmax":
            raise RuntimeError(f"privmax imported from {privmax.audit.__file__}, not {SRC}")
        self.run = run
        self.audit = privmax.audit
        self.pair = wl.audit_pair(run.seed)
        self.mech, self.budget = wl.audit_mechanism()
        self.k = wl.AUDIT_K
        self.tracer = layertrace.Tracer()
        self.tracer.labels = {id(self.pair.left): "left", id(self.pair.right): "right"}
        self.instance = {"k": wl.AUDIT_K, "n": wl.AUDIT_N, "trials_per_side": wl.AUDIT_TRIALS,
                         "confidence": wl.AUDIT_CONFIDENCE, "alpha": wl.ALPHA, "delta": wl.DELTA,
                         "left": list(self.pair.left.values), "right": list(self.pair.right.values)}

    def warm_up(self) -> None:
        self.call(next(self.run.seeds), trials=1_000)

    def call(self, seed: int, traced: bool = False, trials: int = wl.AUDIT_TRIALS) -> tuple[float, float]:
        """One checked audit: (wall seconds, peak RSS MiB of this process so far)."""
        if traced:
            self.tracer.call_id += 1
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            report = self.audit.check_approx_dp(
                self.pair, self.mech, self.budget, trials, confidence=wl.AUDIT_CONFIDENCE, seed=seed
            )
        except Exception as exc:  # a failed call is tallied, not fatal
            wall, reason = time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        else:
            wall, reason = time.perf_counter() - t0, wl.check_audit(report)
        finally:
            self.tracer.uninstall()
        self.run.tally(reason)
        return wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace_doc(self) -> dict:
        return self.tracer.to_dict()


# ------------------------------------------------------------------- record

def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "privmax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------- main

def end_to_end(run: Run, work, seconds: float) -> tuple[dict, dict]:
    setup_args = ("setup", run.workload, str(run.seed))
    run.probe(*setup_args)  # fills the bytecode cache of a fresh checkout
    # call i runs between reference probes i and i+1; set-up probe i follows
    # reference probe i+1
    walls, refs, setup, rss = [], [run.probe("reference")], [], []
    for seed in run.until(seconds):
        wall, peak = work.call(seed)
        walls.append(wall)
        rss.append(peak)
        refs.append(run.probe("reference"))
        setup.append(run.probe(*setup_args))
    calls = [2 * REFERENCE_S * w / (a + b) for w, a, b in zip(walls, refs, refs[1:])]
    metrics = {
        "call_p50_ms": (quantile(calls, 50) * 1e3, "ms"),
        "call_p90_ms": (quantile(calls, 90) * 1e3, "ms"),
        "trials_per_s": (work.trials_per_call * len(calls) / math.fsum(calls), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(REFERENCE_S * w / r for w, r in zip(setup, refs[1:])), "s"),
    }
    record = {"calls": len(walls), "reference_s": REFERENCE_S,
              "raw": {"call_p50_ms": quantile(walls, 50) * 1e3, "call_p90_ms": quantile(walls, 90) * 1e3,
                      "setup_s": statistics.median(setup), "reference_ms": statistics.median(refs) * 1e3},
              "walls_ms": [w * 1e3 for w in walls], "reference_walls_ms": [w * 1e3 for w in refs],
              "setup_walls_ms": [w * 1e3 for w in setup], "peak_rss_mb": rss}
    return metrics, record


def per_layer(run: Run, work, seconds: float) -> tuple[dict, dict]:
    plain, traced = [], []
    for i, seed in enumerate(run.until(seconds)):
        for with_trace in (i % 2 == 1, i % 2 == 0):  # alternate which side goes first
            (traced if with_trace else plain).append(work.call(seed, traced=with_trace)[0])
    doc = work.trace_doc()
    layer = layertrace.per_layer_metrics(doc, len(traced))
    layer["mechanisms.ell_ranks_covered"] = min(
        len(wl.material_ranks(h, work.k)) for h in doc["ell_hist"].values()
    )
    layer["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    if run.workload == "audit-lmm":
        run.tally(wl.coverage_failure(doc["ell_hist"], work.k))
    metrics = {name: (value, layertrace.unit(name)) for name, value in layer.items()}
    record = {"calls": len(traced), "untraced_walls_ms": [w * 1e3 for w in plain],
              "traced_walls_ms": [w * 1e3 for w in traced], "ell_hist": doc["ell_hist"],
              "functions": doc["stats"], "counts": doc["counts"], "spans": doc["spans"]}
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "privmax" / "__init__.py").is_file():
        print(f"error: no privmax sources at {SRC}; run from a privmax checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        work = AuditWorkload(run) if args.workload == "audit-lmm" else CliWorkload(run)
        work.warm_up()
        measure = per_layer if args.trace else end_to_end
        metrics, record = measure(run, work, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  machine=machine(), instance=work.instance, attempted=run.attempted,
                  failed=len(run.failures), failures=run.failures[:20],
                  error_ratio=len(run.failures) / run.attempted,
                  metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()})
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in record.get("raw", {}).items():
        print(f"raw {name} = {value:.6g}")
    print(f"error_ratio = {record['error_ratio']:.6g} ({len(run.failures)}/{run.attempted}); record {path}")
    for reason in run.failures[:5]:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
