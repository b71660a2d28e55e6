"""Per-layer timing for traced benchmark runs, installed from outside privmax.

Wrappers replace public functions at the attribute where their caller looks
them up (a module global or a class attribute), so privmax itself carries no
tracing code and an untraced run pays nothing. Each wrapper adds its call's
duration to its name's total and subtracts it from the enclosing wrapper's
self time. Functions called once per user call also record a span; those
called per rank, per draw or per trial are only aggregated. Private helpers
such as ``_pick_exponential`` stay unwrapped, so their cost is self time of
the public caller.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "applications", "core", "noise", "mechanisms", "audit")

# (module, class or None, attribute, traced name, one span per call)
TARGETS = (
    ("privmax.cli", None, "main", "cli.main", True),
    ("privmax.cli", None, "load_baskets", "applications.load_baskets", True),
    ("privmax.cli", None, "itemset_quality", "applications.itemset_quality", True),
    ("privmax.cli", None, "shell_decomposition", "applications.shell_decomposition", True),
    ("privmax.cli", None, "t_star", "applications.t_star", True),
    ("privmax.cli", None, "pac_selection_constant", "applications.pac_selection_constant", True),
    ("privmax.applications", "ItemsetCodec", "decode", "applications.decode", True),
    ("privmax.cli", None, "em_expected_gap", "audit.em_expected_gap", True),
    ("privmax.core", "QualityUniverse", "dense", "core.universe_build", True),
    ("privmax.core", "QualityUniverse", "sparse", "core.universe_build", True),
    ("privmax.mechanisms", None, "compute_thresholds", "core.compute_thresholds", False),
    ("privmax.mechanisms", None, "order_stat", "core.order_stat", False),
    ("privmax.mechanisms", None, "top_set", "core.top_set", False),
    ("privmax.noise", "NoiseSource", "spawn", "noise.spawn", False),
    ("privmax.noise", "NoiseSource", "laplace", "noise.laplace", False),
    ("privmax.noise", "NoiseSource", "uniform", "noise.uniform", False),
    ("privmax.mechanisms", None, "large_margin_mechanism", "mechanisms.large_margin_mechanism", False),
    ("privmax.mechanisms", None, "margin_search", "mechanisms.margin_search", False),
    ("privmax.audit", None, "check_approx_dp", "audit.check_approx_dp", True),
    ("privmax.audit", None, "estimate_distribution", "audit.estimate_distribution", True),
    ("privmax.audit", None, "dp_outcome_checks", "audit.dp_outcome_checks", True),
)


class Tracer:
    """Aggregated call statistics, counters and spans for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.ell_hist: dict[str, Counter] = defaultdict(Counter)  # universe label -> ell counts
        self.labels: dict[int, str] = {}  # id(universe) -> label for ell_hist
        self.spans: list = []  # (name, call id, start s, end s, parent name)
        self.call_id = 0
        self._stack: list = []
        self._restore: list = []
        self._after = {
            "mechanisms.large_margin_mechanism": self._after_lmm,
            "mechanisms.margin_search": self._after_search,
            "applications.itemset_quality": self._after_itemsets,
        }

    # -- counters taken from results, where the work happened

    def _after_lmm(self, outcome, args, error):
        if error is not None:
            return
        u = args[0]
        self.counts["lmm_runs"] += 1
        self.counts["ell_lt_k"] += outcome.ell is not None and outcome.ell < u.k
        self.ell_hist[self.labels.get(id(u), "universe")][outcome.ell] += 1

    def _after_search(self, ell, args, error):
        u = args[0]
        if error is not None:  # CapExhausted after scanning ranks 1..cap-1
            self.counts["ranks_scanned"] += getattr(error, "cap", 1) - 1
        else:  # success at rank ell, or the full scan of ranks 1..k-1
            self.counts["ranks_scanned"] += min(ell, u.k - 1)

    def _after_itemsets(self, result, args, error):
        if error is None:
            self.counts["itemsets_materialized"] += result.universe.explicit_count

    # -- wrapping

    def _wrap(self, name, fn, span):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        after = self._after.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error, result = exc, None
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span:
                    spans.append((name, self.call_id, t0, t0 + dt, stack[-1][0] if stack else None))
                if after is not None:
                    after(result, args, error)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, cls, attr, name, span in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, span))
                else:
                    wrapped = self._wrap(name, original, span)
            else:
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, span)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results

    def to_dict(self) -> dict:
        return {
            "stats": self.stats,
            "counts": dict(self.counts),
            "ell_hist": {label: {str(k): c for k, c in h.items()} for label, h in self.ell_hist.items()},
            "spans": self.spans,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def merge(docs: list[dict]) -> dict:
    """Sum the to_dict() documents of several traced calls."""
    stats: dict[str, list] = {}
    counts: Counter = Counter()
    hist: dict[str, Counter] = defaultdict(Counter)
    spans = []
    for call, doc in enumerate(docs):
        for name, (calls, total, self_s) in doc["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, value in doc["counts"].items():
            counts[key] += value
        for label, h in doc["ell_hist"].items():
            hist[label].update(h)
        spans += [[name, call, *rest] for name, _, *rest in doc["spans"]]
    return {"stats": stats, "counts": dict(counts), "ell_hist": {k: dict(v) for k, v in hist.items()},
            "spans": spans}


def per_layer_metrics(doc: dict, calls: int) -> dict:
    """Per-layer figures per user call from a (merged) trace document.

    ``*_ms`` and ``*_us`` named after a function are that function's self
    time; ``<layer>.self_ms`` sums the self time of every wrapped function of
    the layer. Rates (per rank, per trial) use inclusive time. Metrics of a
    layer the workload does not reach read 0.
    """
    stats, counts = doc["stats"], doc["counts"]

    def stat(name, field):  # field 0: calls, 1: total s, 2: self s
        return stats.get(name, (0, 0.0, 0.0))[field]

    def ms(name):
        return stat(name, 2) * 1e3 / calls

    def ratio(a, b):
        return a / b if b else 0.0

    thresholds = stat("core.compute_thresholds", 0)
    ranks = counts.get("ranks_scanned", 0)
    runs = counts.get("lmm_runs", 0)
    metrics = {
        "cli.self_ms": ms("cli.main"),
        "applications.load_baskets_ms": ms("applications.load_baskets"),
        "applications.itemset_quality_ms": ms("applications.itemset_quality"),
        "applications.itemsets_materialized": counts.get("itemsets_materialized", 0) / calls,
        "applications.shell_decomposition_ms": ms("applications.shell_decomposition"),
        "applications.decode_us": stat("applications.decode", 2) * 1e6 / calls,
        "audit.em_expected_gap_ms": ms("audit.em_expected_gap"),
        "core.universe_build_ms": ms("core.universe_build"),
        "core.thresholds_ms": ms("core.compute_thresholds"),
        "core.thresholds_computed": thresholds / calls,
        "core.thresholds_used_ratio": ratio(ranks, thresholds),
        "noise.spawn_ms": ms("noise.spawn"),
        "noise.sources_spawned": stat("noise.spawn", 0) / calls,
        "noise.uniform_draws": stat("noise.uniform", 0) / calls,
        "mechanisms.lmm_self_ms": ms("mechanisms.large_margin_mechanism"),
        "mechanisms.margin_search_ms": ms("mechanisms.margin_search"),
        "mechanisms.ranks_scanned": ranks / calls,
        "mechanisms.search_us_per_rank": ratio(stat("mechanisms.margin_search", 1) * 1e6, ranks),
        "mechanisms.ell_lt_k_share": ratio(counts.get("ell_lt_k", 0), runs),
        "audit.estimate_self_ms": ms("audit.estimate_distribution"),
        "audit.checks_ms": ms("audit.dp_outcome_checks"),
        "audit.per_trial_us": ratio(stat("audit.check_approx_dp", 1) * 1e6, runs),
    }
    for layer in LAYERS[1:]:
        own = [s[2] for n, s in stats.items() if n.startswith(layer + ".")]
        metrics[f"{layer}.self_ms"] = sum(own) * 1e3 / calls
    return metrics


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, u in (("_ms", "ms"), ("_us", "us"), ("_us_per_rank", "us"), ("_ratio", "ratio"),
                      ("_share", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"
