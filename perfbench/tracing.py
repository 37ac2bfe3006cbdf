"""Per-layer spans and counters, recorded from outside rootsum.

The tracer replaces, in every loaded rootsum module, each name that a
module calls in the next layer down with a wrapper that records a span:
calls and self time (the span minus the wrapped spans it encloses).
Counters are taken at the same boundaries.  Spans live in memory and are
read out once, after the run.

rootsum is expected to rename or delete internal names such as
`_falling_row`, `_sum_mod` and `_lemma_checks`.  A name that no longer
exists is not wrapped, and every metric derived from it is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (span name, module, attribute)
SPANS = [
    ("cli.main", "rootsum.cli", "main"),
    ("harness.scan", "rootsum.harness", "scan"),
    ("harness.hunt_weakened", "rootsum.harness", "hunt_weakened"),
    ("harness.lemma_checks", "rootsum.harness", "_lemma_checks"),
    ("criterion.roots_of_unity", "rootsum.criterion", "roots_of_unity"),
    ("criterion.predict_vanishing", "rootsum.criterion", "predict_vanishing"),
    ("criterion.explain", "rootsum.criterion", "explain"),
    ("derivsum.sum_direct", "rootsum.derivsum", "sum_direct"),
    ("derivsum.sum_mod", "rootsum.derivsum", "_sum_mod"),
    ("derivsum.falling_row", "rootsum.derivsum", "_falling_row"),
    ("derivsum.closed_form_congruence", "rootsum.derivsum", "closed_form_congruence"),
    ("derivsum.leibnitz_identity_check", "rootsum.derivsum", "leibnitz_identity_check"),
    ("falling.falling_sum", "rootsum.falling", "falling_sum"),
    ("falling.valuation_bounds", "rootsum.falling", "valuation_bounds"),
    ("falling.falling_mod", "rootsum.falling", "falling_mod"),
    ("numtheory.mod_pow", "rootsum.numtheory", "mod_pow"),
    ("numtheory.factorize", "rootsum.numtheory", "factorize"),
    ("numtheory.is_prime", "rootsum.numtheory", "is_prime"),
]

# Reported metric -> unit.  `<span>.calls` and `<span>.self_s` come from the
# spans; the rest are the counters and ratios computed in `Tracer.metrics`.
# Each group notes the end-to-end metric it should move, and where.
METRICS = {
    # argparse, formatting, JSON: cases_per_s on hunt, query_p50_ms on query
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    # loops and records: cases_per_s on hunt and lemmas
    "harness.scan.self_s": "s",
    "harness.hunt_weakened.self_s": "s",
    "harness.lemma_checks.self_s": "s",
    "harness.records": "count",
    # root enumeration: cases_per_s on hunt, query_p95_ms on query;
    # predict_vanishing: at most ~5% of scan
    "criterion.roots_of_unity.calls": "count",
    "criterion.roots_of_unity.self_s": "s",
    "criterion.roots.candidates": "count",
    "criterion.roots.found": "count",
    "criterion.roots.yield": "ratio",
    "criterion.predict_vanishing.calls": "count",
    "criterion.predict_vanishing.self_s": "s",
    "criterion.explain.self_s": "s",
    # summation and rows: cases_per_s on scan and lemmas, the latencies
    # and peak_rss_mb on query
    "derivsum.sum_direct.calls": "count",
    "derivsum.sum_direct.self_s": "s",
    "derivsum.sum_mod.calls": "count",
    "derivsum.sum_mod.self_s": "s",
    "derivsum.sum_terms": "count",
    "derivsum.falling_row.hits": "count",
    "derivsum.falling_row.misses": "count",
    "derivsum.falling_row.hit_ratio": "ratio",
    "derivsum.falling_row.self_s": "s",
    "derivsum.closed_form_congruence.self_s": "s",
    "derivsum.leibnitz_identity_check.self_s": "s",
    # lemma arithmetic: cases_per_s on lemmas
    "falling.falling_sum.self_s": "s",
    "falling.valuation_bounds.self_s": "s",
    "falling.falling_mod.self_s": "s",
    # hunt and query through root enumeration, lemmas through factorize
    "numtheory.mod_pow.calls": "count",
    "numtheory.mod_pow.self_s": "s",
    "numtheory.factorize.calls": "count",
    "numtheory.factorize.self_s": "s",
    "numtheory.is_prime.calls": "count",
}


def _roots_found(tracer, parent, args, result):
    tracer.count("criterion.roots.found", len(result))


def _mod_pow_candidate(tracer, parent, args, result):
    # a residue tried by root enumeration is a mod_pow call made inside it
    if parent == "criterion.roots_of_unity":
        tracer.count("criterion.roots.candidates", 1)


def _sum_terms(tracer, parent, args, result):
    n, k = args[0], args[1]
    tracer.count("derivsum.sum_terms", max(n - k, 0))


def _scan_records(tracer, parent, args, result):
    tracer.count("harness.records", len(result.mismatches))


def _hunt_records(tracer, parent, args, result):
    tracer.count("harness.records", len(result))


# counter -> the spans whose hooks produce it; it is absent unless all exist
COUNTERS = {
    "criterion.roots.found": ("criterion.roots_of_unity",),
    "criterion.roots.candidates": ("criterion.roots_of_unity", "numtheory.mod_pow"),
    "derivsum.sum_terms": ("derivsum.sum_mod",),
    "harness.records": ("harness.scan", "harness.hunt_weakened"),
}

HOOKS = {
    "criterion.roots_of_unity": _roots_found,
    "numtheory.mod_pow": _mod_pow_candidate,
    "derivsum.sum_mod": _sum_terms,
    "harness.scan": _scan_records,
    "harness.hunt_weakened": _hunt_records,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, int] = {}
        self.broken_hooks: set[str] = set()  # spans whose arguments no longer fit their hook
        self._stack: list[list] = []  # [name, time spent in wrapped children]
        self._row_cache = None
        self._row_cache_start = None

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, name, fn, hook):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self, parent, args, result)
                except (TypeError, IndexError, AttributeError):
                    self.broken_hooks.add(name)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every SPANS name wherever a rootsum module binds it."""
        for name, module_name, attr in SPANS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                continue
            if name == "derivsum.falling_row" and hasattr(original, "cache_info"):
                self._row_cache, self._row_cache_start = original, original.cache_info()
            wrapper = self._wrap(name, original, HOOKS.get(name))
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "rootsum" and not mod_name.startswith("rootsum."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """(metric -> value, names of absent metrics), over METRICS."""
        values: dict[str, float] = {}
        for name, (calls, self_s) in self.spans.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        for counter, sources in COUNTERS.items():
            if all(s in self.spans and s not in self.broken_hooks for s in sources):
                values[counter] = self.counters.get(counter, 0)
        if values.get("criterion.roots.candidates"):
            values["criterion.roots.yield"] = (
                values["criterion.roots.found"] / values["criterion.roots.candidates"]
            )
        if self._row_cache is not None:
            info = self._row_cache.cache_info()
            hits = info.hits - self._row_cache_start.hits
            misses = info.misses - self._row_cache_start.misses
            values["derivsum.falling_row.hits"] = hits
            values["derivsum.falling_row.misses"] = misses
            if hits + misses:
                values["derivsum.falling_row.hit_ratio"] = hits / (hits + misses)
        reported = {name: values[name] for name in METRICS if name in values}
        return reported, [name for name in METRICS if name not in values]

    def module_shares(self) -> dict[str, float]:
        """Each rootsum module's share of the summed self time."""
        by_module: dict[str, float] = {}
        for name, (_calls, self_s) in self.spans.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + self_s
        total = sum(by_module.values()) or 1.0
        return {module: round(t / total, 4) for module, t in by_module.items()}
