"""Layer tracing for the benchmark: wrappers around casimirspec's public functions.

The wrappers sit outside the library.  ``Tracer.install`` replaces every
binding of each target function in every loaded ``casimirspec`` module
(``products.eigenvalue`` and ``spectrum.eigenvalue`` are separate
bindings of one function), so no call goes uncounted.  Functions marked
"span" record one span per call (name, start, end, parent, op id);
functions marked "count" are hot leaves and only add to a call count and
busy time.  Both kinds charge their duration to the enclosing frame, so a
span's self time is its duration minus the time of its direct children.

``layer_metrics`` turns the per-pass sums the children report into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from collections import Counter
from functools import wraps

clock = time.perf_counter

# (module, function, kind); "cli.run" is the root span of every op.  The
# spans that no metric reads (factor_spectrum, rank2_catalog, ...) are
# there so that cli.self_s keeps only argument parsing and JSON output.
TARGETS = (
    ("cli", "run", "span"),
    ("symmdata", "restricted_datum", "count"),
    ("symmdata", "table_rows", "span"),
    ("rootsys", "cartan_data", "count"),
    ("spectrum", "enumerate_collisions", "span"),
    ("spectrum", "eigenvalue", "count"),
    ("spectrum", "rank2_catalog", "span"),
    ("spectrum", "verify_rank2_pair", "count"),
    ("spectrum", "reflection_witness", "span"),
    ("products", "factor_spectrum", "span"),
    ("products", "check_beta", "count"),
    ("products", "collision_hyperplanes", "span"),
    ("products", "generic_beta_certificate", "span"),
    ("bundles", "hopf_swap_theorem_scan", "span"),
    ("bundles", "hopf_representation_family", "span"),
    ("su2f", "fixed_space", "count"),
    ("su2f", "averaging_projector", "count"),
    ("su2f", "simplicity_certificate", "span"),
    ("su2f", "su2f_representation_family", "span"),
    ("simplicity", "condition_a", "span"),
    ("simplicity", "condition_b", "span"),
    ("simplicity", "condition_c", "span"),
    ("simplicity", "evaluate_at_metric", "span"),
    ("exactalg", "char_poly", "count"),
    ("exactalg", "resultant", "count"),
    ("exactalg", "resultant_from_roots", "count"),
    ("exactalg", "determinant", "count"),
)

# a tracemalloc peak is taken around these calls only
ALLOC_PEAK = {"bundles.hopf_swap_theorem_scan"}


def _box_bound(factors, bound):
    return min(f.bound for f in factors) if bound is None else bound


def _observe_collisions(a, result, counters, keys):
    counters["spectrum.weights_scanned"] += (a["bound"] + 1) ** a["datum"].rank
    counters["spectrum.pairs_emitted"] += len(result)


def _observe_check_beta(a, result, counters, keys):
    counters["products.witnesses"] += len(result)


def _observe_hyperplanes(a, result, counters, keys):
    arrays = (_box_bound(a["factors"], a["bound"]) + 1) ** len(a["factors"])
    counters["products.array_pairs"] += arrays * (arrays - 1) // 2
    counters["products.hyperplanes"] += len(result)


def _observe_certificate(a, result, counters, keys):
    counters["products.candidates_tried"] += result.candidates_tried
    counters["products.certificates"] += 1


def _observe_hopf(a, result, counters, keys):
    counters["bundles.weights_scanned"] += result.weights_scanned
    counters["bundles.collision_pairs"] += result.collision_pairs
    counters["bundles.agreement_pairs_checked"] += result.agreement_pairs_checked


def _observe_condition_a(a, result, counters, keys):
    family = a["family"]
    pairs = 0
    for i, v in enumerate(family):
        for w in family[i + 1:]:
            if v.id != w.id and v.dual_id != w.id and w.dual_id != v.id:
                pairs += 1
    counters["simplicity.pairs_checked"] += pairs


def _observe_char_poly(a, result, counters, keys):
    matrix = a["matrix"]
    keys.add((matrix.variables, matrix.entries))


OBSERVERS = {
    "spectrum.enumerate_collisions": _observe_collisions,
    "products.check_beta": _observe_check_beta,
    "products.collision_hyperplanes": _observe_hyperplanes,
    "products.generic_beta_certificate": _observe_certificate,
    "bundles.hopf_swap_theorem_scan": _observe_hopf,
    "simplicity.condition_a": _observe_condition_a,
    "exactalg.char_poly": _observe_char_poly,
}


class Tracer:
    """Spans, call counts and counters of one op, kept in memory."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans = []
        self.funcs = {}  # name -> [calls, busy_s, self_s]
        self.counters = Counter()
        self.bindings = {}
        self._char_keys = set()
        self._stack = []  # frames: [child_time, id of the nearest enclosing span]

    def install(self) -> None:
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "casimirspec" or name.startswith("casimirspec.")
        ]
        for module_name, func_name, kind in TARGETS:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules[f"casimirspec.{module_name}"], func_name)
            wrapper = self._wrap(name, original, kind == "span")
            count = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        count += 1
            self.bindings[name] = count

    def _wrap(self, name, func, record_span):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(func) if observe else None
        alloc_peak = name in ALLOC_PEAK
        stack = self._stack
        spans = self.spans
        stats = self.funcs.setdefault(name, [0, 0.0, 0.0])

        @wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            span_id = len(spans) if record_span else parent_span
            if record_span:
                spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, span_id]
            stack.append(frame)
            if alloc_peak:
                tracemalloc.start()
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if record_span:
                    spans[span_id] = {
                        "id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent_span, "op": self.op_id,
                        "self_s": duration - frame[0],
                    }
                if alloc_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = f"{name}.peak_alloc_bytes"
                    self.counters[key] = max(self.counters[key], peak)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result, self.counters, self._char_keys)
            return result

        return wrapper

    def report(self) -> dict:
        self.counters["exactalg.char_poly.distinct"] = len(self._char_keys)
        return {
            "funcs": self.funcs,
            "counters": dict(self.counters),
            "spans": [s for s in self.spans if s is not None],
            "bindings": self.bindings,
        }


def add_report(total: dict, report: dict, scale: float = 1.0) -> None:
    """Sum one op's funcs and counters into a pass total; times are multiplied by scale."""
    funcs = total.setdefault("funcs", {})
    for name, (calls, busy, self_time) in report["funcs"].items():
        acc = funcs.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += busy * scale
        acc[2] += self_time * scale
    counters = total.setdefault("counters", {})
    for name, value in report["counters"].items():
        if name.endswith("peak_alloc_bytes"):
            counters[name] = max(counters.get(name, 0), value)
        else:
            counters[name] = counters.get(name, 0) + value


def _ratio(num, den) -> float:
    """num / den, or 0 when the layer did not run (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(total: dict) -> dict:
    """Per-layer metric values of one traced pass, by BENCHMARK.json name."""
    funcs = total.get("funcs", {})
    c = total.get("counters", {})

    def calls(name):
        return funcs.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return funcs.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return funcs.get(name, [0, 0.0, 0.0])[2]

    metrics = {
        "cli.self_s": self_time("cli.run"),
        "cli.output_bytes": c.get("cli.output_bytes", 0),
        "spectrum.weights_scanned": c.get("spectrum.weights_scanned", 0),
        "spectrum.pairs_emitted": c.get("spectrum.pairs_emitted", 0),
        "products.witnesses": c.get("products.witnesses", 0),
        "products.array_pairs": c.get("products.array_pairs", 0),
        "products.hyperplanes": c.get("products.hyperplanes", 0),
        "products.hyperplane_yield": _ratio(
            c.get("products.hyperplanes", 0), c.get("products.array_pairs", 0)),
        "products.generic_beta_certificate.self_s": self_time("products.generic_beta_certificate"),
        "products.candidates_tried": c.get("products.candidates_tried", 0),
        "products.candidate_yield": _ratio(
            c.get("products.certificates", 0), c.get("products.candidates_tried", 0)),
        "bundles.weights_scanned": c.get("bundles.weights_scanned", 0),
        "bundles.collision_pairs": c.get("bundles.collision_pairs", 0),
        "bundles.agreement_pairs_checked": c.get("bundles.agreement_pairs_checked", 0),
        "bundles.hopf_swap_theorem_scan.peak_alloc_mb":
            c.get("bundles.hopf_swap_theorem_scan.peak_alloc_bytes", 0) / 2**20,
        "su2f.fixed_space.misses": c.get("su2f.fixed_space.misses", 0),
        "su2f.fixed_space.hits": c.get("su2f.fixed_space.hits", 0),
        "su2f.simplicity_certificate.self_s": self_time("su2f.simplicity_certificate"),
        "simplicity.pairs_checked": c.get("simplicity.pairs_checked", 0),
        "exactalg.char_poly.distinct_ratio": _ratio(
            c.get("exactalg.char_poly.distinct", 0), calls("exactalg.char_poly")),
    }
    for name in (
        "spectrum.enumerate_collisions", "spectrum.eigenvalue", "products.check_beta",
        "products.collision_hyperplanes", "bundles.hopf_swap_theorem_scan",
        "su2f.fixed_space", "su2f.averaging_projector", "su2f.su2f_representation_family",
        "bundles.hopf_representation_family", "simplicity.condition_a",
        "simplicity.condition_b", "simplicity.condition_c", "simplicity.evaluate_at_metric",
        "exactalg.char_poly", "exactalg.resultant", "exactalg.resultant_from_roots",
        "symmdata.restricted_datum", "rootsys.cartan_data",
    ):
        metrics[f"{name}.busy_s"] = busy(name)
    for name in (
        "spectrum.eigenvalue", "products.check_beta", "exactalg.char_poly",
        "exactalg.resultant", "exactalg.resultant_from_roots", "exactalg.determinant",
        "rootsys.cartan_data",
    ):
        metrics[f"{name}.calls"] = calls(name)
    return metrics
