"""Span tracing of stacky_heights from outside the program.

install() replaces each listed public function with a wrapper at every
module namespace that binds it: `factor`, for one, is bound by name in
arith, adelic, football, wps, classifying, counting and checks, and a
wrapper installed only in arith would miss the calls made through the
other names.  Modules are reached through importlib because the package
attribute `stacky_heights.football` is the football() function, not its
module.

A span is [id, parent id, request id, name, start, end, data]; spans stay
in memory and are written once the round ends.  A span's self time is its
duration minus that of its direct children, which is exact here because
every traced call runs on the calling thread (pool workers call only
private helpers, so nothing traced is lost in them).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time

FACTOR_SMALL = 10**6

# (module, attribute) -> span name.  These are the functions the per-layer
# metrics name, and nothing more: wrapping e.g. arith.is_prime would move
# Miller-Rabin time out of factor's self time.
FUNCTIONS = {
    ("arith", "factor"): "arith.factor",
    ("arith", "power_free_part"): "arith.power_free_part",
    ("adelic", "height_from_sections"): "adelic.height_from_sections",
    ("adelic", "combine"): "adelic.combine",
    ("football", "generic_height"): "football.generic_height",
    ("football", "tangential_height"): "football.tangential_height",
    ("football", "rdisc"): "football.rdisc",
    ("football", "edd"): "football.edd",
    ("wps", "minimal_form"): "wps.minimal_form",
    ("wps", "height_Oj"): "wps.height_Oj",
    ("classifying", "class_of"): "classifying.class_of",
    ("classifying", "bmu3_vector_height"): "classifying.bmu3_vector_height",
    ("sympow", "sym_height"): "sympow.sym_height",
    ("counting", "sieve_power_free_parts"): "counting.sieve_power_free_parts",
    ("counting", "count_football222"): "counting.count_football222",
    ("counting", "count_rooted3_at_0"): "counting.count_rooted3_at_0",
    ("counting", "count_quadratic_points"): "counting.count_quadratic_points",
    ("counting", "count_quadratic_fields"): "counting.count_quadratic_fields",
    ("counting", "count_bmun"): "counting.count_bmun",
    ("counting", "fit_exponents"): "counting.fit_exponents",
    ("counting", "vojta_search_ap5"): "counting.vojta_search_ap5",
    ("counting", "vojta_search_444"): "counting.vojta_search_444",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_count"): "cli.count",
}
# (module, class, attribute) -> span name, patched on the class itself.
METHODS = {
    ("adelic", "ExactHeight", "log_abs"): "adelic.log_abs",
    ("adelic", "ExactHeight", "__add__"): "adelic.ExactHeight.add",
}
# Every module whose namespace may hold a binding of a listed function.
BINDING_MODULES = (
    "arith", "adelic", "football", "wps", "classifying", "sympow",
    "counting", "checks", "cli",
)

# Spans every traced round of a workload must contain; a missing one means
# a binding site was missed and its metrics would read zero.
REQUIRED = {
    "heights": (
        "arith.factor", "arith.power_free_part", "adelic.log_abs",
        "adelic.ExactHeight.add", "adelic.height_from_sections", "adelic.combine",
        "football.generic_height", "football.tangential_height", "football.rdisc",
        "football.edd", "wps.minimal_form", "wps.height_Oj",
        "classifying.class_of", "classifying.bmu3_vector_height", "sympow.sym_height",
    ),
    "count": (
        "cli.main", "cli.count", "arith.factor", "counting.sieve_power_free_parts",
        "counting.count_football222", "counting.count_rooted3_at_0",
        "counting.count_quadratic_points", "counting.count_quadratic_fields",
        "counting.count_bmun", "counting.fit_exponents",
    ),
    "search": (
        "counting.sieve_power_free_parts", "counting.vojta_search_ap5",
        "counting.vojta_search_444",
    ),
}

COUNT_KERNELS = (
    "counting.count_football222",
    "counting.count_rooted3_at_0",
    "counting.count_quadratic_points",
    "counting.count_quadratic_fields",
    "counting.count_bmun",
)

# What a span keeps besides its times, taken after the clock stops.
_DATA = {
    "arith.factor": lambda args, result: (abs(args[0]), result.factors),
    "counting.sieve_power_free_parts": lambda args, result: args[0],
    "counting.vojta_search_ap5": lambda args, result: len(result),
    "counting.vojta_search_444": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = _DATA.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, tracer.request, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if keep is not None:
                span[6] = keep(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                sid, parent, req, name, t0, t1, data = span
                if name == "arith.factor":
                    data = [data[0], factor_class(*data)]
                fh.write(json.dumps([sid, parent, req, name, t0, t1, data]) + "\n")


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every listed function at each binding site; returns, per span
    name, how many namespaces were patched."""
    pkg = importlib.import_module("stacky_heights")
    namespaces = [pkg] + [
        importlib.import_module(f"stacky_heights.{m}") for m in BINDING_MODULES
    ]
    sites: dict[str, int] = {}
    for (mod, attr), name in FUNCTIONS.items():
        original = getattr(importlib.import_module(f"stacky_heights.{mod}"), attr)
        wrapped = tracer.wrap(name, original)
        sites[name] = 0
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
                    sites[name] += 1
    for (mod, cls, attr), name in METHODS.items():
        klass = getattr(importlib.import_module(f"stacky_heights.{mod}"), cls)
        raw = klass.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(klass, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(klass, attr, tracer.wrap(name, raw))
        sites[name] = 1
    return sites


def factor_class(n: int, factors) -> str:
    """small (|n| < 1e6), prime_power (one prime, exponent >= 2) or large."""
    if n < FACTOR_SMALL:
        return "small"
    if len(factors) == 1 and factors[0][1] >= 2:
        return "prime_power"
    return "large"


# Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "arith.factor.calls": "count",
    "arith.factor.distinct_ratio": "ratio",
    "arith.factor.small.calls": "count",
    "arith.factor.small.self_s": "s",
    "arith.factor.prime_power.calls": "count",
    "arith.factor.prime_power.self_s": "s",
    "arith.factor.large.calls": "count",
    "arith.factor.large.self_s": "s",
    "arith.power_free_part.calls": "count",
    "arith.power_free_part.self_s": "s",
    "adelic.log_abs.calls": "count",
    "adelic.log_abs.self_s": "s",
    "adelic.ExactHeight.add.calls": "count",
    "adelic.ExactHeight.add.self_s": "s",
    "adelic.height_from_sections.self_s": "s",
    "adelic.combine.self_s": "s",
    "football.generic_height.self_s": "s",
    "football.tangential_height.self_s": "s",
    "football.rdisc.self_s": "s",
    "football.edd.self_s": "s",
    "wps.minimal_form.self_s": "s",
    "wps.height_Oj.self_s": "s",
    "classifying.class_of.self_s": "s",
    "classifying.bmu3_vector_height.self_s": "s",
    "sympow.sym_height.self_s": "s",
    "counting.sieve_power_free_parts.calls": "count",
    "counting.sieve_power_free_parts.elements": "count",
    "counting.sieve_power_free_parts.self_s": "s",
    "counting.count_football222.self_s": "s",
    "counting.count_rooted3_at_0.self_s": "s",
    "counting.count_quadratic_points.self_s": "s",
    "counting.count_quadratic_fields.self_s": "s",
    "counting.count_bmun.self_s": "s",
    "counting.fit_exponents.self_s": "s",
    "counting.vojta_search_ap5.self_s": "s",
    "counting.vojta_search_ap5.hits": "count",
    "counting.vojta_search_444.self_s": "s",
    "cli.count.self_s": "s",
    "cli.count.bounds": "count",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one round, plus the call count of every span name."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[5] - span[4]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    factor_values: set[int] = set()
    out = {
        name: 0 if unit == "count" else 0.0
        for name, unit in LAYER_UNITS.items()
        if name != "trace.overhead_ratio"
    }
    for span in spans:
        sid, parent, _req, name, t0, t1, data = span
        own = (t1 - t0) - child[sid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "arith.factor":
            cls = factor_class(*data)
            out[f"arith.factor.{cls}.calls"] += 1
            out[f"arith.factor.{cls}.self_s"] += own
            factor_values.add(data[0])
        elif name == "counting.sieve_power_free_parts":
            out["counting.sieve_power_free_parts.elements"] += data
        elif name == "counting.vojta_search_ap5":
            out["counting.vojta_search_ap5.hits"] += data
        elif name in COUNT_KERNELS and parent >= 0 and spans[parent][3] == "cli.count":
            out["cli.count.bounds"] += 1
    for metric in out:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls" and not metric.startswith("arith.factor."):
            out[metric] = calls.get(layer, 0)
        elif kind == "self_s" and not metric.startswith("arith.factor."):
            out[metric] = self_s.get(layer, 0.0)
    out["arith.factor.calls"] = calls.get("arith.factor", 0)
    if factor_values:
        out["arith.factor.distinct_ratio"] = len(factor_values) / calls["arith.factor"]
    return out, calls


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
