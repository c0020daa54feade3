"""In-memory tracer installed from outside the library.

Spans wrap public functions at layer boundaries; counters wrap public
methods whose call counts reach the millions.  The program is single
threaded and does no I/O, so no layer waits on another: each span reports
calls and self (busy) time, its duration minus the part its child spans
cover.  Span records stay in memory and are written once, at exit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# name: (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "ideals.minimalize_s": ("s", "lower", "wall_s, verdict_p90_ms on colon-products"),
    "ideals.minimalize_in": ("count", "lower", "wall_s, verdict_p90_ms on colon-products"),
    "ideals.minimalize_out": ("count", "lower", "wall_s, verdict_p90_ms on colon-products"),
    "ideals.minimalize_keep_ratio": ("ratio", "higher", "wall_s, verdict_p90_ms on colon-products"),
    "monomials.divides_calls": ("count", "lower", "wall_s on colon-products"),
    "monomials.colon_calls": ("count", "lower", "wall_s on colon-products"),
    "monomials.mul_calls": ("count", "lower", "wall_s on groebner-scan"),
    "monomials.lcm_calls": ("count", "lower", "wall_s on betti-oracle"),
    "windows.product_s": ("s", "lower", "wall_s on colon-products"),
    "windows.product_calls": ("count", "lower", "wall_s on colon-products"),
    "windows.product_gens": ("count", "lower", "wall_s on colon-products"),
    "windows.minor_s": ("s", "lower", "wall_s on groebner-scan"),
    "quotients.verify_s": ("s", "lower", "wall_s on colon-products"),
    "quotients.colon_candidates": ("count", "lower", "wall_s on colon-products"),
    "quotients.closed_form_s": ("s", "lower", "wall_s on colon-products"),
    "quotients.chain_s": ("s", "lower", "wall_s on betti-oracle"),
    "resolution.betti_s": ("s", "lower", "wall_s, verdict_p90_ms on betti-oracle"),
    "resolution.betti_calls": ("count", "lower", "wall_s, verdict_p90_ms on betti-oracle"),
    "resolution.cone_s": ("s", "lower", "wall_s, verdict_p90_ms on betti-oracle"),
    "fields.qq_ops": ("count", "lower", "wall_s on betti-oracle (char 0) and groebner-scan"),
    "fields.gfp_ops": ("count", "lower", "wall_s on betti-oracle (char 32003) and groebner-scan"),
    "polynomials.add_calls": ("count", "lower", "wall_s on groebner-scan"),
    "polynomials.times_term_calls": ("count", "lower", "wall_s on groebner-scan"),
    "polynomials.arith_s": ("s", "lower", "wall_s on groebner-scan"),
    "groebner.buchberger_s": ("s", "lower", "wall_s, verdict_p90_ms on groebner-scan"),
    "groebner.reduce_s": ("s", "lower", "wall_s, verdict_p90_ms on groebner-scan"),
    "groebner.reduce_calls": ("count", "lower", "wall_s, verdict_p90_ms on groebner-scan"),
    "groebner.spairs_reduced": ("count", "lower", "wall_s, verdict_p90_ms on groebner-scan"),
    "groebner.nonzero_ratio": ("ratio", "higher", "wall_s, verdict_p90_ms on groebner-scan"),
    "groebner.basis_size": ("count", "lower", "wall_s, verdict_p90_ms on groebner-scan"),
    "checks.self_s": ("s", "lower", "wall_s on colon-products"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s"),
    "monomials.divides_ns": ("ns", "lower", "wall_s on colon-products"),
    "monomials.mul_ns": ("ns", "lower", "wall_s on groebner-scan"),
    "monomials.lcm_ns": ("ns", "lower", "wall_s on betti-oracle"),
    "monomials.colon_ns": ("ns", "lower", "wall_s on colon-products"),
    "fields.qq_mul_ns": ("ns", "lower", "wall_s on betti-oracle (char 0)"),
    "fields.gfp_mul_ns": ("ns", "lower", "wall_s on betti-oracle (char 32003) and groebner-scan"),
}

# Spans called millions of times are aggregated but not recorded one by one.
_AGGREGATE_ONLY = {"polynomials.arith"}


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.records = []  # (name, start, end, parent record index, instance)
        self.instance = -1
        self._child_time = []  # per open span: time covered by its children
        self._open = []  # per open span: its record index, or -1

    def span(self, name, fn):
        child_time = self._child_time
        open_records = self._open
        records = self.records
        stats = self.stats[name]
        clock = time.perf_counter
        keep = name not in _AGGREGATE_ONLY

        def wrapper(*args, **kwargs):
            if keep:
                parent = open_records[-1] if open_records else -1
                open_records.append(len(records))
                records.append(None)
            else:
                open_records.append(-1)
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child_time.pop()
                index = open_records.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - covered
                if child_time:
                    child_time[-1] += duration
                if keep:
                    records[index] = (name, start, end, parent, self.instance)

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_s(self, name) -> float:
        return self.stats[name][1]

    def write(self, path) -> None:
        origin = min((r[1] for r in self.records), default=0.0)
        data = {
            "spans": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "counts": dict(self.counts),
            "records": [
                [name, start - origin, end - origin, parent, inst]
                for name, start, end, parent, inst in self.records
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def _replace_function(module, name, wrapper) -> None:
    """Point every library module's binding of module.name at the wrapper,
    since callers import functions by name."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("diagideal"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported library."""
    from diagideal import (
        checks,
        fields,
        groebner,
        ideals,
        monomials,
        polynomials,
        quotients,
        resolution,
        windows,
    )

    counts = tracer.counts
    monomial = monomials.GridMonomial
    for method, name in (
        ("divides", "monomials.divides_calls"),
        ("colon", "monomials.colon_calls"),
        ("__mul__", "monomials.mul_calls"),
        ("lcm", "monomials.lcm_calls"),
    ):
        setattr(monomial, method, tracer.count(name, getattr(monomial, method)))
    for cls, name in ((fields.RationalField, "fields.qq_ops"), (fields.PrimeField, "fields.gfp_ops")):
        for method in ("add", "sub", "mul", "neg", "invert"):
            setattr(cls, method, tracer.count(name, getattr(cls, method)))

    poly = polynomials.Polynomial
    poly.__add__ = tracer.count("polynomials.add_calls", poly.__add__)
    poly.times_term = tracer.count("polynomials.times_term_calls", poly.times_term)
    for method in ("__add__", "__sub__", "__neg__", "__mul__", "times_term", "monic"):
        setattr(poly, method, tracer.span("polynomials.arith", getattr(poly, method)))

    def minimalize(original):
        def wrapper(shape, gens):
            counts["ideals.minimalize_in"] += len(gens)
            result = original(shape, gens)
            counts["ideals.minimalize_out"] += len(result)
            return result

        return wrapper

    def product(original):
        def wrapper(shape, windows_):
            result = original(shape, windows_)
            counts["windows.product_gens"] += len(result.gens)
            return result

        return wrapper

    def verify(original):
        def wrapper(*args, **kwargs):
            # Every colon candidate is one GridMonomial.colon call.
            before = counts["monomials.colon_calls"]
            result = original(*args, **kwargs)
            counts["quotients.colon_candidates"] += counts["monomials.colon_calls"] - before
            return result

        return wrapper

    def reduce(original):
        def wrapper(f, basis):
            result = original(f, basis)
            counts["groebner.nonzero_remainders"] += not result.is_zero
            return result

        return wrapper

    def buchberger(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts["groebner.spairs_reduced"] += result.spairs_reduced
            counts["groebner.basis_size"] += len(result)
            return result

        return wrapper

    def plain(original):
        return original

    for module, name, span, extra in (
        (ideals, "minimal_generators", "ideals.minimalize", minimalize),
        (windows, "window_product_ideal", "windows.product", product),
        (groebner, "natural_window_generators", "windows.minor", plain),
        (quotients, "verify_product_colons", "quotients.verify", verify),
        (quotients, "closed_form_colon", "quotients.closed_form", plain),
        (quotients, "closed_form_product_colon", "quotients.closed_form", plain),
        (quotients, "quotient_chain", "quotients.chain", plain),
        (resolution, "betti_table", "resolution.betti", plain),
        (resolution, "mapping_cone_betti", "resolution.cone", plain),
        (groebner, "buchberger", "groebner.buchberger", buchberger),
        (groebner, "reduce", "groebner.reduce", reduce),
        (checks, "product_chain_report", "checks.report", plain),
        (checks, "theorem_report", "checks.report", plain),
    ):
        _replace_function(module, name, tracer.span(span, extra(getattr(module, name))))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass (all but overhead and kernels)."""
    c = tracer.counts
    s = tracer.self_s
    calls = lambda name: tracer.stats[name][0]  # noqa: E731
    minimal_in = c["ideals.minimalize_in"]
    reduces = calls("groebner.reduce")
    return {
        "ideals.minimalize_s": s("ideals.minimalize"),
        "ideals.minimalize_in": minimal_in,
        "ideals.minimalize_out": c["ideals.minimalize_out"],
        "ideals.minimalize_keep_ratio": c["ideals.minimalize_out"] / minimal_in if minimal_in else 0.0,
        "monomials.divides_calls": c["monomials.divides_calls"],
        "monomials.colon_calls": c["monomials.colon_calls"],
        "monomials.mul_calls": c["monomials.mul_calls"],
        "monomials.lcm_calls": c["monomials.lcm_calls"],
        "windows.product_s": s("windows.product"),
        "windows.product_calls": calls("windows.product"),
        "windows.product_gens": c["windows.product_gens"],
        "windows.minor_s": s("windows.minor"),
        "quotients.verify_s": s("quotients.verify"),
        "quotients.colon_candidates": c["quotients.colon_candidates"],
        "quotients.closed_form_s": s("quotients.closed_form"),
        "quotients.chain_s": s("quotients.chain"),
        "resolution.betti_s": s("resolution.betti"),
        "resolution.betti_calls": calls("resolution.betti"),
        "resolution.cone_s": s("resolution.cone"),
        "fields.qq_ops": c["fields.qq_ops"],
        "fields.gfp_ops": c["fields.gfp_ops"],
        "polynomials.add_calls": c["polynomials.add_calls"],
        "polynomials.times_term_calls": c["polynomials.times_term_calls"],
        "polynomials.arith_s": s("polynomials.arith"),
        "groebner.buchberger_s": s("groebner.buchberger"),
        "groebner.reduce_s": s("groebner.reduce"),
        "groebner.reduce_calls": reduces,
        "groebner.spairs_reduced": c["groebner.spairs_reduced"],
        "groebner.nonzero_ratio": c["groebner.nonzero_remainders"] / reduces if reduces else 0.0,
        "groebner.basis_size": c["groebner.basis_size"],
        "checks.self_s": s("checks.report"),
    }
