"""Span tracing for the traced benchmark run.

The library is not edited: `install` wraps its public functions and the
arithmetic methods from the outside.  A function wrapped in one module is
also rebound wherever another confchern module imported it with
``from ... import``, so every call site goes through the wrapper.

Each wrapped call is a span.  A span's self time is its duration minus the
time its child spans cover; spans with no parent are roots, and the case
time they do not cover is reported as ``trace.uncovered_frac``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from confchern import classes, laurent, limits, partitions, series

LaurentPoly = laurent.LaurentPoly
RatFunc = laurent.RatFunc
TruncSeries = series.TruncSeries

# span name -> (owner, attribute); an owner is a class or a module
SPANS = {
    "laurent.poly.mul": (LaurentPoly, "__mul__"),
    "laurent.poly.add": (LaurentPoly, "__add__"),
    "laurent.poly.sub": (LaurentPoly, "__sub__"),
    "laurent.poly.pow": (LaurentPoly, "__pow__"),
    "laurent.poly.substitute": (LaurentPoly, "substitute"),
    "laurent.ratfunc.add": (RatFunc, "__add__"),
    "laurent.ratfunc.mul": (RatFunc, "__mul__"),
    "laurent.ratfunc.eq": (RatFunc, "__eq__"),
    "laurent.ratfunc.inverse": (RatFunc, "inverse"),
    "laurent.ratfunc.reduced": (RatFunc, "_reduced"),
    "laurent.exact_div": (laurent, "_exact_div"),
    "partitions.enumerate_partitions": (partitions, "enumerate_partitions"),
    "partitions.enumerate_refinements": (partitions, "enumerate_refinements"),
    "partitions.coefficient_a": (partitions, "coefficient_a"),
    "classes.mc_conf_affine": (classes, "mc_conf_affine"),
    "classes.mc_conf_proj_at": (classes, "mc_conf_proj_at"),
    "classes.mc_conf_proj_recursion": (classes, "mc_conf_proj_recursion"),
    "classes.mc_orbit_conf": (classes, "mc_orbit_conf"),
    "classes.mc_orbit_full": (classes, "mc_orbit_full"),
    "series.truncseries.mul": (TruncSeries, "__mul__"),
    "series.truncseries.exp": (TruncSeries, "exp"),
    "series.truncseries.log1p": (TruncSeries, "log1p"),
    "series.residue_at": (series, "residue_at"),
    "limits.limit_map": (limits, "limit_map"),
    "limits.lambda_quotient": (limits, "lambda_quotient"),
}

_CALLS = ("calls", "count", "lower")
_SELF = ("self_s", "s", "lower")


def _fields(span):
    """The (field, unit, better) metrics reported for one span."""
    if span.startswith("classes."):
        return [_CALLS, ("total_s", "s", "lower"), _SELF]
    if span == "partitions.coefficient_a":
        return [_CALLS]
    if span.startswith("partitions.enumerate"):
        return [_CALLS, ("items", "count", "lower"), _SELF]
    if span == "laurent.exact_div":
        return [("attempts", "count", "lower"), ("hits", "count", "higher"),
                ("hit_ratio", "ratio", "higher"), _SELF]
    if span == "laurent.poly.mul":
        return [_CALLS, _SELF, ("coeff_ops", "count", "lower")]
    return [_CALLS, _SELF]


# counters kept apart from spans, reported after the span they follow
_PEAKS = [("laurent.ratfunc.peak_num_terms", "count", "lower"),
          ("laurent.ratfunc.peak_den_factors", "count", "lower")]

CLI_METRICS = [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"),
               ("cli.parse_ms", "ms"), ("cli.main_ms", "ms"),
               ("cli.stdout_bytes", "bytes")]


def span_metrics():
    """The metrics the tracer computes, as (name, unit, better)."""
    out = []
    for span in SPANS:
        out += [(span + "." + f, unit, better)
                for f, unit, better in _fields(span)]
        if span == "laurent.ratfunc.reduced":
            out += _PEAKS
    return out


def catalogue():
    """Every per-layer metric as (name, unit, better), in report order."""
    return (span_metrics()
            + [(name, unit, "lower") for name, unit in CLI_METRICS]
            + [("trace.overhead_frac", "ratio", "lower"),
               ("trace.uncovered_frac", "ratio", "lower")])


# Spans that must record calls on each workload; a zero means a call site
# escaped the wrappers, and the traced run fails.
REQUIRED = {
    "classes": ["laurent.poly.mul", "laurent.poly.add", "laurent.poly.sub",
                "laurent.poly.pow", "laurent.ratfunc.add",
                "laurent.ratfunc.mul", "laurent.ratfunc.inverse",
                "laurent.ratfunc.reduced", "laurent.exact_div",
                "partitions.enumerate_partitions",
                "partitions.enumerate_refinements", "partitions.coefficient_a",
                "classes.mc_conf_affine", "classes.mc_conf_proj_at",
                "classes.mc_orbit_conf", "classes.mc_orbit_full"],
    "series": ["laurent.poly.substitute", "laurent.ratfunc.add",
               "laurent.ratfunc.mul", "laurent.ratfunc.eq",
               "laurent.ratfunc.inverse", "laurent.ratfunc.reduced",
               "laurent.exact_div", "classes.mc_conf_proj_at",
               "classes.mc_conf_proj_recursion", "classes.mc_orbit_conf",
               "classes.mc_orbit_full", "series.truncseries.mul",
               "series.truncseries.exp", "series.truncseries.log1p",
               "series.residue_at"],
    "limits": ["laurent.poly.mul", "laurent.poly.add", "laurent.poly.pow",
               "laurent.ratfunc.add", "laurent.ratfunc.mul",
               "laurent.ratfunc.eq", "limits.limit_map",
               "limits.lambda_quotient"],
    "cli": [],
}


class Tracer:
    """Span and counter store; `install` routes the library through it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self._stack = []

    def _wrap(self, name, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack = self._stack
        clock = time.perf_counter
        before, after = _HOOKS.get(name, (None, None))
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def install(self):
        """Wrap every span target, in its owner and at every import site."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "confchern" or name.startswith("confchern.")]
        for name, (owner, attr) in SPANS.items():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def metrics(self) -> dict:
        out = {}
        for metric, _, _ in span_metrics():
            span, _, field = metric.rpartition(".")
            if field in ("calls", "attempts"):
                out[metric] = self.calls[span]
            elif field == "total_s":
                out[metric] = self.total[span]
            elif field == "self_s":
                out[metric] = self.self_time[span]
            elif field == "hit_ratio":
                attempts = self.calls[span]
                out[metric] = (self.counts[span + ".hits"] / attempts
                               if attempts else 0.0)
            else:
                out[metric] = self.counts[metric]
        return out

    def missing(self, workload):
        """Required spans of `workload` that recorded no call."""
        return [n for n in REQUIRED[workload] if not self.calls[n]]


def _count_coeff_ops(counts, args):
    a, b = args[0], args[1]
    if isinstance(b, LaurentPoly):
        counts["laurent.poly.mul.coeff_ops"] += len(a.terms) * len(b.terms)


def _count_hit(counts, result):
    if result is not None:
        counts["laurent.exact_div.hits"] += 1


def _peak_ratfunc(counts, result):
    if isinstance(result, RatFunc):
        n = len(result.num.terms)
        if n > counts["laurent.ratfunc.peak_num_terms"]:
            counts["laurent.ratfunc.peak_num_terms"] = n
        d = sum(result._factors.values())
        if d > counts["laurent.ratfunc.peak_den_factors"]:
            counts["laurent.ratfunc.peak_den_factors"] = d


def _count_items(key):
    def after(counts, result):
        counts[key] += len(result)
    return after


_HOOKS = {
    "laurent.poly.mul": (_count_coeff_ops, None),
    "laurent.exact_div": (None, _count_hit),
    "laurent.ratfunc.add": (None, _peak_ratfunc),
    "laurent.ratfunc.mul": (None, _peak_ratfunc),
    "laurent.ratfunc.inverse": (None, _peak_ratfunc),
    "laurent.ratfunc.reduced": (None, _peak_ratfunc),
    "partitions.enumerate_partitions":
        (None, _count_items("partitions.enumerate_partitions.items")),
    "partitions.enumerate_refinements":
        (None, _count_items("partitions.enumerate_refinements.items")),
}
