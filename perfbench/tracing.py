"""Per-layer spans and counters, wrapped around the library from outside.

Only a traced run imports this module.  :class:`Tracer` replaces library
functions and methods with wrappers for the duration of each job and puts
the originals back afterwards, so checks and input generation are never
traced:

* a function is replaced in every ``abellab`` module that holds it, so
  names imported with ``from .x import f`` are covered too;
* a method is replaced under every name the class binds it to, so aliases
  such as ``__rmul__ = __mul__`` are covered too.

Spans (name, parent, job, start, end) are kept in memory and reduced to
per-name self time when the run ends: a span's self time is its duration
minus the durations of its direct children.  Scalar operations are
counted, never timed, because a timer would cost more than the operation.
A target the library no longer has is reported as missing, and every
metric derived from it is left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from array import array
from collections import defaultdict


def _size(p):
    """Coefficient count of a Poly, through its public ``degree``."""
    return 0 if p.degree is None else p.degree + 1


def _mul_products(counts, args, result):
    a, b = args
    counts["poly.mul_coeff_products"] += _size(a) * (_size(b) if hasattr(b, "degree") else 1)


def _rref_shape(counts, args, result):
    rows = args[0]
    if rows:
        counts["linalg.rref_rows"] += len(rows)
        counts["linalg.rref_cells"] += len(rows) * len(rows[0])
    counts["linalg.rref_pivots"] += len(result[1])


def _moment_rows(counts, args, result):
    counts["moments.moment_rows"] += result.I_max + 1


def _factor_candidates(counts, args, result):
    n = args[0].degree
    counts["decomp.candidates"] += sum(1 for m in range(2, n + 1) if n % m == 0)
    counts["decomp.candidate_hits"] += len(result.factors)


# (module, attribute or Class.method, span name, hook(counts, args, result))
SPANS = [
    ("abellab.poly", "Poly.__mul__", "poly.mul", _mul_products),
    ("abellab.poly", "Poly.divmod", "poly.divmod", None),
    ("abellab.poly", "Poly.primitive", "poly.primitive", None),
    ("abellab.center", "parametric_table", "center.table", None),
    ("abellab.center", "_flow_coefficients", "center.flow", None),
    ("abellab.center", "_revert", "center.revert", None),
    ("abellab.moments", "zero_space", "moments.zero_space", None),
    ("abellab.moments", "moment_matrix", "moments.moment_matrix", _moment_rows),
    ("abellab.moments", "composition_sum_space", "moments.composition_span", None),
    ("abellab.moments", "moment", "moments.moment", None),
    ("abellab.linalg", "rref", "linalg.rref", _rref_shape),
    ("abellab.decomp", "right_factors", "decomp.factors", _factor_candidates),
    ("abellab.decomp", "indecomposable_factors", "decomp.factors", None),
    ("abellab.trig", "trig_mul", "trig.mul", None),
    ("abellab.trig", "trig_moment", "trig.moment", None),
    ("abellab.serialize", "scalar_from_text", "serialize.parse", None),
    ("abellab.serialize", "poly_from_json", "serialize.parse", None),
    ("abellab.serialize", "interval_from_json", "serialize.parse", None),
    ("abellab.serialize", "trig_from_json", "serialize.parse", None),
    ("abellab.serialize", "dumps", "serialize.dumps", None),
    ("abellab.cli", "main", "cli.main", None),
]

# (module, attribute or Class.method, counter name)
COUNTERS = [
    ("abellab.field", "Scalar.__mul__", "field.scalar_mul_calls"),
    ("abellab.field", "Scalar.__init__", "field.scalar_new_calls"),
    ("abellab.poly", "in_subring", "decomp.in_subring_calls"),
]

JOB = "job"


def _ratio(num, den):
    return num / den if den else 0.0


# Each metric is (unit, the span or counter names it needs, value(summary)).


def _calls(span):
    return "count", [span], lambda m: m.calls(span)


def _self(span):
    return "s", [span], lambda m: m.self_s(span)


def _count(counter, source):
    return "count", [source], lambda m: m.count(counter)


METRICS = {
    "field.scalar_mul_calls": _count("field.scalar_mul_calls", "field.scalar_mul_calls"),
    "field.scalar_new_calls": _count("field.scalar_new_calls", "field.scalar_new_calls"),
    "field.scalar_new_d_calls": _count("field.scalar_new_d_calls", "field.scalar_new_calls"),
    "poly.mul_calls": _calls("poly.mul"),
    "poly.mul_coeff_products": _count("poly.mul_coeff_products", "poly.mul"),
    "poly.mul_s": _self("poly.mul"),
    "poly.divmod_calls": _calls("poly.divmod"),
    "poly.divmod_s": _self("poly.divmod"),
    "poly.primitive_calls": _calls("poly.primitive"),
    "poly.primitive_s": _self("poly.primitive"),
    "center.table_s": _self("center.table"),
    "center.flow_s": _self("center.flow"),
    "center.revert_s": _self("center.revert"),
    "center.poly_muls_per_table": (
        "count",
        ["center.table", "poly.mul"],
        lambda m: _ratio(m.count("center.table_poly_muls"), m.calls("center.table")),
    ),
    "moments.zero_space_s": _self("moments.zero_space"),
    "moments.moment_matrix_s": _self("moments.moment_matrix"),
    "moments.moment_rows": _count("moments.moment_rows", "moments.moment_matrix"),
    "moments.composition_span_s": _self("moments.composition_span"),
    "moments.not_stabilized": (
        "count",
        ["moments.zero_space"],
        lambda m: m.errors("moments.zero_space", "KernelNotStabilizedError"),
    ),
    "moments.moment_calls": _calls("moments.moment"),
    "moments.moment_s": _self("moments.moment"),
    "linalg.rref_calls": _calls("linalg.rref"),
    "linalg.rref_s": _self("linalg.rref"),
    "linalg.rref_cells": _count("linalg.rref_cells", "linalg.rref"),
    "linalg.rank_ratio": (
        "1",
        ["linalg.rref"],
        lambda m: _ratio(m.count("linalg.rref_pivots"), m.count("linalg.rref_rows")),
    ),
    "decomp.factors_s": _self("decomp.factors"),
    "decomp.in_subring_calls": _count("decomp.in_subring_calls", "decomp.in_subring_calls"),
    "decomp.candidate_hit_ratio": (
        "1",
        ["decomp.factors"],
        lambda m: _ratio(m.count("decomp.candidate_hits"), m.count("decomp.candidates")),
    ),
    "trig.mul_calls": _calls("trig.mul"),
    "trig.mul_s": _self("trig.mul"),
    "trig.moment_s": _self("trig.moment"),
    "serialize.parse_s": _self("serialize.parse"),
    "serialize.dumps_s": _self("serialize.dumps"),
    "cli.main_s": _self("cli.main"),
    "trace.job_s": ("s", [], lambda m: m.total_s(JOB)),
    "trace.unattributed_s": _self(JOB),
}


class Tracer:
    def __init__(self):
        self._ids = {}
        self._names = []
        # five int64 per span: name id, parent index, job index, start, end
        self._spans = array("q")
        self._stack = []
        self._job = -1
        self.counts = defaultdict(int)
        self._errors = defaultdict(int)
        self.missing = set()
        self._counters = {}
        self._patches = []
        self._plan()

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _timed(self, fn, name, hook):
        nid = self._name_id(name)
        spans, stack, counts, errors = self._spans, self._stack, self.counts, self._errors
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // 5
            spans.extend((nid, stack[-1] if stack else -1, tracer._job, clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                spans[5 * idx + 4] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        # next() on an itertools.count is the cheapest counter Python has
        tick = self._counters[name] = itertools.count()
        if name == "field.scalar_new_calls":
            # the D argument decides whether the squarefree check runs
            tick_d = self._counters["field.scalar_new_d_calls"] = itertools.count()

            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                next(tick)
                if len(args) > 2 and args[2] is not None or kwargs.get("D") is not None:
                    next(tick_d)
                return fn(self, *args, **kwargs)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        return wrapper

    def _plan(self):
        for modname in sorted({t[0] for t in SPANS + COUNTERS}):
            try:
                importlib.import_module(modname)
            except ImportError:
                pass  # its targets are reported missing below
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "abellab"]
        targets = [(mod, path, name, self._timed, (name, hook)) for mod, path, name, hook in SPANS]
        targets += [(mod, path, name, self._counted, (name,)) for mod, path, name in COUNTERS]
        for modname, path, name, make, extra in targets:
            module = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = make(original, *extra)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original, wrapper))

    def run_job(self, fn):
        """Run one job under a root span with the wrappers installed."""
        self._job += 1
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)
        try:
            return self._timed(fn, JOB, None)()
        finally:
            for holder, key, original, _ in self._patches:
                setattr(holder, key, original)

    # -- reduction --------------------------------------------------------------

    def summary(self):
        """Per-name calls, total and self nanoseconds, plus the counters."""
        spans, names = self._spans, self._names
        n = len(spans) // 5
        child = [0] * n
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        # children are appended after their parent, so a reverse pass has
        # every child's duration before it reaches the parent
        for i in range(n - 1, -1, -1):
            nid, parent, _, start, end = spans[5 * i : 5 * i + 5]
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            name = names[nid]
            calls[name] += 1
            total[name] += dur
            self_ns[name] += dur - child[i]
        counts = dict(self.counts)
        counts.update((name, next(tick)) for name, tick in self._counters.items())
        table, mul = self._ids.get("center.table"), self._ids.get("poly.mul")
        inside = [-1] * n
        table_muls = 0
        for i in range(n):
            nid, parent = spans[5 * i], spans[5 * i + 1]
            inside[i] = i if nid == table else (inside[parent] if parent >= 0 else -1)
            if nid == mul and inside[i] >= 0:
                table_muls += 1
        counts["center.table_poly_muls"] = table_muls
        return Summary(calls, total, self_ns, counts, self._errors, self.missing)


class Summary:
    def __init__(self, calls, total, self_ns, counts, errors, missing):
        self._calls, self._total, self._self = calls, total, self_ns
        self._counts, self._errors, self.missing = counts, errors, missing

    def calls(self, name):
        return self._calls.get(name, 0)

    def total_s(self, name):
        return self._total.get(name, 0) / 1e9

    def self_s(self, name):
        return self._self.get(name, 0) / 1e9

    def count(self, name):
        return self._counts.get(name, 0)

    def errors(self, name, kind):
        return self._errors.get((name, kind), 0)

    def metrics(self):
        """Every per-layer metric whose sources exist: name -> (value, unit)."""
        out = {}
        for metric, (unit, sources, value) in METRICS.items():
            if not self.missing.intersection(sources):
                out[metric] = (value(self), unit)
        return out
