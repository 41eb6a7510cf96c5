"""Spans and counters around the engine's public functions, from outside.

``Tracer.installed()`` replaces each target in every ``nscurves`` namespace that
holds it (the defining module, modules that imported the name, the package
itself) and, for methods, in the class, so calls between layers inside the
package are caught too.  On leaving the block the originals are put back.
An untraced run never installs anything.

A span is ``[name, start, end, parent index, op index]``; spans stay in
memory and are written out once at the end of the run.
"""
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter


def _term_products(tracer, args, kwargs, result):
    # Fraction products inside one WeightedPoly product; an int factor is one term
    left, right = args[0], args[1]
    tracer.counts["algebra.poly_mul.term_products"] += len(left.terms) * len(
        getattr(right, "terms", (None,))
    )


def _lattice_terms(tracer, args, kwargs, result):
    z, ctx = args[0], args[1]
    tracer.counts["hyperell.theta.lattice_terms"] += (2 * ctx.radius + 1) ** len(z)


def _theta_radius(tracer, args, kwargs, result):
    tracer.counts["hyperell.theta_context.radius_sum"] += result.radius


def _emitted_terms(tracer, args, kwargs, result):
    # one "rational" per lambda-monomial chunk, plus the bare constants
    tracer.counts["abelian.emitted_terms"] += result.count('"rational":') + result.count(
        '"constant":'
    )


# (module, attribute, span name, kind, observer).  A "count" target only
# counts calls: it sits on the hottest arithmetic, where a span would cost
# more than the work it measures.  An observer sees each call's arguments
# and result and adds to the work counters.
TARGETS = [
    ("nscurves.algebra", "WeightedPoly.__mul__", "algebra.poly_mul", "count", _term_products),
    ("nscurves.algebra", "WeightedPoly.__add__", "algebra.poly_add", "count", None),
    ("nscurves.algebra", "LaurentSeries.__mul__", "algebra.series_mul", "count", None),
    ("nscurves.algebra", "LaurentSeries.invert", "algebra.series_invert", "count", None),
    ("nscurves.algebra", "residue_of_product", "algebra.residue_of_product", "span", None),
    ("nscurves.curves", "CurveFamily.lift_x_to_points", "curves.lift_x_to_points", "span", None),
    ("nscurves.curves", "check_nondegenerate", "curves.check_nondegenerate", "span", None),
    ("nscurves.expansions", "expand_at_infinity", "expansions.expand_at_infinity", "span", None),
    ("nscurves.expansions", "first_kind_basis", "expansions.first_kind_basis", "span", None),
    ("nscurves.expansions", "associated_second_kind", "expansions.associated_second_kind", "span", None),
    ("nscurves.abelian", "log_sigma_derivative_expansion", "abelian.log_sigma_derivative_expansion", "span", None),
    ("nscurves.abelian", "zeta_relations", "abelian.zeta_relations", "span", None),
    ("nscurves.abelian", "build_inversion_system", "abelian.build_inversion_system", "span", None),
    ("nscurves.abelian", "emit_system", "abelian.emit_system", "span", _emitted_terms),
    ("nscurves.divisors", "make_divisor", "divisors.make_divisor", "span", None),
    ("nscurves.divisors", "sample_point", "divisors.sample_point", "span", None),
    ("nscurves.divisors", "random_divisor", "divisors.random_divisor", "span", None),
    ("nscurves.divisors", "rfunctions_from_divisor", "divisors.rfunctions_from_divisor", "span", None),
    ("nscurves.divisors", "chi_polynomial", "divisors.chi_polynomial", "span", None),
    ("nscurves.divisors", "solve_divisor", "divisors.solve_divisor", "span", None),
    ("nscurves.hyperell", "compute_periods", "hyperell.compute_periods", "span", None),
    ("nscurves.hyperell", "theta_context", "hyperell.theta_context", "span", _theta_radius),
    ("nscurves.hyperell", "theta_with_derivs", "hyperell.theta_with_derivs", "span", _lattice_terms),
    ("nscurves.hyperell", "wp_from_theta", "hyperell.wp_from_theta", "span", None),
    ("nscurves.hyperell", "abel_map", "hyperell.abel_map", "span", None),
    ("nscurves.hyperell", "verify_inversion", "hyperell.verify_inversion", "span", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._undo = []

    # -- wrappers --

    def _span(self, fn, name, observe):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, name, observe):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return counted

    # -- patching --

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for key, m in list(sys.modules.items())
            if key == "nscurves" or key.startswith("nscurves.")
        ]
        for module_name, attr, name, kind, observe in TARGETS:
            owner = import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                holders = [getattr(owner, cls_name)]
                original = holders[0].__dict__[attr]
            else:
                holders = namespaces
                original = getattr(owner, attr)
            if kind == "span":
                wrapper = self._span(original, name, observe)
            else:
                wrapper = self._counter(original, name, observe)
            for holder in holders:
                # aliases such as __rmul__ = __mul__ are caught by identity
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading the record --

    def write(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def layer_table(spans):
    """Per span name: calls, total and self seconds, parent names.

    Only spans inside an op count (op index not None).  Self time is the
    span's duration minus the durations of its direct children; spans nest
    strictly on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    table = {}
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if op is None:
            continue
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": Counter()}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[idx]
        row["parents"][spans[parent][0] if parent >= 0 else "op"] += 1
    return table


def time_under(spans, name, parent_name):
    """Seconds in spans called ``name`` whose direct parent is ``parent_name``."""
    return sum(
        end - start
        for n, start, end, parent, op in spans
        if n == name and op is not None and parent >= 0 and spans[parent][0] == parent_name
    )


def setup_time(spans, name):
    """Seconds in spans called ``name`` outside every op (input generation)."""
    return sum(end - start for n, start, end, parent, op in spans if n == name and op is None)
