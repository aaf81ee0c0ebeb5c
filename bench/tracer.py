"""Opt-in tracing of calls into the acderiv layers, installed from outside the package.

The tracer replaces each traced function or method with a wrapper, in every
acderiv module namespace that holds a reference to it (``verifier`` and
``operators`` import ``interior`` by name, so patching ``forms`` alone would
miss their calls).  Wrappers only observe: they time the call, count it and
return the wrapped result unchanged.

Each layer name counts only its outermost calls, so recursion inside a layer
(``interior`` on a bundle form calls itself once per component) and aliases
(``wedge`` calls ``ScalarForm.wedge``) are counted and timed once.  All
records stay in memory until ``metrics()`` is read at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import Counter
from time import perf_counter

from acderiv import algebra, chart, cli, forms, operators, verifier

MODULES = (algebra, chart, forms, operators, verifier, cli)

# (layer, owner, attribute names).  The owner is a module or a class; class
# attributes that alias the named function (``__rmul__ = __mul__``) are
# patched along with it.
TRACED = [
    ("algebra.add", algebra.PolyScalar, ("__add__",)),
    ("algebra.scale", algebra.PolyScalar, ("scale",)),
    ("algebra.gauss", algebra.GaussRational,
     ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__")),
    ("chart.build", chart, ("make_standard_chart", "make_twisted_chart", "builtin_twisted_chart")),
    ("chart.torsion", chart.Chart, ("torsion",)),
    ("chart.torsion", chart, ("torsion_form",)),
    ("chart.nijenhuis", chart, ("nijenhuis_tensor",)),
    ("forms.wedge", forms, ("wedge",)),
    ("forms.wedge", forms.ScalarForm, ("wedge",)),
    ("forms.exterior_d", forms, ("exterior_d",)),
    ("forms.exterior_d", forms.ScalarForm, ("exterior_d",)),
    ("forms.contract", forms, ("contract",)),
    ("forms.nr_bracket", forms, ("nr_bracket",)),
    ("forms.fn_bracket", forms, ("fn_bracket",)),
    ("forms.bidegree_split", forms, ("bidegree_split", "bidegree_split_scalar")),
    ("operators.connection", operators.Connection, ("apply",)),
    ("operators.matrix", operators.AlgebraElement,
     ("__add__", "__sub__", "__neg__", "__mul__", "scale", "commutator")),
    ("operators.decompose", operators, ("decompose_derivation", "refined_decompose")),
    ("cli.config", cli, ("build_config",)),
]

# Input generators, traced only where the verifier calls them: their time is
# what check_identity spends outside building and comparing operators.
VERIFIER_INPUTS = (
    "random_connection",
    "random_form",
    "random_vector_form",
    "random_bundle_form",
    "generator_family",
)


class Stat:
    """Outermost-call count and inclusive seconds of one layer."""

    __slots__ = ("calls", "seconds", "active")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.active = False


def _form_key(form):
    """Exact structure of a scalar, vector or bundle form, built from ints only.

    Tuples and frozensets of ints hash the same in every process, so the
    number of distinct keys repeats exactly at a fixed seed.
    """
    if isinstance(form, forms.ScalarForm):
        return frozenset(
            (key, poly.den, frozenset(poly.terms.items())) for key, poly in form.terms.items()
        )
    if isinstance(form, forms.VectorForm):
        return (1, form.degree, tuple(_form_key(c) for c in form.comps))
    return (2, tuple(_form_key(c) for c in form.comps))


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.mul_term_pairs = 0
        self.mul_operand_terms: Counter = Counter()
        self.mul_result_terms_max = 0
        self.applications = 0
        self.report_bytes = 0
        self.cell = 0
        self.interior_keys: set = set()
        self._patches: list = []

    def stat(self, layer: str) -> Stat:
        return self.stats.setdefault(layer, Stat())

    def timed(self, layer: str, fn, observe=None):
        """Wrap fn so that its outermost calls are counted and timed under layer."""
        stat = self.stat(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stat.active:
                return fn(*args, **kwargs)
            stat.active = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.seconds += perf_counter() - start
                stat.calls += 1
                stat.active = False
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- layer-specific wrappers and observers ----------------------------------

    def _traced_mul(self, fn):
        """Polynomial products only: a scalar right operand is a scale call."""
        stat = self.stat("algebra.mul")
        poly = algebra.PolyScalar

        @functools.wraps(fn)
        def wrapper(left, right):
            if not isinstance(right, poly):
                return fn(left, right)
            start = perf_counter()
            result = fn(left, right)
            stat.seconds += perf_counter() - start
            stat.calls += 1
            a, b = len(left.terms), len(right.terms)
            self.mul_term_pairs += a * b
            self.mul_operand_terms[a] += 1
            self.mul_operand_terms[b] += 1
            if len(result.terms) > self.mul_result_terms_max:
                self.mul_result_terms_max = len(result.terms)
            return result

        return wrapper

    def _observe_interior(self, args, result):
        K, target = args
        self.interior_keys.add((self.cell, hash((_form_key(K), _form_key(target)))))

    def _observe_residuals(self, args, result):
        self.applications += 2 * len(args[2])

    def _observe_render(self, args, result):
        """Report size without its timing fields, so that it repeats exactly."""
        doc = json.loads(result)
        for report in doc["reports"]:
            del report["millis"]
        self.report_bytes += len(json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"))

    def _count_cell(self, args, result):
        self.cell += 1

    def _traced_exp_interior(self, fn):
        """exp_interior returns closures; time the series they evaluate."""

        @functools.wraps(fn)
        def wrapper(phi):
            pair = fn(phi)
            return tuple(
                dataclasses.replace(op, action=self.timed("operators.exp_series", op.action))
                for op in pair
            )

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_everywhere(self, original, replacement):
        """Replace every module-level reference to original in the package."""
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, replacement)

    def _patch_class(self, cls, name, replacement):
        original = cls.__dict__[name]
        for alias, value in list(vars(cls).items()):
            if value is original:
                self._patch(cls, alias, replacement)

    def install(self):
        poly = algebra.PolyScalar
        self._patch_class(poly, "__mul__", self._traced_mul(poly.__mul__))
        for layer, owner, names in TRACED:
            for name in names:
                wrapped = self.timed(layer, getattr(owner, name))
                if isinstance(owner, type):
                    self._patch_class(owner, name, wrapped)
                else:
                    self._patch_everywhere(getattr(owner, name), wrapped)
        special = [
            ("forms.interior", forms.interior, self._observe_interior),
            ("operators.residuals", operators.operator_residuals, self._observe_residuals),
            ("verifier.cell", verifier.check_identity, self._count_cell),
            ("cli.render", cli.render_report, self._observe_render),
        ]
        for layer, fn, observe in special:
            self._patch_everywhere(fn, self.timed(layer, fn, observe))
        self._patch_everywhere(operators.exp_interior, self._traced_exp_interior(operators.exp_interior))
        self.stat("operators.exp_series")
        for name in VERIFIER_INPUTS:
            self._patch(verifier, name, self.timed("verifier.inputs", getattr(verifier, name)))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and inclusive seconds, named as in BENCHMARK.json."""
        out = {}
        for layer, stat in self.stats.items():
            out[f"{layer}.calls"] = stat.calls
            out[f"{layer}.s"] = stat.seconds
        sizes = self.mul_operand_terms
        out["algebra.mul.term_pairs"] = self.mul_term_pairs
        out["algebra.mul.operand_terms.p50"] = _histogram_median(sizes)
        out["algebra.mul.operand_terms.max"] = max(sizes, default=0)
        out["algebra.mul.result_terms.max"] = self.mul_result_terms_max
        calls = self.stats["forms.interior"].calls
        out["forms.interior.distinct_ratio"] = len(self.interior_keys) / calls if calls else 1.0
        out["operators.applications"] = self.applications
        out["verifier.cells"] = self.stats["verifier.cell"].calls
        out["verifier.build.s"] = (
            self.stats["verifier.cell"].seconds
            - self.stats["operators.residuals"].seconds
            - self.stats["verifier.inputs"].seconds
        )
        out["cli.report_bytes"] = self.report_bytes
        return out


def _histogram_median(counts: Counter):
    """Median of the multiset {value: multiplicity}, 0 when it is empty."""
    total = sum(counts.values())
    if not total:
        return 0
    ranks = ((total - 1) // 2, total // 2)
    picked = []
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        while len(picked) < 2 and ranks[len(picked)] < seen:
            picked.append(value)
    return (picked[0] + picked[1]) / 2
