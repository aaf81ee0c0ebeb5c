"""Complexified differential forms on a chart: scalar, tangent-valued, bundle-valued.

Components are stored against the real coordinate coframe with Gaussian-rational
polynomial coefficients; bidegree is a derived property obtained through the
chart's projectors, never a storage format (no closed (p,q)-coframe exists on a
non-integrable chart).  A form may also be written in its chart's frame
(to_frame), on the sibling chart.framed: wedge, interior, d and bidegree
projection then act there, and mixing the two bases raises.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, starmap
from typing import TYPE_CHECKING, Mapping, Sequence

from .algebra import GR_ONE, GaussRational, PolyScalar, ProductSum

if TYPE_CHECKING:
    from .chart import Chart


@cache
def _merge_sign(left: tuple, right: tuple):
    """(merged key, sign) of dx^left wedge dx^right for strictly increasing index tuples;
    (None, 0) if they intersect.

    A table filled on first use: each pair of keys is merged once per process.
    The keys are subsets of a chart's axes, so it holds at most 4^dim pairs.
    """
    inversions = 0
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            inversions += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), (1 if inversions % 2 == 0 else -1)


def _accumulate(out: dict, items) -> dict:
    """Add c * f * g for each (index key, c, f, g) into out; c is 1 or -1, g None stands for 1.

    With g None, c may also be any nonzero GaussRational: that term is a
    scaling of f, not a product.  A key's first term with c 1 or -1 and g
    None is stored as it is; any other term opens one ProductSum for the
    key, which multiplies products and scalings straight into its sum.  Zero
    sums drop out.
    """
    sums = {}
    for key, c, f, g in items:
        acc = sums.get(key)
        if acc is None:
            prior = out.get(key)
            if prior is None and g is None and c.__class__ is int:
                if f:
                    out[key] = f if c > 0 else -f
                continue
            acc = sums[key] = ProductSum(f.num_vars, prior)
        if c.__class__ is int:
            acc.add(c, f, g)
        else:
            acc.add_multiple(c, f)
    for key, acc in sums.items():
        total = acc.total()
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _wedge_terms(alpha: "ScalarForm", beta: "ScalarForm"):
    """The _accumulate items of alpha wedge beta."""
    for key_a, fa in alpha.terms.items():
        for key_b, fb in beta.terms.items():
            key, sign = _merge_sign(key_a, key_b)
            if key is not None:
                yield key, sign, fa, fb


class ScalarForm:
    """A complexified form: map from strictly increasing index tuples to PolyScalar.

    Mixed degrees are allowed in one container; most operations preserve
    homogeneity and the bidegree machinery insists on it.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: "Chart", terms: Mapping[tuple, PolyScalar] | None = None):
        self.chart = chart
        self.terms = dict(terms) if terms else {}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(chart: "Chart") -> "ScalarForm":
        return ScalarForm(chart)

    @staticmethod
    def function(chart: "Chart", value: PolyScalar) -> "ScalarForm":
        if value.is_zero():
            return ScalarForm(chart)
        return ScalarForm(chart, {(): value})

    @staticmethod
    def constant(chart: "Chart", value) -> "ScalarForm":
        return ScalarForm.function(chart, PolyScalar.constant(value, chart.dim))

    @staticmethod
    def coordinate_function(chart: "Chart", axis: int) -> "ScalarForm":
        return ScalarForm.function(chart, PolyScalar.variable(axis, chart.dim))

    @staticmethod
    def basis_covector(chart: "Chart", axis: int) -> "ScalarForm":
        if not 0 <= axis < chart.dim:
            raise IndexError(f"covector axis {axis} out of range")
        return ScalarForm(chart, {(axis,): PolyScalar.one(chart.dim)})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degrees(self) -> set:
        return {len(key) for key in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous form; 0 for the zero form."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop()

    def degree_part(self, k: int) -> "ScalarForm":
        return ScalarForm(
            self.chart, {key: f for key, f in self.terms.items() if len(key) == k}
        )

    def _check_chart(self, other: "ScalarForm"):
        if self.chart is not other.chart:
            raise ValueError("forms live on different charts")

    # -- linear operations ------------------------------------------------

    def _signed_add(self, other: "ScalarForm", sign: int) -> "ScalarForm":
        self._check_chart(other)
        items = ((key, sign, f, None) for key, f in other.terms.items())
        return ScalarForm(self.chart, _accumulate(dict(self.terms), items))

    def __add__(self, other: "ScalarForm") -> "ScalarForm":
        return self._signed_add(other, 1)

    def __neg__(self):
        return ScalarForm(self.chart, {k: -f for k, f in self.terms.items()})

    def __sub__(self, other: "ScalarForm") -> "ScalarForm":
        return self._signed_add(other, -1)

    def scale(self, value) -> "ScalarForm":
        value = GaussRational.coerce(value)
        if not value:
            return ScalarForm(self.chart)
        return ScalarForm(self.chart, {k: f.scale(value) for k, f in self.terms.items()})

    def mul_poly(self, poly: PolyScalar) -> "ScalarForm":
        items = ((key, 1, f, poly) for key, f in self.terms.items())
        return ScalarForm(self.chart, _accumulate({}, items))

    def conjugate(self) -> "ScalarForm":
        if self.chart.base is not self.chart:
            raise ValueError("a complex frame does not commute with conjugation; move the form out first")
        return ScalarForm(self.chart, {k: f.conjugate() for k, f in self.terms.items()})

    # -- graded operations -------------------------------------------------

    def wedge(self, other: "ScalarForm") -> "ScalarForm":
        self._check_chart(other)
        return ScalarForm(self.chart, _accumulate({}, _wedge_terms(self, other)))

    def exterior_d(self) -> "ScalarForm":
        return ScalarForm(self.chart, _accumulate({}, _exterior_d_terms(self)))

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarForm):
            return NotImplemented
        return self.chart is other.chart and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, hash(f)) for k, f in self.terms.items()))

    def __repr__(self):
        return f"ScalarForm({self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            body = "^".join(f"dx{i + 1}" for i in key)
            coeff = str(self.terms[key])
            parts.append(f"({coeff})" + (f" {body}" if body else ""))
        return " + ".join(parts)


class VectorForm:
    """Tangent-valued form K = sum_a kappa^a (x) d/dx_a, all components one degree.

    Treated as immutable: interior keeps its coefficients as image items and
    its contraction plans, one per target key.
    """

    __slots__ = ("chart", "degree", "comps", "_items", "_plans")

    def __init__(self, chart: "Chart", degree: int, comps: Sequence[ScalarForm]):
        if len(comps) != chart.dim:
            raise ValueError("need one scalar component per tangent axis")
        for comp in comps:
            if comp.terms and comp.degrees() != {degree}:
                raise ValueError(f"component degree mismatch (expected {degree})")
        self.chart = chart
        self.degree = degree
        self.comps = tuple(comps)
        self._items = None
        self._plans = {}

    @staticmethod
    def zero(chart: "Chart", degree: int) -> "VectorForm":
        z = ScalarForm.zero(chart)
        return VectorForm(chart, degree, [z] * chart.dim)

    @staticmethod
    def basis_field(chart: "Chart", axis: int) -> "VectorForm":
        comps = [ScalarForm.zero(chart) for _ in range(chart.dim)]
        comps[axis] = ScalarForm.constant(chart, 1)
        return VectorForm(chart, 0, comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def coefficients(self) -> tuple:
        """axis a -> the image items (_item) of kappa^a's terms, built on first use and kept."""
        if self._items is None:
            self._items = tuple(tuple(starmap(_item, comp.terms.items())) for comp in self.comps)
        return self._items

    def contraction_plan(self, key: tuple) -> tuple:
        """The items (merged key, signed kappa, c) of i_K dx^key, built on first use and kept.

        Contracting slot pos of key, which holds axis a, against a term
        c dx^k of kappa^a gives dx^k wedge (key without slot pos) with sign
        (-1)^pos times the sign of that wedge.
        """
        plan = self._plans.get(key)
        if plan is None:
            rows = self.coefficients()
            plan = []
            for pos, axis in enumerate(key):
                reduced = key[:pos] + key[pos + 1 :]
                for image_key, kappa, c in rows[axis]:
                    merged, sign = _merge_sign(image_key, reduced)
                    if merged is not None:
                        if pos % 2:
                            sign = -sign
                        plan.append((merged, kappa if sign > 0 else -kappa, c))
            plan = self._plans[key] = tuple(plan)
        return plan

    def _check_compatible(self, other: "VectorForm"):
        if self.chart is not other.chart:
            raise ValueError("forms live on different charts")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("vector form degrees differ")

    def _componentwise(self, other: "VectorForm", op) -> "VectorForm":
        self._check_compatible(other)
        degree = other.degree if self.is_zero() else self.degree
        return VectorForm(self.chart, degree, list(map(op, self.comps, other.comps)))

    def __add__(self, other: "VectorForm") -> "VectorForm":
        return self._componentwise(other, operator.add)

    def __neg__(self):
        return VectorForm(self.chart, self.degree, [-c for c in self.comps])

    def __sub__(self, other: "VectorForm") -> "VectorForm":
        return self._componentwise(other, operator.sub)

    def scale(self, value) -> "VectorForm":
        return VectorForm(self.chart, self.degree, [c.scale(value) for c in self.comps])

    def conjugate(self) -> "VectorForm":
        return VectorForm(self.chart, self.degree, [c.conjugate() for c in self.comps])

    def value_projected(self, side: str) -> "VectorForm":
        """Project the tangent value onto T^{1,0} (side "1,0") or T^{0,1} ("0,1")."""
        mat = self.chart.projector(side)
        return VectorForm(self.chart, self.degree, _matrix_times(self.chart, mat, self.comps))

    def __eq__(self, other):
        if not isinstance(other, VectorForm):
            return NotImplemented
        if self.chart is not other.chart:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.comps == other.comps

    def __repr__(self):
        return f"VectorForm(degree={self.degree}, comps={[str(c) for c in self.comps]})"

    def __str__(self):
        parts = [
            f"[{str(c)}] (x) e{a + 1}" for a, c in enumerate(self.comps) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def _matrix_times(chart: "Chart", mat, comps: Sequence[ScalarForm]) -> list:
    """[sum_a mat[b][a] * comps[a] for each row b] for a polynomial matrix mat.

    Each nonzero entry is taken as an image item (_item), so a constant one scales.
    """
    out = []
    for row in mat.entries:
        factors = [(comp, _item((), entry)) for comp, entry in zip(comps, row) if entry]
        items = (
            (key, kappa, f, c)
            for comp, (_, kappa, c) in factors
            for key, f in comp.terms.items()
        )
        out.append(ScalarForm(chart, _accumulate({}, items)))
    return out


class BundleForm:
    """E-valued form over the trivial rank-r bundle: one scalar form per frame section."""

    __slots__ = ("chart", "rank", "comps")

    def __init__(self, chart: "Chart", comps: Sequence[ScalarForm]):
        self.chart = chart
        self.rank = len(comps)
        self.comps = tuple(comps)

    @staticmethod
    def zero(chart: "Chart", rank: int) -> "BundleForm":
        return BundleForm(chart, [ScalarForm.zero(chart)] * rank)

    @staticmethod
    def section(chart: "Chart", rank: int, index: int) -> "BundleForm":
        comps = [ScalarForm.zero(chart) for _ in range(rank)]
        comps[index] = ScalarForm.constant(chart, 1)
        return BundleForm(chart, comps)

    @staticmethod
    def from_scalar(scalar: ScalarForm, rank: int, index: int = 0) -> "BundleForm":
        comps = [ScalarForm.zero(scalar.chart) for _ in range(rank)]
        comps[index] = scalar
        return BundleForm(scalar.chart, comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def _check_compatible(self, other: "BundleForm"):
        if self.chart is not other.chart or self.rank != other.rank:
            raise ValueError("bundle forms not compatible")

    def __add__(self, other: "BundleForm") -> "BundleForm":
        self._check_compatible(other)
        return BundleForm(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return BundleForm(self.chart, [-c for c in self.comps])

    def __sub__(self, other: "BundleForm") -> "BundleForm":
        self._check_compatible(other)
        return BundleForm(self.chart, [a - b for a, b in zip(self.comps, other.comps)])

    def scale(self, value) -> "BundleForm":
        return BundleForm(self.chart, [c.scale(value) for c in self.comps])

    def conjugate(self) -> "BundleForm":
        return BundleForm(self.chart, [c.conjugate() for c in self.comps])

    def __eq__(self, other):
        if not isinstance(other, BundleForm):
            return NotImplemented
        return (
            self.chart is other.chart
            and self.rank == other.rank
            and self.comps == other.comps
        )

    def __str__(self):
        parts = [
            f"[{str(c)}] (x) s{j + 1}" for j, c in enumerate(self.comps) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


# -- wedge / contraction ------------------------------------------------------


def wedge(alpha: ScalarForm, beta: ScalarForm) -> ScalarForm:
    return alpha.wedge(beta)


def _interior_terms(K: VectorForm, target: ScalarForm):
    """The _accumulate items of i_K target: each term f dx^key contributes kappa * f * c
    dx^merged for each item of K's contraction plan for key."""
    plan = K.contraction_plan
    for key, f in target.terms.items():
        for merged, kappa, c in plan(key):
            yield merged, kappa, f, c


def interior(K: VectorForm, target):
    """Interior derivative i_K: sum over axes a of kappa^a wedge (contraction along a).

    Acts componentwise on BundleForm.  For K of form degree k+1 this is the
    algebraic derivation of degree k; it kills all degree-0 forms.
    """
    if isinstance(target, BundleForm):
        return BundleForm(target.chart, [interior(K, c) for c in target.comps])
    if K.chart is not target.chart:
        raise ValueError("forms live on different charts")
    return ScalarForm(target.chart, _accumulate({}, _interior_terms(K, target)))


def contract(K: VectorForm, L: VectorForm) -> VectorForm:
    """i_K L: interior of K into each scalar component of L, keeping L's values.

    Degree-0 L has nothing to contract and yields the zero form (the
    convention the bracket machinery relies on).
    """
    if K.chart is not L.chart:
        raise ValueError("forms live on different charts")
    degree = K.degree - 1 + L.degree
    if L.degree == 0 or degree < 0:
        return VectorForm.zero(K.chart, max(degree, 0))
    return VectorForm(K.chart, degree, [interior(K, comp) for comp in L.comps])


def exterior_d(alpha: ScalarForm) -> ScalarForm:
    return alpha.exterior_d()


# -- brackets -----------------------------------------------------------------


def nr_bracket(K: VectorForm, L: VectorForm) -> VectorForm:
    """Nijenhuis-Richardson bracket: i_K L - (-1)^{kl} i_L K.

    Here k = deg K - 1 and l = deg L - 1 are the derivation degrees; the
    result represents the graded commutator [i_K, i_L] of algebraic
    derivations.
    """
    k = K.degree - 1
    l = L.degree - 1
    first = contract(K, L)
    second = contract(L, K)
    if (k * l) % 2 == 0:
        return first - second
    return first + second


def iterated_nr_bracket(K: VectorForm, L: VectorForm, count: int) -> VectorForm:
    """count-fold [..[K, L]^, L]^..; count = 0 returns K unchanged."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = K
    for _ in range(count):
        out = nr_bracket(out, L)
    return out


def _lie_scalar(K: VectorForm, alpha: ScalarForm) -> ScalarForm:
    """The scalar Lie derivative L_K alpha = [i_K, d] alpha."""
    k = K.degree - 1
    first = interior(K, exterior_d(alpha))
    second = exterior_d(interior(K, alpha))
    if k % 2 == 0:
        return first - second
    return first + second


def fn_bracket(K: VectorForm, L: VectorForm) -> VectorForm:
    """Froelicher-Nijenhuis bracket from its component formula.

    In a coordinate frame [K, L]^a = L_K L^a - (-1)^{kl} L_L K^a for a k-form K
    and an l-form L (Kolar-Michor-Slovak, Natural Operations in Differential
    Geometry, section 8), with L_K the scalar Lie derivative _lie_scalar; for
    vector fields this is the classical Lie bracket.  [K, K]^a = (1 - (-1)^k)
    L_K K^a takes one _lie_scalar per component, and none for even k.  Forms
    written in the frame are bracketed in coordinates and the result moves in.
    """
    if K.chart is not L.chart:
        raise ValueError("forms live on different charts")
    chart = K.chart
    if chart.base is not chart:
        outside = from_frame(K)
        return to_frame(fn_bracket(outside, outside if L is K else from_frame(L)))
    sign = 1 if (K.degree * L.degree) % 2 == 0 else -1
    if L is K:
        if sign == 1:
            return VectorForm.zero(chart, 2 * K.degree)
        return VectorForm(chart, 2 * K.degree, [_lie_scalar(K, ka).scale(2) for ka in K.comps])
    comps = [
        _lie_scalar(K, la) - _lie_scalar(L, ka).scale(sign)
        for ka, la in zip(K.comps, L.comps)
    ]
    return VectorForm(chart, K.degree + L.degree, comps)


# -- coframe substitutions ----------------------------------------------------------


def _row_form(chart: "Chart", row) -> ScalarForm:
    """One matrix row as the 1-form sum_c row[c] dx^c."""
    return ScalarForm(chart, {(c,): entry for c, entry in enumerate(row) if entry})


def _wedge_rows(chart: "Chart", key: tuple, mats) -> ScalarForm:
    """dx^key with slot pos replaced by row key[pos] of mats[pos], wedged in slot order."""
    image = ScalarForm.constant(chart, 1)
    for pos, (k, mat) in enumerate(zip(key, mats)):
        row = _row_form(chart, mat[k])
        image = image.wedge(row) if pos else row
        if not image:
            break
    return image


_UNIT_SIGNS = {GR_ONE: 1, -GR_ONE: -1}


def _item(image_key: tuple, c: PolyScalar) -> tuple:
    """The image item (image key, kappa, c) of the term c dx^image key.

    A constant coefficient is kappa alone, c None: kappa is 1 or -1 for 1 or
    -1 and a GaussRational otherwise, so it scales.  Any other one is c, with
    kappa 1, and is multiplied.
    """
    if len(c.terms) == 1 and (pair := c.terms.get(0)) is not None:
        kappa = GaussRational._raw(*pair, c.den)
        return image_key, _UNIT_SIGNS.get(kappa, kappa), None
    return image_key, 1, c


class ImageTable(dict):
    """key -> the image items (_item) of the terms of the image of dx^key.

    A missing key is built from build(key), a form.
    """

    def __init__(self, build=None):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        items = self[key] = tuple(starmap(_item, self.build(key).terms.items()))
        return items


def pullback_table(chart: "Chart", mat) -> ImageTable:
    """The pullback by mat as a table: dx^key -> the wedge over k in key of sum_c mat[k][c] dx^c."""
    return ImageTable(lambda key: _wedge_rows(chart, key, [mat] * len(key)))


def _substituted(alpha: ScalarForm, table: ImageTable):
    """The _accumulate items of alpha with each dx^key replaced by its image table[key].

    Each term f dx^key contributes kappa * f * c dx^image key for each item
    of table[key]: a scaling of f where c is None, else one product.
    """
    for key, f in alpha.terms.items():
        for image_key, kappa, c in table[key]:
            yield image_key, kappa, f, c


def _substitute(alpha: ScalarForm, table: ImageTable, chart: "Chart | None" = None) -> ScalarForm:
    """alpha substituted by table (_substituted), exact for any coefficients, on chart or alpha's."""
    return ScalarForm(chart or alpha.chart, _accumulate({}, _substituted(alpha, table)))


# -- bidegree machinery ---------------------------------------------------------


def _bidegree_image(chart: "Chart", key: tuple, p: int) -> ScalarForm:
    """Pi^{p,q}(dx^key): each slot replaced by its (1,0) or (0,1) part, p slots (1,0)."""
    P10, P01 = chart.projector("1,0"), chart.projector("0,1")
    out = ScalarForm.zero(chart)
    for holo in combinations(range(len(key)), p):
        mats = [P10 if pos in holo else P01 for pos in range(len(key))]
        out = out + _wedge_rows(chart, key, mats)
    return out


def bidegree_split_scalar(alpha: ScalarForm, p: int, q: int) -> ScalarForm:
    """Pi^{p,q} projection of a homogeneous scalar form."""
    if p < 0 or q < 0:
        raise ValueError("form bidegrees must be non-negative")
    if alpha.is_zero():
        return alpha
    if not alpha.is_homogeneous():
        raise ValueError("bidegree projection needs a homogeneous form")
    if alpha.degree() != p + q:
        raise ValueError(f"(p, q) = ({p}, {q}) does not match form degree {alpha.degree()}")
    chart = alpha.chart
    image = ImageTable(lambda key: _bidegree_image(chart, key, p))
    return _substitute(alpha, chart._coframe_cache.setdefault(("bidegree", p), image))


def bidegree_split(form, p: int, q: int, value_side: str | None = None):
    """Project onto bidegree (p, q); vector forms additionally select the value side.

    Bundle forms are projected componentwise.  The pieces over all p+q = k
    sum back to the input, and the projection is idempotent, both
    identically in the polynomial coefficients.
    """
    if isinstance(form, ScalarForm):
        if value_side is not None:
            raise ValueError("scalar forms have no tangent value to project")
        return bidegree_split_scalar(form, p, q)
    if isinstance(form, BundleForm):
        if value_side is not None:
            raise ValueError("bundle forms have no tangent value to project")
        return BundleForm(form.chart, [bidegree_split_scalar(c, p, q) for c in form.comps])
    if isinstance(form, VectorForm):
        slots = VectorForm(
            form.chart,
            form.degree,
            [bidegree_split_scalar(c, p, q) for c in form.comps],
        )
        return slots.value_projected(value_side)
    raise TypeError(f"cannot bidegree-split {type(form).__name__}")


# -- the chart's frame -------------------------------------------------------------


def _frame_table(base: "Chart", inward: bool) -> ImageTable:
    """dx^key -> its image in the frame (inward), or theta^key -> its image in coordinates."""
    image = pullback_table(base, base.frame[0 if inward else 1])
    return base._coframe_cache.setdefault(("frame", inward), image)


def _change_frame(form, inward: bool):
    base = form.chart.base
    if (form.chart is base) != inward or base.frame is None:
        return form
    chart = base.framed if inward else base
    table = _frame_table(base, inward)
    if isinstance(form, ScalarForm):
        return _substitute(form, table, chart)
    comps = [_substitute(c, table, chart) for c in form.comps]
    if isinstance(form, BundleForm):
        return BundleForm(chart, comps)
    values = base.frame[1 if inward else 0]
    return VectorForm(chart, form.degree, _matrix_times(chart, values, comps))


def to_frame(form):
    """A scalar, vector or bundle form written in its chart's frame, on chart.framed.

    Each dx^k becomes sum_b A[k][b] theta^b, and a vector form's values move
    by A^{-1} (e_a = sum_b A^{-1}[b][a] e'_b); index keys and value axes then
    count theta^b and e'_b.  A form already in the frame, or on a chart
    without one, is returned as it is.  In a builtin chart's frame, e'_{2a}
    and theta^{2a} are of type (1,0) and e'_{2a+1} and theta^{2a+1} of type
    (0,1), so the coefficients are complex.
    """
    return _change_frame(form, True)


def from_frame(form):
    """The inverse of to_frame: theta^b = sum_k A^{-1}[b][k] dx^k, values by A, on chart.base."""
    return _change_frame(form, False)


def _coordinate_d_terms(alpha: ScalarForm, axes):
    """The _accumulate items of sum_k d_k f dx^k wedge dx^I over k in axes, in coordinates."""
    for key, f in alpha.terms.items():
        for axis in axes:
            if axis not in key:
                yield (*_merge_sign((axis,), key), f.partial_derivative(axis), None)


def _frame_d_terms(alpha: ScalarForm, rows):
    """The _accumulate items of sum_k d_k f dx^k wedge theta^I, rows[k] the image items of dx^k."""
    for key, f in alpha.terms.items():
        for k, items in enumerate(rows):
            if not items:
                continue
            df = f.partial_derivative(k)
            if df:
                for image_key, kappa, c in items:
                    merged, sign = _merge_sign(image_key, key)
                    if merged is not None:
                        yield merged, kappa if sign > 0 else -kappa, df, c


def _gaining_part(alpha: ScalarForm, gain: int, key: tuple = ()) -> ScalarForm:
    """The terms of alpha whose key has gain more (1,0) slots than key, on a chart whose J
    is diagonal (Chart.holomorphic_axes)."""
    holomorphic = alpha.chart.holomorphic_axes
    count = len(holomorphic.intersection(key)) + gain
    terms = alpha.terms.items()
    return ScalarForm(alpha.chart, {k: f for k, f in terms if len(holomorphic.intersection(k)) == count})


def _d_theta_table(chart: "Chart", gain: int | None) -> ImageTable:
    """theta^I -> the image items of d(theta^I), built once per key from the coordinate d
    (empty where A is constant, as on a standard chart); with gain 1 or 0, only those of
    _gaining_part(d(theta^I), gain, I)."""
    one = PolyScalar.one(chart.dim)

    def build(key):
        image = to_frame(from_frame(ScalarForm(chart, {key: one})).exterior_d())
        return image if gain is None else _gaining_part(image, gain, key)

    return chart._coframe_cache.setdefault(("d", gain), ImageTable(build))


def _exterior_d_terms(alpha: ScalarForm, gain: int | None = None):
    """The _accumulate items of d alpha; with gain 1 or 0, on a chart whose J is diagonal
    (Chart.holomorphic_axes), only the items whose key has gain more (1,0) slots than the
    key of the term they come from, those of the (1,0) or the (0,1) part of d.

    In coordinates d(f dx^I) = sum_k d_k f dx^k wedge dx^I, and dx^k gains a (1,0) slot
    where k is a (1,0) axis.  On a form written in the frame, d(f theta^I) = df wedge
    theta^I + f d(theta^I): df = sum_k d_k f dx^k with dx^k = sum_b A[k][b] theta^b, so
    the first half is the coframe table's images of the dx^k, cut to the theta^b of the
    type asked; the second is one substitution by the images d(theta^I) (_d_theta_table).
    """
    chart, base = alpha.chart, alpha.chart.base
    if chart is base:
        axes = range(chart.dim)
        if gain is not None:
            axes = [k for k in axes if (k in chart.holomorphic_axes) == gain]
        return _coordinate_d_terms(alpha, axes)
    if gain is None:
        coframe = _frame_table(base, True)
    else:
        one = PolyScalar.one(chart.dim)
        image = ImageTable(lambda key: _gaining_part(to_frame(ScalarForm(base, {key: one})), gain))
        coframe = chart._coframe_cache.setdefault(("dx", gain), image)
    rows = [coframe[(k,)] for k in range(chart.dim)]
    return chain(_frame_d_terms(alpha, rows), _substituted(alpha, _d_theta_table(chart, gain)))


def conjugate_form(form):
    """Complex conjugation; swaps (p,q) <-> (q,p) and the value sides.

    Coefficientwise in coordinates; a form written in a complex frame is
    conjugated there and moved back in.
    """
    if form.chart.base is not form.chart:
        return to_frame(from_frame(form).conjugate())
    return form.conjugate()


# -- convenience builders -----------------------------------------------------


def vector_one_form_from_matrix(chart: "Chart", mat) -> VectorForm:
    """The vector 1-form sum_{a,b} M[b][a] dx^a (x) e_b of an endomorphism field."""
    return VectorForm(chart, 1, [_row_form(chart, mat[b]) for b in range(chart.dim)])


def identity_vector_form(chart: "Chart") -> VectorForm:
    """I = sum_a dx^a (x) e_a; satisfies L_I = d and i_I = degree counting."""
    comps = []
    for a in range(chart.dim):
        comps.append(ScalarForm(chart, {(a,): PolyScalar.one(chart.dim)}))
    return VectorForm(chart, 1, comps)


# -- seeded random generators ---------------------------------------------------


def _random_poly(rng: random.Random, num_vars: int, max_degree: int) -> PolyScalar:
    out = PolyScalar.zero(num_vars)
    for _ in range(rng.randint(1, 2)):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        coeff = GaussRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        out = out + PolyScalar.monomial(coeff, exps, num_vars)
    return out


def random_scalar_form(chart: "Chart", degree: int, max_degree: int, rng: random.Random) -> ScalarForm:
    terms = {}
    for key in combinations(range(chart.dim), degree):
        poly = _random_poly(rng, chart.dim, max_degree)
        if poly:
            terms[key] = poly
    return ScalarForm(chart, terms)


def random_vector_form(chart: "Chart", degree: int, max_degree: int, seed) -> VectorForm:
    """Raw random tangent-valued form, no bidegree structure imposed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    comps = [random_scalar_form(chart, degree, max_degree, rng) for _ in range(chart.dim)]
    return VectorForm(chart, degree, comps)


def random_form(
    chart: "Chart",
    bidegree: tuple,
    value_side: str,
    max_degree: int,
    seed,
) -> VectorForm:
    """Seeded random vector form of exact bidegree, produced by projection.

    A raw random form is generated first and then forced into the requested
    slot bidegree and value side through the chart projectors, so the result
    is exactly of type A^{p,q}(T^{side}) whatever the chart.
    """
    p, q = bidegree
    raw = random_vector_form(chart, p + q, max_degree, seed)
    return bidegree_split(raw, p, q, value_side)


def random_bundle_form(
    chart: "Chart", rank: int, degree: int, max_degree: int, seed
) -> BundleForm:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return BundleForm(
        chart, [random_scalar_form(chart, degree, max_degree, rng) for _ in range(rank)]
    )
