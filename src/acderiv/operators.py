"""Graded operators on bundle-valued forms, plus nilpotent conjugation of matrices.

A DerivationOp is data: a primitive (an action and a tag: nabla, its bigraded
parts, an interior product, an exponential) or a linear combination of
compositions of operators.  Sums, commutators, Lie derivatives and conjugations
are combinations, so an operator can be inspected and prints as a formula.  It
is not a symbolic normal form: operator identities are decided extensionally,
by applying both sides to the generator family of the trivial bundle
(coordinate functions, coordinate differentials, frame sections, and their
products) together with random whole-form probes.

The matrix half of the module realizes the finite-commutability toolkit for
nilpotent conjugation (iterated commutators, closed-form conjugation, and the
transported exponential) on constant AlgebraElements over Gaussian rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain
from math import factorial
from typing import Callable, List, Sequence, Tuple

from .algebra import AlgebraElement, GaussRational, PolyScalar
from .chart import Chart
from .forms import (
    BundleForm,
    ScalarForm,
    VectorForm,
    _accumulate,
    _exterior_d_terms,
    _gaining_part,
    _matrix_times,
    _substitute,
    _wedge_terms,
    bidegree_split,
    conjugate_form,
    from_frame,
    interior,
    pullback_table,
    random_scalar_form,
    to_frame,
)


class DecompositionError(ValueError):
    """Raised when reassembly of a claimed decomposition leaves a residual."""


class NotNilpotentError(ValueError):
    """Raised when an operation requires a nilpotent element and gets none."""


# -- connections --------------------------------------------------------------


class Connection:
    """nabla = d + omega on the trivial rank-r bundle, omega an r x r matrix of 1-forms.

    Treated as immutable: the bigraded parts keep omega's entries cut by type.
    """

    def __init__(self, chart: Chart, rank: int, omega: Sequence[Sequence[ScalarForm]]):
        if rank < 1:
            raise ValueError("bundle rank must be >= 1")
        if len(omega) != rank or any(len(row) != rank for row in omega):
            raise ValueError(f"omega must be {rank}x{rank}")
        for row in omega:
            for entry in row:
                if entry.terms and entry.degrees() != {1}:
                    raise ValueError("connection matrix entries must be 1-forms")
        self.chart = chart
        self.rank = rank
        self.omega = [list(row) for row in omega]

    @staticmethod
    def trivial(chart: Chart, rank: int = 1) -> "Connection":
        zero = ScalarForm.zero(chart)
        return Connection(chart, rank, [[zero] * rank for _ in range(rank)])

    def to_frame(self) -> "Connection":
        """The same connection with omega written in its chart's frame (forms.to_frame)."""
        omega = [[to_frame(entry) for entry in row] for row in self.omega]
        return Connection(self.chart.framed, self.rank, omega)

    @cached_property
    def _omega_parts(self) -> dict:
        """gain -> omega with each entry cut to its _gaining_part, on a chart whose J is diagonal."""
        return {gain: [[_gaining_part(entry, gain) for entry in row] for row in self.omega] for gain in (0, 1)}

    def apply(self, u: BundleForm) -> BundleForm:
        return self.image(u)

    def image(self, u: BundleForm, gain: int | None = None) -> BundleForm:
        """nabla u, (nabla u)^m = d u^m + sum_j omega[m][j] wedge u^j, from the items of d and
        of the wedges; with gain 1 or 0, on a chart whose J is diagonal
        (Chart.holomorphic_axes), only the items whose key has gain more (1,0) slots than
        the key they come from: nabla10 u or nabla01 u.  No dropped item is multiplied.
        """
        if u.chart is not self.chart:
            raise ValueError("forms live on different charts")
        if u.rank != self.rank:
            raise ValueError(f"form rank {u.rank} != connection rank {self.rank}")
        omega = self.omega if gain is None else self._omega_parts[gain]
        comps = []
        for m, row in enumerate(omega):
            items = [_exterior_d_terms(u.comps[m], gain)]
            items += [_wedge_terms(entry, uj) for entry, uj in zip(row, u.comps) if entry.terms and uj.terms]
            comps.append(ScalarForm(self.chart, _accumulate({}, chain(*items))))
        return BundleForm(self.chart, comps)


def random_connection(chart: Chart, rank: int, max_degree: int, seed) -> Connection:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    omega = [
        [random_scalar_form(chart, 1, max_degree, rng) for _ in range(rank)]
        for _ in range(rank)
    ]
    return Connection(chart, rank, omega)


# -- graded operators -----------------------------------------------------------


@dataclass(frozen=True)
class DerivationOp:
    """A graded operator on bundle-valued forms, as data.

    A primitive has an action and a tag.  Any other operator is a combination:
    terms = ((c, (D1, ..., Dm)), ...) is sum c * D1 ∘ ... ∘ Dm, each composition
    applied right to left and the terms summed in order; terms = () is the zero
    operator and ((1, ()),) the identity.
    """

    degree: int
    action: Callable[[BundleForm], BundleForm] | None = None
    tag: str = ""
    terms: Tuple[Tuple[object, Tuple["DerivationOp", ...]], ...] = ()

    def __call__(self, u: BundleForm) -> BundleForm:
        if self.action is not None:
            return self.action(u)
        out = None
        for c, factors in self.terms:
            image = u
            for factor in reversed(factors):
                image = factor(image) if factor.action is None else factor.action(image)
            if c == -1 and out is not None:
                out = out - image
            else:
                image = image if c == 1 else -image if c == -1 else image.scale(c)
                out = image if out is None else out + image
        return BundleForm.zero(u.chart, u.rank) if out is None else out

    def __str__(self) -> str:
        if self.action is not None:
            return self.tag
        text = ""
        for c, factors in self.terms:
            word = "∘".join(f.tag if f.action is not None else f"({f})" for f in factors) or "id"
            text += f" - {word}" if c == -1 else f" + {word}" if c == 1 else f" + ({c})·{word}"
        return text[3:] if text.startswith(" + ") else f"-{text[3:]}" if text else "0"

    def _summands(self):
        """The terms of self, a primitive as its one-factor composition."""
        return self.terms if self.action is None else ((1, (self,)),)

    def __add__(self, other: "DerivationOp") -> "DerivationOp":
        if self.degree != other.degree:
            raise ValueError("cannot combine operators of different degrees")
        return DerivationOp(self.degree, terms=self._summands() + other._summands())

    def __neg__(self) -> "DerivationOp":
        return self.scale(-1)

    def __sub__(self, other: "DerivationOp") -> "DerivationOp":
        return self + -other

    def scale(self, value) -> "DerivationOp":
        return DerivationOp(self.degree, terms=tuple((c * value, f) for c, f in self._summands()))


def identity_op() -> DerivationOp:
    return DerivationOp(0, terms=((1, ()),))


def interior_op(K: VectorForm) -> DerivationOp:
    return DerivationOp(K.degree - 1, partial(interior, K), f"i_[{K.degree}-form]")


def nabla(conn: Connection) -> DerivationOp:
    return DerivationOp(1, conn.apply, "∇")


def graded_commutator(d1: DerivationOp, d2: DerivationOp) -> DerivationOp:
    """[D1, D2] = D1 D2 - (-1)^{k1 k2} D2 D1."""
    sign = -1 if (d1.degree * d2.degree) % 2 else 1
    return DerivationOp(d1.degree + d2.degree, terms=((1, (d1, d2)), (-sign, (d2, d1))))


def _bundle_bidegree_parts(u: BundleForm):
    """Split into homogeneous (p, q) pieces, componentwise over the frame."""
    degrees = set()
    for comp in u.comps:
        degrees |= comp.degrees()
    for k in sorted(degrees):
        part = BundleForm(u.chart, [c.degree_part(k) for c in u.comps])
        for p in range(k + 1):
            piece = bidegree_split(part, p, k - p)
            if not piece.is_zero():
                yield p, k - p, piece


def _shifted(conn: Connection, dp: int, dq: int, u: BundleForm) -> BundleForm:
    """sum over the (p, q) pieces of u of Pi^{p+dp,q+dq} nabla Pi^{p,q} u.

    Where J is diagonal (Chart.holomorphic_axes) the bidegree of theta^I is read
    off I, so this is Connection.image(u, dp): the items of nabla u whose key
    gains dp (1,0) slots, with no projection.  Elsewhere each piece is projected.
    """
    if conn.chart.holomorphic_axes is not None:
        return conn.image(u, dp)
    out = BundleForm.zero(u.chart, u.rank)
    for p, q, piece in _bundle_bidegree_parts(u):
        out = out + bidegree_split(conn.apply(piece), p + dp, q + dq)
    return out


def nabla10(conn: Connection) -> DerivationOp:
    """nabla10 = sum Pi^{p+1,q} nabla Pi^{p,q}, the (1,0) part of nabla."""
    return DerivationOp(1, partial(_shifted, conn, 1, 0), "∇¹⁰")


def nabla01(conn: Connection) -> DerivationOp:
    """nabla01 = sum Pi^{p,q+1} nabla Pi^{p,q}, the (0,1) part of nabla."""
    return DerivationOp(1, partial(_shifted, conn, 0, 1), "∇⁰¹")


def connection_split(conn: Connection):
    """nabla = nabla10 + nabla01 - i_theta - i_thetabar (Example 3.1), as four operators.

    The torsion interior terms use the chart's frame-computed torsion form, so
    the splitting identity is a genuine cross-check between the two routes.
    """
    theta = conn.chart.torsion()
    return nabla10(conn), nabla01(conn), interior_op(theta), interior_op(conjugate_form(theta))


_LIE_BASES = {"full": nabla, "1,0": nabla10, "0,1": nabla01}


def lie_derivative(K: VectorForm, conn: Connection, flavor: str = "full") -> DerivationOp:
    """[i_K, nabla] and its (1,0)/(0,1) flavors [i_K, nabla10], [i_K, nabla01].

    Each flavor builds only its own part of nabla.
    """
    if flavor not in _LIE_BASES:
        raise ValueError(f"unknown Lie derivative flavor {flavor!r}")
    return graded_commutator(interior_op(K), _LIE_BASES[flavor](conn))


def series(x, step, count: int, shift: int = 0):
    """sum_{j<=count} step^j(x) / (j + shift)!, stopping at the first zero term.

    The one finite expansion behind the Theorem 3.8 bracket sums, the matrix
    exponentials and closed forms.  Stopping early is exact because every
    step in use is linear, so step^j(x) = 0 kills all later terms.
    The weight 1/(j + shift)! is applied only where it is not 1.
    """

    def weighted(power, j: int):
        weight = factorial(j + shift)
        return power.scale(Fraction(1, weight)) if weight > 1 else power

    out = weighted(x, 0)
    power = x
    for j in range(1, count + 1):
        power = step(power)
        if power.is_zero():
            break
        out = out + weighted(power, j)
    return out


def vanishing_order(x, step, bound: int):
    """The least k <= bound with step^k(x) = 0, or None."""
    power = x
    for k in range(bound):
        if power.is_zero():
            return k
        power = step(power)
    return bound if power.is_zero() else None


def exp_interior(phi: VectorForm) -> Tuple[DerivationOp, DerivationOp]:
    """(e^{i_phi}, e^{-i_phi}) for a form-degree-1 phi, exact.

    i_phi is a degree-0 derivation that kills functions, so e^{±i_phi} is the
    algebra automorphism (exp ±Φ)^*, with Φ[a][b] the theta^b coefficient of
    i_phi theta^a = phi^a: each theta^a goes to sum_b exp(±Φ)[a][b] theta^b.
    Each map is one substitution by the wedged rows of matrix_exp_nilpotent(±Φ)
    (forms.pullback_table), built per key on first use, and acts on forms
    written in phi's basis.  nilpotency_index(Φ) certifies the finite series;
    NotNilpotentError is raised where Φ is not nilpotent.
    """
    if phi.degree != 1:
        raise ValueError("exponential conjugation needs a form-degree-1 argument")
    chart = phi.chart
    zero = PolyScalar.zero(chart.dim)
    Phi = AlgebraElement([[comp.terms.get((b,), zero) for b in range(chart.dim)] for comp in phi.comps])

    plus = pullback_table(chart, matrix_exp_nilpotent(Phi))
    minus = pullback_table(chart, matrix_exp_nilpotent(-Phi))
    return (
        DerivationOp(0, partial(_pullback, chart, plus), "e^{i_φ}"),
        DerivationOp(0, partial(_pullback, chart, minus), "e^{-i_φ}"),
    )


def _pullback(chart: Chart, table, u: BundleForm) -> BundleForm:
    """u pulled back by the substitution table on chart (forms.pullback_table)."""
    if u.chart is not chart:
        raise ValueError("forms live on different charts")
    return BundleForm(u.chart, [_substitute(c, table) for c in u.comps])


def conjugate_operator(op: DerivationOp, phi: VectorForm) -> DerivationOp:
    """e^{-i_phi} ∘ D ∘ e^{i_phi}, one composition of the exact exponentials, for a D
    acting in phi's basis.

    The exponentials run in the frame of phi's chart (forms.to_frame).  Where
    phi is written in coordinates, to_frame and from_frame sit around each
    exponential, so D and the result act on coordinate forms.
    """
    exp_plus, exp_minus = exp_interior(to_frame(phi))
    if phi.chart is not phi.chart.base:
        return DerivationOp(op.degree, terms=((1, (exp_minus, op, exp_plus)),))
    into, out = DerivationOp(0, to_frame, "to_frame"), DerivationOp(0, from_frame, "from_frame")
    return DerivationOp(op.degree, terms=((1, (out, exp_minus, into, op, out, exp_plus, into)),))


# -- generator family and extensional residuals ---------------------------------


def generator_family(chart: Chart, rank: int) -> List[Tuple[str, BundleForm]]:
    """Coordinate functions, coordinate differentials, frame sections, and
    mixed products, all tensored against every frame section."""
    family: List[Tuple[str, BundleForm]] = []
    for j in range(rank):
        family.append((f"s{j + 1}", BundleForm.section(chart, rank, j)))
    for j in range(rank):
        for a in range(chart.dim):
            family.append(
                (
                    f"x{a + 1}*s{j + 1}",
                    BundleForm.from_scalar(
                        ScalarForm.coordinate_function(chart, a), rank, j
                    ),
                )
            )
    for j in range(rank):
        for a in range(chart.dim):
            family.append(
                (
                    f"dx{a + 1}*s{j + 1}",
                    BundleForm.from_scalar(ScalarForm.basis_covector(chart, a), rank, j),
                )
            )
    for j in range(rank):
        for a in range(chart.dim):
            for b in range(chart.dim):
                form = ScalarForm.basis_covector(chart, b).mul_poly(
                    PolyScalar.variable(a, chart.dim)
                )
                family.append((f"x{a + 1}*dx{b + 1}*s{j + 1}", BundleForm.from_scalar(form, rank, j)))
    return family


def operator_residuals(
    lhs: DerivationOp,
    rhs: DerivationOp,
    family: Sequence[Tuple[str, BundleForm]],
) -> List[Tuple[str, BundleForm]]:
    """Nonzero (lhs - rhs) applications over the family; empty means equal.

    The family may be written in a chart's frame (forms.to_frame), where lhs
    and rhs must then act: only a nonzero residual moves back out, so
    residuals are reported in coordinates in either basis.  Forms are
    canonical, so the sides are compared with == and only an unequal pair is
    subtracted.
    """
    out = []
    for member, u in family:
        left, right = lhs(u), rhs(u)
        if left != right:
            out.append((member, from_frame(left - right)))
    return out


def _distinct(items) -> Tuple[list, List[int]]:
    """(the distinct items in first-seen order, each item's index among them), by exact ==.

    A repeated item is dropped as soon as it is matched, so from a generator
    argument no repeated item outlives its comparison.
    """
    distinct: list = []
    index = []
    for item in items:
        k = next((k for k, seen in enumerate(distinct) if seen == item), len(distinct))
        if k == len(distinct):
            distinct.append(item)
        index.append(k)
    return distinct, index


def conjugation_residuals(
    phi: VectorForm,
    groups: Sequence[Tuple[str, DerivationOp, DerivationOp]],
    family: Sequence[Tuple[str, BundleForm]],
) -> List[Tuple[str, List[Tuple[str, BundleForm]]]]:
    """[(label, nonzero (e^{-i_phi} D e^{i_phi} - R) applications over the family)]
    for each group (label, D, R) asserting e^{-i_phi} D e^{i_phi} = R.

    Everything runs in the frame of phi's chart (forms.to_frame), where D and
    R must act: each member u moves in once, and only a nonzero residual moves
    back out, which is exact because the change is invertible.  The
    conjugation is the exact exponential (exp_interior), no bracket formula:
    it is the brute-force oracle the bracket formulas are compared against.
    Per member it applies e^{i_phi} once, each D once, e^{-i_phi} once per distinct D
    image (exactly equal images share it) in the first group that needs it,
    and each distinct R once (equal as data: the same terms over the same
    primitives); every value is dropped after the last group that needs it.
    As in operator_residuals, only an unequal pair is subtracted.  Residuals
    come in family order.
    """
    exp_plus, exp_minus = exp_interior(to_frame(phi))
    rhs_ops, rhs_slot = _distinct(R for _, _, R in groups)
    out = [(label, []) for label, _, _ in groups]
    for member, u in family:
        u = to_frame(u)
        inner = exp_plus(u)
        lhs, lhs_slot = _distinct(D(inner) for _, D, _ in groups)
        del inner
        rhs: list = [None] * len(rhs_ops)
        for g, (_, bad) in enumerate(out):
            k, h = lhs_slot[g], rhs_slot[g]
            if lhs_slot.index(k) == g:
                lhs[k] = exp_minus(lhs[k])  # the image gives way to its conjugate
            if rhs_slot.index(h) == g:
                rhs[h] = rhs_ops[h](u)
            if lhs[k] != rhs[h]:
                bad.append((member, from_frame(lhs[k] - rhs[h])))
            if k not in lhs_slot[g + 1:]:
                lhs[k] = None
            if h not in rhs_slot[g + 1:]:
                rhs[h] = None
    return out


def _mul_bundle_poly(u: BundleForm, poly: PolyScalar) -> BundleForm:
    return BundleForm(u.chart, [c.mul_poly(poly) for c in u.comps])


def _extract_vector_from_function_action(
    op: DerivationOp, conn: Connection, degree: int
) -> VectorForm:
    """Read off K with K^a = Dbar(x^a) via D(x^a s_1) - x^a D(s_1).

    That difference is i_K dx^a, indexed by coordinate axis; where conn is
    written in the frame (dx^a = sum_b A[a][b] theta^b), the frame components
    of K are A^{-1} times it.
    """
    chart = conn.chart
    s1 = BundleForm.section(chart, conn.rank, 0)
    d_s1 = op(s1)
    comps = []
    for a in range(chart.dim):
        xa = PolyScalar.variable(a, chart.dim)
        xa_s1 = BundleForm.from_scalar(ScalarForm.function(chart, xa), conn.rank, 0)
        diff = op(xa_s1) - _mul_bundle_poly(d_s1, xa)
        comps.append(diff.comps[0])
    if chart.base is not chart:
        comps = _matrix_times(chart, chart.base.frame[1], comps)
    try:
        return VectorForm(chart, degree, comps)
    except ValueError as exc:
        raise DecompositionError(
            f"function action of {op} is not that of a degree-{degree} derivation: {exc}"
        ) from exc


def _extract_vector_from_covector_action(
    op: DerivationOp, conn: Connection, degree: int
) -> VectorForm:
    """Read off L with L^a = D(dx^a s_1) for an algebraic (function-killing) D.

    Where conn is written in the frame, dx^a is the chart's theta^a, so the
    components read are L's in the frame.
    """
    chart = conn.chart
    comps = []
    for a in range(chart.dim):
        dxa = BundleForm.from_scalar(ScalarForm.basis_covector(chart, a), conn.rank, 0)
        comps.append(op(dxa).comps[0])
    try:
        return VectorForm(chart, degree, comps)
    except ValueError as exc:
        raise DecompositionError(
            f"covector action of {op} is not that of an algebraic degree-{degree - 1} derivation: {exc}"
        ) from exc


def _require_reassembly(op: DerivationOp, rebuilt: DerivationOp, conn: Connection, what: str):
    """Raise DecompositionError naming op and the first generator where rebuilt misses it.

    The test set is the coordinate generator family, moved into the frame
    where conn is written in it.
    """
    family = generator_family(conn.chart.base, conn.rank)
    if conn.chart is not conn.chart.base:
        family = [(label, to_frame(u)) for label, u in family]
    bad = operator_residuals(op, rebuilt, family)
    if bad:
        label, res = bad[0]
        raise DecompositionError(f"{what} misses {op} on {label}: {res}")


def decompose_derivation(
    op: DerivationOp, conn: Connection
) -> Tuple[VectorForm, VectorForm]:
    """The unique (K, L) with D = L_K + i_L; raises if reassembly fails.

    K is read from the action on coordinate functions, L from the action of
    the algebraic remainder D - L_K on coordinate differentials; the
    reassembly check over the generator family is what certifies that the
    input was a derivation at all.
    """
    k = op.degree
    K = _extract_vector_from_function_action(op, conn, k)
    lie_k = lie_derivative(K, conn, "full")
    remainder = op - lie_k
    L = _extract_vector_from_covector_action(remainder, conn, k + 1)
    _require_reassembly(op, lie_k + interior_op(L), conn, "reassembly L_K + i_L")
    return K, L


def refined_decompose(
    op: DerivationOp, conn: Connection
) -> Tuple[VectorForm, VectorForm, VectorForm, VectorForm]:
    """One quadruple (K', K'', L', L'') with D = L10_{K'} + L01_{K''} + i_{L'} + i_{L''}.

    Built constructively: K is extracted as in the coarse decomposition and
    split by tangent-value side; subtracting the two Lie pieces leaves an
    algebraic remainder whose vector form is split the same way.  The output
    is verified by reassembly and is not claimed unique.
    """
    k = op.degree
    K = _extract_vector_from_function_action(op, conn, k)
    K10 = K.value_projected("1,0")
    K01 = K.value_projected("0,1")
    lie10 = lie_derivative(K10, conn, "1,0")
    lie01 = lie_derivative(K01, conn, "0,1")
    remainder = op - lie10 - lie01
    L_total = _extract_vector_from_covector_action(remainder, conn, k + 1)
    L10 = L_total.value_projected("1,0")
    L01 = L_total.value_projected("0,1")
    rebuilt = lie10 + lie01 + interior_op(L10) + interior_op(L01)
    _require_reassembly(op, rebuilt, conn, "refined reassembly")
    return K10, K01, L10, L01


# -- finite commutability of matrices (the Def 3.5 playground) --------------------


def nilpotency_index(x: AlgebraElement) -> int:
    """Least N >= 1 with x^N = 0; raises NotNilpotentError past the dimension bound."""
    order = vanishing_order(x, lambda power: power * x, x.dim - 1)
    if order is None:
        raise NotNilpotentError("element is not nilpotent within the dimension bound")
    return order + 1


def matrix_exp_nilpotent(x: AlgebraElement) -> AlgebraElement:
    """Finite exponential series of a nilpotent constant or polynomial matrix; exact.

    Written I + sum_{j>=1} x^j/j!, so that no power is a product with I.
    """
    ident = AlgebraElement.identity(x.dim, x.num_vars)
    return ident + series(x, lambda power: power * x, nilpotency_index(x) - 2, shift=1)


def algebra_iterated_bracket(
    x: AlgebraElement, y: AlgebraElement, count: int
) -> AlgebraElement:
    """[x, y]^{(count)}: count nested commutators with y; count = 0 is x itself."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = x
    for _ in range(count):
        out = out.commutator(y)
    return out


def commutable_degree(x: AlgebraElement, y: AlgebraElement) -> int:
    """Least k >= 1 with [x, y]^{(k)} = 0, searched up to 2*dim - 1.

    For nilpotent y the bound always suffices (ad_y is nilpotent of order
    at most 2*dim - 1); exceeding it is an error, not an infinite loop.
    """

    def ad_y(bracket):
        return bracket.commutator(y)

    k = vanishing_order(ad_y(x), ad_y, 2 * x.dim - 2)
    if k is None:
        raise NotNilpotentError("no commutable degree within the 2*dim - 1 bound")
    return k + 1


def conjugation_closed_form(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """sum_{i < k} [x, y]^{(i)} / i! for k-commutable x; equals e^{-y} x e^{y}.

    For nilpotent y, (ad_y)^(2*dim - 1) = 0, so the series stops at the
    commutable degree by itself.
    """
    nilpotency_index(y)
    return series(x, lambda bracket: bracket.commutator(y), 2 * x.dim - 1)


def conjugate_by_exponential(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The series oracle e^{-y} x e^{y}, computed independently of the closed form."""
    return matrix_exp_nilpotent(-y) * x * matrix_exp_nilpotent(y)


def conjugated_exponential(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """e^{-y} e^{x} e^{y} via the transported element: e^{sum [x,y]^{(i)}/i!}.

    Also certifies the transported element is nilpotent with the same power
    bound N as x (z^N = 0), which is what makes its exponential finite.
    """
    n = nilpotency_index(x)
    nilpotency_index(y)
    z = conjugation_closed_form(x, y)
    if vanishing_order(z, lambda power: power * z, n - 1) is None:
        raise NotNilpotentError("transported element does not inherit the nilpotency bound")
    return matrix_exp_nilpotent(z)


def random_matrix(dim: int, rng: random.Random) -> AlgebraElement:
    return AlgebraElement(
        [
            [
                GaussRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
    )


def random_strict_upper(dim: int, rng: random.Random) -> AlgebraElement:
    return AlgebraElement(
        [
            [
                GaussRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                if j > i
                else GaussRational(0)
                for j in range(dim)
            ]
            for i in range(dim)
        ]
    )
