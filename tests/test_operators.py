"""Derivation operators, connection splitting, exponential conjugation, matrix kit."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from acderiv import (
    AlgebraElement,
    Connection,
    VectorForm,
    algebra_iterated_bracket,
    bidegree_split,
    commutable_degree,
    conjugate_form,
    conjugate_operator,
    conjugation_closed_form,
    conjugated_exponential,
    connection_split,
    contract,
    decompose_derivation,
    exp_interior,
    fn_bracket,
    graded_commutator,
    identity_vector_form,
    interior,
    lie_derivative,
    nabla,
    nr_bracket,
    random_form,
    refined_decompose,
)
from acderiv.forms import (
    BundleForm,
    ScalarForm,
    random_bundle_form,
    random_scalar_form,
    random_vector_form,
    to_frame,
    vector_one_form_from_matrix,
)
from acderiv import operators
from acderiv.operators import (
    DecompositionError,
    DerivationOp,
    NotNilpotentError,
    conjugate_by_exponential,
    conjugation_residuals,
    generator_family,
    identity_op,
    interior_op,
    matrix_exp_nilpotent,
    nilpotency_index,
    operator_residuals,
    random_connection,
    random_matrix,
    random_strict_upper,
    series,
    vanishing_order,
)
from acderiv.algebra import GaussRational, PolyScalar
from acderiv.chart import Chart
from acderiv.verifier import (
    IdentityCheck,
    _CheckContext,
    _closed_form_1,
    check_identity,
    parse_chart_name,
)


def ops_equal(lhs, rhs, chart, rank):
    return not operator_residuals(lhs, rhs, generator_family(chart, rank))


# -- nabla ----------------------------------------------------------------------


def test_nabla_zero_connection_is_componentwise_d(std2):
    conn = Connection.trivial(std2, 2)
    nab = nabla(conn)
    u = BundleForm(
        std2,
        [
            ScalarForm.basis_covector(std2, 1).mul_poly(PolyScalar.variable(0, 4)),
            ScalarForm.coordinate_function(std2, 2),
        ],
    )
    image = nab(u)
    assert image.comps[0] == u.comps[0].exterior_d()
    assert image.comps[1] == u.comps[1].exterior_d()


def test_nabla_module_leibniz(twisted2):
    conn = random_connection(twisted2, 2, 2, "leibniz-conn")
    nab = nabla(conn)
    rng = random.Random("leibniz")
    for degree in (0, 1, 2):
        u = BundleForm(
            twisted2, [random_scalar_form(twisted2, degree, 1, rng) for _ in range(2)]
        )
        f = PolyScalar.variable(1, 4) * PolyScalar.variable(3, 4)
        fu = BundleForm(twisted2, [c.mul_poly(f) for c in u.comps])
        df = ScalarForm.function(twisted2, f).exterior_d()
        expected = BundleForm(
            twisted2, [df.wedge(c) + nab(u).comps[j].mul_poly(f) for j, c in enumerate(u.comps)]
        )
        assert nab(fu) == expected


def test_nabla_degree_on_sections(twisted2):
    conn = random_connection(twisted2, 3, 2, "deg-conn")
    section = BundleForm.section(twisted2, 3, 1)
    image = nabla(conn)(section)
    assert all(c.is_zero() or c.degrees() == {1} for c in image.comps)


def test_nabla_rank_mismatch(twisted2):
    conn = random_connection(twisted2, 2, 1, "rank-conn")
    with pytest.raises(ValueError):
        nabla(conn)(BundleForm.section(twisted2, 3, 0))


# -- connection splitting -----------------------------------------------------------


def test_connection_split_standard_scalar_degenerates(std2):
    conn = Connection.trivial(std2, 1)
    n10, n01, ith, ithb = connection_split(conn)
    fam = generator_family(std2, 1)
    zero = BundleForm.zero(std2, 1)
    for label, u in fam:
        assert ith(u) == zero or ith(u).is_zero()
        assert ithb(u).is_zero()
    assert ops_equal(nabla(conn), n10 + n01, std2, 1)


def test_connection_split_reassembles_nabla(twisted2):
    conn = random_connection(twisted2, 2, 2, "split-conn")
    n10, n01, ith, ithb = connection_split(conn)
    assert ops_equal(nabla(conn), n10 + n01 - ith - ithb, twisted2, 2)


def test_connection_split_bidegrees(twisted2):
    conn = random_connection(twisted2, 2, 2, "bideg-conn")
    n10, n01, ith, ithb = connection_split(conn)
    # check the (p, q) shifts on a generator of known bidegree
    u = BundleForm.from_scalar(
        bidegree_split(ScalarForm.basis_covector(twisted2, 0), 1, 0), 2, 0
    )
    for op, (dp, dq) in [(n10, (1, 0)), (n01, (0, 1)), (ith, (2, -1)), (ithb, (-1, 2))]:
        image = op(u)
        p, q = 1 + dp, 0 + dq
        if p < 0 or q < 0:
            assert image.is_zero()
            continue
        projected = BundleForm(
            twisted2,
            [
                bidegree_split(c, p, q) if not c.is_zero() else c
                for c in image.comps
            ],
        )
        assert projected == image


def _projected_part(conn, dp, u):
    """sum over the (p, q) pieces of u of Pi^{p+dp,q+1-dp} nabla Pi^{p,q} u: the projector path."""
    out = BundleForm.zero(u.chart, u.rank)
    for p, q, piece in operators._bundle_bidegree_parts(u):
        out = out + bidegree_split(conn.apply(piece), p + dp, q + 1 - dp)
    return out


@pytest.mark.parametrize("chart_name", ["diagonal:2", "twisted:2 frame"])
def test_parts_of_nabla_where_J_is_diagonal_are_its_projected_pieces(chart_name, diagonal_J):
    # a bare chart with J = diag(i, -i, ...) keeps its parts' items in coordinates, a
    # builtin chart's frame in the frame, where d(theta^I) has parts of every bidegree
    if chart_name == "diagonal:2":
        conn = random_connection(Chart(2, diagonal_J(2)), 2, 1, "diagonal-parts")
    else:
        conn = random_connection(parse_chart_name("twisted:2"), 2, 1, "diagonal-parts").to_frame()
    assert conn.chart.holomorphic_axes is not None
    rng = random.Random(f"diagonal-parts-{chart_name}")
    probes = [random_bundle_form(conn.chart, 2, degree, 1, rng) for degree in range(conn.chart.dim + 1)]
    mixed = probes[1] + BundleForm(conn.chart, probes[2].comps[:1] + probes[3].comps[1:])
    for u in probes + [mixed]:
        assert operators.nabla10(conn)(u) == _projected_part(conn, 1, u)
        assert operators.nabla01(conn)(u) == _projected_part(conn, 0, u)


@pytest.mark.parametrize("chart_name", ["standard:2", "twisted:2"])
def test_framed_parts_of_nabla_multiply_no_item_they_drop(chart_name, term_pairs, monkeypatch):
    # in a builtin chart's frame J is diagonal: the parts keep items of nabla u by their keys
    # before any product, so together they make at most nabla's term pairs, and project nothing
    chart = parse_chart_name(chart_name)
    conn = random_connection(chart, 2, 1, f"dropped-{chart_name}").to_frame()
    rng = random.Random(f"dropped-probes-{chart_name}")
    probes = [to_frame(random_bundle_form(chart, 2, degree, 1, rng)) for degree in range(chart.dim + 1)]

    def images_and_pairs(op):
        for u in probes:
            op(u)  # builds the d(theta^I) image tables
        term_pairs.clear()
        return [op(u) for u in probes], sum(term_pairs)

    full, full_pairs = images_and_pairs(nabla(conn))

    def refuse(*args):
        raise AssertionError("the framed parts of nabla project nothing")

    monkeypatch.setattr(operators, "bidegree_split", refuse)
    monkeypatch.setattr(Connection, "apply", refuse)
    dels, del_pairs = images_and_pairs(operators.nabla10(conn))
    dbars, dbar_pairs = images_and_pairs(operators.nabla01(conn))
    assert 0 < del_pairs + dbar_pairs <= full_pairs
    theta = conn.chart.torsion()
    for u, image, del_u, dbar_u in zip(probes, full, dels, dbars):
        assert image == del_u + dbar_u - interior(theta, u) - interior(conjugate_form(theta), u)


# -- graded commutator ---------------------------------------------------------------


def test_commutator_d_with_itself_vanishes(twisted2):
    conn = Connection.trivial(twisted2, 1)
    d_op = nabla(conn)
    assert ops_equal(
        graded_commutator(d_op, d_op),
        graded_commutator(d_op, d_op).scale(0),
        twisted2,
        1,
    )


def test_commutator_vector_fields_anticommutator(std2):
    iX = interior_op(VectorForm.basis_field(std2, 0))
    iY = interior_op(VectorForm.basis_field(std2, 1))
    assert ops_equal(graded_commutator(iX, iY), graded_commutator(iX, iY).scale(0), std2, 1)


def test_commutator_relation_eq24(twisted2):
    conn = random_connection(twisted2, 2, 1, "eq24-conn")
    K = random_vector_form(twisted2, 2, 1, "eq24-K")
    L = random_vector_form(twisted2, 2, 1, "eq24-L")
    k, l = 2, 1
    lhs = graded_commutator(lie_derivative(K, conn), interior_op(L))
    sign = (-1) ** (k * l)
    rhs = interior_op(fn_bracket(K, L)) - lie_derivative(contract(L, K), conn).scale(sign)
    assert ops_equal(lhs, rhs, twisted2, 2)


def test_graded_jacobi_spot(twisted2):
    conn = Connection.trivial(twisted2, 1)
    d_op = nabla(conn)
    iK = interior_op(random_vector_form(twisted2, 2, 1, "jacobi-K"))
    iL = interior_op(random_vector_form(twisted2, 1, 1, "jacobi-L"))
    a, b, c = d_op, iK, iL
    ka, kb, kc = a.degree, b.degree, c.degree
    lhs = graded_commutator(a, graded_commutator(b, c))
    mid = graded_commutator(graded_commutator(a, b), c)
    rhs = graded_commutator(b, graded_commutator(a, c)).scale((-1) ** (ka * kb))
    assert ops_equal(lhs, mid + rhs, twisted2, 1)


# -- operators as data ---------------------------------------------------------------


@pytest.mark.parametrize("kdeg", [1, 2])
def test_lie_derivative_is_the_signed_commutator_data(twisted2, kdeg):
    conn = random_connection(twisted2, 2, 1, f"data-conn-{kdeg}")
    K = random_vector_form(twisted2, kdeg, 1, f"data-K-{kdeg}")
    lie = lie_derivative(K, conn)
    assert lie.action is None and lie.degree == kdeg
    i_K = lie.terms[0][1][0]
    assert i_K.action.func is interior and i_K.action.args == (K,)
    assert interior_op(K).action.args == (K,)
    # [i_K, nabla] = i_K nabla - (-1)^{(k-1) 1} nabla i_K
    sign = (-1) ** (kdeg - 1)
    assert lie.terms == ((1, (i_K, nabla(conn))), (-sign, (nabla(conn), i_K)))


@pytest.mark.parametrize("flavor, shift", [("1,0", (1, 0)), ("0,1", (0, 1))])
def test_lie_flavors_build_only_their_part_of_nabla(monkeypatch, twisted2, flavor, shift):
    def untouchable(*args):
        raise AssertionError("a Lie flavor built the torsion terms of the split")

    monkeypatch.setattr(Chart, "torsion", untouchable)
    monkeypatch.setattr(operators, "conjugate_form", untouchable)
    conn = random_connection(twisted2, 2, 1, "flavor-data-conn").to_frame()
    K = to_frame(random_vector_form(twisted2, 1, 1, "flavor-data-K"))
    lie = lie_derivative(K, conn, flavor)
    assert lie.action is None and lie.degree == 1
    i_K, base = lie.terms[0][1]
    assert lie.terms == ((1, (i_K, base)), (-1, (base, i_K)))
    assert i_K.action.func is interior and i_K.action.args == (K,)
    assert base.action.func is operators._shifted and base.action.args == (conn, *shift)


def test_conjugate_operator_is_one_composition(monkeypatch, twisted2):
    made = []
    real = operators.exp_interior
    monkeypatch.setattr(operators, "exp_interior", lambda form: made.append(real(form)) or made[-1])
    D = nabla(random_connection(twisted2, 2, 1, "conj-data-conn").to_frame())
    phi = random_form(twisted2, (0, 1), "1,0", 1, "conj-data-phi")
    op = conjugate_operator(D, to_frame(phi))
    [(e_plus, e_minus)] = made
    assert op.action is None and op.degree == 1
    assert op.terms == ((1, (e_minus, D, e_plus)),)
    # a coordinate phi moves each exponential's input into the frame and its image out
    assert str(conjugate_operator(nabla(Connection.trivial(twisted2, 1)), phi)) == (
        "from_frame∘e^{-i_φ}∘to_frame∘∇∘from_frame∘e^{i_φ}∘to_frame"
    )


def test_operator_display_is_derived_from_the_terms():
    conn, phi, _, _ = t38_inputs("T3.8.1", "twisted:2", rank=1, degree=1)
    assert str(t381_rhs(conn, phi)) == "∇ - i_[1-form]∘∇ + ∇∘i_[1-form] - i_[2-form]"
    nab = nabla(conn)
    half = nab.scale(Fraction(1, 2))
    assert str(half + half) == "(1/2)·∇ + (1/2)·∇"
    assert str(-(nab - half)) == "-∇ + (1/2)·∇"
    assert str(graded_commutator(nab, nab + nab)) == "∇∘(∇ + ∇) + (∇ + ∇)∘∇"
    assert (str(identity_op()), str(DerivationOp(2))) == ("id", "0")


def test_zero_identity_and_scaled_sums_apply(twisted2):
    conn = random_connection(twisted2, 2, 1, "apply-conn")
    nab = nabla(conn)
    u = random_bundle_form(twisted2, 2, 1, 1, "apply-u")
    image = DerivationOp(2)(u)
    assert image.is_zero() and (image.chart, image.rank) == (twisted2, 2)
    assert identity_op()(u) is u
    half = nab.scale(Fraction(1, 2))
    assert (half + half)(u) == nab(u)
    assert (-(nab - half))(u) == nab(u).scale(Fraction(-1, 2))
    assert (identity_op() - identity_op().scale(3))(u) == u.scale(-2)


def test_operators_of_different_degrees_do_not_add(twisted2):
    conn = random_connection(twisted2, 2, 1, "deg-mix-conn")
    K = random_vector_form(twisted2, 1, 1, "deg-mix-K")
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError):
            combine(nabla(conn), interior_op(K))
        with pytest.raises(ValueError):
            combine(lie_derivative(K, conn), identity_op())


# -- graded Leibniz rule ------------------------------------------------------------


def _wedge_bundle(alpha, u):
    return BundleForm(u.chart, [alpha.wedge(c) for c in u.comps])


def _in(basis, form):
    return to_frame(form) if basis == "frame" else form


@pytest.mark.parametrize("basis", ["coordinates", "frame"])
@pytest.mark.parametrize("chart_name", ["standard:2", "twisted:2"])
def test_split_and_lie_derivatives_are_graded_derivations(chart_name, basis):
    # D(alpha ∧ u) = D0(alpha) ∧ u + (-1)^{k |alpha|} alpha ∧ D(u), D0 the same operator
    # on the trivial line bundle
    rng = random.Random(f"leibniz-{chart_name}")
    chart = parse_chart_name(chart_name)
    conn = random_connection(chart, 2, 1, rng)
    conn = conn.to_frame() if basis == "frame" else conn
    K = _in(basis, random_vector_form(chart, 1, 1, rng))
    u = _in(basis, random_bundle_form(chart, 2, 1, 1, rng))

    def derivations(conn):
        n10, n01, _, _ = connection_split(conn)
        return [n10, n01] + [lie_derivative(K, conn, flavor) for flavor in ("full", "1,0", "0,1")]

    for adeg in (1, 2):
        alpha = _in(basis, random_scalar_form(chart, adeg, 1, rng))
        for D, D0 in zip(derivations(conn), derivations(Connection.trivial(conn.chart, 1))):
            d_alpha = D0(BundleForm.from_scalar(alpha, 1)).comps[0]
            sign = (-1) ** (D.degree * adeg)
            expected = _wedge_bundle(d_alpha, u) + _wedge_bundle(alpha, D(u)).scale(sign)
            assert D(_wedge_bundle(alpha, u)) == expected, str(D)


@pytest.mark.parametrize("basis", ["coordinates", "frame"])
@pytest.mark.parametrize("chart_name", ["standard:2", "twisted:2"])
def test_exponentials_are_algebra_automorphisms(chart_name, basis):
    rng = random.Random(f"exp-automorphism-{chart_name}")
    chart = parse_chart_name(chart_name)
    phi = _in(basis, random_form(chart, (0, 1), "1,0", 1, rng))
    u = _in(basis, random_bundle_form(chart, 2, 1, 1, rng))
    for adeg in (1, 2):
        alpha = _in(basis, random_scalar_form(chart, adeg, 1, rng))
        for exp in exp_interior(phi):
            e_alpha = exp(BundleForm.from_scalar(alpha, 1)).comps[0]
            assert exp(_wedge_bundle(alpha, u)) == _wedge_bundle(e_alpha, exp(u)), str(exp)


# -- Lie derivatives -------------------------------------------------------------------


def test_lie_derivative_classical_scalar(std2):
    conn = Connection.trivial(std2, 1)
    X = VectorForm.basis_field(std2, 0)
    lie = lie_derivative(X, conn)
    x1 = BundleForm.from_scalar(ScalarForm.coordinate_function(std2, 0), 1, 0)
    assert lie(x1) == BundleForm.from_scalar(ScalarForm.constant(std2, 1), 1, 0)


@pytest.mark.parametrize("degree", [1, 2])
def test_interior_and_lie_are_linear_in_K(twisted2, degree):
    # the fused Theorem 3.8 right-hand sides rest on i_{K1} + i_{K2} = i_{K1+K2}
    # and L_{K1} + L_{K2} = L_{K1+K2}, exactly over the generator family
    conn = random_connection(twisted2, 2, 1, f"lin-conn-{degree}")
    K1 = random_vector_form(twisted2, degree, 1, f"lin-K1-{degree}")
    K2 = random_vector_form(twisted2, degree, 1, f"lin-K2-{degree}")
    assert ops_equal(interior_op(K1) + interior_op(K2), interior_op(K1 + K2), twisted2, 2)
    assert ops_equal(
        lie_derivative(K1, conn) + lie_derivative(K2, conn),
        lie_derivative(K1 + K2, conn),
        twisted2,
        2,
    )


@pytest.mark.parametrize("kind", ["scalar", "vector", "bundle", "operator"])
def test_subtraction_is_signed_addition(twisted2, kind):
    # b is rescaled by a non-integer Gaussian rational, so a and b differ in denominator
    rng = random.Random(f"sub-{kind}")
    c = GaussRational(Fraction(1, 2), Fraction(-2, 3))
    if kind == "operator":
        conn = random_connection(twisted2, 2, 1, "sub-conn")
        K = random_vector_form(twisted2, 1, 1, rng)
        A, B = nabla(conn), lie_derivative(K, conn).scale(c)
        for _, u in generator_family(twisted2, 2):
            assert (A - B)(u) == A(u) - B(u)
            assert (A - B)(u) == (A + (-B))(u)
        return
    if kind == "scalar":
        a, b = (random_scalar_form(twisted2, 2, 2, rng) for _ in range(2))
    elif kind == "vector":
        a, b = (random_vector_form(twisted2, 2, 2, rng) for _ in range(2))
    else:
        a, b = (random_bundle_form(twisted2, 2, 2, 2, rng) for _ in range(2))
    b = b.scale(c)
    assert a - b == a + (-b)
    assert (a - b) + b == a
    assert (a - a).is_zero()
    assert a.scale(0) - b == -b  # every key of b is new to the zero form


def test_lie_decomposes_through_torsion(twisted2):
    # L_phi = L10_phi + L01_phi - i_{[phi,theta]^} (the conjugate-torsion bracket dies)
    conn = random_connection(twisted2, 2, 2, "ldec-conn")
    phi = random_form(twisted2, (0, 1), "1,0", 2, "ldec-phi")
    theta = twisted2.torsion()
    assert nr_bracket(phi, conjugate_form(theta)).is_zero()
    lhs = lie_derivative(phi, conn)
    rhs = (
        lie_derivative(phi, conn, "1,0")
        + lie_derivative(phi, conn, "0,1")
        - interior_op(nr_bracket(phi, theta))
    )
    assert ops_equal(lhs, rhs, twisted2, 2)


def test_eq35_commutator_is_pure_interior(twisted2):
    # [L_phi, i_psi] = i_[phi,psi] for phi, psi in A^{0,1}(T^{1,0}), since i_psi phi = 0
    conn = random_connection(twisted2, 2, 2, "eq35-conn")
    phi = random_form(twisted2, (0, 1), "1,0", 2, "eq35-phi")
    psi = random_form(twisted2, (0, 1), "1,0", 2, "eq35-psi")
    assert contract(psi, phi).is_zero()
    lhs = graded_commutator(lie_derivative(phi, conn), interior_op(psi))
    rhs = interior_op(fn_bracket(phi, psi))
    assert ops_equal(lhs, rhs, twisted2, 2)


def test_lie_flavor_validation(twisted2):
    conn = Connection.trivial(twisted2, 1)
    phi = random_form(twisted2, (0, 1), "1,0", 1, "flavor")
    with pytest.raises(ValueError):
        lie_derivative(phi, conn, "diagonal")


# -- exponential conjugation -------------------------------------------------------------


def test_exp_of_zero_is_identity(twisted2):
    zero = VectorForm.zero(twisted2, 1)
    exp_plus, exp_minus = exp_interior(zero)
    fam = generator_family(twisted2, 2)
    for label, u in fam:
        assert exp_plus(u) == u and exp_minus(u) == u


def test_exp_truncates_at_two_terms_on_n1(std1):
    phi = random_form(std1, (0, 1), "1,0", 2, "exp-n1")
    exp_plus, _ = exp_interior(phi)
    fam = generator_family(std1, 1)
    for label, u in fam:
        assert exp_plus(u) == u + interior(phi, u)


def test_exp_inverse_property(twisted2):
    for seed in ("inv-1", "inv-2"):
        phi = random_form(twisted2, (0, 1), "1,0", 2, seed)
        exp_plus, exp_minus = exp_interior(phi)
        fam = generator_family(twisted2, 2)
        for label, u in fam:
            assert exp_minus(exp_plus(u)) == u
            assert exp_plus(exp_minus(u)) == u


def test_exp_rejects_wrong_degree(twisted2):
    with pytest.raises(ValueError):
        exp_interior(random_vector_form(twisted2, 2, 1, "exp-bad"))


def test_exp_rejects_non_nilpotent_argument(twisted2):
    # i_I counts form degree, so no power of it vanishes: the series must not truncate silently
    with pytest.raises(NotNilpotentError):
        exp_interior(identity_vector_form(twisted2))


def test_exp_is_exact_past_order_n(std2):
    # Phi = N with N^3 != 0, so (i_phi)^3 dx1 != 0 although n = 2: the pullback by exp(±N)
    # is the whole series, which a truncation at order n would cut short
    one, zero = PolyScalar.one(std2.dim), PolyScalar.zero(std2.dim)
    N = [[zero] * std2.dim for _ in range(std2.dim)]
    for a in range(std2.dim - 1):
        N[a][a + 1] = one
    N[0][2] = PolyScalar.variable(3, std2.dim)
    N = AlgebraElement(N)
    assert not (N * N * N).is_zero()
    phi = vector_one_form_from_matrix(std2, N)
    basis = [
        BundleForm.from_scalar(ScalarForm(std2, {key: one}), 1)
        for k in range(std2.dim + 1)
        for key in combinations(range(std2.dim), k)
    ]
    exp_plus, exp_minus = exp_interior(phi)
    for exp, K in ((exp_plus, phi), (exp_minus, -phi)):
        for u in basis:
            assert exp(u) == series(u, interior_op(K).action, std2.dim**2)
    for u in basis:
        assert exp_minus(exp_plus(u)) == u


@pytest.mark.parametrize("chart", ["standard:2", "twisted:2"])
def test_exp_certifies_theorem_38_inputs(chart):
    ctx = _CheckContext(IdentityCheck(id="T3.8.6", chart=chart, seed=7))
    phi = ctx.form("phi")
    psibar = conjugate_form(ctx.form("psi"))
    for form in (phi, psibar):
        exp_interior(form)  # raises NotNilpotentError unless the matrix of i_form is nilpotent


@pytest.mark.parametrize("chart", ["standard:2", "twisted:2"])
def test_exp_raises_on_exponent_overflow(chart):
    chart = parse_chart_name(chart)
    phi = random_form(chart, (0, 1), "1,0", 2, "exp-overflow")
    top = PolyScalar.monomial(1, [2**15 - 1] * chart.dim, chart.dim)  # the largest storable exponents
    u = BundleForm.from_scalar(
        ScalarForm(chart, {(a,): top for a in range(chart.dim)}), 1
    )
    for exp in exp_interior(phi):
        with pytest.raises(OverflowError):
            exp(u)


def test_conjugate_by_zero_is_identity(twisted2):
    conn = random_connection(twisted2, 2, 2, "conj0-conn")
    nab = nabla(conn)
    zero = VectorForm.zero(twisted2, 1)
    assert ops_equal(conjugate_operator(nab, zero), nab, twisted2, 2)


def test_conjugate_d_integrable_closed_form(std2):
    """On an integrable chart e^{-i_phi} d e^{i_phi} = d - L_phi - 1/2 i_[phi,phi]:
    the cubic term vanishes because [[phi,phi],phi]^ = 0 there."""
    conn = Connection.trivial(std2, 1)
    d_op = nabla(conn)
    phi = random_form(std2, (0, 1), "1,0", 2, "int-phi")
    ff = fn_bracket(phi, phi)
    assert nr_bracket(ff, phi).is_zero()
    lhs = conjugate_operator(d_op, phi)
    rhs = d_op - lie_derivative(phi, conn) - interior_op(ff.scale(Fraction(1, 2)))
    assert ops_equal(lhs, rhs, std2, 1)


def count_exponentials(monkeypatch, form):
    """Record each input that e^{+i_form} and e^{-i_form} from exp_interior are applied to,
    form written in its chart's frame as conjugation_residuals applies them."""
    applied = {"plus": [], "minus": []}
    real = operators.exp_interior

    def counted(op, inputs):
        def action(u):
            inputs.append(u)
            return op.action(u)

        return dataclasses.replace(op, action=action)

    def exp_interior(phi):
        exp_plus, exp_minus = real(phi)
        if phi != to_frame(form):
            return exp_plus, exp_minus
        return counted(exp_plus, applied["plus"]), counted(exp_minus, applied["minus"])

    monkeypatch.setattr(operators, "exp_interior", exp_interior)
    return applied


def t38_inputs(check, chart, rank=2, degree=2):
    """A Theorem 3.8 check's seeded connection, phi and psibar, and its family."""
    ctx = _CheckContext(IdentityCheck(id=check, chart=chart, rank=rank, degree=degree, seed=7))
    conn = ctx.connection()
    phi = ctx.form("phi")
    psibar = conjugate_form(ctx.form("psi"))
    return conn, phi, psibar, ctx.family()


def t381_rhs(conn, phi, quad=Fraction(1, 2)):
    """T3.8.1's right-hand side, for conn and phi written in one basis."""
    return nabla(conn) - lie_derivative(phi, conn) - interior_op(_closed_form_1(phi, quad))


def test_joint_conjugation_equals_separate_conjugations(monkeypatch):
    # degree 1 keeps standard:2 fast; there [phi, phi] != 0, so quad = 1 changes the image
    conn, phi, psibar, _ = t38_inputs("T3.8.6", "standard:2", rank=1, degree=1)
    fam = generator_family(phi.chart, 1)

    def groups(conn, phi):
        rhs = nabla(conn)
        return [
            ("conjugated", conjugate_operator(nabla(conn), phi), rhs),
            ("closed", t381_rhs(conn, phi), rhs),
            ("corrupted", t381_rhs(conn, phi, Fraction(1)), rhs),
        ]

    # conjugation_residuals runs in the frame; the separate conjugations in coordinates
    separate = [
        (label, operator_residuals(conjugate_operator(D, psibar), R, fam))
        for label, D, R in groups(conn, phi)
    ]
    framed_groups = groups(conn.to_frame(), to_frame(phi))
    applied = count_exponentials(monkeypatch, psibar)
    assert conjugation_residuals(psibar, framed_groups, fam) == separate
    assert applied["plus"] == [to_frame(u) for _, u in fam]
    per_member = []
    for member in fam:
        before = len(applied["minus"])
        conjugation_residuals(psibar, framed_groups, [member])
        per_member.append(len(applied["minus"]) - before)
    # equal inner images (T3.8.1 holds) share e^{-i_psibar}; the corrupted one does not
    assert set(per_member) == {1, 2}


def test_conjugation_residuals_match_per_group_residuals():
    conn, phi, _, fam = t38_inputs("T3.8.6", "twisted:2", rank=1, degree=1)

    def groups(conn, phi, rhs_op=lambda op: op):
        exact = rhs_op(t381_rhs(conn, phi))
        return [
            ("corrupted-T3.8.1", nabla(conn), t381_rhs(conn, phi, Fraction(1))),
            ("T3.8.1", nabla(conn), exact),
            ("shared-rhs", t381_rhs(conn, phi), exact),
        ]

    applied = []

    def shared(op):
        return dataclasses.replace(op, action=lambda u: applied.append(u) or op(u))

    got = conjugation_residuals(phi, groups(conn.to_frame(), to_frame(phi), shared), fam)
    assert len(applied) == len(fam), "a shared operator runs once per member"
    assert got[0][1], "the corrupted group must fail"
    assert not got[1][1], "T3.8.1 must hold"
    # residuals leave the frame: they equal the conjugation run in coordinates
    assert got == [
        (label, operator_residuals(conjugate_operator(D, phi), R, fam)) for label, D, R in groups(conn, phi)
    ]


@pytest.mark.parametrize(
    "check, by, images_agree",
    [
        pytest.param("T3.8.2", "phi", False, id="T3.8.2"),
        # standard:1 has no torsion, so both interior images vanish
        pytest.param("T3.8.3", "phi", True, id="T3.8.3"),
        pytest.param("T3.8.4", "psibar", False, id="T3.8.4"),
        # T3.8.1 holds, so both routes give one image
        pytest.param("T3.8.6", "psibar", True, id="T3.8.6"),
    ],
)
def test_T38_applies_the_outer_exponential_once_per_member(monkeypatch, check, by, images_agree):
    _, phi, psibar, fam = t38_inputs(check, "standard:1")
    applied = count_exponentials(monkeypatch, {"phi": phi, "psibar": psibar}[by])
    assert check_identity(IdentityCheck(id=check, chart="standard:1", seed=7)).status == "pass"
    assert applied["plus"] == [to_frame(u) for _, u in fam]
    # e^{-i} runs once per distinct inner image of the check's two operators
    assert len(fam) <= len(applied["minus"]) <= 2 * len(fam)
    assert (len(applied["minus"]) == len(fam)) == images_agree


# -- decompositions ---------------------------------------------------------------------


def test_decompose_d_gives_identity_form(std2):
    conn = Connection.trivial(std2, 1)
    K, L = decompose_derivation(nabla(conn), conn)
    assert K == identity_vector_form(std2)
    assert L.is_zero()


def test_decompose_interior_is_algebraic(twisted2):
    conn = random_connection(twisted2, 2, 1, "dec-conn")
    L_in = random_vector_form(twisted2, 2, 1, "dec-L")
    K, L = decompose_derivation(interior_op(L_in), conn)
    assert K.is_zero()
    assert L == L_in


def test_decompose_lie_is_lie(twisted2):
    conn = random_connection(twisted2, 2, 1, "dec2-conn")
    K_in = random_vector_form(twisted2, 1, 1, "dec2-K")
    K, L = decompose_derivation(lie_derivative(K_in, conn), conn)
    assert K == K_in
    assert L.is_zero()


def test_decompose_roundtrip_eq21(twisted2):
    conn = random_connection(twisted2, 2, 1, "dec3-conn")
    K_in = random_vector_form(twisted2, 1, 1, "dec3-K")
    L_in = random_vector_form(twisted2, 2, 1, "dec3-L")
    op = lie_derivative(K_in, conn) + interior_op(L_in)
    K, L = decompose_derivation(op, conn)
    assert K == K_in
    assert L == L_in


def test_decompose_rejects_non_derivation(twisted2):
    from acderiv.operators import DerivationOp, identity_op

    conn = Connection.trivial(twisted2, 1)
    # the identity operator is linear and graded but satisfies no Leibniz rule
    with pytest.raises(DecompositionError):
        decompose_derivation(identity_op(), conn)
    # neither does d followed by a raw component shift
    d_op = nabla(conn)
    crooked = DerivationOp(
        1,
        lambda u: BundleForm(u.chart, [u.comps[0].exterior_d().wedge(
            ScalarForm.basis_covector(u.chart, 0)
        )] + [c.exterior_d() for c in u.comps[1:]]),
        "crooked",
    )
    with pytest.raises(DecompositionError):
        decompose_derivation(crooked, conn)


def test_refined_decompose_lie10_is_clean(twisted2):
    conn = random_connection(twisted2, 2, 2, "ref-conn")
    phi = random_form(twisted2, (0, 1), "1,0", 2, "ref-phi")
    K10, K01, L10, L01 = refined_decompose(lie_derivative(phi, conn, "1,0"), conn)
    assert K10 == phi
    assert K01.is_zero()
    assert L10.is_zero()
    assert L01.is_zero()


def test_refined_decompose_delbar_reassembles(twisted2):
    conn = Connection.trivial(twisted2, 1)
    _, n01, _, _ = connection_split(conn)
    K10, K01, L10, L01 = refined_decompose(n01, conn)
    rebuilt = (
        lie_derivative(K10, conn, "1,0")
        + lie_derivative(K01, conn, "0,1")
        + interior_op(L10)
        + interior_op(L01)
    )
    assert ops_equal(n01, rebuilt, twisted2, 1)


# -- matrix algebra -------------------------------------------------------------------


def test_elementary_bracket_example():
    x = AlgebraElement.elementary(2, 0, 0)
    y = AlgebraElement.elementary(2, 0, 1)
    assert algebra_iterated_bracket(x, y, 0) == x
    assert algebra_iterated_bracket(x, y, 1) == y
    assert algebra_iterated_bracket(x, y, 2).is_zero()
    assert commutable_degree(x, y) == 2
    closed = conjugation_closed_form(x, y)
    assert closed == x + y
    ident = AlgebraElement.identity(2)
    oracle = (ident - y) * x * (ident + y)
    assert closed == oracle


def test_commuting_elements_have_degree_one():
    x = AlgebraElement.identity(3)
    y = AlgebraElement.elementary(3, 0, 1)
    assert commutable_degree(x, y) == 1
    assert algebra_iterated_bracket(x, y, 1).is_zero()


def test_conjugation_closed_form_trivial_y():
    rng = random.Random("trivial-y")
    x = random_matrix(4, rng)
    y = AlgebraElement.zero(4)
    assert conjugation_closed_form(x, y) == x


def test_conjugation_closed_form_matches_series_oracle():
    for trial in range(25):
        rng = random.Random(f"oracle-{trial}")
        x = random_matrix(4, rng)
        y = random_strict_upper(4, rng)
        assert conjugation_closed_form(x, y) == conjugate_by_exponential(x, y)
        assert commutable_degree(x, y) <= 7


def test_commutable_degree_bound_error():
    x = AlgebraElement.elementary(2, 0, 1)
    y = AlgebraElement.elementary(2, 0, 0)  # not nilpotent, ad_y not nilpotent on x
    with pytest.raises(NotNilpotentError):
        commutable_degree(x, y)


def test_closed_form_requires_nilpotent_y():
    x = AlgebraElement.identity(2)
    with pytest.raises(NotNilpotentError):
        conjugation_closed_form(x, AlgebraElement.identity(2))


def test_matrix_exp_of_nilpotent():
    y = AlgebraElement.elementary(3, 0, 1) + AlgebraElement.elementary(3, 1, 2)
    assert nilpotency_index(y) == 3
    e = matrix_exp_nilpotent(y)
    expected = AlgebraElement.identity(3) + y + (y * y).scale(Fraction(1, 2))
    assert e == expected


def test_conjugated_exponential_trivial_y():
    rng = random.Random("p312-trivial")
    x = random_strict_upper(3, rng)
    assert conjugated_exponential(x, AlgebraElement.zero(3)) == matrix_exp_nilpotent(x)


def test_conjugated_exponential_matches_oracle():
    for trial in range(25):
        rng = random.Random(f"p312-{trial}")
        x = random_strict_upper(3, rng)
        y = random_strict_upper(3, rng)
        transported = conjugated_exponential(x, y)
        oracle = matrix_exp_nilpotent(-y) * matrix_exp_nilpotent(x) * matrix_exp_nilpotent(y)
        assert transported == oracle


def test_transported_element_nilpotency():
    for trial in range(10):
        rng = random.Random(f"p312-nilp-{trial}")
        x = random_strict_upper(4, rng)
        y = random_strict_upper(4, rng)
        z = conjugation_closed_form(x, y)
        n = nilpotency_index(x)
        power = z
        for _ in range(n - 1):
            power = power * z
        assert power.is_zero()


def test_conjugated_exponential_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        conjugated_exponential(AlgebraElement.identity(2), AlgebraElement.zero(2))


@pytest.fixture
def products(monkeypatch):
    """The (left, right, result) of every AlgebraElement product made while the test runs."""
    made = []
    product = AlgebraElement.__mul__

    def counting(a, b):
        made.append((a, b, product(a, b)))
        return made[-1][2]

    monkeypatch.setattr(AlgebraElement, "__mul__", counting)
    return made


def test_nilpotent_powers_are_computed_once(products):
    rng = random.Random("powers-once")
    x = random_strict_upper(4, rng)
    n = nilpotency_index(x)
    assert len(products) == n - 1 and products[-1][2].is_zero()  # x^2 .. x^n = 0
    assert nilpotency_index(x) == n and len(products) == n - 1
    e = matrix_exp_nilpotent(x)
    assert len(products) == n - 1
    expected = power = AlgebraElement.identity(4)
    for j in range(1, n):
        power = power * x
        expected = expected + power.scale(Fraction(1, factorial(j)))
    assert e == expected
    assert matrix_exp_nilpotent(x, -1) * e == AlgebraElement.identity(4)


def test_conjugate_by_exponential_shares_the_powers_of_y(products):
    rng = random.Random("powers-shared")
    x = random_matrix(4, rng)
    y = random_strict_upper(4, rng)
    conjugate_by_exponential(x, y)
    made = len(products)
    n_y = nilpotency_index(y)
    assert len(products) == made and made <= n_y - 1 + 2
    power_products = [result for left, right, result in products if right is y]
    assert len(power_products) == n_y - 1 and power_products[-1].is_zero()  # y^2 .. y^{N_y} = 0


def test_matrix_exp_of_minus_y_takes_the_powers_of_y():
    rng = random.Random("powers-sign")
    y = random_strict_upper(4, rng)
    assert matrix_exp_nilpotent(y, -1) == matrix_exp_nilpotent(-y)


def test_non_nilpotent_matrix_raises_at_the_dimension_bound(products):
    x = random_matrix(4, random.Random("not-nilpotent"))
    with pytest.raises(NotNilpotentError, match="not nilpotent within the dimension bound"):
        nilpotency_index(x)
    assert len(products) == 3 and not products[-1][2].is_zero()  # x^2, x^3, x^4 != 0
    with pytest.raises(NotNilpotentError, match="not nilpotent within the dimension bound"):
        matrix_exp_nilpotent(x)
    assert len(products) == 3


def test_transported_element_must_inherit_the_nilpotency_bound(monkeypatch):
    x = AlgebraElement.elementary(3, 0, 1)  # x^2 = 0
    chain = AlgebraElement.elementary(3, 0, 1) + AlgebraElement.elementary(3, 1, 2)  # nilpotent, index 3
    monkeypatch.setattr(operators, "conjugation_closed_form", lambda x, y: chain)
    with pytest.raises(NotNilpotentError, match="does not inherit the nilpotency bound"):
        conjugated_exponential(x, AlgebraElement.zero(3))


def test_random_matrices_draw_the_same_values_as_fractions():
    def by_fractions(dim, rng, upper):
        def entry():
            return GaussRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

        return AlgebraElement([[entry() if j > i or not upper else 0 for j in range(dim)] for i in range(dim)])

    for trial in range(20):
        for upper, draw in ((False, random_matrix), (True, random_strict_upper)):
            rng, old = random.Random(f"draw-{trial}"), random.Random(f"draw-{trial}")
            assert draw(4, rng) == by_fractions(4, old, upper)
            assert rng.random() == old.random()


# -- the finite series and the vanishing-order search ---------------------------------


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_series_matches_explicit_bracket_sums(shift):
    rng = random.Random(f"series-{shift}")
    x = random_matrix(4, rng)
    y = random_strict_upper(4, rng)
    for count in range(8):
        expected = AlgebraElement.zero(4)
        for i in range(count + 1):
            term = algebra_iterated_bracket(x, y, i)
            expected = expected + term.scale(Fraction(1, factorial(i + shift)))
        assert series(x, lambda b: b.commutator(y), count, shift) == expected


def test_series_stops_at_the_first_zero_term():
    x = AlgebraElement.elementary(2, 0, 0)
    y = AlgebraElement.elementary(2, 0, 1)  # [x, y] = y, [[x, y], y] = 0
    steps = []

    def ad_y(b):
        steps.append(b)
        return b.commutator(y)

    assert series(x, ad_y, 10) == x + y
    assert len(steps) == 2
    assert series(x, ad_y, 10, 1) == x + y.scale(Fraction(1, 2))


def test_vanishing_order_is_none_past_its_bound():
    x = AlgebraElement.elementary(3, 0, 1) + AlgebraElement.elementary(3, 1, 2)
    assert vanishing_order(x, lambda power: power * x, 1) is None  # x and x^2 are nonzero
    assert vanishing_order(x, lambda power: power * x, 2) == 2
    assert vanishing_order(x, lambda power: power * x, 5) == 2
    assert vanishing_order(AlgebraElement.zero(3), lambda power: power * x, 0) == 0
    ident = AlgebraElement.identity(3)
    assert vanishing_order(ident, lambda power: power * ident, 5) is None
