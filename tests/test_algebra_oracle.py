"""PolyScalar ring arithmetic against sympy's polynomial ring over QQ_I.

sympy shares no code with acderiv.algebra, so agreement on hypothesis-drawn
operands (mixed denominators, Gaussian-rational coefficients, up to four
variables) is an independent check of +, -, *, negation and scale, of
ProductSum's signed sums of products, and of the matrix product of
AlgebraElement over Gaussian rationals.  Results are also compared
structurally after rebuilding them from sympy's terms, which checks that
every result is stored in canonical form.
"""

from fractions import Fraction
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from acderiv.algebra import AlgebraElement, GaussRational, PolyScalar, ProductSum  # noqa: E402

MAX_VARS = 4

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gauss = st.builds(GaussRational, rationals, rationals)


@st.composite
def poly_pairs(draw):
    """Two polynomials in the same 1-4 variables, each as {exponents: GaussRational}."""
    num_vars = draw(st.integers(1, MAX_VARS))
    exps = st.tuples(*[st.integers(0, 3)] * num_vars)
    terms = st.dictionaries(exps, gauss, max_size=5)
    return num_vars, draw(terms), draw(terms)


@st.composite
def signed_product_lists(draw):
    """1-6 (sign, f, g) triples in the same 1-4 variables; g is None for a bare term sign * f."""
    num_vars = draw(st.integers(1, MAX_VARS))
    exps = st.tuples(*[st.integers(0, 3)] * num_vars)
    terms = st.dictionaries(exps, gauss, max_size=5)
    triple = st.tuples(st.sampled_from([1, -1]), terms, st.none() | terms)
    return num_vars, draw(st.lists(triple, min_size=1, max_size=6))


def build(num_vars: int, terms: dict) -> PolyScalar:
    """A PolyScalar from {exponents: GaussRational}, over one common denominator."""
    den = lcm(1, *(c.d for c in terms.values()))
    packed = {
        PolyScalar.pack_exponents(e): (c.an * (den // c.d), c.bn * (den // c.d))
        for e, c in terms.items()
        if c
    }
    return PolyScalar(num_vars, packed, den)


def to_qq_i(c: GaussRational):
    return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))


def to_sympy(ring_, poly: PolyScalar):
    return ring_({e: to_qq_i(c) for e, c in poly.terms_by_exponents().items()})


def from_sympy(num_vars: int, element) -> PolyScalar:
    terms = {
        e: GaussRational(
            Fraction(int(c.x.numerator), int(c.x.denominator)),
            Fraction(int(c.y.numerator), int(c.y.denominator)),
        )
        for e, c in element.items()
    }
    return build(num_vars, terms)


def assert_matches(num_vars: int, poly: PolyScalar, expected):
    """Equal in value, and stored exactly as the canonical rebuild of expected."""
    assert poly == from_sympy(num_vars, expected)


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(poly_pairs(), gauss)
def test_ring_operations_match_sympy(pair, c):
    num_vars, terms_p, terms_q = pair
    ring_, *_ = ring([f"x{i}" for i in range(num_vars)], QQ_I)
    p, q = build(num_vars, terms_p), build(num_vars, terms_q)
    sp, sq = to_sympy(ring_, p), to_sympy(ring_, q)
    assert_matches(num_vars, p + q, sp + sq)
    assert_matches(num_vars, p - q, sp - sq)
    assert_matches(num_vars, p * q, sp * sq)
    assert_matches(num_vars, -p, -sp)
    assert_matches(num_vars, p.scale(c), sp.mul_ground(to_qq_i(c)))


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(signed_product_lists())
def test_product_sum_matches_sympy(drawn):
    num_vars, triples = drawn
    sign, terms_f, terms_g = triples[0]
    triples.append((-sign, terms_f, terms_g))  # one exact cancellation in every sum
    ring_, *_ = ring([f"x{i}" for i in range(num_vars)], QQ_I)
    acc = ProductSum(num_vars)
    expected = ring_.zero
    for sign, terms_f, terms_g in triples:
        f = build(num_vars, terms_f)
        if terms_g is None:
            acc.add(sign, f)
            expected += to_sympy(ring_, f) * sign
        else:
            g = build(num_vars, terms_g)
            acc.add(sign, f, g)
            expected += to_sympy(ring_, f) * to_sympy(ring_, g) * sign
    assert_matches(num_vars, acc.total(), expected)


@st.composite
def matrix_pairs(draw):
    """Two square 1-4 dim matrices of Gaussian rationals, about a third of the entries zero."""
    dim = draw(st.integers(1, 4))
    entry = st.just(GaussRational(0)) | gauss | gauss
    square = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    return draw(square), draw(square)


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(matrix_pairs())
def test_matrix_product_matches_sympy(pair):
    a, b = pair
    product = AlgebraElement(a) * AlgebraElement(b)
    dim = len(a)
    for i in range(dim):
        for j in range(dim):
            expected = QQ_I.zero
            for k in range(dim):
                expected += to_qq_i(a[i][k]) * to_qq_i(b[k][j])
            assert to_qq_i(product[i][j]) == expected
            assert product[i][j] == GaussRational(product[i][j].re, product[i][j].im)
