"""Exact arithmetic substrate: Gaussian rationals, sparse polynomials and matrices over them."""

import random
from fractions import Fraction

import pytest

from acderiv.algebra import AlgebraElement, GaussRational, PolyScalar


def rand_gauss(rng):
    return GaussRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
    )


def rand_poly(rng, num_vars=4, max_degree=3, n_terms=4):
    out = PolyScalar.zero(num_vars)
    for _ in range(n_terms):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        out = out + PolyScalar.monomial(rand_gauss(rng), exps, num_vars)
    return out


# -- GaussRational ----------------------------------------------------------


def test_gauss_rational_field_ops():
    a = GaussRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussRational(2, -1)
    assert a + b == GaussRational(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == GaussRational(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert -a + a == GaussRational(0)
    assert a.conjugate().conjugate() == a


@pytest.mark.parametrize("re, im", [(0.1, 0), (0, 0.5), ("1/2", 0), (0, "1/2"), (1, None)])
def test_gauss_rational_takes_only_exact_rational_parts(re, im):
    # GaussRational(0.1) would store 3602879701896397/2^55, and 10 of it is not 1
    with pytest.raises(TypeError):
        GaussRational(re, im)


def test_gauss_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRational(1) / GaussRational(0)


def test_gauss_rational_normalization_is_canonical():
    assert GaussRational(Fraction(2, 4)) == GaussRational(Fraction(1, 2))
    assert hash(GaussRational(Fraction(2, 4))) == hash(GaussRational(Fraction(1, 2)))
    assert not GaussRational(0, 0)
    assert GaussRational(0, 1)


@pytest.mark.parametrize("value", [0, 1, 3, -3, Fraction(1, 2), Fraction(-7, 6)])
def test_values_equal_to_numbers_hash_like_them(value):
    # equal objects must hash equal, or dicts and sets keyed by numbers miss them
    for equal in (GaussRational(value), PolyScalar.constant(value, 2)):
        assert equal == value
        assert hash(equal) == hash(value)
        assert {value: "found"}[equal] == "found"


# -- PolyScalar ring operations ----------------------------------------------


def test_additive_inverse():
    x1 = PolyScalar.variable(0, 4)
    assert (x1 + (-x1)).is_zero()
    # operands over different denominators (3 and 10) take the rescaling path
    a = PolyScalar.monomial(Fraction(2, 3), (1, 0, 0, 0), 4) + PolyScalar.constant(
        GaussRational(0, Fraction(1, 3)), 4
    )
    b = PolyScalar.monomial(GaussRational(Fraction(1, 2), Fraction(-3, 5)), (1, 0, 0, 0), 4)
    b = b + PolyScalar.monomial(Fraction(7, 10), (0, 2, 0, 0), 4)
    assert a - b == a + (-b)
    assert b - a == b + (-a)
    for p in (a, b):
        assert not (p - p).terms
        assert (p - p).den == 1


def test_product_of_variables():
    x1 = PolyScalar.variable(0, 4)
    x2 = PolyScalar.variable(1, 4)
    assert x1 * x2 == PolyScalar.monomial(1, (1, 1, 0, 0), 4)


def test_gaussian_product_expands():
    # (x1 + i)(x1 - i) = x1^2 + 1, expanded by hand
    x1 = PolyScalar.variable(0, 2)
    i_const = PolyScalar.constant(GaussRational(0, 1), 2)
    left = (x1 + i_const) * (x1 - i_const)
    expected = PolyScalar.monomial(1, (2, 0), 2) + PolyScalar.one(2)
    assert left == expected


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        PolyScalar.variable(0, 2) + PolyScalar.variable(0, 4)
    with pytest.raises(ValueError):
        PolyScalar.variable(0, 2) * PolyScalar.variable(0, 4)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(20):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_scale_matches_constant_multiplication():
    rng = random.Random(5)
    p = rand_poly(rng)
    c = rand_gauss(rng)
    assert p.scale(c) == p * PolyScalar.constant(c, p.num_vars)


# -- differentiation -----------------------------------------------------------


def test_partial_derivative_basic():
    # d/dx1 (x1^2 x2) = 2 x1 x2
    p = PolyScalar.monomial(1, (2, 1, 0, 0), 4)
    assert p.partial_derivative(0) == PolyScalar.monomial(2, (1, 1, 0, 0), 4)


def test_partial_derivative_unrelated_variable():
    p = PolyScalar.variable(0, 4)
    assert p.partial_derivative(1).is_zero()


def test_partial_derivative_axis_out_of_range():
    with pytest.raises(IndexError):
        PolyScalar.variable(0, 4).partial_derivative(4)


def test_mixed_partials_commute():
    rng = random.Random(99)
    for _ in range(20):
        p = rand_poly(rng)
        assert p.partial_derivative(0).partial_derivative(1) == p.partial_derivative(
            1
        ).partial_derivative(0)


def test_leibniz_rule_exact():
    rng = random.Random(7)
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        for axis in range(4):
            lhs = (p * q).partial_derivative(axis)
            rhs = p.partial_derivative(axis) * q + p * q.partial_derivative(axis)
            assert lhs == rhs


# -- conjugation -----------------------------------------------------------------


def test_conjugate_basic():
    # conj(x1 + i x2) = x1 - i x2
    p = PolyScalar.variable(0, 2) + PolyScalar.variable(1, 2).scale(GaussRational(0, 1))
    expected = PolyScalar.variable(0, 2) + PolyScalar.variable(1, 2).scale(
        GaussRational(0, -1)
    )
    assert p.conjugate() == expected


def test_conjugate_is_involution():
    rng = random.Random(11)
    for _ in range(10):
        p = rand_poly(rng)
        assert p.conjugate().conjugate() == p


def test_conjugate_multiplicative():
    rng = random.Random(13)
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        assert (p * q).conjugate() == p.conjugate() * q.conjugate()
        assert (p + q).conjugate() == p.conjugate() + q.conjugate()


def test_conjugate_commutes_with_derivative():
    rng = random.Random(17)
    for _ in range(10):
        p = rand_poly(rng)
        for axis in range(4):
            assert p.partial_derivative(axis).conjugate() == p.conjugate().partial_derivative(axis)


def test_exponent_overflow_raises_instead_of_wrapping():
    # without the guard bit, x1^65535 * x1 carried silently into x2
    top = PolyScalar.monomial(1, (2**15 - 1, 0), 2)
    x1 = PolyScalar.variable(0, 2)
    with pytest.raises(OverflowError):
        top * x1
    half = PolyScalar.monomial(1, (2**14, 2**14), 2)
    with pytest.raises(OverflowError):
        half * half
    assert (top * PolyScalar.variable(1, 2)).coefficient((2**15 - 1, 1)) == 1
    for exps in ((2**15, 0), (0, 65535)):
        with pytest.raises(ValueError):
            PolyScalar.pack_exponents(exps)


def test_exponent_packing_round_trip():
    exps = (3, 0, 17, 2)
    code = PolyScalar.pack_exponents(exps)
    assert PolyScalar.unpack_exponents(code, 4) == exps
    p = PolyScalar.monomial(Fraction(5, 3), exps, 4)
    assert p.total_degree() == 22
    assert p.coefficient(exps) == GaussRational(Fraction(5, 3))


# -- AlgebraElement ----------------------------------------------------------


def naive_product(a, b, zero):
    dim = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(dim)), zero) for j in range(dim)]
        for i in range(dim)
    ]


@pytest.mark.parametrize("ring", ["gauss", "poly"])
def test_matrix_product_matches_the_triple_loop(ring):
    rng = random.Random(31)
    if ring == "gauss":
        zero, pool = GaussRational(0), [rand_gauss(rng) for _ in range(4)]
    else:
        zero, pool = PolyScalar.zero(4), [rand_poly(rng, n_terms=2) for _ in range(4)]

    def entry():
        # a small pool repeats values, so equal entry pairs are multiplied too
        return rng.choice(pool) if rng.random() < 0.6 else zero

    for dim in (1, 2, 3, 4):
        for _ in range(6):
            a = [[entry() for _ in range(dim)] for _ in range(dim)]
            b = [[entry() for _ in range(dim)] for _ in range(dim)]
            product = AlgebraElement(a) * AlgebraElement(b)
            assert product == AlgebraElement(naive_product(a, b, zero))
            assert all(isinstance(e, type(zero)) for row in product.entries for e in row)


def test_matrix_entries_come_from_one_ring():
    one = PolyScalar.one(2)
    poly = AlgebraElement([[one, PolyScalar.zero(2)], [PolyScalar.variable(0, 2), one]])
    assert poly[1][0] == PolyScalar.variable(0, 2)
    assert poly.scale(Fraction(1, 2))[0][0] == PolyScalar.constant(Fraction(1, 2), 2)
    with pytest.raises(TypeError):
        AlgebraElement([[one, 0], [0, one]])
    constant = AlgebraElement([[1, Fraction(1, 2)], [0, GaussRational(0, 1)]])
    assert constant[0][1] == GaussRational(Fraction(1, 2)) and constant[1][0] == GaussRational(0)
    with pytest.raises(ValueError):
        AlgebraElement([[1, 0], [0]])
