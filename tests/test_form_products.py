"""Form-layer products summed by ProductSum, checked against products summed one by one.

wedge, interior, bidegree_split_scalar and value_projected multiply every
coefficient pair straight into one numerator map per index key; a constant
coefficient scales instead, and makes no product.  The references here
build each product with PolyScalar * and add it with +, so any slip in the
running denominator, the signs or the cancellations shows up as a
difference.  Every stored coefficient must also be canonical, and every
product passes the exponent guard.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from acderiv import VectorForm, interior, random_form, wedge
from acderiv.algebra import GaussRational, PolyScalar
from acderiv.forms import (
    BundleForm,
    ImageTable,
    ScalarForm,
    _merge_sign,
    _substitute,
    bidegree_split_scalar,
    identity_vector_form,
    to_frame,
)

BIG = 2**14  # x1^BIG * x1^BIG reaches the 2^15 guard bit of a 16-bit field


def random_coefficient(rng):
    """1/2, 1/3, 1/6 or 1, real or Gaussian."""
    den = rng.choice([1, 2, 3, 6])
    return GaussRational(
        Fraction(rng.randint(-4, 4), den), Fraction(rng.choice([0, rng.randint(-4, 4)]), den)
    )


def random_poly(rng, num_vars):
    out = PolyScalar.zero(num_vars)
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(0, 2) for _ in range(num_vars)]
        out = out + PolyScalar.monomial(random_coefficient(rng), exps, num_vars)
    return out


def random_scalar(chart, degree, rng):
    terms = {}
    for key in combinations(range(chart.dim), degree):
        if rng.random() < 0.7:
            poly = random_poly(rng, chart.dim)
            if poly:
                terms[key] = poly
    return ScalarForm(chart, terms)


def random_vector(chart, degree, rng):
    return VectorForm(chart, degree, [random_scalar(chart, degree, rng) for _ in range(chart.dim)])


def merge_sign(left, right):
    """Sorted union of two index tuples and the sign of sorting left + right; None if they meet."""
    if set(left) & set(right):
        return None, 0
    seq = list(left) + list(right)
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return tuple(sorted(seq)), (-1) ** inversions


def add_term(out, key, poly):
    total = out[key] + poly if key in out else poly
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def ref_wedge(alpha, beta):
    out = {}
    for ka, fa in alpha.terms.items():
        for kb, fb in beta.terms.items():
            key, sign = merge_sign(ka, kb)
            if key is not None:
                add_term(out, key, (fa * fb).scale(sign))
    return ScalarForm(alpha.chart, out)


def ref_interior(K, target):
    """sum over slots pos of each term f dx^key: (-1)^pos kappa^key[pos] ^ f dx^(key without pos)."""
    out = {}
    for key, f in target.terms.items():
        for pos, axis in enumerate(key):
            reduced = key[:pos] + key[pos + 1 :]
            for k_key, g in K.comps[axis].terms.items():
                merged, sign = merge_sign(k_key, reduced)
                if merged is not None:
                    add_term(out, merged, (g * f).scale(sign * (-1) ** pos))
    return ScalarForm(target.chart, out)


def ref_projected_coframe(chart, axis, side):
    """The (1,0) or (0,1) part of dx^axis: row axis of the side's projector as a 1-form."""
    row = chart.projector(side)[axis]
    return ScalarForm(chart, {(c,): entry for c, entry in enumerate(row) if entry})


def ref_projected_basis_form(chart, key, p):
    out = ScalarForm.zero(chart)
    for holo in combinations(range(len(key)), p):
        factor = ScalarForm.constant(chart, 1)
        for pos, axis in enumerate(key):
            factor = ref_wedge(factor, ref_projected_coframe(chart, axis, "1,0" if pos in holo else "0,1"))
        out = out + factor
    return out


def ref_bidegree_split(alpha, p):
    out = {}
    for basis_key, coeff in alpha.terms.items():
        for key, f in ref_projected_basis_form(alpha.chart, basis_key, p).terms.items():
            add_term(out, key, f * coeff)
    return ScalarForm(alpha.chart, out)


def ref_value_projected(K, side):
    mat = K.chart.projector(side)
    comps = []
    for row in mat:
        out = {}
        for a, comp in enumerate(K.comps):
            for key, f in comp.terms.items():
                add_term(out, key, f * row[a])
        comps.append(ScalarForm(K.chart, out))
    return VectorForm(K.chart, K.degree, comps)


def assert_canonical(form):
    """No zero coefficient is stored, and each one has no zero pair and gcd(numerators, den) = 1."""
    comps = form.comps if isinstance(form, (VectorForm, BundleForm)) else (form,)
    for comp in comps:
        for poly in comp.terms.values():
            assert poly.terms and poly.den > 0
            assert all(an or bn for an, bn in poly.terms.values())
            g = poly.den
            for an, bn in poly.terms.values():
                g = gcd(g, an, bn)
            assert g == 1


@pytest.mark.parametrize("seed", range(6))
def test_fused_products_match_products_summed_one_by_one(twisted2, seed):
    rng = random.Random(f"fused-{seed}")
    chart = twisted2
    alpha, beta = random_scalar(chart, 1, rng), random_scalar(chart, 2, rng)
    K = random_vector(chart, rng.choice([1, 2]), rng)
    u = BundleForm(chart, [random_scalar(chart, 2, rng), random_scalar(chart, 3, rng)])

    checks = [
        (wedge(alpha, beta), ref_wedge(alpha, beta)),
        (wedge(beta, alpha), ref_wedge(beta, alpha)),
        (interior(K, beta), ref_interior(K, beta)),
        (interior(K, u), BundleForm(chart, [ref_interior(K, c) for c in u.comps])),
        (bidegree_split_scalar(beta, 1, 1), ref_bidegree_split(beta, 1)),
        (bidegree_split_scalar(beta, 2, 0), ref_bidegree_split(beta, 2)),
        (K.value_projected("1,0"), ref_value_projected(K, "1,0")),
        (K.value_projected("0,1"), ref_value_projected(K, "0,1")),
    ]
    for got, expected in checks:
        assert got == expected
        assert_canonical(got)
    # products that cancel exactly leave no key behind
    assert wedge(alpha, alpha).is_zero()


def typed_phi(chart, seed):
    """A (0,1)-form valued in T^{1,0}, of the type the Theorem 3.8 checks draw phi from."""
    return random_form(chart, (0, 1), "1,0", 2, f"typed-{seed}")


@pytest.mark.parametrize("chart_name", ["std2", "twisted2"])
@pytest.mark.parametrize("seed", range(3))
def test_interior_of_typed_forms_matches_products_one_by_one(request, chart_name, seed):
    chart = request.getfixturevalue(chart_name)
    rng = random.Random(f"classes-{seed}")
    phi = typed_phi(chart, seed)
    for K in (phi, phi.conjugate(), -phi):
        for degree in (1, 2, 3):
            target = random_scalar(chart, degree, rng)
            got = interior(K, target)
            assert got == ref_interior(K, target)
            assert_canonical(got)


def vector_comps(chart, entries):
    """Components of a vector form from {axis: {index key: polynomial}}."""
    return [ScalarForm(chart, entries.get(axis, {})) for axis in range(chart.dim)]


def test_interior_contributions_that_cancel_leave_no_key(std2):
    x1, x2 = PolyScalar.variable(0, 4), PolyScalar.variable(1, 4)
    q = x1 * x2 + PolyScalar.constant(GaussRational(1, 2), 4)
    i = GaussRational(0, 1)
    # kappa^1 = q dx3, kappa^2 = i q dx3: i_K (f dx1 + i f dx2) = (q f - q f) dx3
    K = VectorForm(std2, 1, vector_comps(std2, {0: {(2,): q}, 1: {(2,): q.scale(i)}}))
    f = x1 + x2 * x2
    target = ScalarForm(std2, {(0,): f, (1,): f.scale(i), (3,): x2})
    got = interior(K, target)
    assert got == ref_interior(K, target)
    assert got.is_zero()
    # kappa^1 = q dx1, kappa^2 = -q dx2 on dx1^dx2 cancels at the empty key
    K = VectorForm(std2, 1, vector_comps(std2, {0: {(0,): q}, 1: {(1,): -q}}))
    target = ScalarForm(std2, {(0, 1): f})
    assert interior(K, target) == ref_interior(K, target)
    assert interior(K, target).is_zero()


@pytest.mark.parametrize("chart_name", ["std2", "twisted2"])
def test_constant_coefficients_of_K_are_scalings(request, chart_name, term_pairs):
    chart = request.getfixturevalue(chart_name)
    u = random_scalar(chart, 2, random.Random(f"identity-{chart_name}"))
    I = identity_vector_form(chart)
    assert interior(I, u) == u.scale(2)
    assert term_pairs == [], "i_I u multiplies by no polynomial"


# -- the merge-sign table and the contraction plans -------------------------------------


def test_merge_sign_table_matches_the_parity_of_inversions():
    # every subset of range(6) as a strictly increasing key: all key pairs of every dim <= 6
    keys = [key for n in range(7) for key in combinations(range(6), n)]
    for _ in range(2):  # the second round reads the filled table
        for left in keys:
            for right in keys:
                assert _merge_sign(left, right) == merge_sign(left, right)


@pytest.mark.parametrize("chart_name", ["std2", "twisted2"])
@pytest.mark.parametrize("framed", [False, True], ids=["coordinates", "frame"])
def test_contraction_plans_follow_the_target_key_and_never_go_stale(request, chart_name, framed):
    chart = request.getfixturevalue(chart_name)
    move = to_frame if framed else (lambda form: form)
    rng = random.Random(f"plans-{chart_name}-{framed}")
    for degree in (1, 2):
        K = move(random_vector(chart, degree, rng))
        targets = [move(random_scalar(chart, d, rng)) for d in range(chart.dim + 1)]
        targets.append(targets[1] + targets[2] + targets[chart.dim])  # one of mixed degree
        for order in (targets, rng.sample(targets, len(targets))):
            for target in order:
                fresh = VectorForm(K.chart, K.degree, K.comps)
                got = interior(K, target)
                assert got == interior(fresh, target) == ref_interior(K, target)
                assert_canonical(got)


# -- the exponent guard through the form layer ----------------------------------------


def big(chart, coeff=1):
    return PolyScalar.monomial(coeff, (BIG,) + (0,) * (chart.dim - 1), chart.dim)


def test_form_products_raise_on_exponent_overflow(std2):
    alpha = ScalarForm(std2, {(0,): big(std2)})
    beta = ScalarForm(std2, {(1,): big(std2)})
    with pytest.raises(OverflowError):
        wedge(alpha, beta)
    comps = [ScalarForm.zero(std2) for _ in range(std2.dim)]
    comps[0] = alpha
    with pytest.raises(OverflowError):
        interior(VectorForm(std2, 1, comps), alpha)


def test_overflowed_products_that_cancel_still_raise(std2):
    # (p dx1 + p dx2) ^ (p dx1 + p dx2) = p^2 (dx1^dx2 + dx2^dx1): both products overflow, then cancel
    both = ScalarForm(std2, {(0,): big(std2), (1,): big(std2)})
    with pytest.raises(OverflowError):
        wedge(both, both)
    # i_K (p dx1^dx2) with kappa^1 = p dx1, kappa^2 = -p dx2: p^2 dx1^dx2 - p^2 dx1^dx2
    comps = [ScalarForm.zero(std2) for _ in range(std2.dim)]
    comps[0] = ScalarForm(std2, {(0,): big(std2)})
    comps[1] = ScalarForm(std2, {(1,): big(std2, -1)})
    target = ScalarForm(std2, {(0, 1): big(std2)})
    with pytest.raises(OverflowError):
        interior(VectorForm(std2, 1, comps), target)


def test_overflowing_products_whose_sum_fits_still_raise(std2):
    # kappa^1 = kappa^2 = p dx3: on (p + x2) dx1 - p dx2 the sum of the two contributions
    # is x2 * p, which fits, but p * p overflows in both products
    x2 = PolyScalar.variable(1, std2.dim)
    K = VectorForm(std2, 1, vector_comps(std2, {0: {(2,): big(std2)}, 1: {(2,): big(std2)}}))
    target = ScalarForm(std2, {(0,): big(std2) + x2, (1,): big(std2, -1)})
    with pytest.raises(OverflowError):
        interior(K, target)


def test_substituted_products_that_cancel_still_raise(std2):
    # dx1 -> p dx1 and dx2 -> -p dx1 with p = x1 + x2: on f dx1 + f dx2 the products f * p and
    # -f * p cancel at one key, so only the guard of their ProductSum sees the overflow
    p = PolyScalar.variable(0, std2.dim) + PolyScalar.variable(1, std2.dim)
    table = ImageTable()
    table[(0,)] = (((0,), 1, p),)
    table[(1,)] = (((0,), 1, -p),)
    top = PolyScalar.monomial(1, (2**15 - 1,) + (0,) * (std2.dim - 1), std2.dim)
    with pytest.raises(OverflowError):
        _substitute(ScalarForm(std2, {(0,): top, (1,): top}), table)
    assert _substitute(ScalarForm(std2, {(0,): p, (1,): p}), table).is_zero()
