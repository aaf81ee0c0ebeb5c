"""Scalar/vector/bundle forms: wedge, contraction, brackets, bidegree machinery."""

import random

import pytest

from acderiv import (
    VectorForm,
    bidegree_split,
    conjugate_form,
    contract,
    exterior_d,
    fn_bracket,
    identity_vector_form,
    interior,
    iterated_nr_bracket,
    nr_bracket,
    random_form,
    wedge,
)
from acderiv.algebra import GaussRational, PolyScalar
from acderiv.forms import (
    BundleForm,
    ScalarForm,
    _lie_scalar,
    _random_poly,
    random_scalar_form,
    random_vector_form,
)


def dx(chart, axis):
    return ScalarForm.basis_covector(chart, axis)


def coord(chart, axis):
    return ScalarForm.coordinate_function(chart, axis)


def simple_vector_form(chart, covector_axis, value_axis):
    comps = [ScalarForm.zero(chart) for _ in range(chart.dim)]
    comps[value_axis] = dx(chart, covector_axis)
    return VectorForm(chart, 1, comps)


# -- wedge ------------------------------------------------------------------


def test_wedge_basis_two_form(std2):
    two_form = wedge(dx(std2, 0), dx(std2, 1))
    assert two_form == ScalarForm(std2, {(0, 1): PolyScalar.one(4)})


def test_wedge_self_is_zero(std2):
    assert wedge(dx(std2, 0), dx(std2, 0)).is_zero()


def test_wedge_hand_expansion(std2):
    # (x1 dx1) ^ (x2 dx2 + dx3) = x1 x2 dx1^dx2 + x1 dx1^dx3
    x1, x2 = PolyScalar.variable(0, 4), PolyScalar.variable(1, 4)
    left = dx(std2, 0).mul_poly(x1)
    right = dx(std2, 1).mul_poly(x2) + dx(std2, 2)
    expected = ScalarForm(std2, {(0, 1): x1 * x2, (0, 2): x1})
    assert wedge(left, right) == expected


def test_wedge_graded_commutativity(std2):
    rng = random.Random(3)
    for deg_a, deg_b in [(1, 1), (1, 2), (2, 2)]:
        a = random_scalar_form(std2, deg_a, 2, rng)
        b = random_scalar_form(std2, deg_b, 2, rng)
        sign = (-1) ** (deg_a * deg_b)
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_chart_mismatch(std1, std2):
    with pytest.raises(ValueError):
        wedge(dx(std1, 0), dx(std2, 0))


# -- interior -----------------------------------------------------------------


def test_interior_vector_field_contraction(std2):
    x_field = VectorForm.basis_field(std2, 0)
    assert interior(x_field, wedge(dx(std2, 0), dx(std2, 1))) == dx(std2, 1)


def test_interior_definition_expansion(std2):
    k_form = simple_vector_form(std2, 0, 1)  # dx1 (x) e2
    assert interior(k_form, dx(std2, 1)) == dx(std2, 0)


def test_interior_kills_functions(std2):
    k_form = simple_vector_form(std2, 0, 1)
    f = coord(std2, 2)
    assert interior(k_form, f).is_zero()
    rng = random.Random(8)
    k2 = random_vector_form(std2, 2, 2, rng)
    assert interior(k2, f).is_zero()


def test_interior_graded_leibniz(twisted2):
    rng = random.Random(21)
    for kdeg in (1, 2):
        K = random_vector_form(twisted2, kdeg, 1, rng)
        alpha = random_scalar_form(twisted2, 1, 1, rng)
        beta = random_scalar_form(twisted2, 2, 1, rng)
        k = kdeg - 1
        lhs = interior(K, wedge(alpha, beta))
        sign = (-1) ** (k * 1)
        rhs = wedge(interior(K, alpha), beta) + wedge(alpha, interior(K, beta)).scale(sign)
        assert lhs == rhs


def test_interior_bundle_componentwise(std2):
    k_form = simple_vector_form(std2, 0, 1)
    u = BundleForm(std2, [dx(std2, 1), dx(std2, 2)])
    image = interior(k_form, u)
    assert image.comps[0] == dx(std2, 0)
    assert image.comps[1].is_zero()


# -- contract and the Nijenhuis-Richardson bracket --------------------------------


def test_contract_definition_expansion(std2):
    K = simple_vector_form(std2, 0, 1)  # dx1 (x) e2
    L = simple_vector_form(std2, 1, 2)  # dx2 (x) e3
    assert contract(K, L) == simple_vector_form(std2, 0, 2)  # dx1 (x) e3


def test_contract_vector_fields_is_zero(std2):
    X = VectorForm.basis_field(std2, 0)
    Y = VectorForm.basis_field(std2, 1)
    assert contract(X, Y).is_zero()


def test_contract_identity_counts_degree(std2):
    ident = identity_vector_form(std2)
    rng = random.Random(31)
    for degree in (1, 2, 3):
        L = random_vector_form(std2, degree, 1, rng)
        assert contract(ident, L) == L.scale(degree)


def test_nr_bracket_vector_fields_zero(std2):
    X = VectorForm.basis_field(std2, 0)
    Y = VectorForm.basis_field(std2, 1)
    assert nr_bracket(X, Y).is_zero()


def test_nr_bracket_with_identity(std2):
    # [K, I]^ = -k K for K of form degree k+1
    ident = identity_vector_form(std2)
    rng = random.Random(37)
    K = random_vector_form(std2, 2, 1, rng)  # k = 1
    assert nr_bracket(K, ident) == K.scale(-1)
    K3 = random_vector_form(std2, 3, 1, rng)  # k = 2
    assert nr_bracket(K3, ident) == K3.scale(-2)


def test_nr_bracket_realizes_interior_commutator(twisted2):
    """[i_K, i_L] = i_{[K,L]^} as operators on random scalar forms."""
    rng = random.Random(41)
    for kdeg, ldeg in [(1, 2), (2, 2)]:
        K = random_vector_form(twisted2, kdeg, 1, rng)
        L = random_vector_form(twisted2, ldeg, 1, rng)
        k, l = kdeg - 1, ldeg - 1
        sign = (-1) ** (k * l)
        bracket = nr_bracket(K, L)
        for deg in (1, 2, 3):
            alpha = random_scalar_form(twisted2, deg, 1, rng)
            lhs = interior(K, interior(L, alpha)) - interior(L, interior(K, alpha)).scale(sign)
            assert lhs == interior(bracket, alpha)


def test_nr_graded_antisymmetry(twisted2):
    rng = random.Random(43)
    for kdeg, ldeg in [(1, 1), (1, 2), (2, 2)]:
        K = random_vector_form(twisted2, kdeg, 1, rng)
        L = random_vector_form(twisted2, ldeg, 1, rng)
        k, l = kdeg - 1, ldeg - 1
        assert nr_bracket(K, L) == nr_bracket(L, K).scale(-((-1) ** (k * l)))


def test_iterated_nr_bracket_count_zero(twisted2):
    rng = random.Random(47)
    K = random_vector_form(twisted2, 2, 1, rng)
    L = random_vector_form(twisted2, 1, 1, rng)
    assert iterated_nr_bracket(K, L, 0) == K
    assert iterated_nr_bracket(K, L, 2) == nr_bracket(nr_bracket(K, L), L)
    with pytest.raises(ValueError):
        iterated_nr_bracket(K, L, -1)


def test_torsion_bracket_nilpotency(twisted2):
    # [theta, phi]^{wedge(4)} = 0 for phi in A^{0,1}(T^{1,0})
    theta = twisted2.torsion()
    phi = random_form(twisted2, (0, 1), "1,0", 2, "nilp-theta")
    assert not iterated_nr_bracket(theta, phi, 3).is_zero()  # generic up to order 3
    assert iterated_nr_bracket(theta, phi, 4).is_zero()


def test_phi_psibar_nr_nilpotency(twisted2):
    # [phi, psibar]^{wedge(3)} = 0
    phi = random_form(twisted2, (0, 1), "1,0", 2, "nr-phi")
    psibar = conjugate_form(random_form(twisted2, (0, 1), "1,0", 2, "nr-psi"))
    assert iterated_nr_bracket(phi, psibar, 3).is_zero()


def test_interior_anticommutation_with_bidegrees(twisted2):
    """i_phi i_psi = (-1)^{(k+1)(l+1)} i_psi i_phi for A^{0,k}/A^{0,l}(T^{1,0})."""
    rng = random.Random(53)
    phi1 = random_form(twisted2, (0, 1), "1,0", 1, "anti-1")
    psi1 = random_form(twisted2, (0, 1), "1,0", 1, "anti-2")
    phi2 = random_form(twisted2, (0, 2), "1,0", 1, "anti-3")
    psi2 = random_form(twisted2, (0, 2), "1,0", 1, "anti-4")
    for left, right, k, l in [
        (phi1, psi1, 1, 1),
        (phi1, psi2, 1, 2),
        (phi2, psi2, 2, 2),
    ]:
        sign = (-1) ** ((k + 1) * (l + 1))
        for deg in (2, 3):
            alpha = random_scalar_form(twisted2, deg, 1, rng)
            lhs = interior(left, interior(right, alpha))
            rhs = interior(right, interior(left, alpha)).scale(sign)
            assert lhs == rhs


# -- exterior derivative -----------------------------------------------------------


def test_exterior_d_basic(std2):
    alpha = dx(std2, 1).mul_poly(PolyScalar.variable(0, 4))  # x1 dx2
    assert exterior_d(alpha) == wedge(dx(std2, 0), dx(std2, 1))


def test_d_squared_zero(twisted2):
    rng = random.Random(59)
    for deg in (0, 1, 2):
        alpha = random_scalar_form(twisted2, deg, 3, rng)
        assert exterior_d(exterior_d(alpha)).is_zero()


def test_d_leibniz(twisted2):
    rng = random.Random(61)
    for deg_a in (0, 1, 2):
        alpha = random_scalar_form(twisted2, deg_a, 2, rng)
        beta = random_scalar_form(twisted2, 1, 2, rng)
        lhs = exterior_d(wedge(alpha, beta))
        rhs = wedge(exterior_d(alpha), beta) + wedge(alpha, exterior_d(beta)).scale(
            (-1) ** deg_a
        )
        assert lhs == rhs


# -- bidegree machinery ---------------------------------------------------------


def test_dz_is_pure_holomorphic(std1):
    dz = dx(std1, 0) + dx(std1, 1).scale(GaussRational(0, 1))
    assert bidegree_split(dz, 1, 0) == dz
    assert bidegree_split(dz, 0, 1).is_zero()


def test_bidegree_partition_of_unity(twisted2):
    rng = random.Random(67)
    for deg in (1, 2, 3):
        alpha = random_scalar_form(twisted2, deg, 2, rng)
        total = ScalarForm.zero(twisted2)
        for p in range(deg + 1):
            total = total + bidegree_split(alpha, p, deg - p)
        assert total == alpha


def test_bidegree_idempotence(twisted2):
    rng = random.Random(71)
    alpha = random_scalar_form(twisted2, 2, 2, rng)
    part = bidegree_split(alpha, 1, 1)
    assert bidegree_split(part, 1, 1) == part
    assert bidegree_split(part, 2, 0).is_zero()
    assert bidegree_split(part, 0, 2).is_zero()


def test_bidegree_projected_random_form_idempotent(twisted2):
    phi = random_form(twisted2, (0, 1), "1,0", 2, "idem")
    assert bidegree_split(phi, 0, 1, "1,0") == phi
    assert bidegree_split(phi, 1, 0, "1,0").is_zero()
    assert bidegree_split(phi, 0, 1, "0,1").is_zero()


def test_bidegree_split_errors(twisted2):
    rng = random.Random(73)
    alpha = random_scalar_form(twisted2, 2, 1, rng)
    with pytest.raises(ValueError):
        bidegree_split(alpha, 1, 0)  # degree mismatch
    with pytest.raises(ValueError):
        bidegree_split(alpha, -1, 3)
    mixed = alpha + coord(twisted2, 0)
    with pytest.raises(ValueError):
        bidegree_split(mixed, 1, 1)
    phi = random_form(twisted2, (0, 1), "1,0", 1, "err")
    with pytest.raises(ValueError):
        bidegree_split(phi, 0, 1)  # vector form needs a value side


@pytest.mark.parametrize("side", ["1, 0", "holomorphic", "0,1 ", None])
def test_value_projected_rejects_unknown_sides(twisted2, side):
    phi = random_form(twisted2, (0, 1), "1,0", 1, "side")
    with pytest.raises(ValueError, match="value side"):
        phi.value_projected(side)
    with pytest.raises(ValueError, match="value side"):
        bidegree_split(phi, 0, 1, side)
    with pytest.raises(ValueError, match="value side"):
        twisted2.projector(side)


def test_bidegree_split_of_a_bundle_form_is_componentwise(twisted2):
    rng = random.Random(79)
    for deg in (1, 2, 3):
        u = BundleForm(twisted2, [random_scalar_form(twisted2, deg, 2, rng) for _ in range(3)])
        total = BundleForm.zero(twisted2, 3)
        for p in range(deg + 1):
            piece = bidegree_split(u, p, deg - p)
            assert piece == BundleForm(twisted2, [bidegree_split(c, p, deg - p) for c in u.comps])
            total = total + piece
        assert total == u
    with pytest.raises(ValueError, match="tangent value"):
        bidegree_split(u, 1, 2, "1,0")


# -- conjugation ---------------------------------------------------------------


def test_conjugate_dz(std1):
    dz = dx(std1, 0) + dx(std1, 1).scale(GaussRational(0, 1))
    dzbar = dx(std1, 0) + dx(std1, 1).scale(GaussRational(0, -1))
    assert conjugate_form(dz) == dzbar
    assert bidegree_split(dzbar, 0, 1) == dzbar


def test_conjugate_involution(twisted2):
    K = random_vector_form(twisted2, 2, 2, "conj-inv")
    assert conjugate_form(conjugate_form(K)) == K


def test_conjugate_swaps_types(twisted2):
    phi = random_form(twisted2, (0, 1), "1,0", 2, "conj-swap")
    psibar = conjugate_form(phi)
    assert bidegree_split(psibar, 1, 0, "0,1") == psibar
    assert not psibar.is_zero()


# -- Froelicher-Nijenhuis bracket ----------------------------------------------


def test_fn_bracket_classical_lie_bracket(std2):
    X = VectorForm.basis_field(std2, 0)
    comps = [ScalarForm.zero(std2) for _ in range(4)]
    comps[1] = coord(std2, 0)
    Y = VectorForm(std2, 0, comps)  # x1 * e2
    assert fn_bracket(X, Y) == VectorForm.basis_field(std2, 1)


def test_fn_bracket_standard_j_integrable(std2):
    from acderiv.forms import vector_one_form_from_matrix

    j_form = vector_one_form_from_matrix(std2, std2.J)
    assert fn_bracket(j_form, j_form).is_zero()


def test_fn_bracket_matches_decomposable_formula(twisted2):
    """Independent oracle: the classical formula for [xi (x) X, eta (x) Y]."""
    chart = twisted2
    dim = chart.dim
    rng = random.Random("kms")

    def oracle(xi, X, eta, Y):
        k = xi.degree()
        bracket_xy = []
        for c in range(dim):
            acc = PolyScalar.zero(dim)
            for a in range(dim):
                acc = acc + X[a] * Y[c].partial_derivative(a) - Y[a] * X[c].partial_derivative(a)
            bracket_xy.append(acc)
        Xv = VectorForm(chart, 0, [ScalarForm.function(chart, f) for f in X])
        Yv = VectorForm(chart, 0, [ScalarForm.function(chart, f) for f in Y])
        lie_X_eta = _lie_scalar(Xv, eta)
        lie_Y_xi = _lie_scalar(Yv, xi)
        sign = (-1) ** k
        comps = []
        for c in range(dim):
            t = wedge(xi, eta).mul_poly(bracket_xy[c])
            t = t + wedge(xi, lie_X_eta).mul_poly(Y[c])
            t = t - wedge(lie_Y_xi, eta).mul_poly(X[c])
            extra = wedge(exterior_d(xi), interior(Xv, eta)).mul_poly(Y[c]) + wedge(
                interior(Yv, xi), exterior_d(eta)
            ).mul_poly(X[c])
            comps.append(t + extra.scale(sign))
        return VectorForm(chart, xi.degree() + eta.degree(), comps)

    for _ in range(4):
        xi = random_scalar_form(chart, rng.choice([1, 2]), 1, rng)
        eta = random_scalar_form(chart, rng.choice([1, 2]), 1, rng)
        X = [_random_poly(rng, dim, 1) for _ in range(dim)]
        Y = [_random_poly(rng, dim, 1) for _ in range(dim)]
        K = VectorForm(chart, xi.degree(), [xi.mul_poly(X[c]) for c in range(dim)])
        L = VectorForm(chart, eta.degree(), [eta.mul_poly(Y[c]) for c in range(dim)])
        assert fn_bracket(K, L) == oracle(xi, X, eta, Y)
        assert fn_bracket(K, K) == oracle(xi, X, xi, X)


@pytest.mark.parametrize("degree", [1, 2])
def test_fn_bracket_of_K_with_itself_takes_one_lie_derivative_per_component(twisted2, degree, monkeypatch):
    # [K, K]^a = (1 - (-1)^k) L_K K^a: one _lie_scalar per axis for odd k, none for even k,
    # in either basis, and equal to the general formula on an equal copy of K
    from acderiv import forms
    from acderiv.forms import to_frame

    K = random_vector_form(twisted2, degree, 1, f"self-bracket-{degree}")
    copy = VectorForm(twisted2, degree, K.comps)
    expected = fn_bracket(K, copy)
    assert copy is not K and expected.is_zero() == (degree % 2 == 0)
    calls = []
    lie_scalar = forms._lie_scalar
    monkeypatch.setattr(forms, "_lie_scalar", lambda K, alpha: calls.append(K) or lie_scalar(K, alpha))
    assert fn_bracket(K, K) == expected
    framed = to_frame(K)
    assert fn_bracket(framed, framed) == to_frame(expected)
    assert len(calls) == (2 * twisted2.dim if degree % 2 else 0)  # dim in each of the two brackets


def test_fn_extraction_consistency(twisted2):
    """L_{[K,L]} = [L_K, L_L] on functions AND coordinate 1-forms."""
    chart = twisted2
    K = random_vector_form(chart, 1, 1, "consist-K")
    L = random_vector_form(chart, 2, 1, "consist-L")
    bracket = fn_bracket(K, L)
    sign = (-1) ** (K.degree * L.degree)
    generators = [coord(chart, a) for a in range(chart.dim)] + [
        dx(chart, a) for a in range(chart.dim)
    ]
    for g in generators:
        lhs = _lie_scalar(bracket, g)
        rhs = _lie_scalar(K, _lie_scalar(L, g)) - _lie_scalar(L, _lie_scalar(K, g)).scale(sign)
        assert lhs == rhs


def test_eq23_membership_twisted(twisted2):
    phi = random_form(twisted2, (0, 1), "1,0", 2, "eq23-phi")
    psi = random_form(twisted2, (0, 1), "1,0", 2, "eq23-psi")
    bracket = fn_bracket(phi, psi)
    listed = (
        bidegree_split(bracket, 0, 2, "1,0")
        + bidegree_split(bracket, 1, 1, "1,0")
        + bidegree_split(bracket, 0, 2, "0,1")
    )
    assert bracket == listed
    # and the anomaly really shows up on the twisted chart
    assert not bidegree_split(bracket, 1, 1, "1,0").is_zero()


def test_eq23_pure_on_standard(std2):
    phi = random_form(std2, (0, 1), "1,0", 2, "eq23s-phi")
    psi = random_form(std2, (0, 1), "1,0", 2, "eq23s-psi")
    bracket = fn_bracket(phi, psi)
    assert bidegree_split(bracket, 0, 2, "1,0") == bracket


# -- random generators ------------------------------------------------------------


def test_random_form_deterministic(twisted2):
    a = random_form(twisted2, (0, 1), "1,0", 2, "seed-determinism")
    b = random_form(twisted2, (0, 1), "1,0", 2, "seed-determinism")
    assert a == b
    c = random_form(twisted2, (0, 1), "1,0", 2, "another-seed")
    assert a != c


def test_random_form_exact_bidegree(twisted2):
    for bideg, side in [((0, 1), "1,0"), ((1, 1), "0,1"), ((2, 0), "1,0")]:
        form = random_form(twisted2, bideg, side, 2, f"bideg-{bideg}-{side}")
        assert bidegree_split(form, bideg[0], bideg[1], side) == form


def test_random_form_nonzero_rate(twisted2):
    nonzero = sum(
        0 if random_form(twisted2, (0, 1), "1,0", 2, f"rate-{k}").is_zero() else 1
        for k in range(100)
    )
    assert nonzero >= 97
