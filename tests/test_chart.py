"""Charts, projectors, torsion, and the Nijenhuis tensor."""

import pytest

from acderiv import (
    AlgebraElement,
    Chart,
    bidegree_split,
    builtin_twisted_chart,
    make_standard_chart,
    make_twisted_chart,
    nijenhuis_tensor,
    torsion_form,
)
from acderiv.algebra import GaussRational, PolyScalar
from fractions import Fraction


def poly_matrix(dim, entries=()):
    """dim x dim polynomial matrix in dim variables, zero except for {(i, j): value}."""
    entries = dict(entries)
    return AlgebraElement(
        [[entries.get((i, j), PolyScalar.zero(dim)) for j in range(dim)] for i in range(dim)]
    )


def identity(dim):
    return poly_matrix(dim, {(i, i): PolyScalar.one(dim) for i in range(dim)})


def minus_identity(dim):
    return identity(dim).scale(-1)


def test_standard_chart_n1_matrix():
    ch = make_standard_chart(1)
    assert str(ch.J[0][0]) == "0" and str(ch.J[1][1]) == "0"
    assert ch.J[0][1] == PolyScalar.constant(-1, 2)
    assert ch.J[1][0] == PolyScalar.constant(1, 2)


def test_standard_chart_n2_block_diagonal():
    ch = make_standard_chart(2)
    assert ch.J[1][0] == PolyScalar.constant(1, 4)
    assert ch.J[0][1] == PolyScalar.constant(-1, 4)
    assert ch.J[3][2] == PolyScalar.constant(1, 4)
    assert ch.J[2][3] == PolyScalar.constant(-1, 4)
    assert ch.J[2][0].is_zero() and ch.J[0][2].is_zero()
    assert ch.J * ch.J == minus_identity(4)


def test_standard_chart_rejects_n0():
    with pytest.raises(ValueError):
        make_standard_chart(0)


def test_twisted_chart_zero_twist_is_standard():
    n = [[PolyScalar.zero(4)] * 4 for _ in range(4)]
    ch = make_twisted_chart(2, n)
    assert ch.J == make_standard_chart(2).J


def test_twisted_chart_squares_to_minus_identity():
    ch = builtin_twisted_chart(2)
    assert any(not ch.J[i][j].is_zero() and ch.J[i][j].total_degree() > 0
               for i in range(4) for j in range(4))
    assert ch.J * ch.J == minus_identity(4)


def test_single_entry_twists_square_to_minus_identity():
    # any strictly-triangular polynomial twist keeps J*J = -I exactly; the
    # x4 twist is also secretly integrable, which is why the builtin pins x1
    n = [[PolyScalar.zero(4)] * 4 for _ in range(4)]
    n[0][2] = PolyScalar.variable(3, 4)
    ch = make_twisted_chart(2, n)
    assert ch.J * ch.J == minus_identity(4)
    assert nijenhuis_tensor(ch).is_zero()
    assert not nijenhuis_tensor(builtin_twisted_chart(2)).is_zero()


def test_twisted_chart_requires_strict_triangularity():
    n = [[PolyScalar.zero(4)] * 4 for _ in range(4)]
    n[2][0] = PolyScalar.variable(0, 4)
    with pytest.raises(ValueError):
        make_twisted_chart(2, n)


def test_chart_rejects_a_polynomial_J_that_does_not_square_to_minus_identity():
    x1 = PolyScalar.variable(0, 2)
    one = PolyScalar.one(2)
    # J0 plus x1 on the diagonal: J*J = -I + 2*x1*J0 + x1^2*I
    with pytest.raises(ValueError, match="J\\*J != -I"):
        Chart(1, poly_matrix(2, {(0, 0): x1, (0, 1): -one, (1, 0): one, (1, 1): x1}))
    with pytest.raises(ValueError, match="J\\*J != -I"):
        Chart(2, identity(4))
    # the same J without x1 is the standard structure and passes
    assert Chart(1, poly_matrix(2, {(0, 1): -one, (1, 0): one})).J == make_standard_chart(1).J


def test_builtin_charts_carry_a_frame(std2, twisted2, diagonal_J):
    assert Chart(2, std2.J).frame is None
    for chart in (std2, twisted2):
        A, inverse = chart.frame
        assert A * inverse == identity(4)
    for n in (1, 2, 3):
        # e'_{2a} = e_{2a} - i e_{2a+1} spans T^{1,0}: in that frame the standard J is diagonal
        A, inverse = make_standard_chart(n).frame
        assert inverse * make_standard_chart(n).J * A == diagonal_J(n)


@pytest.mark.parametrize("n", [2, 3])
def test_builtin_twisted_frame_makes_J_constant(n, diagonal_J):
    # in the frame e'_b = A e_b the twisted J is the constant diag(i, -i, ...)
    chart = builtin_twisted_chart(n)
    A, inverse = chart.frame
    assert chart.J != make_standard_chart(n).J
    assert inverse * chart.J * A == diagonal_J(n)


def test_holomorphic_axes_are_read_off_a_diagonal_J(std2, twisted2, diagonal_J):
    # J = diag(i, -i, ...) makes theta^{2a} of type (1,0); any other J, framed or not, has none
    assert Chart(2, diagonal_J(2)).holomorphic_axes == {0, 2}
    for chart in (std2, twisted2, builtin_twisted_chart(3)):
        assert chart.holomorphic_axes is None
        assert chart.framed.holomorphic_axes == set(range(0, chart.dim, 2))
    swapped = Chart(1, diagonal_J(1).scale(-1))
    assert swapped.holomorphic_axes == {1}
    assert Chart(2, std2.J, frame=(identity(4), identity(4))).framed.holomorphic_axes is None
    # i on the diagonal is not enough: a nonzero entry off it keeps the projectors
    i = PolyScalar.constant(GaussRational(0, 1), 2)
    off_diagonal = poly_matrix(2, {(0, 0): i, (0, 1): PolyScalar.variable(0, 2), (1, 1): -i})
    assert Chart(1, off_diagonal).holomorphic_axes is None


def test_chart_rejects_a_frame_with_a_wrong_inverse(twisted2):
    A, inverse = twisted2.frame
    with pytest.raises(ValueError, match="A\\*A\\^\\{-1\\} != I"):
        Chart(2, twisted2.J, frame=(A, A))
    assert Chart(2, twisted2.J, frame=(A, inverse)).frame == (A, inverse)


def test_builtin_twisted_rejects_n1():
    with pytest.raises(ValueError):
        builtin_twisted_chart(1)


def test_projectors_standard_n1_frozen():
    # P10 = 1/2 [[1, i], [-i, 1]] by direct matrix arithmetic
    P10 = make_standard_chart(1).projector("1,0")
    half = GaussRational(Fraction(1, 2))
    half_i = GaussRational(0, Fraction(1, 2))
    assert P10[0][0] == PolyScalar.constant(half, 2)
    assert P10[0][1] == PolyScalar.constant(half_i, 2)
    assert P10[1][0] == PolyScalar.constant(-half_i, 2)
    assert P10[1][1] == PolyScalar.constant(half, 2)


@pytest.mark.parametrize("chart_name", ["standard:1", "standard:2", "twisted:2"])
def test_projector_identities(chart_name, std1, std2, twisted2):
    chart = {"standard:1": std1, "standard:2": std2, "twisted:2": twisted2}[chart_name]
    P10, P01 = chart.projector("1,0"), chart.projector("0,1")
    dim = chart.dim
    assert P10 + P01 == identity(dim)
    assert P10 * P10 == P10
    assert P01 * P01 == P01
    assert P10 * P01 == poly_matrix(dim)
    conj_p10 = AlgebraElement([[e.conjugate() for e in row] for row in P10.entries])
    assert conj_p10 == P01
    assert chart.projector("1,0") is P10  # memoised


def test_torsion_vanishes_on_standard_charts(std1, std2):
    assert torsion_form(std1).is_zero()
    assert torsion_form(std2).is_zero()


def test_twisted_torsion_nonzero_pure_bidegree(twisted2):
    theta = torsion_form(twisted2)
    assert not theta.is_zero()
    assert bidegree_split(theta, 2, 0, "0,1") == theta
    for p, q, side in [(2, 0, "1,0"), (1, 1, "1,0"), (1, 1, "0,1"), (0, 2, "1,0"), (0, 2, "0,1")]:
        assert bidegree_split(theta, p, q, side).is_zero()


def test_conjugate_torsion_bidegree(twisted2):
    theta_bar = torsion_form(twisted2).conjugate()
    assert bidegree_split(theta_bar, 0, 2, "1,0") == theta_bar


def test_nijenhuis_standard_zero(std2):
    assert nijenhuis_tensor(std2).is_zero()


def test_nijenhuis_twisted_nonzero(twisted2):
    assert not nijenhuis_tensor(twisted2).is_zero()


def twist(n, entries):
    """make_twisted_chart(n, N) with N zero except for {(i, j): entry}."""
    dim = 2 * n
    N = [[entries.get((i, j), PolyScalar.zero(dim)) for j in range(dim)] for i in range(dim)]
    return make_twisted_chart(n, N)


def test_torsion_iff_nijenhuis(std1, std2, twisted2):
    x = [PolyScalar.variable(axis, 4) for axis in range(4)]
    x4_twist = twist(2, {(0, 2): x[3]})  # secretly integrable
    three_entry_twist = twist(
        2, {(0, 1): PolyScalar.constant(2, 4), (0, 2): x[0] + x[1] * x[1], (1, 3): x[2].scale(3)}
    )
    for chart, integrable in (
        (std1, True),
        (std2, True),
        (twisted2, False),
        (builtin_twisted_chart(3), False),
        (x4_twist, True),
        (three_entry_twist, False),
    ):
        assert torsion_form(chart).is_zero() == nijenhuis_tensor(chart).is_zero() == integrable


def test_torsion_tensoriality(twisted2):
    """theta is function-linear: recomputing with function-rescaled frame
    fields changes nothing because arguments are projected first."""
    from acderiv.chart import _lie_bracket_fields

    chart = twisted2
    P10, P01 = chart.projector("1,0"), chart.projector("0,1")
    dim = chart.dim
    f = PolyScalar.variable(1, dim) + PolyScalar.one(dim)
    a, b = 2, 3
    col_a = [P10[r][a] for r in range(dim)]
    col_b = [P10[r][b] for r in range(dim)]
    scaled_a = [f * entry for entry in col_a]
    bracket = _lie_bracket_fields(chart, scaled_a, col_b)
    plain = _lie_bracket_fields(chart, col_a, col_b)
    projected = [
        sum((P01[c][r] * bracket[r] for r in range(dim)), PolyScalar.zero(dim))
        for c in range(dim)
    ]
    plain_projected = [
        sum((P01[c][r] * plain[r] for r in range(dim)), PolyScalar.zero(dim))
        for c in range(dim)
    ]
    assert projected == [f * entry for entry in plain_projected]
