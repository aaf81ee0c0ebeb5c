"""The chart's frame: exact coframe changes, and e^{±i_phi} evaluated in the frame."""

import random

import pytest

from acderiv import (
    Chart,
    bidegree_split,
    builtin_twisted_chart,
    exp_interior,
    make_standard_chart,
    make_twisted_chart,
    random_form,
)
from acderiv.algebra import AlgebraElement, PolyScalar
from acderiv.forms import (
    BundleForm,
    ScalarForm,
    VectorForm,
    conjugate_form,
    contract,
    fn_bracket,
    from_frame,
    interior,
    random_bundle_form,
    random_scalar_form,
    random_vector_form,
    to_frame,
    vector_one_form_from_matrix,
)
from acderiv.operators import (
    DecompositionError,
    connection_split,
    decompose_derivation,
    generator_family,
    identity_op,
    interior_op,
    lie_derivative,
    random_connection,
    refined_decompose,
    series,
)
from acderiv.verifier import IdentityCheck, parse_chart_name


def three_entry_twist():
    """twisted by N[0][1] = 2, N[0][2] = x1 + x2^2, N[1][3] = 3 x3."""
    zero = PolyScalar.zero(4)
    x = [PolyScalar.variable(a, 4) for a in range(4)]
    N = [[zero] * 4 for _ in range(4)]
    N[0][1] = PolyScalar.constant(2, 4)
    N[0][2] = x[0] + x[1] * x[1]
    N[1][3] = x[2].scale(3)
    return make_twisted_chart(2, N, name="three-entry")


CHARTS = {
    "standard:2": lambda: make_standard_chart(2),
    "twisted:2": lambda: parse_chart_name("twisted:2"),
    "twisted:3": lambda: parse_chart_name("twisted:3"),
    "three-entry": three_entry_twist,
}


# a bare chart has no frame, so its exponential runs in coordinates through the same path
EXP_CHARTS = {**CHARTS, "bare:2": lambda: Chart(2, make_standard_chart(2).J)}


@pytest.fixture(scope="module", params=sorted(CHARTS))
def framed(request):
    return CHARTS[request.param]()


def random_forms(chart, seed):
    """Random scalar, vector and rank-2 bundle forms of every degree."""
    rng = random.Random(seed)
    for degree in range(chart.dim + 1):
        yield random_scalar_form(chart, degree, 2, rng)
        yield random_vector_form(chart, degree, 1, rng)
        yield random_bundle_form(chart, 2, degree, 1, rng)


def test_from_frame_inverts_to_frame(framed):
    # forms written in the frame live on the sibling chart framed.framed
    for form in random_forms(framed, "frame-round-trip"):
        assert from_frame(to_frame(form)) == form
    for form in random_forms(framed.framed, "frame-round-trip"):
        assert to_frame(from_frame(form)) == form


def test_to_frame_moves_J_to_its_diagonal_form(framed, diagonal_J):
    # J as the vector 1-form sum J[b][a] dx^a (x) e_b is sum_a (-1)^a i theta^a (x) e'_a
    diagonal = diagonal_J(framed.n)
    J_form = vector_one_form_from_matrix(framed, framed.J)
    assert J_form != vector_one_form_from_matrix(framed, diagonal)
    assert to_frame(J_form) == vector_one_form_from_matrix(framed.framed, diagonal)


def test_a_phi_of_type_01_valued_in_T10_has_n2_coefficients_in_the_frame(framed):
    # e'_{2a} spans T^{1,0} and theta^{2b+1} is of type (0,1); the conjugate takes the mirror slots
    phi = random_form(framed, (0, 1), "1,0", 2, f"frame-sparsity-{framed.name}")
    holo, anti = range(0, framed.dim, 2), range(1, framed.dim, 2)
    for form, values, keys in ((phi, holo, anti), (conjugate_form(phi), anti, holo)):
        framed_form = to_frame(form)
        slots = {(a, key) for a, comp in enumerate(framed_form.comps) for key in comp.terms}
        assert slots == {(a, (b,)) for a in values for b in keys}


def test_frameless_maps_return_their_input():
    chart = Chart(2, make_standard_chart(2).J)
    rng = random.Random("frameless")
    for form in (
        random_scalar_form(chart, 2, 2, rng),
        random_vector_form(chart, 1, 2, rng),
        random_bundle_form(chart, 2, 1, 2, rng),
    ):
        assert to_frame(form) is form
        assert from_frame(form) is form
    assert chart.framed is chart is chart.base


# -- operators written in the frame, against their coordinate versions conjugated by the change


@pytest.mark.parametrize("chart_name", sorted(EXP_CHARTS))
def test_frame_d_is_the_coordinate_d_moved_in(chart_name):
    chart = EXP_CHARTS[chart_name]()
    rng = random.Random(f"frame-d-{chart_name}")
    for degree in range(chart.dim + 1):
        alpha = random_scalar_form(chart.framed, degree, 2, rng)
        d_alpha = alpha.exterior_d()
        assert d_alpha == to_frame(from_frame(alpha).exterior_d())
        assert d_alpha.exterior_d().is_zero()


# a frame that leaves J0 as it is: its framed chart is no builtin's, and its J is not diagonal
SPLIT_CHARTS = {
    **EXP_CHARTS,
    "identity-frame:2": lambda: Chart(2, make_standard_chart(2).J, frame=(AlgebraElement.identity(4, 4),) * 2),
}


@pytest.mark.parametrize("chart_name", sorted(SPLIT_CHARTS))
def test_connection_and_its_split_in_the_frame_are_the_coordinate_ones_moved_in(chart_name):
    chart = SPLIT_CHARTS[chart_name]()
    conn = random_connection(chart, 2, 1, f"frame-conn-{chart_name}")
    framed = conn.to_frame()
    assert framed.chart is chart.framed
    ops = zip((conn.apply, *connection_split(conn)[:2]), (framed.apply, *connection_split(framed)[:2]))
    rng = random.Random(f"frame-conn-probes-{chart_name}")
    probes = [random_bundle_form(chart, 2, degree, 1, rng) for degree in range(chart.dim + 1)]
    for coordinate_op, frame_op in ops:
        for u in probes:
            assert frame_op(to_frame(u)) == to_frame(coordinate_op(u))


@pytest.mark.parametrize("chart_name", sorted(EXP_CHARTS))
def test_bidegree_split_in_the_frame_is_the_coordinate_split_moved_in(chart_name):
    chart = EXP_CHARTS[chart_name]()
    rng = random.Random(f"frame-split-{chart_name}")
    for degree in range(chart.dim + 1):
        forms = (random_scalar_form(chart, degree, 1, rng), random_bundle_form(chart, 2, degree, 1, rng))
        vector = random_vector_form(chart, degree, 1, rng)
        for p in range(degree + 1):
            for form in forms:
                assert bidegree_split(to_frame(form), p, degree - p) == to_frame(bidegree_split(form, p, degree - p))
            for side in ("1,0", "0,1"):
                split = bidegree_split(vector, p, degree - p, side)
                assert bidegree_split(to_frame(vector), p, degree - p, side) == to_frame(split)


def test_mixing_frame_and_coordinate_forms_raises(framed):
    rng = random.Random("frame-mixing")
    alpha = random_scalar_form(framed, 1, 1, rng)
    K = random_vector_form(framed, 1, 1, rng)
    u = random_bundle_form(framed, 1, 1, 1, rng)
    conn = random_connection(framed, 1, 1, "frame-mixing-conn")
    phi = random_form(framed, (0, 1), "1,0", 1, "frame-mixing-phi")
    mixed = [
        lambda: alpha + to_frame(alpha),
        lambda: alpha.wedge(to_frame(alpha)),
        lambda: interior(to_frame(K), alpha),
        lambda: interior(K, to_frame(alpha)),
        lambda: contract(K, to_frame(K)),
        lambda: K - to_frame(K),
        lambda: u + to_frame(u),
        lambda: conn.apply(to_frame(u)),
        lambda: conn.to_frame().apply(u),
        lambda: exp_interior(to_frame(phi))[0](u),
        lambda: exp_interior(phi)[1](to_frame(u)),
        lambda: fn_bracket(K, to_frame(K)),
        # a complex frame does not commute with coefficientwise conjugation
        lambda: to_frame(K).conjugate(),
    ]
    for combine in mixed:
        with pytest.raises(ValueError):
            combine()
    assert to_frame(alpha) != alpha and to_frame(K) != K
    assert conjugate_form(to_frame(K)) == to_frame(conjugate_form(K))
    # fn_bracket reads off coordinate components, so it brackets frame-written forms there
    assert fn_bracket(to_frame(K), to_frame(K)) == to_frame(fn_bracket(K, K))


@pytest.mark.parametrize("chart_name", sorted(EXP_CHARTS))
def test_exp_in_the_frame_equals_the_coordinate_series(chart_name):
    chart = EXP_CHARTS[chart_name]()
    phi = random_form(chart, (0, 1), "1,0", 2, f"frame-exp-{chart_name}")
    _assert_exp_matches_series(chart, chart_name, phi)


@pytest.mark.parametrize("chart_name", sorted(EXP_CHARTS))
def test_exp_of_a_conjugate_in_the_frame_equals_the_coordinate_series(chart_name):
    # psibar, the conjugate of a (0,1)-form valued in T^{1,0}, is what T3.8.4-6 conjugate by
    chart = EXP_CHARTS[chart_name]()
    psi = random_form(chart, (0, 1), "1,0", 2, f"frame-exp-{chart_name}-psibar")
    _assert_exp_matches_series(chart, chart_name, conjugate_form(psi))


def _assert_exp_matches_series(chart, chart_name, phi):
    assert not phi.is_zero()
    exp_plus, exp_minus = exp_interior(to_frame(phi))
    rng = random.Random(f"frame-probes-{chart_name}")
    probes = [u for _, u in generator_family(chart, 1)]
    probes += [random_bundle_form(chart, 2, degree, 1, rng) for degree in range(chart.dim + 1)]
    for op, K in ((exp_plus, phi), (exp_minus, -phi)):
        step = interior_op(K).action
        for u in probes:
            assert op(to_frame(u)) == to_frame(series(u, step, chart.n))


@pytest.mark.parametrize("chart_name", ["standard:2", "twisted:2", "bare:2"])
def test_decompositions_in_the_frame_are_the_coordinate_ones_moved_in(chart_name):
    # K is read off i_K dx^a and moved to the frame by A^{-1}, L off the frame's theta^b, and the
    # reassembly runs on the coordinate generator family moved in
    chart = EXP_CHARTS[chart_name]()
    conn = random_connection(chart, 2, 1, f"frame-dec-conn-{chart_name}")
    K = random_vector_form(chart, 1, 1, f"frame-dec-K-{chart_name}")
    L = random_vector_form(chart, 2, 1, f"frame-dec-L-{chart_name}")
    op = lie_derivative(K, conn) + interior_op(L)
    framed_conn = conn.to_frame()
    framed_op = lie_derivative(to_frame(K), framed_conn) + interior_op(to_frame(L))
    assert decompose_derivation(op, conn) == (K, L)
    assert decompose_derivation(framed_op, framed_conn) == (to_frame(K), to_frame(L))
    refined = refined_decompose(op, conn)
    assert refined_decompose(framed_op, framed_conn) == tuple(map(to_frame, refined))
    # the identity satisfies no Leibniz rule in either basis
    with pytest.raises(DecompositionError):
        decompose_derivation(identity_op(), framed_conn)


def test_coframe_images_are_memoised(framed):
    def memoised():
        cache = framed._coframe_cache
        return {(tag, key): image for tag in cache for key, image in cache[tag].items()}

    dx1 = ScalarForm.basis_covector(framed, 0)
    first = to_frame(dx1)
    cached = memoised()
    assert to_frame(dx1) == first != dx1
    again = memoised()
    assert cached and again.keys() == cached.keys()
    assert all(again[entry] is cached[entry] for entry in cached)


def test_frame_and_bidegree_images_do_not_share_memo_entries():
    # both substitutions memoise dx^I images in one table, under different tags
    def forms_of_every_degree(chart):
        rng = random.Random("memo-tags")
        return [random_scalar_form(chart, k, 1, rng) for k in range(chart.dim + 1)]

    def frame_changes(chart):
        return [(to_frame(a).terms, from_frame(a).terms) for a in forms_of_every_degree(chart)]

    def splits(chart):
        return [
            bidegree_split(a, p, k - p).terms
            for k, a in enumerate(forms_of_every_degree(chart))
            for p in range(k + 1)
        ]

    frame_first, split_first = builtin_twisted_chart(2), builtin_twisted_chart(2)
    frames, parts = frame_changes(frame_first), splits(frame_first)
    assert splits(split_first) == parts
    assert frame_changes(split_first) == frames


def test_constant_coframe_tables_multiply_nothing(std2, twisted2, term_pairs):
    # a standard chart's A and the projectors of a builtin chart's frame are constant, so the
    # frame change on standard:2 and the bidegree and value projection in twisted:2's frame
    # only scale, a vector form's values as well as its slots
    rng = random.Random("constant-tables")
    on_standard = [random_bundle_form(std2, 1, k, 2, rng) for k in range(std2.dim + 1)]
    in_frame = [to_frame(random_bundle_form(twisted2, 1, k, 2, rng)) for k in range(twisted2.dim + 1)]
    K = random_vector_form(std2, 1, 2, rng)
    K_in_frame = to_frame(random_vector_form(twisted2, 1, 2, rng))

    def substitutions():
        moved = [(to_frame(u), from_frame(to_frame(u))) for u in on_standard]
        split = [bidegree_split(v, p, k - p) for k, v in enumerate(in_frame) for p in range(k + 1)]
        vectors = [
            to_frame(K),
            from_frame(to_frame(K)),
            K_in_frame.value_projected("1,0"),
            bidegree_split(K_in_frame, 0, 1, "1,0"),
        ]
        return moved, split, vectors

    expected = substitutions()  # builds every image table, by products of constants
    term_pairs.clear()
    assert substitutions() == expected
    assert term_pairs == []


def test_exp_on_twisted3_makes_fewer_term_pairs_than_the_series(term_pairs):
    # dense twisted:3 input: T3.8.1's phi at seed 7 and a random 3-form.  In the J-diagonal
    # frame phi has n^2 coefficients, and the image table beats the coordinate series
    chart = parse_chart_name("twisted:3")
    spec = IdentityCheck("T3.8.1", "twisted:3", seed=7)
    phi = random_form(chart, (0, 1), "1,0", spec.degree, spec.sub_seed("phi"))
    u = random_bundle_form(chart, 1, 3, 1, random.Random("twisted3-term-pairs"))
    exp_plus, exp_minus = exp_interior(to_frame(phi))
    term_pairs.clear()
    image = from_frame(exp_minus(exp_plus(to_frame(u))))
    table_pairs, term_pairs[:] = sum(term_pairs), []
    expected = series(series(u, interior_op(phi).action, chart.n), interior_op(-phi).action, chart.n)
    series_pairs = sum(term_pairs)
    assert image == expected
    assert table_pairs < series_pairs
