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
from acderiv.algebra import PolyScalar
from acderiv.forms import (
    ScalarForm,
    conjugate_form,
    from_frame,
    random_bundle_form,
    random_scalar_form,
    random_vector_form,
    to_frame,
    vector_one_form_from_matrix,
)
from acderiv.operators import generator_family, interior_op, series
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
    for form in random_forms(framed, "frame-round-trip"):
        assert from_frame(to_frame(form)) == form
        assert to_frame(from_frame(form)) == form


def test_to_frame_moves_J_to_its_diagonal_form(framed, diagonal_J):
    # J as the vector 1-form sum J[b][a] dx^a (x) e_b is sum_a (-1)^a i theta^a (x) e'_a
    diagonal = diagonal_J(framed.n)
    J_form = vector_one_form_from_matrix(framed, framed.J)
    assert J_form != vector_one_form_from_matrix(framed, diagonal)
    assert to_frame(J_form) == vector_one_form_from_matrix(framed, diagonal)


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
    exp_plus, exp_minus = exp_interior(phi)
    rng = random.Random(f"frame-probes-{chart_name}")
    probes = [u for _, u in generator_family(chart, 1)]
    probes += [random_bundle_form(chart, 2, degree, 1, rng) for degree in range(chart.dim + 1)]
    for op, K in ((exp_plus, phi), (exp_minus, -phi)):
        step = interior_op(K).action
        for u in probes:
            assert op(u) == series(u, step, chart.n)


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


def test_exp_on_twisted3_makes_fewer_term_pairs_than_the_series(term_pairs):
    # dense twisted:3 input: T3.8.1's phi at seed 7 and a random 3-form.  In the J-diagonal
    # frame phi has n^2 coefficients, and the image table beats the coordinate series
    chart = parse_chart_name("twisted:3")
    spec = IdentityCheck("T3.8.1", "twisted:3", seed=7)
    phi = random_form(chart, (0, 1), "1,0", spec.degree, spec.sub_seed("phi"))
    u = random_bundle_form(chart, 1, 3, 1, random.Random("twisted3-term-pairs"))
    exp_plus, exp_minus = exp_interior(phi)
    term_pairs.clear()
    image = exp_minus(exp_plus(u))
    table_pairs, term_pairs[:] = sum(term_pairs), []
    expected = series(series(u, interior_op(phi).action, chart.n), interior_op(-phi).action, chart.n)
    series_pairs = sum(term_pairs)
    assert image == expected
    assert table_pairs < series_pairs
