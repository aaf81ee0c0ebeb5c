"""The identity registry: determinism, skips, negative controls, cross-checks."""

import random
import sys
from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from acderiv import (
    bidegree_split,
    conjugate_form,
    fn_bracket,
    iterated_nr_bracket,
    lie_derivative,
    nabla,
    nr_bracket,
    random_form,
)
from acderiv import forms, operators
from acderiv.forms import BundleForm, from_frame, to_frame
from acderiv.operators import (
    conjugate_operator,
    connection_split,
    graded_commutator,
    interior_op,
    operator_residuals,
    series,
)
from acderiv import verifier
from acderiv.verifier import (
    REGISTRY_IDS,
    IdentityCheck,
    _CheckContext,
    _check_L371,
    _check_T381,
    _check_T382,
    _closed_form_1,
    _nr_sum,
    _verdict,
    check_identity,
    parse_chart_name,
    registry_descriptions,
    run_suite,
)
from test_frame import EXP_CHARTS


def test_registry_is_closed_and_complete():
    expected = {
        "EQ2.3", "EQ2.4", "EX3.1", "L3.6-matrix", "P3.12",
        "L3.7.1", "L3.7.2", "L3.7.3",
        "T3.8.1", "T3.8.2", "T3.8.3", "T3.8.4", "T3.8.5", "T3.8.6",
        "R3.10", "P3.3", "NILP", "NEG-T3.8.1",
    }
    assert set(REGISTRY_IDS) == expected
    assert len(REGISTRY_IDS) == len(set(REGISTRY_IDS))
    assert dict(registry_descriptions()).keys() == expected


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        check_identity(IdentityCheck(id="T9.9.9"))


def test_parse_chart_name_errors():
    for bad in ("standard", "standard:x", "standard:0", "mystery:2", "standard:01", "twisted:02", "twisted:２"):
        for _ in range(2):  # a failed parse is not cached
            with pytest.raises(ValueError):
                parse_chart_name(bad)


def test_parse_chart_name_builds_each_chart_once():
    assert parse_chart_name("twisted:2") is parse_chart_name("twisted:2")
    assert parse_chart_name("standard:1") is not parse_chart_name("standard:2")


@pytest.mark.parametrize("cid", ["EQ2.3", "EX3.1", "L3.7.3", "P3.3", "NILP"])
def test_fast_checks_pass_on_standard_chart(cid):
    report = check_identity(IdentityCheck(id=cid, chart="standard:1", rank=1, seed=11))
    assert report.status == "pass", report.worst_residual


def test_reports_are_deterministic_modulo_timing():
    a = check_identity(IdentityCheck(id="EQ2.3", chart="twisted:2", seed=3))
    b = check_identity(IdentityCheck(id="EQ2.3", chart="twisted:2", seed=3))
    assert (a.id, a.chart, a.status, a.seeds, a.worst_residual) == (
        b.id, b.chart, b.status, b.seeds, b.worst_residual,
    )


def test_matrix_checks_ignore_chart():
    for cid in ("L3.6-matrix", "P3.12"):
        report = check_identity(IdentityCheck(id=cid, chart="standard:1", seed=5))
        assert report.status == "pass", report.worst_residual


def test_r310_skips_on_twisted():
    report = check_identity(IdentityCheck(id="R3.10", chart="twisted:2", seed=5))
    assert report.status == "skip"
    assert "integrable" in report.reason


def test_r310_passes_on_standard_n2():
    report = check_identity(IdentityCheck(id="R3.10", chart="standard:2", seed=5))
    assert report.status == "pass", report.worst_residual


def test_r310_decides_by_J_not_by_chart_name():
    from dataclasses import replace

    from acderiv.chart import Chart, _standard_J
    from acderiv.verifier import _CheckContext, _check_R310

    ctx = _CheckContext(IdentityCheck(id="R3.10", chart="standard:2", seed=5))
    ctx.spec = replace(ctx.spec, chart="bare:2")
    ctx.chart = Chart(2, _standard_J(2), name="bare:2")
    groups = _check_R310(ctx)
    assert [label for label, _ in groups] == ["algebraic-identification"]
    assert all(not residuals for _, residuals in groups)


@pytest.mark.parametrize("chart", ["standard:1", "standard:2"])
def test_r310_fails_when_its_dbar_is_del(monkeypatch, chart):
    # dbar phi is read off componentwise; putting del in its place on the
    # right-hand side only must not pass
    assert check_identity(IdentityCheck(id="R3.10", chart=chart, seed=7)).status == "pass"
    monkeypatch.setattr(verifier, "nabla01", operators.nabla10)
    report = check_identity(IdentityCheck(id="R3.10", chart=chart, seed=7))
    assert report.status == "fail", report.reason
    assert report.worst_generator.startswith("algebraic-identification/")


def _drop_last_bracket(closed_form):
    """closed_form(x, y) without its last nonzero term [x, y]^{(k-1)}/(k-1)!."""

    def dropped(x, y):
        k = operators.commutable_degree(x, y)
        last = operators.algebra_iterated_bracket(x, y, k - 1).scale(Fraction(1, factorial(k - 1)))
        return closed_form(x, y) - last

    return dropped


def _trial_inputs(seed: str, trial: int, dim: int, x_draw):
    rng = random.Random(f"{seed}|{trial}")
    return x_draw(dim, rng), operators.random_strict_upper(dim, rng)


def _assert_rendered_exactly(spec, builder, recompute):
    """Every residual of builder prints entry by entry as str of the difference of its two sides'
    entries, and the report shows the first one."""
    report = check_identity(spec)
    assert report.status == "fail", report.reason
    [(group, failures)] = builder(_CheckContext(spec))
    assert failures
    for label, residual in failures:
        left, right = recompute(report.seeds["matrix"], int(label.removeprefix("trial-")))
        expected = [[str(a - b) for a, b in zip(ra, rb)] for ra, rb in zip(left.entries, right.entries)]
        assert [[str(e) for e in row] for row in residual.entries] == expected
        assert residual == left - right
    first_label, first = failures[0]
    assert report.worst_generator == f"{group}/{first_label}"
    assert report.worst_residual == str(first)


def test_L36_matrix_fails_when_its_closed_form_drops_a_bracket(monkeypatch):
    spec = IdentityCheck(id="L3.6-matrix", chart="standard:2", seed=7)
    assert check_identity(spec).status == "pass"
    dropped = _drop_last_bracket(operators.conjugation_closed_form)
    monkeypatch.setattr(verifier, "conjugation_closed_form", dropped)

    def recompute(seed, trial):
        x, y = _trial_inputs(seed, trial, 4, operators.random_matrix)
        return dropped(x, y), operators.conjugate_by_exponential(x, y)

    _assert_rendered_exactly(spec, verifier._check_L36_matrix, recompute)


def test_P312_fails_when_its_transported_element_drops_a_bracket(monkeypatch):
    spec = IdentityCheck(id="P3.12", chart="standard:2", seed=7)
    assert check_identity(spec).status == "pass"
    dropped = _drop_last_bracket(operators.conjugation_closed_form)
    monkeypatch.setattr(operators, "conjugation_closed_form", dropped)
    exp = operators.matrix_exp_nilpotent

    def recompute(seed, trial):
        x, y = _trial_inputs(seed, trial, 3 if trial % 2 == 0 else 4, operators.random_strict_upper)
        return operators.conjugated_exponential(x, y), exp(-y) * exp(x) * exp(y)

    _assert_rendered_exactly(spec, verifier._check_P312, recompute)


def test_negative_control_detects_corruption_on_twisted():
    report = check_identity(IdentityCheck(id="NEG-T3.8.1", chart="twisted:2", seed=5))
    assert report.status == "pass"  # pass means: the corrupted identity FAILED


def test_negative_control_skips_on_standard():
    report = check_identity(IdentityCheck(id="NEG-T3.8.1", chart="standard:2", seed=5))
    assert report.status == "skip"


def test_corrupted_rhs_actually_fails():
    from acderiv.verifier import _CheckContext, _check_T381

    ctx = _CheckContext(IdentityCheck(id="T3.8.1", chart="twisted:2", seed=5))
    groups = _check_T381(ctx, corrupt=True)
    _, residuals = groups[0]
    assert residuals, "dropping the 1/2 coefficient must leave a residual"


@pytest.mark.parametrize("chart, caught", [("standard:2", 42), ("standard:1", 0)])
def test_corruption_needs_a_nonzero_phi_bracket_not_torsion(chart, caught):
    # torsion-free charts both: [phi, phi] != 0 on standard:2 and = 0 on standard:1
    from acderiv.verifier import _CheckContext, _check_T381

    ctx = _CheckContext(IdentityCheck(id="T3.8.1", chart=chart, seed=7))
    assert ctx.chart.torsion().is_zero()
    assert fn_bracket(ctx.form("phi"), ctx.form("phi")).is_zero() == (caught == 0)
    (_, residuals), = _check_T381(ctx, corrupt=True)
    assert len(residuals) == caught
    skipped = check_identity(IdentityCheck(id="NEG-T3.8.1", chart=chart, seed=7))
    assert skipped.status == "skip"


def test_a_sign_error_in_interior_fails_the_conjugated_interior_and_lie(monkeypatch):
    # e^{±i_phi} is the pullback by exp(±Phi) and never calls interior, so with i_K negated
    # everywhere else the brute-force side of T3.8.4 and T3.8.5 no longer matches the bracket sums
    real = forms.interior

    def negated(K, u):
        image = real(K, u)  # a bundle form's components come back through this replacement
        return image if isinstance(u, BundleForm) else -image

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "acderiv"]:
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, negated)
    for chart in ("standard:2", "twisted:2"):
        for check in ("T3.8.4", "T3.8.5"):
            report = check_identity(IdentityCheck(id=check, chart=chart, seed=7))
            assert report.status == "fail", (chart, check)


@cache
def nr_sum_inputs(chart_name):
    """psibar and, per base, its brackets [base, psibar]^{wedge(j)} for j <= 3, in coordinates."""
    chart = EXP_CHARTS[chart_name]()
    phi = random_form(chart, (0, 1), "1,0", 1, "nr-sum-phi")
    psibar = conjugate_form(random_form(chart, (0, 1), "1,0", 1, "nr-sum-psi"))
    bases = (phi, fn_bracket(phi, psibar))
    return psibar, [(base, [iterated_nr_bracket(base, psibar, j) for j in range(4)]) for base in bases]


@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize("shift", [0, 1, 2])
def test_nr_sum_matches_iterated_brackets(count, shift):
    # the series runs in each chart's frame; a bare chart has none and runs in coordinates
    for chart_name in sorted(EXP_CHARTS):
        psibar, bases = nr_sum_inputs(chart_name)
        for base, brackets in bases:
            expected = base.scale(0)
            for j in range(count + 1):
                expected = expected + brackets[j].scale(Fraction(1, factorial(j + shift)))
            assert from_frame(_nr_sum(to_frame(base), to_frame(psibar), count, shift)) == expected


def test_closed_form_1_is_the_bracket_series(twisted2):
    phi = random_form(twisted2, (0, 1), "1,0", 1, "closed-form-1")
    ff = fn_bracket(phi, phi)
    sixth = nr_bracket(ff, phi).scale(Fraction(1, 6))
    assert not sixth.is_zero()
    # M is written in the basis phi is written in
    for quad, M in ((Fraction(1, 2), ff.scale(Fraction(1, 2)) + sixth), (Fraction(1), ff + sixth)):
        assert _closed_form_1(phi, quad) == M
        assert _closed_form_1(to_frame(phi), quad) == to_frame(M)


def test_nr_sum_on_twisted3_makes_fewer_term_pairs_than_in_coordinates(term_pairs):
    # T3.8.4's transported form at seed 7: in the J-diagonal frame phi and psibar have
    # n^2 coefficients each, so the brackets pair far fewer terms
    spec = IdentityCheck("T3.8.4", "twisted:3", seed=7)
    chart = parse_chart_name(spec.chart)
    phi = random_form(chart, (0, 1), "1,0", spec.degree, spec.sub_seed("phi"))
    psibar = conjugate_form(random_form(chart, (0, 1), "1,0", spec.degree, spec.sub_seed("psi")))
    term_pairs.clear()
    framed = from_frame(_nr_sum(to_frame(phi), to_frame(psibar), 2, 0))
    frame_pairs, term_pairs[:] = sum(term_pairs), []
    expected = series(phi, lambda bracket: nr_bracket(bracket, psibar), 2)
    coordinate_pairs = sum(term_pairs)
    assert framed == expected
    assert frame_pairs < coordinate_pairs


def test_negative_control_on_twisted2_reports_the_coordinate_residuals():
    # the corrupted T3.8.1 runs in the frame; its residuals leave it only to be reported, so
    # they, and the worst one's string, are those of the conjugation run in coordinates
    spec = IdentityCheck("NEG-T3.8.1", "twisted:2", seed=7)
    [(label, framed)] = _check_T381(_CheckContext(spec), corrupt=True)
    ctx = _CheckContext(spec)
    conn, phi, fam = ctx.connection(), ctx.form("phi"), ctx.family()
    nab = nabla(conn)
    rhs = nab - lie_derivative(phi, conn) - interior_op(_closed_form_1(phi, Fraction(1)))
    coordinate = operator_residuals(conjugate_operator(nab, phi), rhs, fam)
    assert len(framed) == len(coordinate) == 42
    assert framed == coordinate
    assert _verdict([(label, framed)]) == _verdict([(label, coordinate)])
    assert check_identity(spec).status == "pass"


def test_T382_on_twisted3_makes_fewer_term_pairs_than_in_coordinates(term_pairs):
    # every seventh family member and the random 1-form: the random 2- and 3-forms alone take
    # about a minute in coordinates
    spec = IdentityCheck("T3.8.2", "twisted:3", seed=7)
    ctx = _CheckContext(spec)
    sample = [member for k, member in enumerate(ctx.family()) if k % 7 == 0 or member[0] == "random-1-form"]
    ctx.family = lambda rank=None: sample
    term_pairs.clear()
    framed = _check_T382(ctx)
    frame_pairs, term_pairs[:] = sum(term_pairs), []
    ctx = _CheckContext(spec)
    conn, phi = ctx.connection(), ctx.form("phi")
    n10, n01, _, _ = connection_split(conn)
    ff_0210 = bidegree_split(fn_bracket(phi, phi), 0, 2, "1,0")
    rhs10 = n10 - lie_derivative(phi, conn, "1,0") - interior_op(ff_0210.scale(Fraction(1, 2)))
    rhs01 = n01 - lie_derivative(phi, conn, "0,1")
    coordinate = [
        (label, operator_residuals(conjugate_operator(D, phi), R, sample))
        for label, D, R in (("(1,0)-part", n10, rhs10), ("(0,1)-part", n01, rhs01))
    ]
    coordinate_pairs = sum(term_pairs)
    assert framed == coordinate == [("(1,0)-part", []), ("(0,1)-part", [])]
    assert frame_pairs < coordinate_pairs


def _L371_in_coordinates(ctx, project=bidegree_split):
    """L3.7.1's residuals with every operator and form in coordinates, as the check once ran."""
    conn, phi, psi = ctx.connection(), ctx.form("phi"), ctx.form("psi")
    fam = ctx.family()
    lhs = graded_commutator(lie_derivative(phi, conn, "1,0"), interior_op(psi))
    rhs = interior_op(project(fn_bracket(phi, psi), 0, 2, "1,0"))
    return [("commutator", operator_residuals(lhs, rhs, fam))]


def test_corrupted_L371_on_twisted2_reports_the_coordinate_residuals(monkeypatch):
    # dropping the (0,2)/(1,0) projection of the right-hand side must fail; the check runs in the
    # frame, and its residuals leave it only to be reported, so they are the coordinate ones
    def unprojected(form, p, q, side):
        return form

    spec = IdentityCheck("L3.7.1", "twisted:2", seed=7)
    monkeypatch.setattr(verifier, "bidegree_split", unprojected)
    framed = _check_L371(_CheckContext(spec))
    coordinate = _L371_in_coordinates(_CheckContext(spec), unprojected)
    [(_, residuals)] = framed
    assert residuals and [label for label, _ in residuals] == [label for label, _ in coordinate[0][1]]
    assert framed == coordinate
    assert _verdict(framed) == _verdict(coordinate)
    assert _verdict(framed)[0] == "fail"


def test_L371_on_twisted3_makes_fewer_term_pairs_than_in_coordinates(term_pairs):
    # every seventh family member and the random 1-form; the frame route's count includes moving
    # the inputs and the family in
    spec = IdentityCheck("L3.7.1", "twisted:3", seed=7)
    ctx = _CheckContext(spec)
    sample = [member for k, member in enumerate(ctx.family()) if k % 7 == 0 or member[0] == "random-1-form"]
    ctx.family = lambda rank=None: sample
    term_pairs.clear()
    framed = _check_L371(ctx)
    frame_pairs, term_pairs[:] = sum(term_pairs), []
    ctx = _CheckContext(spec)
    ctx.family = lambda rank=None: sample
    coordinate = _L371_in_coordinates(ctx)
    coordinate_pairs = sum(term_pairs)
    assert framed == coordinate == [("commutator", [])]
    assert frame_pairs < coordinate_pairs


def test_run_suite_summary_counts():
    class Config:
        chart = "standard:1"
        rank = 1
        degree = 1
        seed = 13
        ids = ["EQ2.3", "R3.10", "NEG-T3.8.1"]
        parallel = False

    reports, summary = run_suite(Config())
    assert [r.id for r in reports] == ["EQ2.3", "R3.10", "NEG-T3.8.1"]
    assert summary == {"pass": 2, "fail": 0, "skip": 1, "error": 0}


@pytest.mark.parametrize("cpus, ids, workers", [(8, 2, 2), (2, 3, 2), (1, 3, 1), (None, 2, 1)])
def test_parallel_pool_spawns_no_more_workers_than_checks(monkeypatch, cpus, ids, workers):
    import concurrent.futures
    import os

    built = []

    class Pool:
        """Records the executor's arguments and runs the checks in this process."""

        def __init__(self, max_workers=None, mp_context=None):
            built.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs):
            return [fn(spec) for spec in specs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    class Config:
        chart = "standard:1"
        rank = 1
        degree = 1
        seed = 13
        parallel = True

    Config.ids = ["EQ2.3", "L3.7.3", "R3.10"][:ids]
    reports, _ = run_suite(Config())
    assert [r.id for r in reports] == Config.ids
    assert built == [(workers, "spawn")]


def test_construction_error_is_a_failure_not_an_error(monkeypatch):
    from acderiv import verifier

    def broken(ctx):
        raise ZeroDivisionError("bad input")

    monkeypatch.setitem(verifier._REGISTRY_BY_ID, "EQ2.3", ("EQ2.3", "broken", broken))
    report = check_identity(IdentityCheck(id="EQ2.3", chart="standard:1"))
    assert report.status == "fail"
    assert report.reason == "construction error: bad input"
    assert (report.worst_generator, report.worst_residual) == ("(construction)", "bad input")


def test_run_suite_rejects_unknown_id():
    class Config:
        chart = "standard:1"
        rank = 1
        degree = 1
        seed = 13
        ids = ["NOPE"]
        parallel = False

    with pytest.raises(KeyError):
        run_suite(Config())


def test_run_suite_rejects_unknown_chart():
    class Config:
        chart = "moebius:2"
        rank = 1
        degree = 1
        seed = 13
        ids = ["EQ2.3"]
        parallel = False

    with pytest.raises(ValueError):
        run_suite(Config())
