"""Named, seeded, exact zero-residual checks for the derivation-algebra identities.

Every check builds its left- and right-hand operators from the engine modules,
applies both to the full generator family plus a seeded batch of random
bundle-valued forms in every degree, and reports the residual.  Passing means
every residual is the identically zero polynomial; failures carry the worst
offending generator and its residual for debugging.

The registry is closed and enumerable; negative controls (deliberately
perturbed right-hand sides that must be caught) are first-class members.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .chart import Chart, _standard_J, builtin_twisted_chart, make_standard_chart
from .forms import (
    BundleForm,
    VectorForm,
    bidegree_split,
    conjugate_form,
    contract,
    fn_bracket,
    from_frame,
    interior,
    nr_bracket,
    random_bundle_form,
    random_form,
    random_vector_form,
    to_frame,
)
from .operators import (
    Connection,
    DerivationOp,
    NotNilpotentError,
    _extract_vector_from_covector_action,
    conjugate_by_exponential,
    conjugate_operator,
    conjugation_closed_form,
    conjugation_residuals,
    conjugated_exponential,
    connection_split,
    generator_family,
    graded_commutator,
    identity_op,
    interior_op,
    lie_derivative,
    matrix_exp_nilpotent,
    nabla,
    nabla01,
    nabla10,
    operator_residuals,
    random_connection,
    random_matrix,
    random_strict_upper,
    refined_decompose,
    series,
)

if TYPE_CHECKING:
    from .cli import RunConfig


@dataclass(frozen=True)
class IdentityCheck:
    """Everything needed to reproduce one check bit-for-bit."""

    id: str
    chart: str = "twisted:2"
    rank: int = 2
    degree: int = 2
    seed: str | int = 7

    def sub_seed(self, role: str) -> str:
        return f"{self.seed}|{self.id}|{role}"


STATUSES = ("pass", "fail", "skip", "error")

# reason prefix of an "error" that is a limit of the checker: a coefficient
# exponent past the packed field, or an exponential of a phi whose matrix is not nilpotent
CHECKER_LIMIT = "checker limit: "


@dataclass
class IdentityReport:
    id: str
    chart: str
    status: str  # one of STATUSES; "error" is an unexpected exception in the builder or a checker limit
    seeds: dict = field(default_factory=dict)
    reason: Optional[str] = None
    worst_generator: Optional[str] = None
    worst_residual: Optional[str] = None
    millis: float = 0.0


@cache
def parse_chart_name(name: str) -> Chart:
    """standard:n or twisted:n, built once per name: a chart's only mutable state is its memos.

    n is written as str(n) prints it, so no alias ("standard:01", a non-ASCII
    digit) builds a second chart or reaches a report.
    """
    kind, _, dim = name.partition(":")
    if not dim.isascii() or not dim.removeprefix("-").isdigit() or dim != str(int(dim)):
        raise ValueError(f"malformed chart name {name!r}; expected standard:n or twisted:n")
    n = int(dim)
    if n < 1:
        raise ValueError(f"chart dimension must be >= 1, got {n}")
    if kind == "standard":
        return make_standard_chart(n)
    if kind == "twisted":
        return builtin_twisted_chart(n)
    raise ValueError(f"unknown chart family {kind!r}; expected standard or twisted")


class _CheckContext:
    """Shared seeded inputs for one check run."""

    def __init__(self, spec: IdentityCheck):
        self.spec = spec
        self.chart = parse_chart_name(spec.chart)
        self.seeds = {"master": str(spec.seed)}

    def seed(self, role: str) -> str:
        """The sub-seed for role, recorded in the report."""
        self.seeds[role] = self.spec.sub_seed(role)
        return self.seeds[role]

    def connection(self, rank: int | None = None) -> Connection:
        return random_connection(self.chart, rank or self.spec.rank, self.spec.degree, self.seed("conn"))

    def form(self, role: str) -> VectorForm:
        """A seeded random (0,1)-form valued in T^{1,0}; role is "phi" or "psi"."""
        return random_form(self.chart, (0, 1), "1,0", self.spec.degree, self.seed(role))

    def frame_inputs(self, *roles: str):
        """The connection, then the form of each role ("phi", or "psibar" = conj(psi)), drawn
        in coordinates as connection() and form() draw them, written in the chart's frame."""
        conn = self.connection().to_frame()
        forms = [conjugate_form(self.form("psi")) if role == "psibar" else self.form(role) for role in roles]
        return (conn, *map(to_frame, forms))

    def family(self, rank: int | None = None):
        rank = rank or self.spec.rank
        rng = random.Random(self.seed("batch"))
        members = list(generator_family(self.chart, rank))
        for degree in range(self.chart.dim + 1):
            members.append(
                (f"random-{degree}-form", random_bundle_form(self.chart, rank, degree, 1, rng))
            )
        return members

    def frame_family(self, rank: int | None = None):
        """family(rank), each member written in the chart's frame."""
        return [(label, to_frame(u)) for label, u in self.family(rank)]


def _worst(bad: Sequence[Tuple[str, BundleForm]]) -> Tuple[str, str]:
    """Pick the offender with the largest residual (by monomial count)."""

    def size(item):
        _, res = item
        return sum(len(f.terms) for c in res.comps for f in c.terms.values())

    label, res = max(bad, key=size)
    return label, str(res)


def _nr_sum(base: VectorForm, arg: VectorForm, count: int, shift: int) -> VectorForm:
    """sum_{j=0}^{count} [base, arg]^{wedge(j)} / (j + shift)!, the finite-commutability
    expansion behind every Theorem 3.8 formula."""
    return series(base, lambda bracket: nr_bracket(bracket, arg), count, shift)


def _closed_form_1(phi: VectorForm, quad: Fraction = Fraction(1, 2)) -> VectorForm:
    """M with e^{-i_phi} nabla e^{i_phi} = nabla - L_phi - i_M (T3.8.1).

    M = [phi,phi]/2! + [[phi,phi],phi]^/3!, the series _nr_sum(ff, phi, 1, 2).
    The negative control passes quad = 1 and gets (quad - 1/2) [phi,phi] on top.
    """
    ff = fn_bracket(phi, phi)
    M = _nr_sum(ff, phi, 1, 2)
    return M + ff.scale(quad - Fraction(1, 2)) if quad != Fraction(1, 2) else M


def _conjugated_nabla(conn: Connection, phi: VectorForm, M: VectorForm) -> DerivationOp:
    """nabla - L_phi - i_M: T3.8.1's right-hand side for e^{-i_phi} nabla e^{i_phi},
    with M = _closed_form_1(phi)."""
    return nabla(conn) - lie_derivative(phi, conn) - interior_op(M)


def _closed_form_5(phi: VectorForm, psibar: VectorForm) -> Tuple[VectorForm, VectorForm]:
    """(K, M) with e^{-i_psibar} L_phi e^{i_psibar} = L_K + i_M (T3.8.5).

    K = phi - i_psibar phi, and M = sum_{j<=3} [A, psibar]^{wedge(j)}/(j+1)!
    - sum_{j<=2} [B, psibar]^{wedge(j)}/(j+2)! with A = [phi, psibar] and
    B = [i_psibar phi, psibar].  The first sum runs to j = 3: the j = 3 term
    vanishes on integrable charts but NOT in general (the bracket [phi,psibar]
    picks up torsion-sourced components outside the four bidegree slots the
    truncation-at-2 argument assumes), and Lemma 3.6 forces its 1/4! coefficient.
    """
    i_psibar_phi = contract(psibar, phi)
    A = fn_bracket(phi, psibar)
    B = fn_bracket(i_psibar_phi, psibar)
    return phi - i_psibar_phi, _nr_sum(A, psibar, 3, 1) - _nr_sum(B, psibar, 2, 2)


# -- individual identity checks ---------------------------------------------------
#
# Each builder returns a list of (sub-identity label, residual list) pairs,
# where a residual list is what operator_residuals or conjugation_residuals produced
# (empty = pass), or raises CheckSkipped to mark a principled skip.  The
# Theorem 3.8, Lemma 3.7 (L3.7.1, L3.7.2), P3.3, EX3.1 and R3.10 builders work
# in the chart's frame throughout, where the forms and bracket series are
# smaller, conjugation_residuals runs and a builtin chart's J is diagonal: their
# inputs come from _CheckContext.frame_inputs (or to_frame) and frame_family,
# the closed forms work in the basis they are given, and only nonzero residuals
# move out.  EQ2.4 stays in coordinates: its generic K and L become dense
# complex forms in the frame.


class CheckSkipped(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _check_T381(ctx: _CheckContext, corrupt: bool = False):
    conn, phi = ctx.frame_inputs("phi")
    fam = ctx.family()
    rhs = _conjugated_nabla(conn, phi, _closed_form_1(phi, Fraction(1) if corrupt else Fraction(1, 2)))
    return conjugation_residuals(phi, [("conjugated-connection", nabla(conn), rhs)], fam)


def _check_T382(ctx: _CheckContext):
    conn, phi = ctx.frame_inputs("phi")
    fam = ctx.family()
    n10, n01 = nabla10(conn), nabla01(conn)
    ff_0210 = bidegree_split(fn_bracket(phi, phi), 0, 2, "1,0")
    rhs10 = n10 - lie_derivative(phi, conn, "1,0") - interior_op(ff_0210.scale(Fraction(1, 2)))
    rhs01 = n01 - lie_derivative(phi, conn, "0,1")
    return conjugation_residuals(
        phi, [("(1,0)-part", n10, rhs10), ("(0,1)-part", n01, rhs01)], fam
    )


def _check_T383(ctx: _CheckContext):
    conn, phi = ctx.frame_inputs("phi")
    fam = ctx.family()
    theta = conn.chart.torsion()
    theta_bar = conjugate_form(theta)
    i_theta = interior_op(theta)
    i_theta_bar = interior_op(theta_bar)
    rhs1 = interior_op(_nr_sum(theta, phi, 3, 0))
    return conjugation_residuals(
        phi, [("torsion", i_theta, rhs1), ("conjugate-torsion", i_theta_bar, i_theta_bar)], fam
    )


def _check_T384(ctx: _CheckContext):
    _, phi, psibar = ctx.frame_inputs("phi", "psibar")
    fam = ctx.family()
    ff = fn_bracket(phi, phi)
    # The transported form carries 1/j! on the j-th iterated bracket, exactly
    # as in the second identity of this group; [phi,psibar]^{wedge(3)} = 0.
    rhs1 = interior_op(_nr_sum(phi, psibar, 2, 0))
    rhs2 = interior_op(_nr_sum(ff, psibar, 3, 0))
    return conjugation_residuals(
        psibar,
        [("interior", interior_op(phi), rhs1), ("interior-square-bracket", interior_op(ff), rhs2)],
        fam,
    )


def _check_T385(ctx: _CheckContext):
    conn, phi, psibar = ctx.frame_inputs("phi", "psibar")
    fam = ctx.family()
    K, M = _closed_form_5(phi, psibar)
    rhs = lie_derivative(K, conn) + interior_op(M)
    return conjugation_residuals(psibar, [("conjugated-lie", lie_derivative(phi, conn), rhs)], fam)


def _check_T386(ctx: _CheckContext):
    conn, phi, psibar = ctx.frame_inputs("phi", "psibar")
    fam = ctx.family()
    nab = nabla(conn)
    M1 = _closed_form_1(phi)
    closed1 = _conjugated_nabla(conn, phi, M1)
    # Conjugating closed1 by psibar term by term: (1) for nabla, (5) for L_phi
    # and the interior transport of (4) for i_M1, fused by linearity of L and i.
    K5, M5 = _closed_form_5(phi, psibar)
    rhs = (
        nab
        - lie_derivative(psibar + K5, conn)
        - interior_op(_closed_form_1(psibar) + M5 + _nr_sum(M1, psibar, 3, 0))
    )
    # Both routes share e^{±i_psibar} per member: where T3.8.1 holds, their
    # inner images are equal and e^{-i_psibar} runs once.
    return conjugation_residuals(
        psibar,
        [("direct", conjugate_operator(nab, phi), rhs), ("via-(1)+(4)+(5)", closed1, rhs)],
        fam,
    )


def _check_L371(ctx: _CheckContext):
    conn, phi, psi = ctx.frame_inputs("phi", "psi")
    fam = ctx.frame_family()
    lhs = graded_commutator(lie_derivative(phi, conn, "1,0"), interior_op(psi))
    rhs = interior_op(bidegree_split(fn_bracket(phi, psi), 0, 2, "1,0"))
    return [("commutator", operator_residuals(lhs, rhs, fam))]


def _check_L372(ctx: _CheckContext):
    conn, phi, psi = ctx.frame_inputs("phi", "psi")
    fam = ctx.frame_family()
    lhs = graded_commutator(lie_derivative(phi, conn, "0,1"), interior_op(psi))
    zero = DerivationOp(lhs.degree)
    return [("commutator", operator_residuals(lhs, zero, fam))]


def _check_L373(ctx: _CheckContext):
    phi = ctx.form("phi")
    psi = ctx.form("psi")
    theta = ctx.chart.torsion()
    lhs = -nr_bracket(nr_bracket(phi, theta), psi)
    bracket = fn_bracket(phi, psi)
    rhs = bidegree_split(bracket, 1, 1, "1,0") + bidegree_split(bracket, 0, 2, "0,1")
    residual = lhs - rhs
    return [("form-identity", [] if residual.is_zero() else [("residual", residual)])]


def _check_EX31(ctx: _CheckContext):
    chart = ctx.chart.framed
    # scalar version: d = del + delbar - i_theta - i_thetabar on the trivial line bundle
    scalar_conn = Connection.trivial(chart, 1)
    n10, n01, ith, ithb = connection_split(scalar_conn)
    d_op = nabla(scalar_conn)
    fam1 = ctx.frame_family(rank=1)
    res_scalar = operator_residuals(d_op, n10 + n01 - ith - ithb, fam1)
    # bundle version with the seeded connection
    (conn,) = ctx.frame_inputs()
    fam = ctx.frame_family()
    res_bundle = operator_residuals(nabla(conn), nabla10(conn) + nabla01(conn) - ith - ithb, fam)
    # cross-validation: torsion extracted from the d-splitting equals the
    # frame-computed torsion form
    remainder = n10 + n01 - d_op  # algebraic, equals i_theta + i_thetabar
    extracted = _extract_vector_from_covector_action(remainder, scalar_conn, 2)
    theta_extracted = bidegree_split(extracted, 2, 0, "0,1")
    cross = theta_extracted - chart.torsion()
    res_cross = [] if cross.is_zero() else [("extracted-theta", from_frame(cross))]
    out = [
        ("d-splitting", res_scalar),
        ("nabla-splitting", res_bundle),
        ("torsion-cross-check", res_cross),
    ]
    if chart.torsion().is_zero():
        # integrable degeneration: d = del + delbar exactly
        res_flat = operator_residuals(d_op, n10 + n01, fam1)
        out.append(("integrable-degeneration", res_flat))
    return out


def _check_EQ24(ctx: _CheckContext):
    conn = ctx.connection()
    fam = ctx.family()
    out = []
    for k in (1, 2):
        for l_form in (1, 2):
            K = random_vector_form(ctx.chart, k, 1, ctx.seed(f"K{k}{l_form}"))
            L = random_vector_form(ctx.chart, l_form, 1, ctx.seed(f"L{k}{l_form}"))
            l = l_form - 1
            lhs = graded_commutator(lie_derivative(K, conn), interior_op(L))
            sign = 1 if (k * l) % 2 == 0 else -1
            rhs = interior_op(fn_bracket(K, L)) - lie_derivative(contract(L, K), conn).scale(sign)
            out.append((f"K^{k}-L^{l_form}", operator_residuals(lhs, rhs, fam)))
    return out


def _check_EQ23(ctx: _CheckContext):
    phi = ctx.form("phi")
    psi = ctx.form("psi")
    bracket = fn_bracket(phi, psi)
    listed = (
        bidegree_split(bracket, 0, 2, "1,0")
        + bidegree_split(bracket, 1, 1, "1,0")
        + bidegree_split(bracket, 0, 2, "0,1")
    )
    residual = bracket - listed
    out = [("membership", [] if residual.is_zero() else [("off-list-part", residual)])]
    if ctx.chart.torsion().is_zero():
        for label, p, q, side in (
            ("integrable-(1,1)-part", 1, 1, "1,0"),
            ("integrable-(0,2)-conjugate-part", 0, 2, "0,1"),
        ):
            part = bidegree_split(bracket, p, q, side)
            out.append((label, [] if part.is_zero() else [(label, part)]))
    return out


def _check_R310(ctx: _CheckContext):
    if ctx.chart.J != _standard_J(ctx.chart.n):
        raise CheckSkipped(
            "requires integrable J in the standard chart's holomorphic coordinates "
            "z^j = x_{2j-1} + i x_{2j}"
        )
    chart = ctx.chart.framed
    phi = to_frame(ctx.form("phi"))
    conn = Connection.trivial(chart, 1)
    fam = ctx.frame_family(rank=1)
    lhs = lie_derivative(phi, conn, "0,1")
    # J = J0 is constant, so the frame is constant, its fields are holomorphic
    # and dbar acts on the T^{1,0}-valued phi through its frame components
    n01 = nabla01(conn)
    dbar_phi = VectorForm(chart, 2, [n01(BundleForm.from_scalar(c, 1, 0)).comps[0] for c in phi.comps])
    rhs = -interior_op(dbar_phi)
    return [("algebraic-identification", operator_residuals(lhs, rhs, fam))]


def _check_L36_matrix(ctx: _CheckContext):
    seed = ctx.seed("matrix")
    failures = []
    for trial in range(100):
        rng = random.Random(f"{seed}|{trial}")
        x = random_matrix(4, rng)
        y = random_strict_upper(4, rng)
        closed = conjugation_closed_form(x, y)
        oracle = conjugate_by_exponential(x, y)
        if closed != oracle:
            failures.append((f"trial-{trial}", closed - oracle))
    return [("closed-form-vs-series-100", failures)]


def _check_P312(ctx: _CheckContext):
    seed = ctx.seed("matrix")
    failures = []
    for trial in range(100):
        rng = random.Random(f"{seed}|{trial}")
        dim = 3 if trial % 2 == 0 else 4
        x = random_strict_upper(dim, rng)
        y = random_strict_upper(dim, rng)
        try:
            transported = conjugated_exponential(x, y)
        except NotNilpotentError as exc:
            failures.append((f"trial-{trial}-nilpotency", str(exc)))
            continue
        oracle = (
            matrix_exp_nilpotent(y, -1) * matrix_exp_nilpotent(x) * matrix_exp_nilpotent(y)
        )
        if transported != oracle:
            failures.append((f"trial-{trial}", transported - oracle))
    return [("transported-exponential-100", failures)]


def _check_P33(ctx: _CheckContext):
    conn, phi = ctx.frame_inputs("phi")
    scalar_conn = Connection.trivial(ctx.chart.framed, 1)
    cases = [
        ("del", nabla10(scalar_conn), scalar_conn),
        ("delbar", nabla01(scalar_conn), scalar_conn),
        ("lie-(1,0)", lie_derivative(phi, conn, "1,0"), conn),
        ("lie-full", lie_derivative(phi, conn), conn),
    ]
    out = []
    for label, op, use_conn in cases:
        try:
            refined_decompose(op, use_conn)
            out.append((label, []))
        except ValueError as exc:
            out.append((label, [(label, str(exc))]))
    return out


def _check_NILP(ctx: _CheckContext):
    chart = ctx.chart
    phi = ctx.form("phi")
    fam = ctx.family()
    failures = []
    # (i_phi)^{n+1} = 0 on the family and on random forms of every degree
    for label, u in fam:
        power = u
        for _ in range(chart.n + 1):
            power = interior(phi, power)
        if not power.is_zero():
            failures.append((f"nilpotency:{label}", power))
    # e^{-i_phi} id e^{i_phi} = id is the round trip, run in the frame
    [(_, inverse)] = conjugation_residuals(phi, [("inverse", identity_op(), identity_op())], fam)
    failures.extend((f"inverse:{label}", res) for label, res in inverse)
    return [("nilpotency-and-inverse", failures)]


def _check_NEG_T381(ctx: _CheckContext):
    """Negative control: the corrupted T3.8.1 must produce a nonzero residual.

    Dropping the 1/2 changes the right-hand side by i_{[phi, phi]/2}, so the
    corruption can show only where [phi, phi] != 0, and it does so without
    torsion: it leaves residuals on standard:2 and none on standard:1, where
    [phi, phi] = 0.  The control still runs only on charts with torsion.
    """
    if ctx.chart.torsion().is_zero():
        raise CheckSkipped("negative control needs a non-integrable chart (nonzero torsion)")
    groups = _check_T381(ctx, corrupt=True)
    _, residuals = groups[0]
    if residuals:
        return [("corruption-detected", [])]
    return [("corruption-detected", [("no-residual", "corrupted identity still passed")])]


_REGISTRY: List[Tuple[str, str, Callable]] = [
    ("EQ2.3", "bracket bidegree membership of [phi,psi]", _check_EQ23),
    ("EQ2.4", "commutator relation [L_K, i_L] = i_[K,L] - (-1)^kl L_{i_L K}", _check_EQ24),
    ("EX3.1", "splitting d (and nabla) into four bigraded pieces", _check_EX31),
    ("L3.6-matrix", "matrix conjugation closed form vs exponential series", _check_L36_matrix),
    ("P3.12", "transported exponential of nilpotent matrices", _check_P312),
    ("L3.7.1", "[L10_phi, i_psi] = i over the (0,2)-(1,0) bracket part", _check_L371),
    ("L3.7.2", "[L01_phi, i_psi] = 0", _check_L372),
    ("L3.7.3", "-[[phi,theta]^,psi]^ equals the two anomalous bracket parts", _check_L373),
    ("T3.8.1", "conjugated connection", _check_T381),
    ("T3.8.2", "conjugated (1,0)/(0,1) connection parts", _check_T382),
    ("T3.8.3", "conjugated torsion interiors", _check_T383),
    ("T3.8.4", "interior derivatives conjugated by the conjugate form", _check_T384),
    ("T3.8.5", "Lie derivative conjugated by the conjugate form", _check_T385),
    ("T3.8.6", "double conjugation of the connection", _check_T386),
    ("R3.10", "L01_phi = -i_{dbar phi} on an integrable chart", _check_R310),
    ("P3.3", "refined decomposition reassembly", _check_P33),
    ("NILP", "interior nilpotency and exponential inverse", _check_NILP),
    ("NEG-T3.8.1", "negative control: corrupted T3.8.1 must fail", _check_NEG_T381),
]

REGISTRY_IDS = [entry[0] for entry in _REGISTRY]
_REGISTRY_BY_ID = {entry[0]: entry for entry in _REGISTRY}


def registry_descriptions() -> List[Tuple[str, str]]:
    return [(cid, desc) for cid, desc, _ in _REGISTRY]


def check_identity(spec: IdentityCheck) -> IdentityReport:
    """Run one registry check; never raises for mathematical failures."""
    if spec.id not in _REGISTRY_BY_ID:
        raise KeyError(f"unknown identity id {spec.id!r}")
    _, _, builder = _REGISTRY_BY_ID[spec.id]
    started = time.perf_counter()
    ctx = _CheckContext(spec)
    reason = None
    try:
        status, worst = _verdict(builder(ctx))
    except CheckSkipped as skip:
        status, reason, worst = "skip", skip.reason, (None, None)
    except (OverflowError, NotNilpotentError) as exc:
        # the exponent guard or nilpotency_index: a limit of the checker, not a counterexample
        status, reason, worst = "error", f"{CHECKER_LIMIT}{exc}", (None, None)
    except (ValueError, ArithmeticError) as exc:
        # construction errors surface as distinct failures, never silent passes
        status, reason, worst = "fail", f"construction error: {exc}", ("(construction)", str(exc))
    except Exception as exc:
        # a bug in one builder is reported as such and the other checks still run
        status, reason, worst = "error", f"{type(exc).__name__}: {exc}", (None, None)
    return IdentityReport(
        id=spec.id,
        chart=spec.chart,
        status=status,
        seeds=dict(ctx.seeds),
        reason=reason,
        worst_generator=worst[0],
        worst_residual=worst[1],
        millis=(time.perf_counter() - started) * 1000.0,
    )


def _verdict(groups) -> Tuple[str, Tuple[Optional[str], Optional[str]]]:
    """("pass", (None, None)) when every residual list is empty, else "fail" and the worst offender."""
    bad: List[Tuple[str, object]] = []
    for group_label, residuals in groups:
        for item_label, residual in residuals:
            bad.append((f"{group_label}/{item_label}", residual))
    if not bad:
        return "pass", (None, None)
    if all(isinstance(res, BundleForm) for _, res in bad):
        return "fail", _worst(bad)  # type: ignore[arg-type]
    return "fail", (bad[0][0], str(bad[0][1]))


def run_suite(config: "RunConfig") -> Tuple[List[IdentityReport], dict]:
    """Run the selected registry subset, reports in the order of the ids; deterministic given seeds."""
    ids = list(config.ids) if config.ids else list(REGISTRY_IDS)
    for cid in ids:
        if cid not in _REGISTRY_BY_ID:
            raise KeyError(f"unknown identity id {cid!r}")
    specs = [
        IdentityCheck(
            id=cid,
            chart=config.chart,
            rank=config.rank,
            degree=config.degree,
            seed=config.seed,
        )
        for cid in ids
    ]
    if config.parallel and len(specs) > 1:
        import concurrent.futures
        import multiprocessing
        import os

        # spawn starts workers as tasks arrive (fork would start all of them at the
        # first submit), and no more workers than checks are asked for
        workers = min(len(specs), os.cpu_count() or 1)
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            reports = list(pool.map(check_identity, specs))
    else:
        reports = [check_identity(spec) for spec in specs]
    summary = {status: sum(r.status == status for r in reports) for status in STATUSES}
    return reports, summary
