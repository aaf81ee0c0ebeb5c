"""Coordinate charts R^(2n) carrying a polynomial almost complex structure J.

A chart owns the projectors onto the (1,0)/(0,1) tangent splittings, its
torsion 2-form, and the Nijenhuis tensor [J, J].  Two builtin families are
exposed: the constant standard structure, and a "twisted" one obtained by
conjugating the standard J with a unipotent polynomial matrix, which keeps
J*J = -I exact while making the structure non-integrable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .algebra import GR_HALF, GaussRational, PolyScalar, ProductSum

PolyMatrix = List[List[PolyScalar]]


# -- small polynomial-matrix kit -------------------------------------------


def mat_identity(dim: int, num_vars: int) -> PolyMatrix:
    return [
        [PolyScalar.constant(1 if i == j else 0, num_vars) for j in range(dim)]
        for i in range(dim)
    ]


def mat_zero(dim: int, num_vars: int) -> PolyMatrix:
    return [[PolyScalar.zero(num_vars) for _ in range(dim)] for _ in range(dim)]


def mat_add(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    dim = len(a)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = ProductSum(a[0][0].num_vars)
            for k in range(dim):
                acc.add(1, a[i][k], b[k][j])
            row.append(acc.total())
        out.append(row)
    return out


def mat_scale(a: PolyMatrix, c) -> PolyMatrix:
    return [[entry.scale(c) for entry in row] for row in a]


def mat_eq(a: PolyMatrix, b: PolyMatrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _is_strictly_upper(n_mat: PolyMatrix) -> bool:
    return all(
        n_mat[i][j].is_zero() for i in range(len(n_mat)) for j in range(i + 1)
    )


def unipotent_inverse(n_mat: PolyMatrix, num_vars: int) -> PolyMatrix:
    """Inverse of I + N for strictly upper-triangular N: I - N + N^2 - ..."""
    dim = len(n_mat)
    inv = mat_identity(dim, num_vars)
    power = mat_identity(dim, num_vars)
    sign = -1
    for _ in range(dim - 1):
        power = mat_mul(power, n_mat)
        inv = mat_add(inv, mat_scale(power, sign))
        sign = -sign
    return inv


# -- the chart itself -------------------------------------------------------


class Projectors:
    """P10 = (I - iJ)/2 and P01 = (I + iJ)/2 onto T^{1,0} and T^{0,1}."""

    __slots__ = ("P10", "P01")

    def __init__(self, P10: PolyMatrix, P01: PolyMatrix):
        self.P10 = P10
        self.P01 = P01


class Chart:
    """R^(2n) with a polynomial matrix field J satisfying J*J = -I identically."""

    def __init__(self, n: int, J: PolyMatrix, name: str = "custom", check: bool = True):
        if n < 1:
            raise ValueError("complex dimension must be >= 1")
        self.n = n
        self.dim = 2 * n
        self.J = J
        self.name = name
        self._projectors: Projectors | None = None
        self._torsion = None
        self._coframe_cache: dict = {}
        if check:
            minus_identity = mat_scale(mat_identity(self.dim, self.dim), -1)
            if not mat_eq(mat_mul(J, J), minus_identity):
                raise ValueError("J*J != -I: not an almost complex structure")

    def projectors(self) -> Projectors:
        if self._projectors is None:
            half = GR_HALF
            half_i = GaussRational(0, Fraction(1, 2))
            ident = mat_identity(self.dim, self.dim)
            P10 = mat_sub(mat_scale(ident, half), mat_scale(self.J, half_i))
            P01 = mat_add(mat_scale(ident, half), mat_scale(self.J, half_i))
            self._projectors = Projectors(P10, P01)
        return self._projectors

    def torsion(self):
        if self._torsion is None:
            self._torsion = torsion_form(self)
        return self._torsion

    def __repr__(self):
        return f"Chart(n={self.n}, name={self.name!r})"


def make_standard_chart(n: int) -> Chart:
    """Constant block J0 with J0 e_{2i} = e_{2i+1}, J0 e_{2i+1} = -e_{2i}."""
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    dim = 2 * n
    J = mat_zero(dim, dim)
    for i in range(n):
        J[2 * i + 1][2 * i] = PolyScalar.constant(1, dim)
        J[2 * i][2 * i + 1] = PolyScalar.constant(-1, dim)
    return Chart(n, J, name=f"standard:{n}", check=False)


def make_twisted_chart(n: int, N: PolyMatrix, name: str | None = None) -> Chart:
    """J = (I+N) J0 (I+N)^{-1} for strictly upper-triangular polynomial N.

    The unipotent conjugation keeps J*J = -I exact with polynomial entries.
    """
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    dim = 2 * n
    if len(N) != dim or any(len(row) != dim for row in N):
        raise ValueError(f"N must be {dim}x{dim}")
    if not _is_strictly_upper(N):
        raise ValueError("N must be strictly upper-triangular")
    J0 = make_standard_chart(n).J
    a = mat_add(mat_identity(dim, dim), N)
    a_inv = unipotent_inverse(N, dim)
    J = mat_mul(mat_mul(a, J0), a_inv)
    return Chart(n, J, name=name or f"twisted:{n}")


def builtin_twisted_chart(n: int) -> Chart:
    """The pinned non-integrable example: N has the single entry N[0][2] = x1.

    The coefficient must depend on the first complex direction: with
    N[0][2] = f, the frame field e_3 - i*e_4 + f*e_1 spans T^{1,0} together
    with e_1 - i*e_2, and the torsion is governed by (d/dx1 - i d/dx2)f.
    A coefficient like x4 makes the twist secretly integrable; x1 does not,
    and the nonzero-[J,J] check pins this choice.  n = 1 is rejected: every
    almost complex structure on R^2 is integrable, so no twist can produce
    torsion there.
    """
    if n < 2:
        raise ValueError("the builtin twisted chart needs n >= 2 (R^2 admits no non-integrable J)")
    dim = 2 * n
    N = mat_zero(dim, dim)
    N[0][2] = PolyScalar.variable(0, dim)
    return make_twisted_chart(n, N, name=f"twisted:{n}")


def _lie_bracket_fields(chart: Chart, v: Sequence[PolyScalar], w: Sequence[PolyScalar]):
    """Commutator of complexified polynomial vector fields, componentwise."""
    dim = chart.dim
    out = []
    for c in range(dim):
        acc = ProductSum(dim)
        for a in range(dim):
            if v[a]:
                acc.add(1, v[a], w[c].partial_derivative(a))
            if w[a]:
                acc.add(-1, w[a], v[c].partial_derivative(a))
        out.append(acc.total())
    return out


def torsion_form(chart: Chart):
    """theta(X, Y) = [X, Y]^{0,1} for X, Y in T^{1,0}, as a tangent-valued 2-form.

    Evaluated tensorially on the coordinate frame: the arguments are projected
    to T^{1,0} first, the bracket is projected to T^{0,1}; phi-linearity over
    functions makes the frame values determine the form.
    """
    from .forms import ScalarForm, VectorForm

    dim = chart.dim
    proj = chart.projectors()
    p10_cols = [[proj.P10[b][a] for b in range(dim)] for a in range(dim)]
    comp_terms: List[dict] = [dict() for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            bracket = _lie_bracket_fields(chart, p10_cols[a], p10_cols[b])
            for c in range(dim):
                acc = ProductSum(dim)
                for r in range(dim):
                    acc.add(1, proj.P01[c][r], bracket[r])
                val = acc.total()
                if val:
                    comp_terms[c][(a, b)] = val
    comps = tuple(ScalarForm(chart, comp_terms[c]) for c in range(dim))
    return VectorForm(chart, 2, comps)


def nijenhuis_tensor(chart: Chart):
    """The Froelicher-Nijenhuis square [J, J] of J viewed as a vector 1-form."""
    from .forms import fn_bracket, vector_one_form_from_matrix

    j_form = vector_one_form_from_matrix(chart, chart.J)
    return fn_bracket(j_form, j_form)
