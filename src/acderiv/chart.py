"""Coordinate charts R^(2n) carrying a polynomial almost complex structure J.

A chart owns the projectors onto the (1,0)/(0,1) tangent splittings, its
torsion 2-form, and the Nijenhuis tensor [J, J].  Two builtin families are
exposed: the constant standard structure, and a "twisted" one obtained by
conjugating the standard J with a unipotent polynomial matrix, which keeps
J*J = -I exact while making the structure non-integrable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import List, Sequence

from .algebra import GR_HALF, AlgebraElement, GaussRational, PolyScalar, ProductSum


class Chart:
    """R^(2n) with a polynomial matrix field J satisfying J*J = -I identically.

    frame is None or a pair (A, A^{-1}) of polynomial matrices: the frame
    e'_b = sum_k A[k][b] e_k, dual to the coframe theta^b with
    dx^k = sum_b A[k][b] theta^b.  Tensorial operations may be evaluated in
    it (forms.to_frame, forms.from_frame).  Every builtin chart carries the
    frame in which J is diagonal, A^{-1} J A = diag(i, -i, ..., i, -i): e'_{2a}
    spans T^{1,0} and e'_{2a+1} = conj(e'_{2a}) spans T^{0,1}.

    Forms written in the frame live on the sibling chart framed, whose J is
    A^{-1} J A and whose base is this chart, so that mixing them with
    coordinate forms raises ("forms live on different charts").  A chart
    without a frame is its own framed and base.
    """

    def __init__(
        self,
        n: int,
        J: AlgebraElement,
        name: str = "custom",
        frame: tuple[AlgebraElement, AlgebraElement] | None = None,
    ):
        if n < 1:
            raise ValueError("complex dimension must be >= 1")
        self.n = n
        self.dim = 2 * n
        self.J = J
        self.name = name
        self.frame = frame
        self._projectors: dict[str, AlgebraElement] = {}
        self._torsion = None
        self._coframe_cache: dict = {}
        self._framed = None
        self.base = self
        ident = AlgebraElement.identity(self.dim, self.dim)
        if J * J != -ident:
            raise ValueError("J*J != -I: not an almost complex structure")
        if frame is not None and frame[0] * frame[1] != ident:
            raise ValueError("A*A^{-1} != I: not a frame")

    def projector(self, side: str) -> AlgebraElement:
        """P10 = (I - iJ)/2 onto T^{1,0} (side "1,0") or P01 = (I + iJ)/2 onto T^{0,1} ("0,1")."""
        if side not in ("1,0", "0,1"):
            raise ValueError(f'value side must be "1,0" or "0,1", got {side!r}')
        if not self._projectors:
            half = AlgebraElement.identity(self.dim, self.dim).scale(GR_HALF)
            half_iJ = self.J.scale(GaussRational(0, Fraction(1, 2)))
            self._projectors = {"1,0": half - half_iJ, "0,1": half + half_iJ}
        return self._projectors[side]

    @cached_property
    def holomorphic_axes(self) -> frozenset | None:
        """The axes b with J[b][b] = i where J is diagonal with constant entries i and -i, else None.

        There theta^b (dx^b on a chart without a frame) is of type (1,0) for b
        in the set and (0,1) for the others, so the bidegree of theta^I is
        read off I.  This holds on framed of every builtin chart.
        """
        i = PolyScalar.constant(GaussRational(0, 1), self.dim)
        axes = set()
        for a, row in enumerate(self.J.entries):
            for b, entry in enumerate(row):
                if a != b and entry:
                    return None
            if row[a] == i:
                axes.add(a)
            elif row[a] != -i:
                return None
        return frozenset(axes)

    @property
    def framed(self) -> "Chart":
        if self.frame is None:
            return self
        if self._framed is None:
            A, inverse = self.frame
            self._framed = Chart(self.n, inverse * self.J * A, f"{self.name} frame")
            self._framed.base = self
        return self._framed

    def torsion(self):
        """The torsion form, written in this chart's basis (the base chart's, moved in, on framed)."""
        if self._torsion is None:
            if self.base is self:
                self._torsion = torsion_form(self)
            else:
                from .forms import to_frame

                self._torsion = to_frame(self.base.torsion())
        return self._torsion

    def __repr__(self):
        return f"Chart(n={self.n}, name={self.name!r})"


def _complex_frame(n: int) -> tuple[AlgebraElement, AlgebraElement]:
    """(C, C^{-1}): columns 2a and 2a+1 of C are e_{2a} - i e_{2a+1} and e_{2a} + i e_{2a+1},
    the i and -i eigenvectors of J0, so C^{-1} J0 C is diagonal."""
    dim = 2 * n
    C = [[PolyScalar.zero(dim)] * dim for _ in range(dim)]
    inverse = [[PolyScalar.zero(dim)] * dim for _ in range(dim)]
    for a in range(0, dim, 2):
        for b, s in ((a, 1), (a + 1, -1)):  # column b is e_a - s i e_{a+1}
            C[a][b] = PolyScalar.one(dim)
            C[a + 1][b] = PolyScalar.constant(GaussRational(0, -s), dim)
            inverse[b][a] = PolyScalar.constant(GR_HALF, dim)
            inverse[b][a + 1] = PolyScalar.constant(GaussRational(0, Fraction(s, 2)), dim)
    return AlgebraElement(C), AlgebraElement(inverse)


def _standard_J(n: int) -> AlgebraElement:
    """The constant block J0 with J0 e_{2i} = e_{2i+1}, J0 e_{2i+1} = -e_{2i}."""
    dim = 2 * n
    J = [[PolyScalar.zero(dim)] * dim for _ in range(dim)]
    for i in range(n):
        J[2 * i + 1][2 * i] = PolyScalar.constant(1, dim)
        J[2 * i][2 * i + 1] = PolyScalar.constant(-1, dim)
    return AlgebraElement(J)


def make_standard_chart(n: int) -> Chart:
    """The constant J0 (_standard_J); its frame is C (_complex_frame)."""
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    return Chart(n, _standard_J(n), name=f"standard:{n}", frame=_complex_frame(n))


def make_twisted_chart(n: int, N: Sequence[Sequence[PolyScalar]], name: str | None = None) -> Chart:
    """J = (I+N) J0 (I+N)^{-1} for a strictly upper-triangular polynomial matrix N.

    N is given as nested lists of PolyScalar in 2n variables.  N is
    nilpotent, so (I+N)^{-1} is the finite sum I - N + N^2 - ... up to
    N^{2n-1}, and the unipotent conjugation keeps J*J = -I exact with
    polynomial entries.  The chart's frame is ((I+N) C, C^{-1} (I+N)^{-1}),
    with C the standard chart's frame.
    """
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    dim = 2 * n
    N = AlgebraElement(N)
    if N.dim != dim:
        raise ValueError(f"N must be {dim}x{dim}")
    if any(N[i][j] for i in range(dim) for j in range(i + 1)):
        raise ValueError("N must be strictly upper-triangular")
    ident = AlgebraElement.identity(dim, dim)
    inverse = term = ident
    for _ in range(dim - 1):
        term = -(term * N)
        inverse = inverse + term
    A = ident + N
    C, C_inverse = _complex_frame(n)
    J = A * _standard_J(n) * inverse
    return Chart(n, J, name=name or f"twisted:{n}", frame=(A * C, C_inverse * inverse))


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
    N = [[PolyScalar.zero(dim)] * dim for _ in range(dim)]
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
    P10, P01 = chart.projector("1,0"), chart.projector("0,1")
    p10_cols = [[P10[b][a] for b in range(dim)] for a in range(dim)]
    comp_terms: List[dict] = [dict() for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            bracket = _lie_bracket_fields(chart, p10_cols[a], p10_cols[b])
            for c in range(dim):
                acc = ProductSum(dim)
                for r in range(dim):
                    acc.add(1, P01[c][r], bracket[r])
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
