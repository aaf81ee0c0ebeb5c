import pytest

from acderiv import builtin_twisted_chart, make_standard_chart
from acderiv.algebra import AlgebraElement, GaussRational, PolyScalar, ProductSum


@pytest.fixture(scope="session")
def std1():
    return make_standard_chart(1)


@pytest.fixture(scope="session")
def std2():
    return make_standard_chart(2)


@pytest.fixture(scope="session")
def twisted2():
    return builtin_twisted_chart(2)


@pytest.fixture(scope="session")
def diagonal_J():
    """n -> diag(i, -i, ..., i, -i): J in the frame of a builtin chart."""

    def build(n):
        dim = 2 * n
        i_or_minus_i = [PolyScalar.constant(GaussRational(0, (-1) ** a), dim) for a in range(dim)]
        zero = PolyScalar.zero(dim)
        return AlgebraElement([[i_or_minus_i[a] if a == b else zero for b in range(dim)] for a in range(dim)])

    return build


@pytest.fixture
def term_pairs(monkeypatch):
    """A list that gets len(f) * len(g) for every polynomial product ProductSum.add makes."""
    pairs = []
    add = ProductSum.add

    def counting_add(self, sign, f, g=None):
        if g is not None:
            pairs.append(len(f.terms) * len(g.terms))
        return add(self, sign, f, g)

    monkeypatch.setattr(ProductSum, "add", counting_add)
    return pairs
