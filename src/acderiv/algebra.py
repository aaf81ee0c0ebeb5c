"""Exact arithmetic: Gaussian rationals, sparse multivariate polynomials, square matrices over either.

Every identity this package certifies is "residual == the zero polynomial",
so the coefficient ring must be exact.  There is deliberately no float mode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd
from operator import add, neg, or_, sub
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[int, Fraction]


class GaussRational:
    """A Gaussian rational (an + bn*i)/d stored as a reduced integer triple.

    Treated as immutable everywhere; the integer representation keeps the
    normalization cost at one gcd per arithmetic operation.
    """

    __slots__ = ("an", "bn", "d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if isinstance(re, int) and isinstance(im, int):
            self.an = re
            self.bn = im
            self.d = 1
            return
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot interpret {type(part).__name__} as a rational part")
        re = Fraction(re)
        im = Fraction(im)
        dr, di = re.denominator, im.denominator
        den = dr // gcd(dr, di) * di
        self.an = re.numerator * (den // dr)
        self.bn = im.numerator * (den // di)
        self.d = den

    @classmethod
    def _raw(cls, an: int, bn: int, d: int) -> "GaussRational":
        """Build from an integer triple with d > 0, reducing the common factor."""
        if d != 1:
            g = gcd(gcd(an, bn), d)
            if g > 1:
                an //= g
                bn //= g
                d //= g
        out = object.__new__(cls)
        out.an = an
        out.bn = bn
        out.d = d
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self.an, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.bn, self.d)

    @staticmethod
    def coerce(value: "GaussRational | RationalLike") -> "GaussRational":
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, int):
            return GaussRational._raw(value, 0, 1)
        if isinstance(value, Fraction):
            return GaussRational._raw(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {type(value).__name__} as a Gaussian rational")

    def __add__(self, other):
        if not isinstance(other, GaussRational):
            other = GaussRational.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return GaussRational._raw(self.an + other.an, self.bn + other.bn, d1)
        return GaussRational._raw(
            self.an * d2 + other.an * d1, self.bn * d2 + other.bn * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussRational):
            other = GaussRational.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return GaussRational._raw(self.an - other.an, self.bn - other.bn, d1)
        return GaussRational._raw(
            self.an * d2 - other.an * d1, self.bn * d2 - other.bn * d1, d1 * d2
        )

    def __rsub__(self, other):
        return GaussRational.coerce(other) - self

    def __neg__(self):
        out = object.__new__(GaussRational)
        out.an = -self.an
        out.bn = -self.bn
        out.d = self.d
        return out

    def __mul__(self, other):
        if not isinstance(other, GaussRational):
            other = GaussRational.coerce(other)
        a1, b1, a2, b2 = self.an, self.bn, other.an, other.bn
        return GaussRational._raw(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRational.coerce(other)
        norm = other.an * other.an + other.bn * other.bn
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a1, b1, a2, b2 = self.an, self.bn, other.an, other.bn
        return GaussRational._raw(
            (a1 * a2 + b1 * b2) * other.d,
            (b1 * a2 - a1 * b2) * other.d,
            self.d * norm,
        )

    def conjugate(self) -> "GaussRational":
        out = object.__new__(GaussRational)
        out.an = self.an
        out.bn = -self.bn
        out.d = self.d
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRational.coerce(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.an == other.an and self.bn == other.bn and self.d == other.d

    def __hash__(self):
        # equal to an int or Fraction exactly when real: hash as that number does
        if not self.bn:
            return hash(self.an) if self.d == 1 else hash(Fraction(self.an, self.d))
        return hash((self.an, self.bn, self.d))

    def __bool__(self):
        return self.an != 0 or self.bn != 0

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.bn:
            return str(self.re)
        if not self.an:
            return f"{self.im}i"
        im = self.im
        sign = "+" if im > 0 else "-"
        return f"({self.re}{sign}{abs(im)}i)"


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_HALF = GaussRational(Fraction(1, 2))

ScalarLike = Union[GaussRational, int, Fraction]


_EXP_BITS = 16
_EXP_MASK = (1 << _EXP_BITS) - 1
_EXP_LIMIT = 1 << (_EXP_BITS - 1)


@cache
def _guard_bits(num_vars: int) -> int:
    """The top bit of every exponent field; set in a code only after an overflow."""
    return sum(_EXP_LIMIT << (_EXP_BITS * i) for i in range(num_vars))


class PolyScalar:
    """Multivariate polynomial over Gaussian rationals, sparse term map.

    Exponent multi-indices are packed into a single integer, 16 bits per
    variable, so that multiplying monomials is integer addition of keys.
    The top bit of each field is a guard bit: stored exponents stay below
    2^15, so the sum of two fields never carries into the next one, and a
    product whose exponent reaches 2^15 raises OverflowError instead of
    wrapping into the next variable.  That bound is far beyond anything
    the degree-bounded inputs of this package can produce.

    Coefficients are Gaussian-integer numerator pairs (an, bn) over a single
    common denominator, which keeps normalization at one early-exit gcd pass
    per ring operation instead of one per coefficient.  No zero pairs are
    stored and gcd(all numerators, den) = 1, so structural equality of
    (terms, den) is polynomial equality.  A caller passing _normalized=True
    hands over a fresh map already in that form; it is kept, not copied.
    """

    __slots__ = ("num_vars", "terms", "den")

    def __init__(
        self,
        num_vars: int,
        terms: Mapping[int, tuple] | None = None,
        den: int = 1,
        _normalized: bool = False,
    ):
        self.num_vars = num_vars
        self.den = den
        if _normalized:
            self.terms = terms if terms is not None else {}
        else:
            self.terms = dict(terms) if terms else {}
            self._normalize()

    def _normalize(self):
        if not self.terms:
            self.den = 1
            return
        g = self.den
        for an, bn in self.terms.values():
            g = gcd(g, gcd(an, bn))
            if g == 1:
                return
        if g > 1:
            self.den //= g
            self.terms = {e: (an // g, bn // g) for e, (an, bn) in self.terms.items()}

    # -- exponent packing ------------------------------------------------

    @staticmethod
    def pack_exponents(exps: Iterable[int]) -> int:
        code = 0
        for i, e in enumerate(exps):
            if e:
                if not 0 <= e < _EXP_LIMIT:
                    raise ValueError(f"exponent {e} out of range")
                code |= e << (_EXP_BITS * i)
        return code

    @staticmethod
    def unpack_exponents(code: int, num_vars: int) -> tuple:
        return tuple((code >> (_EXP_BITS * i)) & _EXP_MASK for i in range(num_vars))

    def terms_by_exponents(self) -> dict:
        """Term map keyed by explicit exponent tuples, GaussRational values."""
        return {
            PolyScalar.unpack_exponents(code, self.num_vars): GaussRational._raw(
                an, bn, self.den
            )
            for code, (an, bn) in self.terms.items()
        }

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> "PolyScalar":
        return PolyScalar(num_vars, _normalized=True)

    @staticmethod
    def constant(value: ScalarLike, num_vars: int) -> "PolyScalar":
        value = GaussRational.coerce(value)
        if not value:
            return PolyScalar(num_vars, _normalized=True)
        return PolyScalar(
            num_vars, {0: (value.an, value.bn)}, value.d, _normalized=True
        )

    @staticmethod
    def one(num_vars: int) -> "PolyScalar":
        return PolyScalar.constant(GR_ONE, num_vars)

    @staticmethod
    def variable(axis: int, num_vars: int) -> "PolyScalar":
        if not 0 <= axis < num_vars:
            raise IndexError(f"variable axis {axis} out of range for {num_vars} variables")
        return PolyScalar(num_vars, {1 << (_EXP_BITS * axis): (1, 0)}, 1, _normalized=True)

    @staticmethod
    def monomial(coeff: ScalarLike, exps: Iterable[int], num_vars: int) -> "PolyScalar":
        coeff = GaussRational.coerce(coeff)
        exps = tuple(exps)
        if len(exps) != num_vars:
            raise ValueError("exponent tuple length must equal num_vars")
        if not coeff:
            return PolyScalar(num_vars, _normalized=True)
        return PolyScalar(
            num_vars,
            {PolyScalar.pack_exponents(exps): (coeff.an, coeff.bn)},
            coeff.d,
            _normalized=True,
        )

    # -- helpers ------------------------------------------------------

    def _check_compatible(self, other: "PolyScalar"):
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(
            sum(PolyScalar.unpack_exponents(code, self.num_vars)) for code in self.terms
        )

    def coefficient(self, exps: Iterable[int]) -> GaussRational:
        pair = self.terms.get(PolyScalar.pack_exponents(exps))
        if pair is None:
            return GR_ZERO
        return GaussRational._raw(pair[0], pair[1], self.den)

    # -- ring operations ----------------------------------------------

    def _signed_add(self, other, sign: int):
        """self + sign * other, sign = 1 or -1."""
        if isinstance(other, (int, Fraction, GaussRational)):
            other = PolyScalar.constant(other, self.num_vars)
        self._check_compatible(other)
        acc = ProductSum(self.num_vars, self)
        acc.add(sign, other)
        return acc.total()

    def __add__(self, other):
        return self._signed_add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar(
            self.num_vars,
            {e: (-an, -bn) for e, (an, bn) in self.terms.items()},
            self.den,
            _normalized=True,
        )

    def __sub__(self, other):
        return self._signed_add(other, -1)

    def __rsub__(self, other):
        return PolyScalar.constant(other, self.num_vars) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.scale(other)
        self._check_compatible(other)
        acc = ProductSum(self.num_vars)
        acc.add(1, self, other)
        return acc.total()

    __rmul__ = __mul__

    def scale(self, value: ScalarLike) -> "PolyScalar":
        value = GaussRational.coerce(value)
        if not value:
            return PolyScalar(self.num_vars, _normalized=True)
        a2, b2 = value.an, value.bn
        if b2 == 0:
            out = {e: (an * a2, bn * a2) for e, (an, bn) in self.terms.items()}
        else:
            out = {
                e: (an * a2 - bn * b2, an * b2 + bn * a2)
                for e, (an, bn) in self.terms.items()
            }
        return PolyScalar(self.num_vars, out, self.den * value.d)

    # -- calculus and conjugation --------------------------------------

    def partial_derivative(self, axis: int) -> "PolyScalar":
        if not 0 <= axis < self.num_vars:
            raise IndexError(f"axis {axis} out of range for {self.num_vars} variables")
        shift = _EXP_BITS * axis
        unit = 1 << shift
        out: dict = {}
        for code, (an, bn) in self.terms.items():
            k = (code >> shift) & _EXP_MASK
            if k == 0:
                continue
            out[code - unit] = (an * k, bn * k)
        return PolyScalar(self.num_vars, out, self.den)

    def conjugate(self) -> "PolyScalar":
        return PolyScalar(
            self.num_vars,
            {e: (an, -bn) for e, (an, bn) in self.terms.items()},
            self.den,
            _normalized=True,
        )

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = PolyScalar.constant(other, self.num_vars)
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:  # a constant equals its coefficient
            an, bn = terms[0]
            return hash(GaussRational._raw(an, bn, self.den))
        return hash((self.num_vars, self.den, frozenset(terms.items())))

    def __repr__(self):
        return f"PolyScalar({self.num_vars}, {self.terms_by_exponents()!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        by_exps = self.terms_by_exponents()
        parts = []
        for exps in sorted(by_exps, key=lambda e: (sum(e), e)):
            coeff = by_exps[exps]
            factors = [
                f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                for i, k in enumerate(exps)
                if k
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == GR_ONE:
                parts.append(body)
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts)


class ProductSum:
    """A running sum of signed products sign * f * g and of bare terms sign * f or value * f.

    The sum is one mutable numerator map over a running common denominator.
    Each product is multiplied straight into the map, with
    sign * (den / (f.den * g.den)) folded into the smaller operand; when the
    common denominator has to grow, the map is rescaled in place.  Codes a
    product cancels stay in the map as (0, 0) until total(), which checks
    every code ever produced for a set guard bit, so an overflowed code
    raises OverflowError even when it cancels, then drops the zeros and
    builds one canonical PolyScalar.  A bare term's codes are valid already,
    so its cancellations are dropped at once.  PolyScalar's *, + and - are
    one-term uses of it.
    """

    __slots__ = ("num_vars", "terms", "den", "multiplied")

    def __init__(self, num_vars: int, start: PolyScalar | None = None):
        self.num_vars = num_vars
        self.multiplied = False
        if start is None:
            self.terms = {}
            self.den = 1
        else:
            self.terms = dict(start.terms)
            self.den = start.den

    def _cofactor(self, d: int) -> int:
        """Make d divide the common denominator, rescaling the map if it grows; den // d."""
        terms, den = self.terms, self.den
        if not terms:
            self.den = den = d
        elif den % d:
            grown = den // gcd(den, d) * d
            r = grown // den
            for code, (an, bn) in terms.items():
                terms[code] = (an * r, bn * r)
            self.den = den = grown
        return den // d

    def add(self, sign: int, f: PolyScalar, g: PolyScalar | None = None):
        """Add sign * f * g, or sign * f when g is None; sign is 1 or -1."""
        s = sign * self._cofactor(f.den if g is None else f.den * g.den)
        terms = self.terms
        get = terms.get
        if g is None:
            for code, (an, bn) in f.terms.items():
                cur = get(code)
                if cur is None:
                    terms[code] = (an * s, bn * s)
                    continue
                ar = cur[0] + an * s
                br = cur[1] + bn * s
                if ar or br:
                    terms[code] = (ar, br)
                else:
                    del terms[code]
            return
        self.multiplied = True
        a, b = f.terms, g.terms
        if len(a) > len(b):
            a, b = b, a
        for ea, (a1, b1) in a.items():
            if s != 1:
                a1 *= s
                b1 *= s
            for eb, (a2, b2) in b.items():
                code = ea + eb
                cur = get(code)
                if cur is None:
                    terms[code] = (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
                else:
                    terms[code] = (cur[0] + a1 * a2 - b1 * b2, cur[1] + a1 * b2 + b1 * a2)

    def add_multiple(self, value: GaussRational, f: PolyScalar):
        """Add value * f for a nonzero Gaussian rational value; a bare term like add(sign, f)."""
        s = self._cofactor(f.den * value.d)
        a2, b2 = value.an * s, value.bn * s
        terms = self.terms
        get = terms.get
        for code, (an, bn) in f.terms.items():
            ar = an * a2 - bn * b2
            br = an * b2 + bn * a2
            cur = get(code)
            if cur is not None:
                ar += cur[0]
                br += cur[1]
                if not (ar or br):
                    del terms[code]
                    continue
            terms[code] = (ar, br)

    def total(self) -> PolyScalar:
        """The sum as a canonical PolyScalar, which takes over the map: add nothing after."""
        terms = self.terms
        if self.multiplied:
            if reduce(or_, terms, 0) & _guard_bits(self.num_vars):
                raise OverflowError(f"exponent reaches {_EXP_LIMIT} in a polynomial product")
            if (0, 0) in terms.values():
                terms = {code: pair for code, pair in terms.items() if pair != (0, 0)}
        out = PolyScalar(self.num_vars, terms, self.den, _normalized=True)
        out._normalize()  # the constructor keeps the map uncopied; reduce it here
        return out


class AlgebraElement:
    """Square matrix over one exact ring; the generic unital-algebra element.

    A matrix whose first entry is a PolyScalar is a polynomial matrix field
    (a chart's J and its projectors) and keeps its entries as given; every
    entry must then be a PolyScalar.  Otherwise plain numbers are coerced to
    GaussRational (the constant matrices of the finite-commutability
    lemmas).  Entries are treated as immutable; ``m[i]`` is row i, so
    ``m[i][j]`` reads one entry.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(row) for row in entries]
        self.dim = len(rows)
        if any(len(row) != self.dim for row in rows):
            raise ValueError("matrix must be square")
        if rows and isinstance(rows[0][0], PolyScalar):
            if not all(isinstance(e, PolyScalar) for row in rows for e in row):
                raise TypeError("a polynomial matrix takes PolyScalar entries only")
        else:
            rows = [tuple(map(GaussRational.coerce, row)) for row in rows]
        self.entries = tuple(rows)

    @staticmethod
    def identity(dim: int, num_vars: int | None = None) -> "AlgebraElement":
        """The identity; with num_vars, a polynomial matrix of constants in num_vars variables."""
        one, zero = (1, 0) if num_vars is None else (PolyScalar.one(num_vars), PolyScalar.zero(num_vars))
        return AlgebraElement([[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @staticmethod
    def zero(dim: int) -> "AlgebraElement":
        return AlgebraElement([[0] * dim for _ in range(dim)])

    @staticmethod
    def elementary(dim: int, i: int, j: int) -> "AlgebraElement":
        return AlgebraElement(
            [[1 if (r, c) == (i, j) else 0 for c in range(dim)] for r in range(dim)]
        )

    @property
    def num_vars(self) -> int | None:
        """The variable count of a polynomial matrix; None for a constant one."""
        first = self.entries[0][0] if self.dim else None
        return first.num_vars if isinstance(first, PolyScalar) else None

    def __getitem__(self, row: int) -> tuple:
        return self.entries[row]

    @classmethod
    def _of(cls, rows) -> "AlgebraElement":
        """A matrix of the row sequences of entries this class produced, kept as they are."""
        out = object.__new__(cls)
        out.entries = tuple(map(tuple, rows))
        out.dim = len(out.entries)
        return out

    def _check(self, other: "AlgebraElement"):
        if self.dim != other.dim:
            raise ValueError("matrix dimension mismatch")

    def _entrywise(self, other, op):
        self._check(other)
        return AlgebraElement._of(map(op, ra, rb) for ra, rb in zip(self.entries, other.entries))

    def __add__(self, other):
        return self._entrywise(other, add)

    def __neg__(self):
        return AlgebraElement._of(map(neg, row) for row in self.entries)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __mul__(self, other):
        """The matrix product: each entry is one exact dot product over its nonzero pairs.

        A Gaussian-rational entry sums numerator pairs over one running common
        denominator and is reduced once; a polynomial entry is one ProductSum.
        """
        self._check(other)
        num_vars = self.num_vars
        if other.num_vars != num_vars:
            raise TypeError("a matrix product takes two matrices over one ring")
        cols = list(zip(*other.entries))
        dot = _gauss_dot if num_vars is None else _poly_dot
        return AlgebraElement._of([dot(row, col) for col in cols] for row in self.entries)

    def scale(self, value) -> "AlgebraElement":
        value = GaussRational.coerce(value)
        return AlgebraElement._of([a * value for a in row] for row in self.entries)

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return self * other - other * self

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"AlgebraElement({[[str(e) for e in row] for row in self.entries]})"


def _gauss_dot(row: Sequence[GaussRational], col: Sequence[GaussRational]) -> GaussRational:
    """sum_k row[k] * col[k], reduced once; GR_ZERO where it vanishes."""
    an = bn = 0
    d = 1
    for x, y in zip(row, col):
        if x and y:
            a1, b1, a2, b2 = x.an, x.bn, y.an, y.bn
            pa, pb, pd = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, x.d * y.d
            if pd != d:
                g = gcd(d, pd)
                r, s = pd // g, d // g
                an, bn, d = an * r + pa * s, bn * r + pb * s, d * r
            else:
                an += pa
                bn += pb
    if not (an or bn):
        return GR_ZERO
    return GaussRational._raw(an, bn, d)


def _poly_dot(row: Sequence[PolyScalar], col: Sequence[PolyScalar]) -> PolyScalar:
    """sum_k row[k] * col[k] as one ProductSum, so total() checks every exponent code."""
    acc = ProductSum(row[0].num_vars)
    for x, y in zip(row, col):
        if x and y:
            acc.add(1, x, y)
    return acc.total()
