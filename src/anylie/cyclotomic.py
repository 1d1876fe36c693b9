"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A number is stored as integer coordinates over one common denominator:
`nums[e] / den` is its coordinate on z^e in the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m), z = exp(2*pi*i/m).  The pair is kept
in lowest terms (den > 0, gcd(den, *nums) == 1, zero as (0, ...), 1), so
equality is tuple equality.  One cached table, `_power_rows(m)`, holds the
integer coordinates of z^e for e < m, and one routine, `_fold`, folds a
sum of integer multiples of powers z^e onto the basis through it.
Construction, products, lifting (e -> e*step), conjugates (e -> e*k mod m)
and the sparse forms of the structure-tensor join all end in that fold, and
roots of unity are rows of the table.  Reduction makes the representation
a genuine field: no zero divisors, exact inverses.  The join alone defers
it: a product of entries is carried as a sparse element of Q[x]/(x^m - 1)
(`_to_sparse`, `_sparse_product`) and folded once per finished term
(`_from_sparse`).
Mixed-order arithmetic embeds both operands into Q(zeta_L), L = lcm of the
orders, via z_m = z_L^(L/m).  Elements are never re-minimised into a
smaller cyclotomic subfield; they keep their declared order.

All arithmetic is on Python ints; `fractions.Fraction` appears only where
values enter (the constructor, `from_json`) and leave (`coeffs`).  There is
no floating point in any code path used for comparison.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index

__all__ = [
    "CycNum",
    "cyclotomic_polynomial",
    "root_of_unity",
    "q_binomial",
    "q_integer",
]


def checked_integers(values, what: str) -> tuple:
    """`values` read from outside the program as a tuple of ints; floats,
    strings, None and bools (which `operator.index` passes) are refused."""
    try:
        items = tuple(values)
        if not any(isinstance(v, bool) for v in items):
            return tuple(map(index, items))
    except TypeError:
        pass
    raise ValueError(f"{what} must be integers, got {values!r}")


def _rational(value) -> Fraction:
    """`Fraction(value)`, with a zero denominator from outside as ValueError."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _divide_exactly(num: list, den: tuple) -> list:
    """num / den for integer polynomials (low to high), den monic and
    dividing num."""
    num = list(num)
    dden = len(den) - 1
    quot = [0] * (len(num) - dden)
    for i in range(len(num) - dden - 1, -1, -1):
        coeff = num[i + dden]
        if coeff:
            quot[i] = coeff
            for j, dj in enumerate(den):
                num[i + j] -= coeff * dj
    assert not any(num[:dden])
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial Phi_m.

    Computed once per order by dividing x^m - 1 by Phi_d over all proper
    divisors d of m; cached, and safe to fill from concurrent callers
    because the computation is deterministic.
    """
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _divide_exactly(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple:
    """Integer power-basis coordinates of z^e in Q(zeta_m), e = 0..m-1:
    repeated multiplication by z, with z^deg rewritten through Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    top = tuple(-c for c in phi[:deg])
    rows = []
    row = (1,) + (0,) * (deg - 1)
    for _ in range(m):
        rows.append(row)
        lead = row[-1]
        row = (0,) + row[:-1]
        if lead:
            row = tuple(a + lead * b for a, b in zip(row, top))
    return tuple(rows)


def _fold(m: int, terms) -> list:
    """Fold sum(c * z^e) over the (e, c) pairs of `terms`, e >= 0, onto the
    power basis of Q(zeta_m): the first phi(m) rows of `_power_rows` are the
    unit vectors, so an e below phi(m) adds c in place."""
    rows = _power_rows(m)
    deg = len(rows[0])
    out = [0] * deg
    for e, c in terms:
        if e < deg:
            out[e] += c
        elif c:
            for i, r in enumerate(rows[e % m]):
                if r:
                    out[i] += c * r
    return out


# A sparse form is (m, den, ((e, c), ...)): sum(c * x^e) / den in
# Q[x]/(x^m - 1), whose image at x = zeta_m is a number of Q(zeta_m).  In it
# a product is index addition mod m and a change of order is index scaling,
# so it carries the products of `anylie.algebra.Contraction` unreduced; a
# signed root of unity times a rational is one monomial.

@lru_cache(maxsize=None)
def _root_exponents(m: int) -> dict:
    """{coordinates of z^e: e} over the power table of Q(zeta_m)."""
    return {row: e for e, row in enumerate(_power_rows(m))}


def _to_sparse(x: "CycNum") -> tuple:
    """x as a sparse form of its own order: one monomial when x is a
    rational times +-z^e, found by one dict lookup; else its coordinates."""
    m, nums = x.order, x.nums
    g = gcd(*nums)
    if g:
        roots = _root_exponents(m)
        unit = tuple(c // g for c in nums)
        e = roots.get(unit)
        if e is None:
            e, g = roots.get(tuple(-c for c in unit)), -g
        if e is not None:
            return m, x.den, ((e, g),)
    return m, x.den, tuple((e, c) for e, c in enumerate(nums) if c)


def _sparse_product(a: tuple, b: tuple) -> tuple:
    """The product of two sparse forms, in the lcm L of their orders, where
    z_m = z_L^(L/m): for two monomials one integer multiply."""
    ma, da, ta = a
    mb, db, tb = b
    m = ma if ma == mb else lcm(ma, mb)
    sa, sb = m // ma, m // mb
    if len(ta) == 1 and len(tb) == 1:
        (ea, ca), (eb, cb) = ta[0], tb[0]
        return m, da * db, (((ea * sa + eb * sb) % m, ca * cb),)
    prod = {}
    for ea, ca in ta:
        for eb, cb in tb:
            e = (ea * sa + eb * sb) % m
            prod[e] = prod.get(e, 0) + ca * cb
    return m, da * db, tuple(prod.items())


def _from_sparse(form: tuple) -> "CycNum":
    """A sparse form as a CycNum of its order."""
    m, den, terms = form
    return CycNum._make(m, _fold(m, terms), den)


def _lowest(nums, den: int) -> tuple:
    """(nums, den), den > 0, divided by gcd(den, *nums): nums as a tuple."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(c // g for c in nums), den // g
    return tuple(nums), den


def _multiply(xs, ys, m: int) -> list:
    """The product of two integer coordinate vectors of Q(zeta_m)."""
    prod = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    prod[i + j] += x * y
    return _fold(m, enumerate(prod))


def _conjugate(xs, k: int, m: int) -> list:
    """sigma_k(x): the coordinates of x with z replaced by z^k, k a unit mod m."""
    return _fold(m, ((e * k % m, x) for e, x in enumerate(xs)))


class CycNum:
    """An element of Q(zeta_m), reduced modulo Phi_m.

    `order` is m; `nums` has length phi(m), and the coordinates are
    `nums[e] / den` in lowest terms.  Values compare equal across orders
    whenever they agree after embedding into the lcm field.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs=()):
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        self.order = order
        self.nums, self.den = _lowest(_fold(order, enumerate(nums)), den)

    @classmethod
    def _make(cls, order: int, nums, den: int = 1) -> "CycNum":
        """Wrap integer coordinates already reduced onto the power basis,
        over a positive denominator, in lowest terms (internal)."""
        obj = object.__new__(cls)
        obj.order = order
        obj.nums, obj.den = _lowest(nums, den)
        return obj

    @classmethod
    def zero(cls, order: int = 1) -> "CycNum":
        return cls(order, ())

    @classmethod
    def one(cls, order: int = 1) -> "CycNum":
        return cls(order, (1,))

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycNum":
        return cls(order, (_rational(value),))

    @staticmethod
    def promote(value) -> "CycNum":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, int):
            return CycNum._make(1, (int(value),))
        if isinstance(value, Fraction):
            return CycNum._make(1, (value.numerator,), value.denominator)
        raise TypeError(f"cannot promote {type(value).__name__} to CycNum")

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- embedding -------------------------------------------------------

    def lifted(self, new_order: int) -> "CycNum":
        """The same number written in Q(zeta_L), L a multiple of the order."""
        if new_order == self.order:
            return self
        assert new_order % self.order == 0
        step = new_order // self.order
        nums = _fold(new_order, zip(range(0, new_order, step), self.nums))
        return CycNum._make(new_order, nums, self.den)

    def _pair(self, other):
        other = CycNum.promote(other)
        if self.order == other.order:
            return self, other
        common = self.order * other.order // gcd(self.order, other.order)
        return self.lifted(common), other.lifted(common)

    # -- arithmetic ------------------------------------------------------
    # non-numeric operands fall through to the other side's reflected op

    def _plus(self, other, sign: int):
        a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            nums = [x + sign * y for x, y in zip(a.nums, b.nums)]
        else:
            nums = [x * db + sign * y * da for x, y in zip(a.nums, b.nums)]
            da *= db
        return CycNum._make(a.order, nums, da)

    def __add__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        return CycNum.promote(other) - self

    def __neg__(self):
        return CycNum._make(self.order, [-c for c in self.nums], self.den)

    def __mul__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return CycNum._make(a.order, _multiply(a.nums, b.nums, a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse through the norm: 1/x = P / N(x), where P
        is the product of the conjugates sigma_k(x), k a unit mod m other
        than 1, and N(x) = x * P is rational."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        m, nums = self.order, self.nums
        others = [1] + [0] * (len(nums) - 1)
        if not self.is_rational():  # a rational is its own conjugate
            for k in range(2, m):
                if gcd(k, m) == 1:
                    others = _multiply(others, _conjugate(nums, k, m), m)
        # x = nums / den, so P = others / den^(phi-1), N(x) = norm / den^phi
        # and 1/x = others * den / norm
        norm = _multiply(nums, others, m)
        assert not any(norm[1:])
        scale = self.den if norm[0] > 0 else -self.den
        return CycNum._make(m, [c * scale for c in others], abs(norm[0]))

    def __truediv__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        return self * CycNum.promote(other).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        return CycNum.promote(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates & comparison -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, CycNum) and other.order == self.order:
            return self.nums == other.nums and self.den == other.den
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.nums == b.nums and a.den == b.den

    # equality crosses orders through the lcm embedding, so there is no
    # cheap canonical form to hash without re-minimising orders
    __hash__ = None

    # -- input / output ---------------------------------------------------

    def to_json(self) -> dict:
        terms = [[e, str(c)] for e, c in enumerate(self.coeffs) if c]
        return {"order": self.order, "terms": terms}

    @classmethod
    def from_json(cls, data) -> "CycNum":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "order" not in data:
            raise ValueError("CycNum JSON must be {'order': m, 'terms': [[k, 'p/q'], ...]}")
        (order,) = checked_integers((data["order"],), "CycNum order")
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        coeffs = [Fraction(0)] * order
        for k, val in data.get("terms", ()):
            (k,) = checked_integers((k,), "exponents in CycNum JSON")
            if k < 0:
                raise ValueError("exponents in CycNum JSON must be >= 0")
            coeffs[k % order] += _rational(str(val))
        return cls(order, coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                base = "z%d" % self.order if e == 1 else "z%d^%d" % (self.order, e)
                if c == 1:
                    parts.append(base)
                elif c == -1:
                    parts.append("-" + base)
                else:
                    parts.append("%s*%s" % (c, base))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return "CycNum(%d, %r)" % (self.order, self.coeffs)


@lru_cache(maxsize=None)
def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k as an exact element of Q(zeta_m).

    Cached: CycNum values are immutable, so sharing is safe.
    """
    if m < 1:
        raise ValueError("root_of_unity needs order m >= 1")
    return CycNum._make(m, _power_rows(m)[k % m])


def q_integer(k: int, q: CycNum) -> CycNum:
    """[k]_q = 1 + q + ... + q^(k-1), with [0]_q = 0."""
    total = CycNum.zero(q.order)
    power = CycNum.one(q.order)
    for _ in range(k):
        total = total + power
        power = power * q
    return total


def q_binomial(a: int, k: int, q) -> CycNum:
    """Gaussian binomial [a choose k]_q by the Pascal recurrence.

    [a,k]_q = [a-1,k-1]_q + q^k * [a-1,k]_q needs no division, so it is
    well defined when q is a root of unity.
    """
    q = CycNum.promote(q)
    if k < 0 or k > a or a < 0:
        raise ValueError("q_binomial needs 0 <= k <= a")
    one = CycNum.one(q.order)
    q_pows = [one]
    for _ in range(k):
        q_pows.append(q_pows[-1] * q)
    # row[j] holds [row_index choose j]_q for j <= k
    row = [one] + [CycNum.zero(q.order)] * k
    for i in range(1, a + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = row[j - 1] + q_pows[j] * row[j]
    return row[k]
