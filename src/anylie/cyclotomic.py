"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A number is stored as its coordinate vector in the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m), z = exp(2*pi*i/m).  One cached table,
`_power_rows(m)`, holds the integer coordinates of z^e for e < m, and
`_reduce` folds a polynomial of any length onto the basis through it:
construction, products, lifting and roots of unity take this one path.
Reduction makes equality canonical and the representation a genuine
field: no zero divisors, exact inverses.
Mixed-order arithmetic embeds both operands into Q(zeta_L), L = lcm of the
orders, via z_m = z_L^(L/m).  Elements are never re-minimised into a
smaller cyclotomic subfield; they keep their declared order.

All coefficients are `fractions.Fraction`; there is no floating point in
any code path used for comparison.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "CycNum",
    "cyclotomic_polynomial",
    "root_of_unity",
    "q_binomial",
    "q_integer",
]

_ZERO = Fraction(0)  # shared as padding; Fractions are immutable


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Quotient and remainder of dense polynomial division (den monic-led)."""
    num = list(num)
    dden = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dden, 1)
    for i in range(len(num) - dden - 1, -1, -1):
        coeff = num[i + dden] / lead
        if coeff:
            quot[i] = coeff
            for j, dj in enumerate(den):
                num[i + j] -= coeff * dj
    rem = num[:dden]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial Phi_m.

    Computed once per order by dividing x^m - 1 by Phi_d over all proper
    divisors d of m; cached, and safe to fill from concurrent callers
    because the computation is deterministic.
    """
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if m == 1:
        return (-1, 1)
    num = [Fraction(0)] * (m + 1)
    num[0] = Fraction(-1)
    num[m] = Fraction(1)
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, [Fraction(c) for c in cyclotomic_polynomial(d)])
            assert not rem
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    assert all(c.denominator == 1 for c in num)
    return tuple(int(c) for c in num)


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


def _reduce(coeffs: list, m: int) -> tuple:
    """Fold sum(coeffs[e] * z^e), a Fraction list of any length, onto the
    power basis of Q(zeta_m)."""
    rows = _power_rows(m)
    deg = len(rows[0])
    out = coeffs[:deg] + [_ZERO] * (deg - len(coeffs))
    for e in range(deg, len(coeffs)):
        c = coeffs[e]
        if c:
            for i, r in enumerate(rows[e % m]):
                if r:
                    out[i] += c * r
    return tuple(out)


class CycNum:
    """An element of Q(zeta_m), reduced modulo Phi_m.

    `order` is m; `coeffs` has length phi(m).  Values compare equal across
    orders whenever they agree after embedding into the lcm field.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        self.order = order
        self.coeffs = _reduce([Fraction(c) for c in coeffs], order)

    @classmethod
    def _raw(cls, order: int, coeffs: tuple) -> "CycNum":
        """Wrap coefficients already known to be reduced (internal)."""
        obj = object.__new__(cls)
        obj.order = order
        obj.coeffs = coeffs
        return obj

    @classmethod
    def zero(cls, order: int = 1) -> "CycNum":
        return cls(order, ())

    @classmethod
    def one(cls, order: int = 1) -> "CycNum":
        return cls(order, (Fraction(1),))

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycNum":
        return cls(order, (Fraction(value),))

    @staticmethod
    def promote(value) -> "CycNum":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNum(1, (Fraction(value),))
        raise TypeError(f"cannot promote {type(value).__name__} to CycNum")

    # -- embedding -------------------------------------------------------

    def lifted(self, new_order: int) -> "CycNum":
        """The same number written in Q(zeta_L), L a multiple of the order."""
        if new_order == self.order:
            return self
        assert new_order % self.order == 0
        step = new_order // self.order
        raised = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        raised[::step] = self.coeffs
        return CycNum._raw(new_order, _reduce(raised, new_order))

    def _pair(self, other):
        other = CycNum.promote(other)
        if self.order == other.order:
            return self, other
        common = self.order * other.order // gcd(self.order, other.order)
        return self.lifted(common), other.lifted(common)

    # -- arithmetic ------------------------------------------------------
    # non-numeric operands fall through to the other side's reflected op

    def __add__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return CycNum._raw(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return CycNum._raw(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        return CycNum.promote(other) - self

    def __neg__(self):
        return CycNum._raw(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        n = len(a.coeffs)
        prod = [_ZERO] * (2 * n - 1)
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        prod[i + j] += ci * cj
        return CycNum._raw(a.order, _reduce(prod, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        m = self.order
        r0 = list(self.coeffs)
        while r0[-1] == 0:
            r0.pop()
        # r0 = s0*self and r1 = s1*self mod Phi_m; Phi_m is irreducible,
        # so the remainders reach a nonzero constant before zero
        r1 = [Fraction(c) for c in cyclotomic_polynomial(m)]
        s0, s1 = CycNum.one(m), CycNum.zero(m)
        while len(r0) > 1:
            quot, rem = _poly_divmod(r1, r0)
            r0, r1 = rem, r0
            s0, s1 = s1 - CycNum(m, quot) * s0, s0
        inv_lead = 1 / r0[0]
        return CycNum._raw(m, tuple(c * inv_lead for c in s0.coeffs))

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
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, CycNum) and other.order == self.order:
            return self.coeffs == other.coeffs
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

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
        order = int(data["order"])
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        coeffs = [Fraction(0)] * order
        for k, val in data.get("terms", ()):
            k = int(k)
            if k < 0:
                raise ValueError("exponents in CycNum JSON must be >= 0")
            coeffs[k % order] += Fraction(str(val))
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
    return CycNum._raw(m, tuple(Fraction(r) for r in _power_rows(m)[k % m]))


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
