"""Grading groups, degrees and braiding bicharacters.

The grading group is a finite abelian group Z/n1 x ... x Z/nk.  Degrees are
reduced integer tuples, one coordinate per factor.  The braiding statistics
are carried by a bicharacter beta: G x G -> Q(zeta_E)*, E the group
exponent.  The default "anyonic" case on Z/n is beta(a, b) = zeta_n^(a*b);
the n = 2 instance is the fermionic sign, n = 1 is bosonic.

Every bicharacter is given by an integer matrix, so every phase is a
power of zeta_E.  Factors, degree coordinates and matrix entries must be
integers; a float, a string or None is refused with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm, prod
from operator import index

from .cyclotomic import CycNum, root_of_unity

__all__ = ["Degree", "GradingGroup", "Bicharacter"]

Degree = tuple  # reduced integer tuple, one entry per group factor


def _integers(values, what: str) -> tuple:
    """`values` as a tuple of ints; floats, strings and None are refused."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


@dataclass(frozen=True)
class GradingGroup:
    """Z/n1 x ... x Z/nk with componentwise arithmetic."""

    factors: tuple

    def __post_init__(self):
        factors = _integers(self.factors, "group factors")
        if not factors or any(n < 1 for n in factors):
            raise ValueError("group factors must be positive integers")
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def exponent(self) -> int:
        return lcm(*self.factors)

    @property
    def size(self) -> int:
        return prod(self.factors)

    def degree(self, coords) -> Degree:
        """Reduce coordinates into the group; accepts a bare int if rank 1."""
        if isinstance(coords, int):
            coords = (coords,)
        try:
            coords = tuple(map(index, coords))
        except TypeError:
            raise ValueError(f"degree coordinates must be integers, got {coords!r}") from None
        if len(coords) != self.rank:
            raise ValueError(f"degree arity {len(coords)} does not match group rank {self.rank}")
        return tuple(c % n for c, n in zip(coords, self.factors))

    def zero(self) -> Degree:
        return (0,) * self.rank

    def add(self, g: Degree, h: Degree) -> Degree:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.factors))

    def neg(self, g: Degree) -> Degree:
        return tuple((-a) % n for a, n in zip(g, self.factors))

    def elements(self):
        return product(*(range(n) for n in self.factors))


@dataclass(frozen=True)
class Bicharacter:
    """Braiding phase beta(g, h) on a grading group, given by an integer
    matrix.  Entry (i, j) pairs the i-th and j-th generators through the
    largest phase group they support:

        beta(e_i, e_j) = zeta_gcd(n_i, n_j) ** matrix[i][j]

    so every integer matrix yields a genuine bicharacter (entries act
    modulo gcd(n_i, n_j)), and every bicharacter arises this way.
    """

    group: GradingGroup
    matrix: tuple

    def __post_init__(self):
        k = self.group.rank
        rows = tuple(_integers(r, "bicharacter matrix entries") for r in self.matrix)
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError("bicharacter matrix must be rank x rank")
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def anyonic(cls, n: int) -> "Bicharacter":
        """beta(a, b) = zeta_n^(a*b) on Z/n."""
        return cls(GradingGroup((n,)), matrix=((1,),))

    def _exponent_in_e(self, g: Degree, h: Degree) -> int:
        """Total exponent of zeta_E accumulated by the matrix pairing.

        Entry (i, j) contributes through zeta_gcd(n_i, n_j), i.e. with
        weight E // gcd(n_i, n_j); this makes the phase independent of the
        chosen degree representatives.
        """
        factors = self.group.factors
        e = self.group.exponent
        acc = 0
        for i, gi in enumerate(g):
            if gi:
                for j, hj in enumerate(h):
                    if hj:
                        weight = e // gcd(factors[i], factors[j])
                        acc += gi * self.matrix[i][j] * hj * weight
        return acc

    def phase(self, g: Degree, h: Degree) -> CycNum:
        """beta(g, h) as an exact root of unity of order dividing exponent."""
        g = self.group.degree(g)
        h = self.group.degree(h)
        return root_of_unity(self.group.exponent, self._exponent_in_e(g, h))

    def phase_power(self, g: Degree, h: Degree, exponent: int) -> CycNum:
        """beta(g, h)**exponent without polynomial inversion."""
        g = self.group.degree(g)
        h = self.group.degree(h)
        return root_of_unity(self.group.exponent, exponent * self._exponent_in_e(g, h))

    def to_json(self) -> dict:
        return {"group": list(self.group.factors), "bichar": [list(r) for r in self.matrix]}

    @classmethod
    def from_json(cls, data: dict) -> "Bicharacter":
        """Read `{"group": [...], "bichar": [[...], ...] or omitted}`."""
        if "group" not in data:
            raise ValueError("grading JSON needs a 'group' entry")
        group = GradingGroup(data["group"])
        if data.get("bichar") is not None:
            return cls(group, data["bichar"])
        if group.rank != 1:
            raise ValueError("omitted bichar defaults to the anyonic one and needs rank 1")
        return cls.anyonic(group.factors[0])
