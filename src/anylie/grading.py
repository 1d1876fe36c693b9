"""Grading groups, degrees and braiding bicharacters.

The grading group is a finite abelian group Z/n1 x ... x Z/nk.  Degrees are
reduced integer tuples, one coordinate per factor.  The braiding statistics
are carried by a bicharacter beta: G x G -> Q(zeta_E)*, E the group
exponent.  The default "anyonic" case on Z/n is beta(a, b) = zeta_n^(a*b);
the n = 2 instance is the fermionic sign, n = 1 is bosonic.

Bicharacters are normally specified by an integer matrix B, so that
beta(g, h) = zeta_E^(g.B.h); bimultiplicativity then holds by construction.
A raw value table can be supplied instead for experimentation and is
checked by `validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd, lcm

from .cyclotomic import CycNum, root_of_unity

__all__ = ["Degree", "GradingGroup", "Bicharacter", "ValidationReport"]

Degree = tuple  # reduced integer tuple, one entry per group factor


@dataclass(frozen=True)
class GradingGroup:
    """Z/n1 x ... x Z/nk with componentwise arithmetic."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
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
        out = 1
        for n in self.factors:
            out *= n
        return out

    def degree(self, coords) -> Degree:
        """Reduce coordinates into the group; accepts a bare int if rank 1."""
        if isinstance(coords, int):
            coords = (coords,)
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(
                f"degree arity {len(coords)} does not match group rank {self.rank}"
            )
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
class ValidationReport:
    passed: bool
    failures: tuple = ()

    def __str__(self):
        if self.passed:
            return "bicharacter: pass"
        lines = ["bicharacter: FAIL"]
        lines += ["  " + f for f in self.failures]
        return "\n".join(lines)


@dataclass(frozen=True)
class Bicharacter:
    """Braiding phase beta(g, h) on a grading group.

    Backed either by an integer matrix or a raw table mapping degree pairs
    to CycNum values.  The matrix entry (i, j) pairs the i-th and j-th
    generators through the largest phase group they support:

        beta(e_i, e_j) = zeta_gcd(n_i, n_j) ** matrix[i][j]

    so every integer matrix yields a genuine bicharacter (entries act
    modulo gcd(n_i, n_j)), and bimultiplicativity holds by construction.
    """

    group: GradingGroup
    matrix: tuple = None
    table: dict = field(default=None, compare=False)

    def __post_init__(self):
        if (self.matrix is None) == (self.table is None):
            raise ValueError("specify exactly one of matrix, table")
        if self.matrix is not None:
            k = self.group.rank
            rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
            if len(rows) != k or any(len(r) != k for r in rows):
                raise ValueError("bicharacter matrix must be rank x rank")
            object.__setattr__(self, "matrix", rows)

    @classmethod
    def anyonic(cls, n: int) -> "Bicharacter":
        """beta(a, b) = zeta_n^(a*b) on Z/n."""
        return cls(GradingGroup((n,)), matrix=((1,),))

    @classmethod
    def trivial(cls, group: GradingGroup) -> "Bicharacter":
        k = group.rank
        return cls(group, matrix=tuple((0,) * k for _ in range(k)))

    @classmethod
    def from_table(cls, group: GradingGroup, table: dict) -> "Bicharacter":
        fixed = {}
        for (g, h), val in table.items():
            fixed[(group.degree(g), group.degree(h))] = CycNum.promote(val)
        return cls(group, table=fixed)

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
        if self.table is not None:
            try:
                return self.table[(g, h)]
            except KeyError:
                raise ValueError(f"raw bicharacter table has no entry for {(g, h)}")
        return root_of_unity(self.group.exponent, self._exponent_in_e(g, h))

    def phase_power(self, g: Degree, h: Degree, exponent: int) -> CycNum:
        """beta(g, h)**exponent without polynomial inversion when possible."""
        if self.table is not None:
            return self.phase(g, h) ** exponent
        g = self.group.degree(g)
        h = self.group.degree(h)
        return root_of_unity(self.group.exponent, exponent * self._exponent_in_e(g, h))

    def validate(self) -> ValidationReport:
        """Check normalisation and bimultiplicativity over the whole group."""
        failures = []
        zero = self.group.zero()
        elems = list(self.group.elements())
        for g in elems:
            if not self.phase(g, zero).is_one():
                failures.append(f"beta({g},0) != 1")
            if not self.phase(zero, g).is_one():
                failures.append(f"beta(0,{g}) != 1")
        for g in elems:
            for g2 in elems:
                for h in elems:
                    left = self.phase(self.group.add(g, g2), h)
                    if left != self.phase(g, h) * self.phase(g2, h):
                        failures.append(f"beta not multiplicative in slot 1 at {(g, g2, h)}")
                    left = self.phase(h, self.group.add(g, g2))
                    if left != self.phase(h, g) * self.phase(h, g2):
                        failures.append(f"beta not multiplicative in slot 2 at {(h, g, g2)}")
        return ValidationReport(not failures, tuple(failures))

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        if self.table is not None:
            raise ValueError("raw-table bicharacters are not serialisable")
        return {"group": list(self.group.factors), "bichar": [list(r) for r in self.matrix]}

    @classmethod
    def from_json(cls, data: dict) -> "Bicharacter":
        if "group" not in data:
            raise ValueError("grading JSON needs a 'group' entry")
        group = GradingGroup(tuple(data["group"]))
        if "bichar" in data and data["bichar"] is not None:
            return cls(group, matrix=tuple(tuple(r) for r in data["bichar"]))
        if group.rank != 1:
            raise ValueError("omitted bichar defaults to the anyonic one and needs rank 1")
        return cls.anyonic(group.factors[0])
