"""Helpers that only the tests use: independent oracles and small
conveniences kept out of the library."""

import cmath
import json
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import mul

from anylie.algebra import (AlgebraSpec, AxiomReport, CheckResult, SpecFormatError, Witness,
                            check_grading)
from anylie.anyspace import ExprError, ThetaPoly
from anylie.cli import _match_label
from anylie.constructions import _ansatz_data
from anylie.cyclotomic import (CycNum, _power_rows, checked_integers, cyclotomic_polynomial,
                               q_binomial, root_of_unity)
from anylie.envelope import ConfluenceReport, NCPoly, RewriteSystem, Rule
from anylie.grading import Bicharacter
from anylie.sparse import accumulate, nonzero


def word_less(rs: RewriteSystem, a, b) -> bool:
    """a < b in the deg-lex word order of rs."""
    return rs.word_key(a) < rs.word_key(b)


def report_check(report, name: str):
    """The check or info entry of an AxiomReport with the given name."""
    for ch in report.checks + report.info:
        if ch.name == name:
            return ch
    raise KeyError(name)


def spec_label(spec, mu: int) -> str:
    return spec.basis[mu]


def spec_index_of(spec, label: str) -> int:
    try:
        return spec.basis.index(label)
    except ValueError:
        raise KeyError(f"no basis element named {label!r}")


def group_generators(group):
    """The unit vectors of a GradingGroup, one per factor."""
    for i in range(group.rank):
        yield tuple(1 if j == i else 0 for j in range(group.rank))


# The raw-table bicharacter that the library's matrix-only Bicharacter
# replaced, with its validation.  The table is filled generator pair by
# generator pair, independently of the library's single exponent of
# zeta_E; it is the oracle for tests/test_grading.py.

def bicharacter_table(group, matrix) -> dict:
    """{(g, h): beta(g, h)} with beta(g, h) the product over (i, j) of
    zeta_gcd(n_i, n_j) ** (g_i * matrix[i][j] * h_j), across mixed orders."""
    n = group.factors
    table = {}
    for g in group.elements():
        for h in group.elements():
            value = CycNum.one()
            for i, gi in enumerate(g):
                for j, hj in enumerate(h):
                    value = value * root_of_unity(gcd(n[i], n[j]), gi * matrix[i][j] * hj)
            table[(g, h)] = value
    return table


def table_failures(group, table):
    """Yield a witness for each failure of normalisation or of
    bimultiplicativity in either slot over the whole group; none when the
    table is a bicharacter."""
    zero = group.zero()
    elems = list(group.elements())
    for g in elems:
        if not table[(g, zero)].is_one():
            yield f"beta({g},0) != 1"
        if not table[(zero, g)].is_one():
            yield f"beta(0,{g}) != 1"
    for g in elems:
        for g2 in elems:
            for h in elems:
                if table[(group.add(g, g2), h)] != table[(g, h)] * table[(g2, h)]:
                    yield f"beta not multiplicative in slot 1 at {(g, g2, h)}"
                if table[(h, group.add(g, g2))] != table[(h, g)] * table[(h, g2)]:
                    yield f"beta not multiplicative in slot 2 at {(h, g, g2)}"


def euler_phi(m: int) -> int:
    assert m >= 1
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def complex_value(x: CycNum) -> complex:
    """Floating-point image of a cyclotomic number, for approximate checks."""
    z = cmath.exp(2j * cmath.pi / x.order)
    return sum(float(c) * z ** e for e, c in enumerate(x.coeffs))


def _antipode_rec_coeff(n: int, k: int, memo: dict) -> CycNum:
    """Antipode coefficient on t^k by unwinding the defining identity
    sum_j [k,j]_q S(t^j) t^(k-j) = delta_{k,0}; independent of the closed
    form in the library."""
    if k not in memo:
        if k == 0:
            memo[0] = CycNum.one()
        else:
            q = root_of_unity(n, 1)
            total = CycNum.zero()
            for j in range(k):
                total = total + q_binomial(k, j, q) * _antipode_rec_coeff(n, j, memo)
            memo[k] = -total
    return memo[k]


def antipode_recursive(p: ThetaPoly) -> ThetaPoly:
    if p.vars != 1:
        raise ValueError("antipode is defined on the one-variable line")
    memo = {}
    return ThetaPoly(p.n, 1, {k: _antipode_rec_coeff(p.n, k[0], memo) * v
                              for k, v in p.terms.items()})


def delta_row(spec, mu: int) -> dict:
    """The coproduct of x^mu read off `spec.d`: {(nu, rho): coefficient}."""
    return {(nu, rho): v for (m, nu, rho), v in spec.d.items() if m == mu}


def bracket_row(spec, mu: int, nu: int) -> dict:
    """[x^mu, x^nu] read off `spec.c`: {rho: coefficient}."""
    return {rho: v for (m, n, rho), v in spec.c.items() if (m, n) == (mu, nu)}


def widened(p: ThetaPoly, vars: int, offset: int = 0) -> ThetaPoly:
    """Re-embed into a larger tensor power, shifting slots by offset."""
    assert vars >= p.vars + offset
    out = {}
    for exps, val in p.terms.items():
        new = [0] * vars
        new[offset:offset + p.vars] = exps
        out[tuple(new)] = val
    return ThetaPoly(p.n, vars, out)


# The Galois law: sigma_k (zeta -> zeta^k, k a unit) applied to every entry,
# with the bicharacter matrix multiplied by k so that every phase is
# conjugated too, must conjugate every result.  The oracle for the law in
# tests/test_metamorphic.py.

def conjugate(x: CycNum, k: int) -> CycNum:
    """sigma_k(x): each power of zeta_m in x raised to the k-th, k prime to m,
    reduced by polynomial division (`_reduce_mod_phi`), not the library's fold."""
    assert gcd(k, x.order) == 1
    raised = [Fraction(0)] * x.order
    for e, c in enumerate(x.coeffs):
        raised[e * k % x.order] = c
    return CycNum(x.order, _reduce_mod_phi(raised, x.order))


def conjugated(spec: AlgebraSpec, k: int) -> AlgebraSpec:
    """`spec` with sigma_k applied to every entry of eps, d and c and the
    bicharacter matrix multiplied by k."""
    bichar = Bicharacter(spec.group, tuple(tuple(k * e for e in row)
                                           for row in spec.bichar.matrix))

    def conj(table):
        return {key: conjugate(v, k) for key, v in table.items()}
    return AlgebraSpec(bichar, spec.basis, spec.degrees, conj(spec.eps), conj(spec.d),
                       conj(spec.c))


# The enveloping-algebra orientation that elimination replaced: pair by
# pair, with shape checks, then right sides pruned against the finished
# system to a fixpoint.  Kept as the reference for
# tests/test_rewrite_engine.py, with the shape error it raises.

class RelationShapeError(ValueError):
    """A relation the pairwise orientation cannot handle; carries its left side."""

    def __init__(self, pair, message):
        self.pair = pair
        super().__init__(f"relation for pair {pair}: {message}")


def _orient_relations(relations, ngens, order):
    """Turn quasi-commutation relations into oriented rules and derive the
    zero/nilpotent consequences, iterating pruning to a fixpoint."""
    rank = {g: i for i, g in enumerate(order)}

    def pair_key(pair):
        return (rank[pair[0]], rank[pair[1]])

    by_pair = {}
    for rel in relations:
        if len(rel.lhs) != 2 or any(len(w) != 2 for w in rel.rhs.terms):
            raise RelationShapeError(rel.lhs, "only quadratic relations are supported")
        if rel.lhs in by_pair:
            raise RelationShapeError(rel.lhs, "duplicate relation for the pair")
        by_pair[rel.lhs] = dict(rel.rhs.terms)

    one = CycNum.one()
    rules = {}

    def shape_split(pair, rhs):
        """Split a relation's right side into the swapped-pair coefficient
        and the remaining words.  No descent check here: only the relation
        that actually becomes a rule needs its terms below the left side."""
        mu, nu = pair
        swap = (nu, mu)
        rhs = dict(rhs)
        self_coeff = rhs.pop(pair, None)
        if self_coeff is not None:
            # move the lhs term over: (1 - a) lhs = rest
            scale = one - self_coeff
            if scale.is_zero():
                raise RelationShapeError(
                    pair, "relation degenerates to 0 = lower terms")
            inv = scale.inverse()
            rhs = {k: inv * v for k, v in rhs.items()}
        lam = rhs.pop(swap, CycNum.zero())
        return lam, nonzero(rhs)

    def checked_rule(lhs, rhs):
        for word in rhs:
            if not pair_key(word) < pair_key(lhs):
                raise RelationShapeError(
                    lhs, f"term x{word[0]}*x{word[1]} is not below the left side "
                         "in the generator order")
        rules[lhs] = rhs

    seen = set()
    for (mu, nu) in sorted(by_pair, key=pair_key):
        if (mu, nu) in seen:
            continue
        seen.add((mu, nu))
        if mu == nu:
            rhs = dict(by_pair[(mu, nu)])
            lam = rhs.pop((mu, nu), CycNum.zero())
            rhs = nonzero(rhs)
            if lam == one:
                if rhs:
                    raise RelationShapeError(
                        (mu, nu), "relation degenerates to 0 = lower terms")
                continue  # x^mu * x^mu is free
            scale = (one - lam).inverse()
            checked_rule((mu, nu), {k: scale * v for k, v in rhs.items()})
            continue
        rel_ab = by_pair.get((mu, nu))
        rel_ba = by_pair.get((nu, mu))
        if rel_ab is None or rel_ba is None:
            raise RelationShapeError((mu, nu), "missing partner relation for the pair")
        seen.add((nu, mu))
        lam1, extra1 = shape_split((mu, nu), rel_ab)
        lam2, extra2 = shape_split((nu, mu), rel_ba)
        prod = lam1 * lam2
        if prod == one:
            # consistent quasi-commutation; substituting one relation into
            # the other must cancel exactly, else a lower-order relation is
            # implied and the pair is outside the supported shape
            hi, lam_hi, extra_hi, lo, extra_lo = (
                ((mu, nu), lam1, extra1, (nu, mu), extra2)
                if pair_key((mu, nu)) > pair_key((nu, mu))
                else ((nu, mu), lam2, extra2, (mu, nu), extra1))
            residue = dict(extra_hi)
            for k, v in extra_lo.items():
                accumulate(residue, k, lam_hi * v)
            if any(not v.is_zero() for v in residue.values()):
                raise RelationShapeError(
                    hi, "pair relations imply an extra lower-order relation")
            rhs = {lo: lam_hi}
            rhs.update(extra_hi)
            checked_rule(hi, rhs)
        else:
            # inconsistent pair: (1 - lam1*lam2) x^mu x^nu = extra1 + lam1*extra2
            inv = (one - prod).inverse()
            forced = dict(extra1)
            for k, v in extra2.items():
                accumulate(forced, k, lam1 * v)
            forced = {k: inv * v for k, v in nonzero(forced).items()}
            checked_rule((mu, nu), forced)
            partner = {k: lam2 * v for k, v in forced.items()}
            for k, v in extra2.items():
                accumulate(partner, k, v)
            checked_rule((nu, mu), nonzero(partner))
    return rules


def build_rewrite_system_pairwise(relations, ngens: int, order=None) -> RewriteSystem:
    """Orient quasi-commutation relations and close the consequences.

    `order` is the generator order (default: spec order).  Raises
    `RelationShapeError` if a relation cannot be oriented.
    """
    if order is None:
        order = tuple(range(ngens))
    if sorted(order) != list(range(ngens)):
        raise ValueError("generator order must be a permutation of all indices")
    rule_map = _orient_relations(relations, ngens, order)
    rules = [Rule(lhs, NCPoly(rhs)) for lhs, rhs in sorted(rule_map.items())]
    rs = RewriteSystem(ngens, rules, order=order)
    # prune rule right sides against the finished system (e.g. words that
    # contain a derived zero pair), iterating to a fixpoint
    for _ in range(len(rules) + 1):
        changed = False
        new_rules = []
        for rule in rs.rules:
            nf = rs.normal_form(rule.rhs)
            if nf != rule.rhs:
                changed = True
            new_rules.append(Rule(rule.lhs, nf))
        rs = RewriteSystem(ngens, new_rules, order=order)
        if not changed:
            break
    return rs


# The brute-force diamond test: every word up to a degree cap, reduced
# along every one-step choice.  A sample, not a proof; kept as the
# reference that check_critical_pairs is compared against.

def rules_by_lhs(rs: RewriteSystem) -> dict:
    by_lhs = {}
    for rule in rs.rules:
        by_lhs.setdefault(rule.lhs, []).append(rule)
    return by_lhs


def _rewrites(word, by_lhs):
    """(prefix, rule, suffix) for every single rewrite of the word: leftmost
    position first, then narrower left sides, then the rules in the order
    of rs.rules."""
    for i in range(len(word)):
        for width in range(1, len(word) - i + 1):
            for rule in by_lhs.get(word[i:i + width], ()):
                yield word[:i], rule, word[i + width:]


def one_step_reducts(rs: RewriteSystem, word, by_lhs=None) -> list:
    """Every single rewrite of the word, in the order of `_rewrites`.
    `by_lhs` is `rules_by_lhs(rs)`, built here when omitted."""
    by_lhs = rules_by_lhs(rs) if by_lhs is None else by_lhs
    return [NCPoly({prefix + w + suffix: v for w, v in rule.rhs.terms.items()})
            for prefix, rule, suffix in _rewrites(word, by_lhs)]


def check_local_confluence(rs: RewriteSystem, degree_cap: int = 4) -> ConfluenceReport:
    """Reduce every word of length 2..degree_cap along every one-step choice
    and compare the resulting normal forms; one divergence per word.

    A reduct's normal form is the sum of its terms' normal forms, each word
    reduced once and kept in a memo local to this call: `normal_form`
    rewrites every term on its own, so the sums are the same."""
    by_lhs = rules_by_lhs(rs)
    memo = {}

    def normal_form(prefix, rhs, suffix):
        out = {}
        for w, v in rhs.terms.items():
            word = prefix + w + suffix
            if word not in memo:
                memo[word] = rs.nf_word(word).terms
            for u, c in memo[word].items():
                accumulate(out, u, v * c)
        return nonzero(out)

    divergences = []
    checked = 0
    for length in range(2, degree_cap + 1):
        for word in product(range(rs.ngens), repeat=length):
            checked += 1
            forms = []
            for prefix, rule, suffix in _rewrites(word, by_lhs):
                nf = normal_form(prefix, rule.rhs, suffix)
                if all(nf != f for f in forms):
                    forms.append(nf)
            if len(forms) > 1:
                divergences.append((word, [NCPoly(f) for f in forms]))
    return ConfluenceReport(not divergences, divergences, checked)


# The reduction modulo Phi_m that the power table replaced: dense polynomial
# division, and the extended Euclidean inverse on plain coefficient lists.
# `_poly_divmod` and `_reduce_mod_phi` are copied unchanged; the inverse's
# two exits return the coordinate tuple through `_reduce_mod_phi` instead of
# the `CycNum` constructor.  The reference for tests/test_cyclotomic.py.

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


def _reduce_mod_phi(coeffs: list[Fraction], m: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_m (any degree) to the power basis."""
    # fold exponents mod m first: zeta_m^m = 1
    if len(coeffs) > m:
        folded = [Fraction(0)] * m
        for e, c in enumerate(coeffs):
            folded[e % m] += c
        coeffs = folded
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    if len(coeffs) > deg:
        _, coeffs = _poly_divmod(coeffs, [Fraction(c) for c in phi])
    out = list(coeffs) + [Fraction(0)] * (deg - len(coeffs))
    return tuple(out[:deg])


def inverse_euclid(self) -> tuple:
    """Multiplicative inverse via the extended Euclidean algorithm."""
    if self.is_zero():
        raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
    phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
    # invariants: r0 = s0*self mod Phi, r1 = s1*self mod Phi
    r0, s0 = list(self.coeffs), [Fraction(1)]
    r1, s1 = phi, [Fraction(0)]
    while True:
        while r0 and r0[-1] == 0:
            r0.pop()
        if len(r0) == 1:
            inv_lead = 1 / r0[0]
            return _reduce_mod_phi([c * inv_lead for c in s0], self.order)
        if len(r0) < len(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        quot, rem = _poly_divmod(r0, r1)
        new_s = list(s0)
        for i, qc in enumerate(quot):
            if qc:
                while len(new_s) < i + len(s1):
                    new_s.append(Fraction(0))
                for j, sc in enumerate(s1):
                    new_s[i + j] -= qc * sc
        r0, r1 = r1, rem if rem else [Fraction(0)]
        s0, s1 = s1, new_s
        if r1 == [Fraction(0)]:
            # r0 divides the previous remainder; since Phi_m is
            # irreducible this forces r0 constant, handled above
            while r0 and r0[-1] == 0:
                r0.pop()
            assert len(r0) == 1
            inv_lead = 1 / r0[0]
            return _reduce_mod_phi([c * inv_lead for c in s0], self.order)


# The Fraction-based CycNum that integer coordinates replaced, copied
# unchanged except for the names: the class is `FractionCycNum`, and its
# module helpers `_rational` and `_reduce` are `_rational_fraction` and
# `_reduce_fractions`.  It reads the library's integer power table.  The
# oracle for tests/test_cycnum_differential.py.

_ZERO = Fraction(0)  # shared as padding; Fractions are immutable


def _rational_fraction(value) -> Fraction:
    """`Fraction(value)`, with a zero denominator from outside as ValueError."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _reduce_fractions(coeffs: list, m: int) -> tuple:
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


class FractionCycNum:
    """An element of Q(zeta_m), reduced modulo Phi_m.

    `order` is m; `coeffs` has length phi(m).  Values compare equal across
    orders whenever they agree after embedding into the lcm field.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        self.order = order
        self.coeffs = _reduce_fractions([Fraction(c) for c in coeffs], order)

    @classmethod
    def _raw(cls, order: int, coeffs: tuple) -> "FractionCycNum":
        """Wrap coefficients already known to be reduced (internal)."""
        obj = object.__new__(cls)
        obj.order = order
        obj.coeffs = coeffs
        return obj

    @classmethod
    def zero(cls, order: int = 1) -> "FractionCycNum":
        return cls(order, ())

    @classmethod
    def one(cls, order: int = 1) -> "FractionCycNum":
        return cls(order, (Fraction(1),))

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "FractionCycNum":
        return cls(order, (_rational_fraction(value),))

    @staticmethod
    def promote(value) -> "FractionCycNum":
        if isinstance(value, FractionCycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionCycNum(1, (Fraction(value),))
        raise TypeError(f"cannot promote {type(value).__name__} to CycNum")

    # -- embedding -------------------------------------------------------

    def lifted(self, new_order: int) -> "FractionCycNum":
        """The same number written in Q(zeta_L), L a multiple of the order."""
        if new_order == self.order:
            return self
        assert new_order % self.order == 0
        step = new_order // self.order
        raised = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        raised[::step] = self.coeffs
        return FractionCycNum._raw(new_order, _reduce_fractions(raised, new_order))

    def _pair(self, other):
        other = FractionCycNum.promote(other)
        if self.order == other.order:
            return self, other
        common = self.order * other.order // gcd(self.order, other.order)
        return self.lifted(common), other.lifted(common)

    # -- arithmetic ------------------------------------------------------
    # non-numeric operands fall through to the other side's reflected op

    def __add__(self, other):
        if not isinstance(other, (FractionCycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return FractionCycNum._raw(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (FractionCycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return FractionCycNum._raw(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        if not isinstance(other, (FractionCycNum, int, Fraction)):
            return NotImplemented
        return FractionCycNum.promote(other) - self

    def __neg__(self):
        return FractionCycNum._raw(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, (FractionCycNum, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        n = len(a.coeffs)
        prod = [_ZERO] * (2 * n - 1)
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        prod[i + j] += ci * cj
        return FractionCycNum._raw(a.order, _reduce_fractions(prod, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "FractionCycNum":
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
        s0, s1 = FractionCycNum.one(m), FractionCycNum.zero(m)
        while len(r0) > 1:
            quot, rem = _poly_divmod(r1, r0)
            r0, r1 = rem, r0
            s0, s1 = s1 - FractionCycNum(m, quot) * s0, s0
        inv_lead = 1 / r0[0]
        return FractionCycNum._raw(m, tuple(c * inv_lead for c in s0.coeffs))

    def __truediv__(self, other):
        if not isinstance(other, (FractionCycNum, int, Fraction)):
            return NotImplemented
        return self * FractionCycNum.promote(other).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (FractionCycNum, int, Fraction)):
            return NotImplemented
        return FractionCycNum.promote(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FractionCycNum.one(self.order)
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
        if isinstance(other, FractionCycNum) and other.order == self.order:
            return self.coeffs == other.coeffs
        if not isinstance(other, (FractionCycNum, int, Fraction)):
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
    def from_json(cls, data) -> "FractionCycNum":
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
            coeffs[k % order] += _rational_fraction(str(val))
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


def lifted_by_division(x: CycNum, new_order: int) -> tuple:
    """The old `CycNum.lifted`: spread the exponents, then divide by Phi_L."""
    step = new_order // x.order
    raised = [Fraction(0)] * ((len(x.coeffs) - 1) * step + 1)
    for e, c in enumerate(x.coeffs):
        raised[e * step] += c
    return _reduce_mod_phi(raised, new_order)


def root_by_division(m: int, k: int) -> tuple:
    """zeta_m^k reduced the old way, by division."""
    k %= m
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    return _reduce_mod_phi(coeffs, m)


# The two command-line parsers that `anylie.expr` replaced, unchanged:
# the flat one behind `env --quotient` (it reads "x - + y" as x + y) and
# the recursive one behind `anyspace expand`.  They are the reference for
# tests/test_expr.py.

def _parse_poly(spec: AlgebraSpec, text: str) -> NCPoly:
    """Polynomial over basis labels with +, -, * and integer coefficients;
    a digit starts an integer even where a label could match."""
    pos = 0
    tokens = []
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*":
            tokens.append(ch)
            pos += 1
            continue
        if ch.isdigit():
            j = pos
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[pos:j])))
            pos = j
            continue
        hit = _match_label(spec, text, pos)
        if hit is None:
            raise SpecFormatError(f"cannot read polynomial at ...{text[pos:pos+12]!r}")
        tokens.append(("gen", hit[0]))
        pos += hit[1]
    factor = [isinstance(tok, tuple) for tok in tokens] + [False]
    for i, tok in enumerate(tokens):
        if tok == "*" and not (i and factor[i - 1] and factor[i + 1]):
            raise SpecFormatError(f"'*' needs a factor on each side in polynomial {text!r}")
    if tokens and not factor[-2]:
        raise SpecFormatError(f"polynomial ends in a dangling {tokens[-1]!r}: {text!r}")
    terms = []
    pending = 1
    current = None

    def flush():
        nonlocal current, pending
        if current is not None:
            terms.append(current)
        current = None
        pending = 1

    for tok in tokens:
        if tok == "+":
            flush()
        elif tok == "-":
            if current is None:
                pending = -pending
            else:
                flush()
                pending = -1
        elif tok == "*":
            continue
        elif tok[0] == "int":
            if current is None:
                current = [pending, []]
            current[0] *= tok[1]
        else:
            if current is None:
                current = [pending, []]
            current[1].append(tok[1])
    flush()
    poly = NCPoly.zero()
    for coeff, word in terms:
        poly = poly + NCPoly.word(tuple(word), coeff)
    return poly


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(ch)
            i += 1
            continue
        if ch == "t":
            j = i + 1
            while j < len(src) and src[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprError("variable needs a slot number, like t1")
            tokens.append(("var", int(src[i + 1 : j])))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j])))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_theta_expr(src: str, n: int, vars: int = None) -> ThetaPoly:
    """Parse an expression over +, -, *, integer powers and t1..tm.

    If `vars` is omitted, the number of slots is the largest variable
    index that appears (at least 1).
    """
    tokens = _tokenize(src)
    if vars is None:
        vars = max([t[1] for t in tokens if isinstance(t, tuple) and t[0] == "var"],
                   default=1)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ExprError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ExprError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_sum():
        node = parse_product()
        while peek() in ("+", "-"):
            op = take()
            right = parse_product()
            node = node + right if op == "+" else node - right
        return node

    def parse_product():
        node = parse_power()
        while True:
            nxt = peek()
            if nxt == "*":
                take()
                node = node * parse_power()
            elif nxt == "(" or (isinstance(nxt, tuple) and nxt[0] == "var"):
                node = node * parse_power()  # juxtaposition
            else:
                return node

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            tok = take()
            if not (isinstance(tok, tuple) and tok[0] == "int"):
                raise ExprError("exponent must be a nonnegative integer")
            return base ** tok[1]
        return base

    def parse_atom():
        tok = peek()
        if tok == "(":
            take()
            node = parse_sum()
            take(")")
            return node
        if tok == "-":
            take()
            return -parse_atom()
        if tok == "+":
            take()
            return parse_atom()
        if isinstance(tok, tuple) and tok[0] == "var":
            take()
            slot = tok[1]
            if not 1 <= slot <= vars:
                raise ExprError(f"variable t{slot} outside 1..{vars}")
            return ThetaPoly.theta(n, vars, slot)
        if isinstance(tok, tuple) and tok[0] == "int":
            take()
            return ThetaPoly.one(n, vars).scaled(tok[1])
        raise ExprError(f"unexpected token {tok!r}")

    result = parse_sum()
    if pos != len(tokens):
        raise ExprError(f"trailing input from token {tokens[pos]!r}")
    return result


# The hand-written contraction loops that `anylie.algebra.Contraction`
# replaced: the five contraction checks of `verify_all`, the antisymmetry
# info, the relation loop of `generate_relations` and the dense Jacobi
# loop of `check_ansatz_reduction`.  The bodies are copied unchanged; the
# four row indexes they read, once built by `AlgebraSpec`, are built here
# by `_spec_indexes`.  The reference for tests/test_contraction.py.

def _spec_indexes(spec):
    """The row indexes `AlgebraSpec` used to build: d by first index, and c
    by first index, by (first, second) pair and by second index."""
    d_rows = {}
    for (mu, nu, rho), val in spec.d.items():
        d_rows.setdefault(mu, []).append((nu, rho, val))
    c_by_first, c_by_pair, c_by_second = {}, {}, {}
    for (mu, nu, rho), val in spec.c.items():
        c_by_first.setdefault(mu, []).append((nu, rho, val))
        c_by_pair.setdefault((mu, nu), []).append((rho, val))
        c_by_second.setdefault(nu, []).append((mu, rho, val))
    return d_rows, c_by_first, c_by_pair, c_by_second


def ref_check_coalgebra(spec: AlgebraSpec) -> AxiomReport:
    """Coassociativity and both counit identities of the d, eps data."""
    d_rows, _, _, _ = _spec_indexes(spec)
    lhs, rhs = {}, {}
    for (mu, alpha, lam), v1 in spec.d.items():
        for (nu, rho, v2) in d_rows.get(alpha, ()):
            accumulate(lhs, (mu, nu, rho, lam), v1 * v2)
    for (mu, nu, alpha), v1 in spec.d.items():
        for (rho, lam, v2) in d_rows.get(alpha, ()):
            accumulate(rhs, (mu, nu, rho, lam), v1 * v2)
    coassoc = _ref_compare_sparse(lhs, rhs)

    counit_w = []
    dim = spec.dim
    for mu in range(dim):
        left = {}
        right = {}
        for (nu, rho, val) in d_rows.get(mu, ()):
            e_nu = spec.eps.get(nu)
            if e_nu is not None:
                accumulate(left, rho, e_nu * val)
            e_rho = spec.eps.get(rho)
            if e_rho is not None:
                accumulate(right, nu, e_rho * val)
        for nu in range(dim):
            want = CycNum.one() if nu == mu else CycNum.zero()
            got_l = left.get(nu, CycNum.zero())
            got_r = right.get(nu, CycNum.zero())
            if got_l != want:
                counit_w.append(Witness((mu, nu), got_l, want, "(eps x id) o delta"))
            if got_r != want:
                counit_w.append(Witness((mu, nu), got_r, want, "(id x eps) o delta"))
    return AxiomReport([
        CheckResult("coassociativity", not coassoc, coassoc),
        CheckResult("counit", not counit_w, counit_w),
    ])


def ref_check_bracket_counit(spec: AlgebraSpec) -> AxiomReport:
    """eps([x^mu, x^nu]) = eps(x^mu) eps(x^nu) for all pairs."""
    _, _, c_by_pair, _ = _spec_indexes(spec)
    witnesses = []
    dim = spec.dim
    zero = CycNum.zero()
    for mu in range(dim):
        e_mu = spec.eps.get(mu, zero)
        for nu in range(dim):
            got = zero
            for (rho, val) in c_by_pair.get((mu, nu), ()):
                e_rho = spec.eps.get(rho)
                if e_rho is not None:
                    got = got + val * e_rho
            want = e_mu * spec.eps.get(nu, zero)
            if got != want:
                witnesses.append(Witness((mu, nu), got, want))
    return AxiomReport([CheckResult("bracket_counit", not witnesses, witnesses)])


def ref_check_delta_bracket(spec: AlgebraSpec) -> AxiomReport:
    """Multiplicativity of the coproduct over the bracket."""
    d_rows, _, c_by_pair, _ = _spec_indexes(spec)
    lhs, rhs = {}, {}
    for (mu, nu, alpha), cv in spec.c.items():
        for (rho, lam, dv) in d_rows.get(alpha, ()):
            accumulate(lhs, (mu, nu, rho, lam), cv * dv)
    p = spec.degrees
    for mu, row_mu in d_rows.items():
        for (alpha, beta, dv1) in row_mu:
            for nu, row_nu in d_rows.items():
                for (gamma, delta, dv2) in row_nu:
                    c_bd = c_by_pair.get((beta, delta))
                    if not c_bd:
                        continue
                    c_ag = c_by_pair.get((alpha, gamma))
                    if not c_ag:
                        continue
                    ph = spec.bichar.phase(p[beta], p[gamma]) * dv1 * dv2
                    for (lam, cv1) in c_bd:
                        for (rho, cv2) in c_ag:
                            accumulate(rhs, (mu, nu, rho, lam), ph * cv1 * cv2)
    witnesses = _ref_compare_sparse(lhs, rhs)
    return AxiomReport([CheckResult("delta_bracket", not witnesses, witnesses)])


def ref_check_cocommutation(spec: AlgebraSpec) -> AxiomReport:
    """Braided symmetry of the coproduct legs against the bracket."""
    _, c_by_first, _, _ = _spec_indexes(spec)
    lhs, rhs = {}, {}
    p = spec.degrees
    for (mu, lam, alpha), dv in spec.d.items():
        crow = c_by_first.get(alpha)
        if crow:
            for (nu, rho, cv) in crow:
                accumulate(lhs, (mu, nu, rho, lam), dv * cv)
    for (mu, alpha, lam), dv in spec.d.items():
        crow = c_by_first.get(alpha)
        if crow:
            for (nu, rho, cv) in crow:
                ph = spec.bichar.phase(p[lam], p[nu], 2) * spec.bichar.phase(p[lam], p[alpha])
                accumulate(rhs, (mu, nu, rho, lam), ph * dv * cv)
    witnesses = _ref_compare_sparse(lhs, rhs)
    notes = []
    if spec.group.rank != 1:
        notes.append("phase read as beta(p(lam),p(nu))^2 * beta(p(lam),p(a)) "
                     "in bicharacter mode")
    return AxiomReport([CheckResult("cocommutation", not witnesses, witnesses, notes)])


def ref_check_braided_jacobi(spec: AlgebraSpec) -> AxiomReport:
    """The braided Jacobi identity, exhaustive over all index tuples."""
    d_rows, c_by_first, c_by_pair, c_by_second = _spec_indexes(spec)
    lhs, rhs = {}, {}
    p = spec.degrees
    for (mu, nu, alpha), cv1 in spec.c.items():
        for (rho, lam, cv2) in c_by_second.get(alpha, ()):
            accumulate(lhs, (mu, nu, rho, lam), cv1 * cv2)
    for rho, row_rho in d_rows.items():
        for (alpha, beta, dv) in row_rho:
            row_a = c_by_first.get(alpha)
            row_b = c_by_first.get(beta)
            if not row_a or not row_b:
                continue
            for (mu, gamma, cv1) in row_a:
                ph = spec.bichar.phase(p[beta], p[mu]) * dv * cv1
                for (nu, delta, cv2) in row_b:
                    c_gd = c_by_pair.get((gamma, delta))
                    if not c_gd:
                        continue
                    for (lam, cv3) in c_gd:
                        accumulate(rhs, (mu, nu, rho, lam), ph * cv2 * cv3)
    witnesses = _ref_compare_sparse(lhs, rhs)
    return AxiomReport([CheckResult("braided_jacobi", not witnesses, witnesses)])


def ref_check_antisymmetry_info(spec: AlgebraSpec) -> CheckResult:
    """Optional braided antisymmetry of the bracket."""
    lhs, rhs = {}, {}
    p = spec.degrees
    for (mu, nu, rho), cv in spec.c.items():
        lhs[(mu, nu, rho)] = cv
    for (nu, mu, rho), cv in spec.c.items():
        rhs[(mu, nu, rho)] = -(spec.bichar.phase(p[mu], p[nu]) * cv)
    witnesses = _ref_compare_sparse(lhs, rhs)
    return CheckResult("antisymmetry", not witnesses, witnesses)


def _ref_compare_sparse(lhs: dict, rhs: dict) -> list:
    """Witnesses where two sparse tensors differ; absent keys are zero."""
    witnesses = []
    for key in sorted(set(lhs) | set(rhs)):
        lv = lhs.get(key, CycNum.zero())
        rv = rhs.get(key, CycNum.zero())
        if lv != rv:
            witnesses.append(Witness(key, lv, rv))
    return witnesses


def ref_verify_all(spec: AlgebraSpec) -> AxiomReport:
    """`verify_all` over the reference checks; the grading check, which
    contracts nothing, is the library's."""
    report = check_grading(spec)
    report = report.merged(ref_check_coalgebra(spec))
    report = report.merged(ref_check_bracket_counit(spec))
    report = report.merged(ref_check_delta_bracket(spec))
    report = report.merged(ref_check_cocommutation(spec))
    report = report.merged(ref_check_braided_jacobi(spec))
    report.info.append(ref_check_antisymmetry_info(spec))
    return report


def ref_generate_relations(spec: AlgebraSpec):
    """The quadratic presentation of the enveloping algebra, one relation
    x^mu x^nu = rhs per ordered generator pair, in lexicographic pair order."""
    d_rows, _, c_by_pair, _ = _spec_indexes(spec)
    p = spec.degrees
    relations = []
    for mu in range(spec.dim):
        row = d_rows.get(mu, ())
        for nu in range(spec.dim):
            rhs = {}
            for (alpha, beta, dv) in row:
                crow = c_by_pair.get((alpha, nu))
                if not crow:
                    continue
                ph = spec.bichar.phase(p[beta], p[nu]) * dv
                for (gamma, cv) in crow:
                    accumulate(rhs, (gamma, beta), ph * cv)
            relations.append(Rule((mu, nu), NCPoly(rhs)))
    return relations


def ref_check_ansatz_reduction(bichar, degrees, c) -> AxiomReport:
    """The reduced conditions for the ansatz, evaluated on g alone, with
    the dense Jacobi loop."""
    group = bichar.group
    p, c = _ansatz_data(bichar, degrees, c)
    g = len(p)
    p = (None,) + p  # 1-based
    zero = CycNum.zero()

    phase_w = []
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            ph = bichar.phase(p[i], p[j]) ** 2
            if not ph.is_one():
                phase_w.append(Witness((i, j), ph, CycNum.one()))

    jacobi_w = []
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            for k in range(1, g + 1):
                for l in range(1, g + 1):
                    lhs = zero
                    for a in range(1, g + 1):
                        v1 = c.get((i, j, a))
                        v2 = c.get((k, a, l))
                        if v1 is not None and v2 is not None:
                            lhs = lhs + v1 * v2
                    rhs = zero
                    for a in range(1, g + 1):
                        v1 = c.get((k, i, a))
                        v2 = c.get((a, j, l))
                        if v1 is not None and v2 is not None:
                            rhs = rhs + v1 * v2
                    ph = bichar.phase(p[k], p[i])
                    for a in range(1, g + 1):
                        v1 = c.get((k, j, a))
                        v2 = c.get((i, a, l))
                        if v1 is not None and v2 is not None:
                            rhs = rhs + ph * v1 * v2
                    if lhs != rhs:
                        jacobi_w.append(Witness((i, j, k, l), lhs, rhs))

    homog_w = []
    for (i, j, k) in sorted(c):
        want = group.add(p[i], p[j])
        if p[k] != want:
            homog_w.append(Witness((i, j, k), p[k], want, "c entry breaks degrees"))

    return AxiomReport([
        CheckResult("ansatz_phase_condition", not phase_w, phase_w),
        CheckResult("ansatz_jacobi_condition", not jacobi_w, jacobi_w),
        CheckResult("ansatz_c_homogeneous", not homog_w, homog_w),
    ])


# The three hand-written products that `LinComb.__mul__` replaced, one per
# kind of combination.  The bodies are copied unchanged, with `self` the
# left operand, except that an unused `zeta` is dropped from `theta_mul`.  The reference for tests/test_sparse.py.

def ncpoly_mul(self, other):
    if isinstance(other, (int, CycNum)):
        return self.scaled(other)
    out = {}
    for w1, v1 in self.terms.items():
        for w2, v2 in other.terms.items():
            accumulate(out, w1 + w2, v1 * v2)
    return self._raw(nonzero(out))


def tensor_square_mul(self, other):
    """Braided product: (u1 (x) u2)(v1 (x) v2) =
    beta(|u2|, |v1|) u1 v1 (x) u2 v2."""
    bi = self.spec.bichar
    out = {}
    for (u1, u2), cu in self.terms.items():
        d_u2 = self.word_degree(u2)
        for (v1, v2), cv in other.terms.items():
            ph = bi.phase(d_u2, self.word_degree(v1))
            accumulate(out, (u1 + v1, u2 + v2), ph * cu * cv)
    return self._raw(nonzero(out))


def theta_mul(self, other):
    """Braided product: slots stay ordered, and each unit of slot j in
    the left factor crossing a unit of slot i < j in the right factor
    contributes a zeta_n phase."""
    if isinstance(other, (int, CycNum)):
        return self.scaled(other)
    self._check_shape(other)
    n = self.n
    out = {}
    for a, va in self.terms.items():
        for b, vb in other.terms.items():
            exps = tuple(x + y for x, y in zip(a, b))
            if any(e >= n for e in exps):
                continue
            crossings = 0
            for j in range(1, self.vars):
                if a[j]:
                    for i in range(j):
                        crossings += a[j] * b[i]
            val = va * vb
            if crossings % n:
                val = val * root_of_unity(n, crossings)
            accumulate(out, exps, val)
    return self._raw(nonzero(out))


# The per-factor join that the sparse products of `Contraction` replaced:
# each partial product a `CycNum` multiply, each phase a `CycNum` multiply,
# each finished term added to its key with `accumulate`.  The body is
# `Contraction.__call__` and `_join` as they were, reading the declaration
# the contraction compiled, over tables of `CycNum` values that it groups
# itself.  The reference for tests/test_contraction.py.

def _cycnum_rows(spec: AlgebraSpec, tensor: str, positions: tuple) -> dict:
    """The entries of `tensor` grouped by their indices at `positions`:
    {bound: [(key, CycNum), ...]}, each list in entry order."""
    entries = ({(mu,): v for mu, v in spec.eps.items()} if tensor == "eps"
               else getattr(spec, tensor))
    table = {}
    for key, val in entries.items():
        table.setdefault(tuple(key[p] for p in positions), []).append((key, val))
    return table


def ref_contract(contraction, spec: AlgebraSpec, acc=None) -> dict:
    """{out key: value} of `contraction` over the tensors of `spec`, added
    into `acc`, multiplying one factor at a time."""
    acc = {} if acc is None else acc
    tables = [_cycnum_rows(spec, tensor, bound) for tensor, bound in contraction._tables]
    phase = None
    if contraction._phase_depth is not None:
        negate, powers = contraction._phase
        key_of, bichar = contraction._phase_key, spec.bichar
        cache = {}

        def phase(env):
            degs = tuple(spec.degrees[i] for i in key_of(env))
            value = cache.get(degs)
            if value is None:
                value = reduce(mul, [bichar.phase(degs[2 * i], degs[2 * i + 1], power)
                                     for i, power in enumerate(powers)])
                value = cache[degs] = -value if negate else value
            return value

    def join(depth, entries, partial, env):
        new = contraction._steps[depth][1]
        last = depth + 1 == len(tables)
        with_phase = depth == contraction._phase_depth
        if not last:
            table, lookup = tables[depth + 1], contraction._steps[depth + 1][0]
        for key, val in entries:
            indices = env + new(key)
            if not last:
                below = table.get(lookup(indices))
                if not below:
                    continue
            term = val if partial is None else partial * val
            if with_phase:
                term = term * phase(indices)
            if last:
                accumulate(acc, contraction._out(indices), term)
            else:
                join(depth + 1, below, term, indices)

    join(0, tables[0].get((), ()), None, ())
    return acc
