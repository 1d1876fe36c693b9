"""Enveloping-algebra relations and the rewriting engine for normal forms.

From an `AlgebraSpec` the enveloping algebra is presented by one
quadratic relation per ordered generator pair,

    x^mu x^nu  =  sum  beta(p(b), p(nu)) d^mu_{a,b} c^{a,nu}_g  x^g x^b,

a quasi-commutation: the right side is the swapped pair plus strictly
smaller words.  It presents the enveloping algebra only when the spec
passes `verify_all`.  Nothing here checks that: the caller decides, and
the command line refuses an unverified spec unless `--force` is given.
`build_rewrite_system` orients relations of any width by Gauss-Jordan
elimination, with each pivot at the largest word of its row in a deg-lex
word order; the reduced basis is the rule set.  The forced consequences
come out as rules with right side 0:

  * if x y = L y x and y x = L' x y with L L' != 1, both products are zero
    (the pair is "inconsistent", so it collapses);
  * if x x = L x x with L != 1, x is nilpotent of order two.

The derived zero pairs and nilpotents are consequences of the relations,
never inputs.  Words reduce to a unique normal form once the system is
confluent.  `check_critical_pairs` decides that at all degrees from the
overlap and inclusion ambiguities of the rules (Bergman's diamond lemma);
`check_local_confluence` is a brute-force diamond test over all words up
to a degree cap.

Quotients by a central grouplike element (setting it equal to 1) are
closed by `quotient_by_central_grouplike`: the relation element - 1 joins
the rules through the same elimination, and critical pairs are resolved
until none diverges (Knuth-Bendix completion), which proves the result
confluent.  Completion need not terminate, so it gives up with
`CompletionError` after `MAX_ROUNDS` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraSpec
from .cyclotomic import CycNum
from .sparse import LinComb, accumulate, nonzero

__all__ = [
    "NCPoly",
    "TensorSquarePoly",
    "Rule",
    "RewriteSystem",
    "ConfluenceReport",
    "CompletionError",
    "generate_relations",
    "build_rewrite_system",
    "delta_on_products",
    "counit_on_poly",
    "is_grouplike",
    "quotient_by_central_grouplike",
]

# Rounds of critical pairs a quotient closure may take.  The closures in
# the tests and the README finish in at most 6; an endless family such as
# x_a x_b^k x_c -> 0 adds one width per round, and each round costs more.
MAX_ROUNDS = 16

# Rewrite steps one `normal_form` call may take before it gives up with
# `CompletionError`: a guard against rules that do not descend.
MAX_STEPS = 2_000_000


class CompletionError(RuntimeError):
    """Rewriting or a quotient closure did not finish, or normal forms are not unique."""


class NCPoly(LinComb):
    """Noncommutative polynomial: sparse map word -> coefficient.

    Words are tuples of generator indices; the empty word is the unit.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        self.terms = nonzero({tuple(word): CycNum.promote(val)
                              for word, val in dict(terms).items()})

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({(): CycNum.one()})

    @classmethod
    def word(cls, letters, coeff=1) -> "NCPoly":
        return cls({tuple(letters): coeff})

    def _unit_key(self):
        return ()

    def __mul__(self, other):
        if isinstance(other, (int, CycNum)):
            return self.scaled(other)
        out = {}
        for w1, v1 in self.terms.items():
            for w2, v2 in other.terms.items():
                accumulate(out, w1 + w2, v1 * v2)
        return self._raw(nonzero(out))

    def render(self, labels=None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            name = "1" if not word else "*".join(
                labels[g] if labels else f"x{g}" for g in word)
            parts.append(f"({coeff})*{name}" if name != "1" else f"({coeff})")
        return " + ".join(parts)

    def __repr__(self):
        return f"NCPoly({self.render()})"


@dataclass(frozen=True)
class Rule:
    """lhs = rhs: a relation, or, once oriented, the rewrite lhs -> rhs
    with lhs strictly larger in the order."""

    lhs: tuple
    rhs: NCPoly


def generate_relations(spec: AlgebraSpec):
    """The quadratic presentation of the enveloping algebra, one relation
    x^mu x^nu = rhs per ordered generator pair, in lexicographic pair order."""
    p = spec.degrees
    relations = []
    for mu in range(spec.dim):
        row = spec._d_rows.get(mu, ())
        for nu in range(spec.dim):
            rhs = {}
            for (alpha, beta, dv) in row:
                crow = spec._c_by_pair.get((alpha, nu))
                if not crow:
                    continue
                ph = spec.bichar.phase(p[beta], p[nu]) * dv
                for (gamma, cv) in crow:
                    accumulate(rhs, (gamma, beta), ph * cv)
            relations.append(Rule((mu, nu), NCPoly(rhs)))
    return relations


@dataclass
class ConfluenceReport:
    confluent: bool
    divergences: list = field(default_factory=list)
    words_checked: int = 0

    def __str__(self):
        if self.confluent:
            return f"locally confluent ({self.words_checked} words checked)"
        lines = [f"NOT confluent ({len(self.divergences)} divergent words)"]
        for word, forms in self.divergences[:5]:
            lines.append(f"  word {word}: normal forms {[f.render() for f in forms]}")
        return "\n".join(lines)


class RewriteSystem:
    """Oriented rewrite rules plus derived zero/nilpotent data.

    `order` maps generator index -> rank; words compare by length first,
    then lexicographically on ranks.  This deg-lex order is a well-order
    compatible with concatenation, so a rule set whose right sides lie
    below their left sides terminates.  Left sides may have any positive
    width: the enveloping relations give width 2, quotients add others.

    `normal_form` memoises the normal form of every single word it reduces
    with coefficient 1 in `_nf_cache`, an unbounded per-instance dict that
    is never evicted; it lives as long as the system does.
    """

    def __init__(self, ngens: int, rules, order=None):
        self.ngens = ngens
        if order is None:
            order = tuple(range(ngens))
        if sorted(order) != list(range(ngens)):
            raise ValueError("generator order must be a permutation of all indices")
        # order lists generator indices from smallest to largest
        self.order = tuple(order)
        self.rank = {g: i for i, g in enumerate(order)}
        self.rules = []
        self._index = {}  # each nonempty prefix of a left side -> rules with that lhs
        self._widths = ()  # the lengths of the left sides, ascending
        self._nf_cache = {}
        for rule in rules:
            self._add(rule)

    def _add(self, rule):
        if not rule.lhs:
            raise ValueError("a rule needs a nonempty left side")
        self.rules.append(rule)
        for k in range(1, len(rule.lhs)):
            self._index.setdefault(rule.lhs[:k], [])
        self._index.setdefault(rule.lhs, []).append(rule)
        if len(rule.lhs) not in self._widths:
            self._widths = tuple(sorted(self._widths + (len(rule.lhs),)))
        self._nf_cache.clear()

    # -- word order --------------------------------------------------------

    def word_key(self, word):
        return (len(word), tuple(self.rank[g] for g in word))

    # -- derived sets --------------------------------------------------------

    @property
    def zero_pairs(self) -> set:
        out = set()
        for rule in self.rules:
            if len(rule.lhs) == 2 and rule.lhs[0] != rule.lhs[1] and rule.rhs.is_zero():
                out.add(rule.lhs)
        return out

    @property
    def nilpotents(self) -> set:
        out = set()
        for rule in self.rules:
            if len(rule.lhs) == 2 and rule.lhs[0] == rule.lhs[1] and rule.rhs.is_zero():
                out.add(rule.lhs[0])
        return out

    # -- rewriting -----------------------------------------------------------

    def _redexes(self, word):
        """Every (position, rule) whose left side occurs in the word:
        leftmost position first, narrower left sides first at a position."""
        index, size = self._index, len(word)
        for i in range(size):
            for width in self._widths:
                if i + width > size:
                    break
                rules = index.get(word[i : i + width])
                if rules is None:  # not even a prefix: no wider left side fits
                    break
                for rule in rules:
                    yield i, rule

    def normal_form(self, poly: NCPoly) -> NCPoly:
        """Rewrite to normal form; unique when the system is confluent."""
        result = {}
        stack = list(poly.terms.items())
        steps = 0
        while stack:
            word, coeff = stack.pop()
            cached = self._nf_cache.get(word)
            if cached is not None:
                for w, v in cached.terms.items():
                    accumulate(result, w, coeff * v)
                continue
            for i, rule in self._redexes(word):
                break
            else:
                accumulate(result, word, coeff)
                continue
            steps += 1
            if steps > MAX_STEPS:
                raise CompletionError("rewriting exceeded the step budget")
            prefix, suffix = word[:i], word[i + len(rule.lhs) :]
            for w, v in rule.rhs.terms.items():
                stack.append((prefix + w + suffix, coeff * v))
        out = poly._raw(nonzero(result))
        if len(poly.terms) == 1:
            ((word, coeff),) = poly.terms.items()
            if coeff.is_one():
                self._nf_cache[word] = out
        return out

    def nf_word(self, word) -> NCPoly:
        return self.normal_form(NCPoly.word(word))

    def _one_step_reducts(self, word):
        """Every single rewrite of the word, over all positions and rules."""
        return [_placed(word[:i], rule.rhs, word[i + len(rule.lhs) :])
                for i, rule in self._redexes(word)]

    def critical_pairs(self):
        """Bergman's ambiguities as (word, reduct, reduct): each inclusion,
        where one left side occurs inside another, and each overlap, where
        a proper suffix of one left side is a proper prefix of another."""
        by_prefix = {}
        for rule in self.rules:
            for k in range(1, len(rule.lhs)):
                by_prefix.setdefault(rule.lhs[:k], []).append(rule)
        pairs = []
        for rule in self.rules:
            lhs = rule.lhs
            for i, other in self._redexes(lhs):
                if other is not rule:
                    pairs.append((lhs, rule.rhs,
                                  _placed(lhs[:i], other.rhs, lhs[i + len(other.lhs) :])))
            for k in range(1, len(lhs)):
                for other in by_prefix.get(lhs[-k:], ()):
                    tail = other.lhs[k:]
                    pairs.append((lhs + tail, _placed((), rule.rhs, tail),
                                  _placed(lhs[:-k], other.rhs, ())))
        return pairs

    def check_critical_pairs(self) -> ConfluenceReport:
        """Normal-form both reducts of every critical pair.  For rules that
        descend in the word order this decides confluence at all degrees
        (Bergman's diamond lemma); `words_checked` counts the pairs."""
        divergences = []
        pairs = self.critical_pairs()
        for word, left, right in pairs:
            if left.is_zero() and right.is_zero():  # resolved: most overlaps of zero products
                continue
            forms = [self.normal_form(left), self.normal_form(right)]
            if forms[0] != forms[1]:
                divergences.append((word, forms))
        return ConfluenceReport(not divergences, divergences, len(pairs))

    def check_local_confluence(self, degree_cap: int = 4) -> ConfluenceReport:
        """Reduce every word of length <= degree_cap along every one-step
        choice and compare the resulting normal forms."""
        if degree_cap < 3:
            raise ValueError("degree_cap must be >= 3 to see overlaps")
        from itertools import product as iproduct

        divergences = []
        checked = 0
        for length in range(2, degree_cap + 1):
            for word in iproduct(range(self.ngens), repeat=length):
                checked += 1
                forms = []
                for reduct in self._one_step_reducts(word):
                    nf = self.normal_form(reduct)
                    if all(nf != f for f in forms):
                        forms.append(nf)
                if len(forms) > 1:
                    divergences.append((word, forms))
        return ConfluenceReport(not divergences, divergences, checked)

    # -- algebraic queries ----------------------------------------------------

    def is_central(self, poly: NCPoly):
        """True iff poly commutes with every generator at normal form;
        returns (flag, witnesses)."""
        witnesses = []
        for g in range(self.ngens):
            gp = NCPoly.word((g,))
            diff = self.normal_form(poly * gp - gp * poly)
            if not diff.is_zero():
                witnesses.append((g, diff))
        return (not witnesses), witnesses

    def __repr__(self):
        return (f"RewriteSystem({self.ngens} generators, {len(self.rules)} rules, "
                f"{len(self.zero_pairs)} zero pairs, {len(self.nilpotents)} nilpotents)")


def _placed(prefix, poly: NCPoly, suffix) -> NCPoly:
    """prefix * poly * suffix for words prefix and suffix."""
    return poly._raw({prefix + w + suffix: v for w, v in poly.terms.items()})


def _orient(row: NCPoly, word_key) -> Rule:
    """Solve row = 0 for its largest word: the rule lead -> rhs, with every
    word of rhs below lead."""
    lead = max(row.terms, key=word_key)
    if not lead:
        raise CompletionError("the relations imply 1 = 0")
    coeff = row.terms[lead]
    rest = row._raw({w: v for w, v in row.terms.items() if w != lead})
    if coeff.is_one() or not rest.terms:
        return Rule(lead, -rest)
    return Rule(lead, rest.scaled(-coeff.inverse()))


def _eliminate(system: RewriteSystem, rows) -> RewriteSystem:
    """`system` extended by the relations row = 0, interreduced.

    Gauss-Jordan elimination over words: each row, in the given order, is
    reduced by the rules so far and oriented at its largest word.  Then
    every right side is brought to normal form.  For quadratic rows added
    to an empty system the result is the reduced row-echelon basis of
    their span, which is unique.
    """
    work = RewriteSystem(system.ngens, system.rules, system.order)
    for row in rows:
        row = work.normal_form(row)
        if not row.is_zero():
            work._add(_orient(row, work.word_key))
    rules = sorted((Rule(r.lhs, work.normal_form(r.rhs)) for r in work.rules),
                   key=lambda r: r.lhs)
    return RewriteSystem(system.ngens, rules, system.order)


def build_rewrite_system(relations, ngens: int, order=None) -> RewriteSystem:
    """Orient relations lhs = rhs, of any width, into the reduced rule set
    of their span.

    Zero pairs and nilpotents come out as rules with right side 0.  The
    relations are taken from the largest left side down.  `order` is the
    generator order (default: spec order).
    """
    empty = RewriteSystem(ngens, (), order)
    rows = [NCPoly.word(rel.lhs) - rel.rhs
            for rel in sorted(relations, key=lambda rel: empty.word_key(rel.lhs), reverse=True)]
    return _eliminate(empty, rows)


# ---------------------------------------------------------------------------
# coproduct on products
# ---------------------------------------------------------------------------

class TensorSquarePoly(LinComb):
    """Element of U (x) U with the braided product: legs cross with the
    bicharacter phase of their degrees."""

    __slots__ = ("spec",)
    _context = ("spec",)

    def __init__(self, spec: AlgebraSpec, terms=()):
        self.spec = spec
        self.terms = nonzero({(tuple(w1), tuple(w2)): CycNum.promote(val)
                              for (w1, w2), val in dict(terms).items()})

    @classmethod
    def unit(cls, spec) -> "TensorSquarePoly":
        return cls(spec, {((), ()): CycNum.one()})

    def word_degree(self, word):
        group = self.spec.group
        total = group.zero()
        for g in word:
            total = group.add(total, self.spec.degrees[g])
        return total

    def __mul__(self, other):
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

    def normalized(self, rs: RewriteSystem) -> "TensorSquarePoly":
        out = {}
        for (w1, w2), val in self.terms.items():
            nf1 = rs.nf_word(w1)
            nf2 = rs.nf_word(w2)
            for u1, v1 in nf1.terms.items():
                for u2, v2 in nf2.terms.items():
                    accumulate(out, (u1, u2), val * v1 * v2)
        return self._raw(nonzero(out))

    def render(self) -> str:
        labels = self.spec.basis
        if not self.terms:
            return "0"
        def name(word):
            return "1" if not word else "*".join(labels[g] for g in word)
        parts = []
        for (w1, w2) in sorted(self.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
            parts.append(f"({self.terms[(w1, w2)]})*{name(w1)}(x){name(w2)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TensorSquarePoly({self.render()})"


def delta_on_products(spec: AlgebraSpec, rs: RewriteSystem, poly: NCPoly) -> TensorSquarePoly:
    """Extend the coproduct multiplicatively to U with the braided crossing
    phase; both tensor legs are returned in normal form."""
    total = TensorSquarePoly(spec)
    for word, coeff in poly.terms.items():
        acc = TensorSquarePoly.unit(spec)
        for g in word:
            factor = TensorSquarePoly(
                spec, {((nu,), (rho,)): val for (nu, rho, val) in spec._d_rows.get(g, ())})
            acc = acc * factor
        total = total + acc.scaled(coeff)
    return total.normalized(rs)


def counit_on_poly(spec: AlgebraSpec, poly: NCPoly) -> CycNum:
    """The counit extended multiplicatively to words."""
    total = CycNum.zero()
    for word, coeff in poly.terms.items():
        val = coeff
        for g in word:
            e = spec.eps.get(g)
            if e is None:
                val = CycNum.zero()
                break
            val = val * e
        total = total + val
    return total


def is_grouplike(spec: AlgebraSpec, rs: RewriteSystem, poly: NCPoly) -> bool:
    """delta(p) = p (x) p at normal form and eps(p) = 1."""
    nf = rs.normal_form(poly)
    delta = delta_on_products(spec, rs, nf)
    square = TensorSquarePoly(
        spec, {(w1, w2): v1 * v2 for w1, v1 in nf.terms.items()
               for w2, v2 in nf.terms.items()})
    return delta == square.normalized(rs) and counit_on_poly(spec, nf).is_one()


# ---------------------------------------------------------------------------
# quotient by a central grouplike element
# ---------------------------------------------------------------------------

def quotient_by_central_grouplike(rs: RewriteSystem, poly: NCPoly) -> RewriteSystem:
    """Set a central grouplike element equal to 1 and re-close the system.

    The relation poly - 1 joins the rules of `rs` through the same
    elimination that builds them.  Each round then normal-forms both
    reducts of every critical pair and adds each difference as a relation.
    The loop stops when no pair diverges, which proves the result
    confluent at all degrees when the rules of `rs` descend in its word
    order, as those of `build_rewrite_system` do.  Raises `CompletionError` if that takes
    more than `MAX_ROUNDS` rounds: completion need not terminate.
    """
    nf = rs.normal_form(poly)
    if nf.is_zero():
        raise ValueError("cannot set a zero element equal to 1")
    central, witnesses = rs.is_central(nf)
    if not central:
        raise ValueError(f"element is not central; witnesses {witnesses[:2]}")
    rows = [nf - NCPoly.one()]
    current = rs
    for _ in range(MAX_ROUNDS):
        current = _eliminate(current, rows)
        report = current.check_critical_pairs()
        if report.confluent:
            return current
        rows = [left - right for _, (left, right) in report.divergences]
    raise CompletionError(f"quotient closure did not close in {MAX_ROUNDS} rounds "
                          "of critical pairs; completion may not terminate here")
