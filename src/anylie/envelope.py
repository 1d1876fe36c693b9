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
overlap and inclusion ambiguities of the rules (Bergman's diamond lemma).

Quotients by a central grouplike element (setting it equal to 1) are
closed by `quotient_by_central_grouplike`: the relation element - 1 joins
the rules through the same elimination, and critical pairs are resolved
until none diverges (Knuth-Bendix completion), which proves the result
confluent.  Completion need not terminate, so it gives up with
`CompletionError` after `MAX_ROUNDS` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraSpec, Contraction
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
    "render_word",
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


def render_word(word, labels) -> str:
    """A word as its generator labels joined by '*'; the empty word is 1."""
    return "*".join(labels[g] for g in word) if word else "1"


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

    def _times(self, a, b):
        return a + b, None

    def render(self, labels) -> str:
        return self._render(lambda w: f"*{render_word(w, labels)}" if w else "",
                            lambda w: (len(w), w))

    def __repr__(self):
        return f"NCPoly({self.terms})"


@dataclass(frozen=True)
class Rule:
    """lhs = rhs: a relation, or, once oriented, the rewrite lhs -> rhs
    with lhs strictly larger in the order."""

    lhs: tuple
    rhs: NCPoly


# the right side of x^mu x^nu, keyed (mu, nu, gamma, beta) for x^gamma x^beta
_RELATION = Contraction("d[mab] c[ang]", "mngb", "beta[bn]")


def generate_relations(spec: AlgebraSpec):
    """The quadratic presentation of the enveloping algebra, one relation
    x^mu x^nu = rhs per ordered generator pair, in lexicographic pair order."""
    rhs = {(mu, nu): {} for mu in range(spec.dim) for nu in range(spec.dim)}
    for (mu, nu, gamma, beta), val in _RELATION(spec).items():
        rhs[(mu, nu)][(gamma, beta)] = val
    return [Rule(pair, NCPoly(terms)) for pair, terms in rhs.items()]


@dataclass
class ConfluenceReport:
    confluent: bool
    divergences: list = field(default_factory=list)
    words_checked: int = 0

    def render(self, labels) -> str:
        if self.confluent:
            return f"locally confluent ({self.words_checked} words checked)"
        first = {}  # one row per diverging pair; several pairs can share a word
        for word, forms in self.divergences:
            first.setdefault(word, forms)
        lines = [f"NOT confluent ({len(first)} divergent words)"]
        for word, forms in list(first.items())[:5]:
            lines.append(f"  word {render_word(word, labels)}: normal forms "
                         + "; ".join(f.render(labels) for f in forms))
        return "\n".join(lines)


class RewriteSystem:
    """Oriented rewrite rules plus derived zero/nilpotent data.

    `order` maps generator index -> rank; words compare by length first,
    then lexicographically on ranks.  This deg-lex order is a well-order
    compatible with concatenation, so a rule set whose right sides lie
    below their left sides terminates.  Left sides may have any positive
    width: the enveloping relations give width 2, quotients add others.
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
        return poly._raw(nonzero(result))

    def nf_word(self, word) -> NCPoly:
        return self.normal_form(NCPoly.word(word))

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
    """`system` extended by the relations row = 0.

    Gauss-Jordan elimination over words: each row, in the given order, is
    reduced by the rules so far and oriented at its largest word.  Then
    every right side is brought to normal form.  For quadratic rows added
    to an empty system the result is the reduced row-echelon basis of
    their span, which is unique.  A rule whose left side contains another
    left side is kept (the n=3 determinant quotient has 15 rules where 4
    suffice); ROADMAP item 3 is to drop such rules here.
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

    def _unit_key(self):
        return ((), ())

    def word_degree(self, word):
        group = self.spec.group
        total = group.zero()
        for g in word:
            total = group.add(total, self.spec.degrees[g])
        return total

    def _shape(self):
        return (self.spec.bichar, self.spec.degrees)

    def _times(self, a, b):
        """Braided product: (u1 (x) u2)(v1 (x) v2) =
        beta(|u2|, |v1|) u1 v1 (x) u2 v2."""
        (u1, u2), (v1, v2) = a, b
        phase = self.spec.bichar.phase(self.word_degree(u2), self.word_degree(v1))
        return (u1 + v1, u2 + v2), None if phase.is_one() else phase

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
        return self._render(
            lambda k: f"*{render_word(k[0], labels)}(x){render_word(k[1], labels)}",
            lambda k: (len(k[0]) + len(k[1]), k))

    def __repr__(self):
        return f"TensorSquarePoly({self.render()})"


def delta_on_products(spec: AlgebraSpec, rs: RewriteSystem, poly: NCPoly) -> TensorSquarePoly:
    """Extend the coproduct multiplicatively to U with the braided crossing
    phase; both tensor legs are returned in normal form."""
    legs = {}  # the terms of D(x^mu), by mu
    for (mu, nu, rho), v in spec.d.items():
        legs.setdefault(mu, {})[((nu,), (rho,))] = v
    total = TensorSquarePoly(spec)
    for word, coeff in poly.terms.items():
        acc = TensorSquarePoly(spec) ** 0
        for g in word:
            acc = acc * TensorSquarePoly(spec, legs.get(g, {}))
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


def is_grouplike(spec: AlgebraSpec, rs: RewriteSystem, poly: NCPoly):
    """True iff delta(p) = p (x) p at normal form and eps(p) = 1; returns (flag,
    witnesses): ("delta", delta(p) - p (x) p) if nonzero, ("counit", eps(p)) if not 1."""
    nf = rs.normal_form(poly)
    # p (x) p = (p (x) 1)(1 (x) p): the legs cross as empty words, phase 1
    left = TensorSquarePoly(spec, {(w, ()): v for w, v in nf.terms.items()})
    right = TensorSquarePoly(spec, {((), w): v for w, v in nf.terms.items()})
    witnesses = []
    defect = delta_on_products(spec, rs, nf) - (left * right).normalized(rs)
    if not defect.is_zero():
        witnesses.append(("delta", defect))
    eps = counit_on_poly(spec, nf)
    if not eps.is_one():
        witnesses.append(("counit", eps))
    return (not witnesses), witnesses


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
