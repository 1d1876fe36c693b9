"""Enveloping-algebra relations and the rewriting engine for normal forms.

From a verified `AlgebraSpec` the enveloping algebra is presented by one
quadratic relation per ordered generator pair,

    x^mu x^nu  =  sum  beta(p(b), p(nu)) d^mu_{a,b} c^{a,nu}_g  x^g x^b,

a quasi-commutation: the right side is the swapped pair plus strictly
smaller words.  `build_rewrite_system` orients these into terminating
rules and derives the forced consequences:

  * if x y = L y x and y x = L' x y with L L' != 1, both products are zero
    (the pair is "inconsistent", so it collapses);
  * if x x = L x x with L != 1, x is nilpotent of order two.

The derived zero pairs and nilpotents are consequences of the relations,
never inputs.  Words reduce to a unique normal form once the local
confluence check passes; the check is a brute-force diamond test over all
words up to a degree cap, which at these dimensions is a proof.

Quotients by a central grouplike element (setting it equal to 1) are
mechanised by `quotient_by_central_grouplike`: the largest word of the
element becomes reducible and the system is re-closed by a small
completion loop.  The operation is best-effort and flagged experimental;
it raises if the closure does not stabilise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraSpec, verify_all
from .cyclotomic import CycNum
from .sparse import LinComb, accumulate, nonzero

__all__ = [
    "NCPoly",
    "TensorSquarePoly",
    "QuadRelation",
    "Rule",
    "RewriteSystem",
    "ConfluenceReport",
    "RelationShapeError",
    "UnverifiedSpecError",
    "CompletionError",
    "generate_relations",
    "build_rewrite_system",
    "delta_on_products",
    "counit_on_poly",
    "is_grouplike",
    "quotient_by_central_grouplike",
]


class RelationShapeError(ValueError):
    """A relation falls outside the quasi-commutation shape the engine
    supports; carries the offending generator pair."""

    def __init__(self, pair, message):
        self.pair = pair
        super().__init__(f"relation for pair {pair}: {message}")


class UnverifiedSpecError(ValueError):
    """Relations were requested for a spec that fails verification."""


class CompletionError(RuntimeError):
    """The experimental quotient closure did not stabilise."""


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
class QuadRelation:
    """x^mu x^nu = sum over (gamma, beta) of coeff * x^gamma x^beta."""

    lhs: tuple
    rhs: dict = field(compare=False)


def generate_relations(spec: AlgebraSpec, force: bool = False):
    """The quadratic presentation of the enveloping algebra, one relation
    per ordered generator pair, in lexicographic pair order.

    Refuses unverified specs unless `force` is set (experimentation flag).
    """
    if not force and not verify_all(spec).passed:
        raise UnverifiedSpecError(
            "spec fails verification; pass force=True to generate relations anyway")
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
                ph = spec.phase(p[beta], p[nu]) * dv
                for (gamma, cv) in crow:
                    accumulate(rhs, (gamma, beta), ph * cv)
            relations.append(QuadRelation((mu, nu), nonzero(rhs)))
    return relations


@dataclass(frozen=True)
class Rule:
    """Oriented rewrite lhs -> rhs with lhs strictly larger in the order."""

    lhs: tuple
    rhs: NCPoly


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
    """Oriented quasi-commutation rules plus derived zero/nilpotent data.

    `order` maps generator index -> rank; words compare by length first,
    then lexicographically on ranks.  Rules may have length-1 or length-2
    left sides (length-1 rules appear only after quotient substitutions).

    `normal_form` memoises the normal form of every single word it reduces
    with coefficient 1 in `_nf_cache`, an unbounded per-instance dict that
    is never evicted; it lives as long as the system does.
    """

    def __init__(self, ngens: int, rules, order=None, labels=None):
        self.ngens = ngens
        if order is None:
            order = tuple(range(ngens))
        if sorted(order) != list(range(ngens)):
            raise ValueError("generator order must be a permutation of all indices")
        # order lists generator indices from smallest to largest
        self.order = tuple(order)
        self.rank = {g: i for i, g in enumerate(order)}
        self.labels = tuple(labels) if labels else tuple(f"x{g}" for g in range(ngens))
        self.rules = list(rules)
        self._index = {}
        for rule in self.rules:
            self._index.setdefault(rule.lhs, []).append(rule)
        self._nf_cache = {}

    # -- word order --------------------------------------------------------

    def word_key(self, word):
        return (len(word), tuple(self.rank[g] for g in word))

    def word_less(self, a, b) -> bool:
        return self.word_key(a) < self.word_key(b)

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

    def _leftmost_redex(self, word):
        for i in range(len(word)):
            if word[i : i + 1] in self._index:
                return i, 1
            if i + 1 < len(word) and word[i : i + 2] in self._index:
                return i, 2
        return None

    def normal_form(self, poly: NCPoly, _max_steps: int = 2_000_000) -> NCPoly:
        """Rewrite to normal form; unique when the system is confluent."""
        if isinstance(poly, (tuple, list)):
            poly = NCPoly.word(poly)
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
            hit = self._leftmost_redex(word)
            if hit is None:
                accumulate(result, word, coeff)
                continue
            steps += 1
            if steps > _max_steps:
                raise CompletionError("rewriting exceeded the step budget")
            i, width = hit
            rule = self._index[word[i : i + width]][0]
            prefix, suffix = word[:i], word[i + width :]
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
        reducts = []
        for i in range(len(word)):
            for width in (1, 2):
                key = word[i : i + width]
                if len(key) < width:
                    continue
                for rule in self._index.get(key, ()):
                    prefix, suffix = word[:i], word[i + width :]
                    reducts.append(rule.rhs._raw({prefix + w + suffix: v
                                                  for w, v in rule.rhs.terms.items()}))
        return reducts

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

    def is_central(self, poly: NCPoly, generators=None):
        """True iff poly commutes with every generator at normal form;
        returns (flag, witnesses)."""
        if generators is None:
            generators = range(self.ngens)
        witnesses = []
        for g in generators:
            gp = NCPoly.word((g,))
            diff = self.normal_form(poly * gp - gp * poly)
            if not diff.is_zero():
                witnesses.append((g, diff))
        return (not witnesses), witnesses

    def __repr__(self):
        return (f"RewriteSystem({self.ngens} generators, {len(self.rules)} rules, "
                f"{len(self.zero_pairs)} zero pairs, {len(self.nilpotents)} nilpotents)")


def _orient_relations(relations, ngens, order):
    """Turn quasi-commutation relations into oriented rules and derive the
    zero/nilpotent consequences, iterating pruning to a fixpoint."""
    rank = {g: i for i, g in enumerate(order)}

    def pair_key(pair):
        return (rank[pair[0]], rank[pair[1]])

    by_pair = {}
    for rel in relations:
        if len(rel.lhs) != 2:
            raise RelationShapeError(rel.lhs, "only quadratic relations are supported")
        if rel.lhs in by_pair:
            raise RelationShapeError(rel.lhs, "duplicate relation for the pair")
        by_pair[rel.lhs] = dict(rel.rhs)

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


def build_rewrite_system(relations, ngens: int, order=None, labels=None) -> RewriteSystem:
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
    rs = RewriteSystem(ngens, rules, order=order, labels=labels)
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
        rs = RewriteSystem(ngens, new_rules, order=order, labels=labels)
        if not changed:
            break
    return rs


def envelope_of(spec: AlgebraSpec, order=None, force: bool = False) -> RewriteSystem:
    """Relations plus rewrite system for a spec, in one step."""
    rels = generate_relations(spec, force=force)
    return build_rewrite_system(rels, spec.dim, order=order, labels=spec.basis)


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
            total = group.add(total, self.spec.degree_of(g))
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

    def render(self, labels=None) -> str:
        labels = labels or self.spec.basis
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
    if isinstance(poly, (tuple, list)):
        poly = NCPoly.word(poly)
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
# quotient substitution (experimental)
# ---------------------------------------------------------------------------

def quotient_by_central_grouplike(rs: RewriteSystem, poly: NCPoly,
                                  max_rounds: int = 60) -> RewriteSystem:
    """Set a central grouplike element equal to 1 and re-close the system.

    The largest word of the element (in the system's monomial order)
    becomes the left side of a new rule; divergences discovered by the
    brute-force diamond check are oriented into further rules until the
    system is again locally confluent.  Experimental: the re-closure is a
    desk-scale completion, not a general Knuth-Bendix.
    """
    nf = rs.normal_form(poly)
    if nf.is_zero():
        raise ValueError("cannot set a zero element equal to 1")
    central, witnesses = rs.is_central(nf)
    if not central:
        raise ValueError(f"element is not central; witnesses {witnesses[:2]}")
    lead = max(nf.terms, key=rs.word_key)
    coeff = nf.terms[lead]
    rest = nf._raw({w: v for w, v in nf.terms.items() if w != lead})
    # lead -> (1 - rest) / coeff
    new_rhs = (NCPoly.one() - rest).scaled(coeff.inverse())
    for word in new_rhs.terms:
        if not rs.word_less(word, lead) and word != lead:
            raise CompletionError(
                f"substitution for {lead} is not descending (term {word})")
    rules = list(rs.rules) + [Rule(lead, new_rhs)]
    current = RewriteSystem(rs.ngens, rules, order=rs.order, labels=rs.labels)

    max_lhs = max(len(r.lhs) for r in current.rules)
    for _ in range(max_rounds):
        # renormalise rule right sides against the current system
        renamed = []
        for rule in current.rules:
            renamed.append(Rule(rule.lhs, current.normal_form(rule.rhs)))
        current = RewriteSystem(rs.ngens, renamed, order=rs.order, labels=rs.labels)
        report = current.check_local_confluence(degree_cap=max(3, max_lhs + 1))
        if report.confluent:
            return current
        word, forms = report.divergences[0]
        diff = forms[0] - forms[1]
        lead = max(diff.terms, key=current.word_key)
        coeff = diff.terms[lead]
        rest = diff._raw({w: v for w, v in diff.terms.items() if w != lead})
        rhs = rest.scaled(-(coeff.inverse()))
        rules = list(current.rules) + [Rule(lead, rhs)]
        current = RewriteSystem(rs.ngens, rules, order=rs.order, labels=rs.labels)
    raise CompletionError("quotient closure did not stabilise; the element may "
                          "not admit this mechanised substitution")
