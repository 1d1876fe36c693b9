"""Helpers that only the tests use: independent oracles and small
conveniences kept out of the library."""

import cmath
from math import gcd

from anylie.algebra import Element
from anylie.anyspace import ThetaPoly
from anylie.cyclotomic import CycNum, q_binomial, root_of_unity
from anylie.envelope import NCPoly, RelationShapeError, RewriteSystem, Rule
from anylie.sparse import accumulate, nonzero


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


def homogeneous_degree(el: Element, spec):
    """The common degree of the support, or None for mixed/zero."""
    degs = {spec.degree_of(mu) for mu in el.terms}
    return degs.pop() if len(degs) == 1 else None


def widened(p: ThetaPoly, vars: int, offset: int = 0) -> ThetaPoly:
    """Re-embed into a larger tensor power, shifting slots by offset."""
    assert vars >= p.vars + offset
    out = {}
    for exps, val in p.terms.items():
        new = [0] * vars
        new[offset:offset + p.vars] = exps
        out[tuple(new)] = val
    return ThetaPoly(p.n, vars, out)


# The enveloping-algebra orientation that elimination replaced: pair by
# pair, with shape checks, then right sides pruned against the finished
# system to a fixpoint.  Kept unchanged as the reference for
# tests/test_rewrite_engine.py.

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


def build_rewrite_system_pairwise(relations, ngens: int, order=None,
                                  labels=None) -> RewriteSystem:
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
