"""Helpers that only the tests use: independent oracles and small
conveniences kept out of the library."""

import cmath
from fractions import Fraction
from math import gcd

from anylie.algebra import AlgebraSpec, Element, SpecFormatError
from anylie.anyspace import ExprError, ThetaPoly
from anylie.cli import _match_label
from anylie.cyclotomic import CycNum, cyclotomic_polynomial, q_binomial, root_of_unity
from anylie.envelope import NCPoly, RewriteSystem, Rule
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


def homogeneous_degree(el: Element, spec):
    """The common degree of the support, or None for mixed/zero."""
    degs = {spec.degrees[mu] for mu in el.terms}
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
