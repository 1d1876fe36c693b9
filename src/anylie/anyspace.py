"""The one-dimensional anyonic line C[t]/t^n and its braided tensor powers.

A single coordinate t of degree 1 satisfies t^n = 0.  Distinct tensor
slots keep their position; moving a later slot past an earlier one picks
up the phase zeta_n, so slot j crossing slot i (j > i) costs zeta_n per
unit exponent pair.  Addition of anyonic variables is the coproduct
t -> t1 + t2; its powers expand with Gaussian binomial coefficients, and
[n,k] at zeta_n vanishing is exactly what kills (t1 + t2)^n.

Calculus: the braided derivative acts on monomials by the q-integer rule
d(t^k) = [k]_q t^(k-1) with q = zeta_n, and integration picks out the
coefficient of the top power t^(n-1).

The antipode on monomials uses the closed form
S(t^k) = (-1)^k zeta_n^(k(k-1)/2) t^k, the phases accumulated by
reversing k strands; the test suite checks it against a recursive
expansion from the antipode law and property-tests the law itself.
"""

from __future__ import annotations

import re

from .cyclotomic import CycNum, checked_integers, q_integer, root_of_unity
from .expr import ExprError, parse_expr
from .sparse import LinComb, accumulate, nonzero

__all__ = [
    "ThetaPoly",
    "coproduct",
    "counit",
    "antipode",
    "braided_derivative",
    "braided_integral",
    "parse_theta_expr",
    "ExprError",
]


class ThetaPoly(LinComb):
    """Element of the m-fold braided tensor power of C[t]/t^n.

    Terms map exponent tuples (e1..em), all entries < n, to coefficients;
    monomials with any exponent >= n are annihilated on construction.
    """

    __slots__ = ("n", "vars")
    _context = ("n", "vars")

    def __init__(self, n: int, vars: int, terms=()):
        n, vars = checked_integers((n, vars), "modulus n and slot count")
        if n < 1:
            raise ValueError("modulus n must be >= 1")
        if vars < 1:
            raise ValueError("need at least one tensor slot")
        self.n = n
        self.vars = vars
        out = {}
        for exps, val in dict(terms).items():
            exps = checked_integers(exps, "exponents")
            if len(exps) != vars:
                raise ValueError(f"exponent tuple {exps} does not have {vars} slots")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponents are not allowed")
            if any(e >= n for e in exps):
                continue  # t^n = 0
            accumulate(out, exps, CycNum.promote(val))
        self.terms = nonzero(out)

    @classmethod
    def zero(cls, n: int, vars: int = 1) -> "ThetaPoly":
        return cls(n, vars)

    @classmethod
    def one(cls, n: int, vars: int = 1) -> "ThetaPoly":
        return cls(n, vars, {(0,) * vars: CycNum.one()})

    @classmethod
    def theta(cls, n: int, vars: int = 1, slot: int = 1) -> "ThetaPoly":
        """The coordinate of the given slot (1-based)."""
        if not 1 <= slot <= vars:
            raise ValueError(f"slot {slot} outside 1..{vars}")
        exps = tuple(1 if i == slot - 1 else 0 for i in range(vars))
        return cls(n, vars, {exps: CycNum.one()})

    @classmethod
    def monomial(cls, n: int, exps, coeff=1) -> "ThetaPoly":
        exps = tuple(exps)
        return cls(n, len(exps), {exps: coeff})

    def _shape(self):
        return (self.n, self.vars)

    def _times(self, a, b):
        """Braided product of monomials: slots stay ordered, and each unit
        of slot j in a crossing a unit of slot i < j in b costs zeta_n."""
        n = self.n
        exps = tuple(x + y for x, y in zip(a, b))
        if any(e >= n for e in exps):
            return None, None
        crossings = sum(a[j] * b[i] for j in range(1, len(a)) if a[j] for i in range(j))
        return exps, (root_of_unity(n, crossings) if crossings % n else None)

    # an own entry, so that tools hooking methods by class attribute find it
    __mul__ = LinComb.__mul__

    def _unit_key(self):
        return (0,) * self.vars

    def render(self) -> str:
        def monomial(exps):
            factors = [f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(exps) if e]
            return "*" + ("*".join(factors) or "1")
        return self._render(monomial)

    def __repr__(self):
        return f"ThetaPoly[n={self.n}]({self.render()})"


def coproduct(p: ThetaPoly) -> ThetaPoly:
    """Additive coproduct t -> t1 + t2 extended as an algebra map into the
    braided tensor square."""
    if p.vars != 1:
        raise ValueError("coproduct is defined on the one-variable line")
    n = p.n
    tsum = ThetaPoly(n, 2, {(1, 0): CycNum.one(), (0, 1): CycNum.one()})
    out = ThetaPoly.zero(n, 2)
    powers = ThetaPoly.one(n, 2)
    by_exp = {k[0]: v for k, v in p.terms.items()}
    top = max(by_exp, default=0)
    for k in range(top + 1):
        if k in by_exp:
            out = out + powers.scaled(by_exp[k])
        powers = powers * tsum
    return out


def counit(p: ThetaPoly) -> CycNum:
    """Evaluation at all slots = 0: the constant coefficient."""
    return p.coefficient((0,) * p.vars)


def antipode(p: ThetaPoly) -> ThetaPoly:
    """S(t^k) = (-1)^k zeta_n^(k(k-1)/2) t^k."""
    if p.vars != 1:
        raise ValueError("antipode is defined on the one-variable line")
    return p._raw(nonzero({(k,): root_of_unity(p.n, k * (k - 1) // 2) * (-v if k % 2 else v)
                           for (k,), v in p.terms.items()}))


def braided_derivative(p: ThetaPoly) -> ThetaPoly:
    """d(t^k) = [k]_q t^(k-1) with q = zeta_n, extended linearly."""
    if p.vars != 1:
        raise ValueError("the derivative acts on the one-variable line")
    q = root_of_unity(p.n, 1)
    return p._raw(nonzero({(k - 1,): q_integer(k, q) * val
                           for (k,), val in p.terms.items() if k}))


def braided_integral(p: ThetaPoly) -> CycNum:
    """Berezin-style integral: the coefficient of t^(n-1)."""
    if p.vars != 1:
        raise ValueError("the integral acts on the one-variable line")
    return p.coefficient((p.n - 1,))


# ---------------------------------------------------------------------------
# command-line expressions in t1..tm
# ---------------------------------------------------------------------------

_VAR = re.compile(r"t(\d+)")

# Tensor slots an expression may span.  Every term holds one exponent per
# slot, so this bounds each tuple before one is built; the tests, goldens
# and benchmark commands use at most 3.
MAX_SLOTS = 64


def _slot(digits: str) -> int:
    """The slot that a variable's index names; an index with more digits
    than `MAX_SLOTS` reads as MAX_SLOTS + 1 without `int`, which refuses
    strings past Python's conversion limit (4,300 digits)."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(MAX_SLOTS)) else MAX_SLOTS + 1


def parse_theta_expr(src: str, n: int, vars: int = None) -> ThetaPoly:
    """Read an expression in t1..tm in the grammar of `anylie.expr`.

    If `vars` is omitted, the number of slots is the largest variable
    index that appears (at least 1).  More than `MAX_SLOTS` slots raise
    `ExprError`, naming `--vars` or the variable that asks for them.
    """
    given = vars is not None
    if not given:
        widest = max(_VAR.findall(src), key=_slot, default="1")
        vars = max(1, _slot(widest))
    if vars > MAX_SLOTS:
        what = f"--vars {vars}" if given else f"variable t{widest} in {src!r}"
        raise ExprError(f"{what} asks for more than {MAX_SLOTS} tensor slots")

    def read_var(text, pos):
        match = _VAR.match(text, pos)
        if match is None:
            return None
        slot = _slot(match.group(1))
        if not 1 <= slot <= vars:
            raise ExprError(f"variable t{match.group(1)} outside 1..{vars} in {text!r}")
        return ThetaPoly.theta(n, vars, slot), match.end()

    return parse_expr(src, ThetaPoly.one(n, vars), read_var)
