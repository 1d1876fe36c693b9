"""Helpers that only the tests use: independent oracles and small
conveniences kept out of the library."""

import cmath
from math import gcd

from anylie.algebra import Element
from anylie.anyspace import ThetaPoly
from anylie.cyclotomic import CycNum, q_binomial, root_of_unity


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
