import random

import pytest

from anylie.anyspace import (ExprError, ThetaPoly, antipode, braided_derivative,
                             braided_integral, coproduct, counit, parse_theta_expr)
from anylie.cyclotomic import CycNum, q_binomial, q_integer, root_of_unity

from conftest import ONE, random_cyc, z
from reference import antipode_recursive, widened


def t(n, vars=1, slot=1):
    return ThetaPoly.theta(n, vars, slot)


def test_truncation_on_construction():
    assert ThetaPoly(3, 1, {(3,): 1}).is_zero()
    assert ThetaPoly(3, 1, {(2,): 1}).coefficient((2,)) == 1
    with pytest.raises(ValueError):
        ThetaPoly(3, 1, {(-1,): 1})
    with pytest.raises(ValueError):
        ThetaPoly(0, 1, {})


def test_braided_multiplication():
    t1, t2 = t(3, 2, 1), t(3, 2, 2)
    assert t2 * t1 == ThetaPoly(3, 2, {(1, 1): z(3)})
    assert t1 * t2 == ThetaPoly(3, 2, {(1, 1): ONE})
    th = t(3)
    assert (th * (th * th)).is_zero()
    assert ThetaPoly.one(3, 2) * t1 == t1
    assert t1 * ThetaPoly.one(3, 2) == t1


def test_mul_shape_mismatch():
    with pytest.raises(ValueError):
        t(3, 1) * t(3, 2, 1)
    with pytest.raises(ValueError):
        t(3, 1) * t(4, 1)


def test_crossing_phase_accumulates_with_exponents():
    # moving t2^2 (left factor) past t1 (right factor) costs two crossings
    left = ThetaPoly.monomial(5, (0, 2))
    right = ThetaPoly.monomial(5, (1, 0))
    assert left * right == ThetaPoly(5, 2, {(1, 2): z(5, 2)})


def test_coproduct_examples():
    th = t(3)
    assert coproduct(th) == ThetaPoly(3, 2, {(1, 0): ONE, (0, 1): ONE})
    assert coproduct(th * th) == ThetaPoly(
        3, 2, {(2, 0): ONE, (1, 1): 1 + z(3), (0, 2): ONE})
    assert coproduct(th) ** 3 == ThetaPoly.zero(3, 2)
    assert coproduct(ThetaPoly.one(3)) == ThetaPoly.one(3, 2)
    with pytest.raises(ValueError):
        coproduct(ThetaPoly.one(3, 2))


def test_counit():
    assert counit(ThetaPoly.one(3) + t(3).scaled(2)) == 1
    assert counit(ThetaPoly.monomial(4, (3,))) == 0
    assert (counit(coproduct(t(3)) ** 2)).is_zero()


def test_antipode_examples():
    th = t(3)
    assert antipode(th) == -th
    assert antipode(ThetaPoly.one(3)) == ThetaPoly.one(3)
    assert antipode(th * th) == (th * th).scaled(z(3))


def test_antipode_closed_form_matches_recursion():
    for n in range(2, 9):
        for k in range(n):
            mono = ThetaPoly.monomial(n, (k,))
            assert antipode(mono) == antipode_recursive(mono), (n, k)


def antipode_side(n, k, which):
    """m o (S x id) o Delta or its mirror on t^k, computed from scratch."""
    mono = ThetaPoly.monomial(n, (k,))
    out = ThetaPoly.zero(n, 1)
    for (i, j), v in coproduct(mono).terms.items():
        left = ThetaPoly.monomial(n, (i,))
        right = ThetaPoly.monomial(n, (j,))
        if which == "left":
            out = out + (antipode(left) * right).scaled(v)
        else:
            out = out + (left * antipode(right)).scaled(v)
    return out


def test_antipode_law_all_monomials():
    for n in range(2, 9):
        for k in range(n):
            want = ThetaPoly.one(n) if k == 0 else ThetaPoly.zero(n, 1)
            assert antipode_side(n, k, "left") == want, (n, k)
            assert antipode_side(n, k, "right") == want, (n, k)


def test_derivative_examples():
    th = t(3)
    assert braided_derivative(th * th) == th.scaled(1 + z(3))
    assert braided_derivative(th) == ThetaPoly.one(3)
    assert braided_derivative(ThetaPoly.one(3)).is_zero()
    assert braided_derivative(ThetaPoly(3, 1, {})).is_zero()


def difference_quotient(p):
    """The defining difference quotient (f(t) - f(zeta t)) / ((1 - zeta) t),
    evaluated symbolically; independent of the q-integer rule."""
    n = p.n
    zeta = root_of_unity(n, 1)
    shifted = ThetaPoly(n, 1, {k: (zeta ** k[0]) * v for k, v in p.terms.items()})
    diff = p - shifted
    assert counit(diff).is_zero()  # divisible by t
    inv = (CycNum.one() - zeta).inverse()
    return ThetaPoly(n, 1, {(k[0] - 1,): inv * v
                            for k, v in diff.terms.items() if k[0] >= 1})


def test_derivative_against_difference_quotient():
    rng = random.Random(2)
    for n in range(2, 10):
        for _ in range(8):
            p = ThetaPoly(n, 1, {(k,): rng.randint(-3, 3) for k in range(n)})
            assert braided_derivative(p) == difference_quotient(p), (n, p.render())


def test_derivative_lowers_degree_and_nilpotency():
    for n in range(2, 10):
        p = ThetaPoly(n, 1, {(k,): 1 for k in range(n)})
        for step in range(n):
            p = braided_derivative(p)
        assert p.is_zero()


def test_integral():
    assert braided_integral(ThetaPoly.monomial(4, (3,))) == 1
    assert braided_integral(ThetaPoly.one(3)) == 0
    assert braided_integral(ThetaPoly(3, 1, {(2,): 5, (1,): 1})) == 5
    with pytest.raises(ValueError):
        braided_integral(ThetaPoly.one(3, 2))


def test_additivity_with_q_binomial_coefficients():
    for n in range(2, 13):
        zn = z(n)
        tsum = ThetaPoly(n, 2, {(1, 0): ONE, (0, 1): ONE})
        power = ThetaPoly.one(n, 2)
        for k in range(1, n):
            power = power * tsum
            for (i, j), v in power.terms.items():
                assert v == q_binomial(k, j, zn), (n, k, i, j)
        assert (power * tsum).is_zero(), n


def test_coassociativity_three_fold():
    for n in range(2, 9):
        t1, t2, t3 = (ThetaPoly.theta(n, 3, s) for s in (1, 2, 3))
        for k in range(n):
            dp = coproduct(ThetaPoly.monomial(n, (k,)))
            left = ThetaPoly.zero(n, 3)
            right = ThetaPoly.zero(n, 3)
            for (i, j), v in dp.terms.items():
                left = left + (((t1 + t2) ** i) * (t3 ** j)).scaled(v)
                right = right + ((t1 ** i) * ((t2 + t3) ** j)).scaled(v)
            assert left == right == ((t1 + t2 + t3) ** k), (n, k)


def test_braided_taylor_theorem():
    """f(t1 + t2) = sum_{k<n} t1^k (d^k f)(t2) / [k]_q! with q = zeta_n, on
    random f: the coproduct is the braided Taylor expansion of f, each
    term built from the derivative as it is."""
    rng = random.Random(11)
    for n in range(2, 17):
        q = z(n)
        for _ in range(3):
            f = ThetaPoly(n, 1, {(k,): random_cyc(rng) for k in range(n) if rng.random() < 0.6})
            taylor = ThetaPoly.zero(n, 2)
            derivative, factorial = f, ONE
            for k in range(n):
                if k:
                    derivative = braided_derivative(derivative)
                    factorial = factorial * q_integer(k, q)
                term = ThetaPoly.monomial(n, (k, 0)) * widened(derivative, 2, offset=1)
                taylor = taylor + term.scaled(factorial.inverse())
            assert coproduct(f) == taylor, (n, f)


def test_counit_law():
    for n in range(2, 9):
        for k in range(n):
            dp = coproduct(ThetaPoly.monomial(n, (k,)))
            left = ThetaPoly.zero(n, 1)
            right = ThetaPoly.zero(n, 1)
            for (i, j), v in dp.terms.items():
                if i == 0:
                    left = left + ThetaPoly.monomial(n, (j,)).scaled(v)
                if j == 0:
                    right = right + ThetaPoly.monomial(n, (i,)).scaled(v)
            assert left == right == ThetaPoly.monomial(n, (k,))


def test_widened_embedding():
    p = t(3) * t(3)
    wide = widened(p, 3, offset=1)
    assert wide == ThetaPoly.monomial(3, (0, 2, 0))


def test_parser():
    assert parse_theta_expr("(t1+t2)^3", 3).is_zero()
    assert parse_theta_expr("(t1+t2)^2", 3) == coproduct(ThetaPoly.monomial(3, (2,)))
    assert parse_theta_expr("2*t1 - t1", 5) == t(5)
    assert parse_theta_expr("t1 t1", 4) == ThetaPoly.monomial(4, (2,))
    assert parse_theta_expr("t2*t1", 3) == ThetaPoly(3, 2, {(1, 1): z(3)})
    assert parse_theta_expr("-3", 4, vars=2) == ThetaPoly.one(4, 2).scaled(-3)
    assert parse_theta_expr("-(t1 - t1) + 1", 2) == ThetaPoly.one(2)


def test_parser_errors():
    for bad in ["t1 +", "t", "(t1", "t1 ^ t1", "q1", "t9", "t1 ) "]:
        with pytest.raises(ExprError):
            parse_theta_expr(bad, 3, vars=2)


def test_render():
    assert ThetaPoly.zero(3, 1).render() == "0"
    assert "t1^2" in (t(3) * t(3)).render()
