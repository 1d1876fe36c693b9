import json
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anylie.cyclotomic import (CycNum, _power_rows, cyclotomic_polynomial, q_binomial,
                               q_integer, root_of_unity)

from conftest import z
from reference import (_reduce_mod_phi, complex_value, euler_phi, inverse_euclid,
                       lifted_by_division, root_by_division)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_phi_matches_degree():
    for m in range(1, 30):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_roots_of_unity_basics():
    assert root_of_unity(1, 5).is_one()
    assert root_of_unity(4, 2) == -1
    assert z(3, 1) + z(3, 2) == -1


def test_root_orders():
    for m in range(1, 13):
        for k in range(m):
            assert (root_of_unity(m, k) ** m).is_one()


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)
    with pytest.raises(ValueError):
        CycNum(0, [1])


def test_arithmetic_worked_examples():
    z3 = z(3)
    assert (1 + z3) * (1 + z3 * z3) == 1
    assert z3 / z3 == 1
    inv = (1 - z3).inverse()
    # oracle: multiplying back must give 1 exactly
    assert inv * (1 - z3) == 1
    assert inv == (2 + z3) / 3


def test_division_by_zero_distinct_error():
    with pytest.raises(ZeroDivisionError):
        z(3) / CycNum.zero(3)
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(1).inverse()


def test_cross_order_equality_through_lcm():
    assert root_of_unity(6, 2) == z(3)
    assert root_of_unity(6, 3) == -1
    assert root_of_unity(8, 2) == root_of_unity(4, 1)
    assert z(3) + root_of_unity(6, 1) != 1
    # arithmetic mixes orders via the lcm embedding
    mixed = z(4) * z(3)
    assert mixed == root_of_unity(12, 7)


def test_declared_order_is_kept():
    # no re-minimisation: z6^2 equals z3 but keeps order 6
    v = root_of_unity(6, 2)
    assert v.order == 6
    assert v == z(3)


def test_powers():
    z5 = z(5)
    assert z5 ** 5 == 1
    assert z5 ** -1 == z5 ** 4
    assert (1 + z5) ** 0 == 1


def test_q_binomial_examples():
    z3 = z(3)
    assert q_binomial(2, 1, z3) == 1 + z3
    assert q_binomial(3, 1, z3).is_zero()
    q5 = z(5)
    expected = 1 + q5 + 2 * q5 ** 2 + q5 ** 3 + q5 ** 4
    assert q_binomial(4, 2, q5) == expected


def product_formula(a, k, q):
    """Independent oracle: prod_{i<k} (1 - q^(a-i)) / (1 - q^(i+1)); valid
    whenever no denominator vanishes."""
    num = CycNum.one()
    den = CycNum.one()
    for i in range(k):
        num = num * (CycNum.one() - q ** (a - i))
        den = den * (CycNum.one() - q ** (i + 1))
    return num / den


def test_q_binomial_product_formula_oracle():
    q5 = z(5)
    assert q_binomial(4, 2, q5) == product_formula(4, 2, q5)
    # non-root-of-unity evaluation
    q = CycNum.from_rational(2)
    for a in range(1, 9):
        for k in range(1, a + 1):
            assert q_binomial(a, k, q) == product_formula(a, k, q)


def test_q_binomial_at_one_is_binomial():
    for a in range(13):
        for k in range(a + 1):
            assert q_binomial(a, k, CycNum.one()) == math.comb(a, k)


def test_q_binomial_vanishing_at_roots():
    for n in range(1, 13):
        zn = z(n)
        for k in range(1, n):
            assert q_binomial(n, k, zn).is_zero(), (n, k)


def test_q_binomial_bad_args():
    with pytest.raises(ValueError):
        q_binomial(2, 3, z(3))
    with pytest.raises(ValueError):
        q_binomial(2, -1, z(3))


def test_q_integer():
    assert q_integer(0, z(3)).is_zero()
    assert q_integer(3, z(3)).is_zero()
    assert q_integer(2, z(3)) == 1 + z(3)


def test_json_round_trip():
    x = CycNum(12, [Fraction(1, 2), 0, 3]) - root_of_unity(12, 7)
    assert CycNum.from_json(x.to_json()) == x
    assert CycNum.from_json(json.dumps(x.to_json())) == x
    # parser reduces to canonical form: exponents fold mod order
    y = CycNum.from_json({"order": 3, "terms": [[4, "1"], [0, "1/2"]]})
    assert y == z(3) + Fraction(1, 2)


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        CycNum.from_json({"terms": []})
    with pytest.raises(ValueError):
        CycNum.from_json({"order": 3, "terms": [[-1, "1"]]})


@pytest.mark.parametrize("data", [
    {"order": 3.7, "terms": [[1, "1"]]},
    {"order": 3, "terms": [[1.9, "1"]]},
    {"order": True, "terms": []},
    {"order": 3, "terms": [[True, "1"]]},
], ids=["float order", "float exponent", "bool order", "bool exponent"])
def test_json_refuses_non_integer_order_and_exponents(data):
    """int() used to truncate: order 3.7 with exponent 1.9 was read as z3."""
    with pytest.raises(ValueError, match="must be integers"):
        CycNum.from_json(data)


def test_zero_denominator_is_a_value_error():
    """A '1/0' read from outside used to raise ZeroDivisionError."""
    with pytest.raises(ValueError, match="zero denominator"):
        CycNum.from_json({"order": 1, "terms": [[0, "1/0"]]})
    with pytest.raises(ValueError, match="zero denominator"):
        CycNum.from_rational("1/0")


LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit


@pytest.mark.skipif(not LIMIT, reason="this interpreter converts integers of any length")
def test_rationals_are_sized_to_the_digit_limit():
    """A rational read from outside is refused exactly when a number that
    `Fraction` would build from it has more digits than the interpreter
    converts: 10^k has k + 1 digits, and a decimal point puts a power of
    ten in the denominator."""
    read = {f"1e{LIMIT - 1}": Fraction(10 ** (LIMIT - 1)),
            f"1e-{LIMIT - 1}": Fraction(1, 10 ** (LIMIT - 1)),
            "7" * LIMIT + "/" + "9" * LIMIT: Fraction(int("7" * LIMIT), int("9" * LIMIT)),
            "0." + "1" * (LIMIT - 1): Fraction(int("1" * (LIMIT - 1)), 10 ** (LIMIT - 1))}
    for text, value in read.items():
        assert CycNum.from_rational(text).coeffs == (value,)
    for text in (f"1e{LIMIT}", f"1e-{LIMIT}", "1" * (LIMIT + 1), "1/" + "1" * (LIMIT + 1),
                 "0." + "1" * LIMIT, "1e" + "0" * LIMIT + "1"):
        with pytest.raises(ValueError, match=f"more than {LIMIT} digits"):
            CycNum.from_rational(text)


def test_predicates_and_str():
    assert CycNum.zero(5).is_zero()
    assert not CycNum.zero(5)
    assert CycNum.one(5).is_one()
    assert (2 - z(4) * z(4) - 1).is_rational()
    assert not z(5).is_rational()
    assert str(CycNum.zero(7)) == "0"
    assert "z3" in str(z(3))


def test_unhashable_by_design():
    with pytest.raises(TypeError):
        hash(z(3))


def test_complex_debug_printer():
    val = complex_value(z(8))
    assert abs(val - complex(2 ** -0.5, 2 ** -0.5)) < 1e-12


cyc_numbers = st.builds(
    CycNum,
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=8),
)


@settings(max_examples=150, deadline=None)
@given(cyc_numbers, cyc_numbers, cyc_numbers)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + CycNum.zero() == a
    assert a * CycNum.one() == a
    assert a - a == 0
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(cyc_numbers)
def test_json_round_trip_property(a):
    assert CycNum.from_json(a.to_json()) == a


def test_phi_cache_concurrent_reads():
    cyclotomic_polynomial.cache_clear()
    results = {}

    def worker(ms):
        for m in ms:
            results.setdefault(m, []).append(cyclotomic_polynomial(m))

    threads = [threading.Thread(target=worker, args=(range(1, 40),)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for m in range(1, 40):
        first = results[m][0]
        assert all(r == first for r in results[m])


# differential test: the power table against the division-based reduction
# it replaced, on every order up to 40 and on polynomials up to length 3m
ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 25, 27, 30, 31, 32, 36, 37]


@st.composite
def order_and_coeffs(draw):
    m = draw(st.one_of(st.sampled_from(ORDERS), st.integers(min_value=1, max_value=40)))
    coeffs = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                           max_size=3 * m))
    return m, coeffs


@settings(max_examples=300, deadline=None)
@given(order_and_coeffs(), st.integers(min_value=1, max_value=3), st.integers())
def test_power_table_matches_division(case, k, e):
    m, coeffs = case
    x = CycNum(m, coeffs)
    assert x.coeffs == _reduce_mod_phi(list(coeffs), m)
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.lifted(k * m).coeffs == lifted_by_division(x, k * m)
    assert root_of_unity(m, e).coeffs == root_by_division(m, e)
    assert _power_rows(m)[e % m] == root_by_division(m, e)
    if not x.is_zero():
        assert x.inverse().coeffs == inverse_euclid(x)


def test_power_rows_every_order():
    for m in range(1, 41):
        rows = _power_rows(m)
        assert len(rows) == m
        assert all(type(r) is int for row in rows for r in row)
        assert [tuple(row) for row in rows] == [root_by_division(m, e) for e in range(m)]
