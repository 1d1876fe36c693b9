"""CycNum's integer coordinates against the Fraction-based class they
replaced (`reference.FractionCycNum`): seeded random values of mixed
orders, the canonical form of every result, and the norm inverse against
the extended Euclidean one.  Construction from more coordinates than the
basis has, lifting and conjugation are pinned to polynomial division by
Phi_m (`reference._reduce_mod_phi`).  The one product, `_product`, is
pinned through its three callers: `*`, the join's sparse product and
`inverse`."""

import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from anylie.cyclotomic import (CycNum, _fold, _from_sparse, _product, _sparse_product,
                               _to_sparse, root_of_unity)

from reference import FractionCycNum, _reduce_mod_phi, euler_phi, inverse_euclid

ORDERS = list(range(1, 31)) + [105]
# pairs whose lcm field is larger make the Fraction oracle too slow to run
# two thousand of them; every order above still meets many others
MAX_LCM = 210


def random_coords(rng: random.Random, m: int, max_terms: int) -> list:
    """Coordinates on the power basis of Q(zeta_m): up to `max_terms`
    nonzero rationals at random places."""
    coords = [Fraction(0)] * euler_phi(m)
    for _ in range(rng.randint(0, min(max_terms, len(coords)))):
        coords[rng.randrange(len(coords))] = Fraction(rng.randint(-9, 9),
                                                      rng.choice((1, 1, 2, 3, 4, 6)))
    return coords


def random_operand(rng: random.Random, m: int, max_terms: int):
    """The same random value as (library, oracle), or as one int or
    Fraction shared by both."""
    roll = rng.random()
    if roll < 0.1:
        n = rng.randint(-5, 5)
        return n, n
    if roll < 0.2:
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return q, q
    coords = random_coords(rng, m, max_terms)
    return CycNum(m, coords), FractionCycNum(m, coords)


def assert_same(new, old):
    """`new` (CycNum) is the value `old` (FractionCycNum) in every output form."""
    assert type(new) is CycNum and type(old) is FractionCycNum
    assert new.order == old.order
    assert new.coeffs == old.coeffs
    assert repr(new) == repr(old)
    assert str(new) == str(old)
    assert new.to_json() == old.to_json()


def random_pairs(rng: random.Random, count: int):
    while count:
        m1, m2 = rng.choice(ORDERS), rng.choice(ORDERS)
        if lcm(m1, m2) > MAX_LCM:
            continue
        # dense values at order 105 make the oracle's Euclid take 0.4 s
        terms = 3 if 105 in (m1, m2) else 8
        a, a_old = random_operand(rng, m1, terms)
        if not isinstance(a, CycNum):
            continue
        if m2 % m1 == 0 and m2 <= 30 and rng.random() < 0.3:
            # the same number at a multiple of its order: == holds across orders
            b_old = a_old.lifted(m2)
            b = CycNum(m2, b_old.coeffs)
        else:
            b, b_old = random_operand(rng, m2, terms)
        count -= 1
        yield a, a_old, b, b_old


def test_arithmetic_matches_the_fraction_class():
    rng = random.Random(20260418)
    for a, a_old, b, b_old in random_pairs(rng, 2000):
        assert_same(a, a_old)
        assert_same(a + b, a_old + b_old)
        assert_same(b + a, b_old + a_old)
        assert_same(a - b, a_old - b_old)
        assert_same(b - a, b_old - a_old)
        assert_same(a * b, a_old * b_old)
        assert_same(b * a, b_old * a_old)
        assert_same(-a, -a_old)
        assert (a == b) == (a_old == b_old)
        assert (b == a) == (b_old == a_old)
        assert (a == a_old.coeffs[0]) == (a_old == a_old.coeffs[0])
        step = rng.randint(1, 3)
        assert_same(a.lifted(step * a.order), a_old.lifted(step * a_old.order))
        if b != 0:
            assert_same(a / b, a_old / b_old)
        if a != 0:
            assert_same(b / a, b_old / a_old)


def test_json_round_trip_matches_the_fraction_class():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.choice(ORDERS)
        coords = random_coords(rng, m, 12)
        data = FractionCycNum(m, coords).to_json()
        assert_same(CycNum.from_json(data), FractionCycNum.from_json(data))


def test_long_coefficient_lists_fold_like_division():
    """CycNum(m, coeffs) with up to 3m coefficients, so exponents past
    phi(m) and past m, is the remainder of the polynomial mod Phi_m; so are
    its lifts (e -> e*step) and its conjugates (e -> e*k), each computed
    from the unreduced list."""
    rng = random.Random(3)
    for _ in range(400):
        m = rng.choice(ORDERS)
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                  if rng.random() < 0.4 else Fraction(0) for _ in range(rng.randint(0, 3 * m))]
        x = CycNum(m, coeffs)
        assert x.coeffs == _reduce_mod_phi(coeffs, m)
        step = rng.randint(2, 3)
        raised = [Fraction(0)] * (step * len(coeffs))
        raised[::step] = coeffs
        assert x.lifted(step * m).coeffs == _reduce_mod_phi(raised, step * m)
        k = rng.choice([k for k in range(1, max(m, 2)) if gcd(k, m) == 1])
        raised = [Fraction(0)] * (k * len(coeffs))
        raised[::k] = coeffs
        conjugate = CycNum._make(m, _fold(m, enumerate(_product(enumerate(x.nums), k,
                                                                 ((0, 1),), 1, m))), x.den)
        assert conjugate.coeffs == _reduce_mod_phi(raised, m)


# order 1, primes, a power of two and a product of three primes
PRODUCT_ORDERS = [1, 2, 3, 5, 7, 11, 13, 16, 105]


def monomial_or_dense(rng: random.Random, m: int):
    """(library, oracle) for a rational times z^e, e < m, or for a value
    with up to eight nonzero coordinates (three at order 105)."""
    if rng.random() < 0.5:
        e = rng.randrange(m)
        coeffs = [Fraction(0)] * e + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                               rng.randint(1, 4))]
    else:
        coeffs = random_coords(rng, m, 3 if m == 105 else 8)
    return CycNum(m, coeffs), FractionCycNum(m, coeffs)


def test_the_one_product_matches_the_fraction_class():
    """`*` (strides L/m into the lcm order L), the join's sparse product
    (its monomial shortcut and its general loop) and `inverse` (each
    conjugate at stride k) all multiply through `_product`: on mixed-order
    pairs each gives the oracle's value, `*` and the sparse product at the
    lcm order, `inverse` that of the extended Euclidean algorithm."""
    rng = random.Random(29)
    shapes = set()
    pairs = 0
    while pairs < 600:
        m1, m2 = rng.choice(PRODUCT_ORDERS), rng.choice(PRODUCT_ORDERS)
        if lcm(m1, m2) > MAX_LCM:
            continue
        pairs += 1
        (a, a_old), (b, b_old) = monomial_or_dense(rng, m1), monomial_or_dense(rng, m2)
        product = a * b
        assert product.order == lcm(m1, m2)
        assert_same(product, a_old * b_old)
        sa, sb = _to_sparse(a), _to_sparse(b)
        shapes.add((len(sa[2]) == 1, len(sb[2]) == 1))
        assert_same(_from_sparse(_sparse_product(sa, sb)), a_old * b_old)
        if not a.is_zero():
            inv = a.inverse()
            assert inv.order == m1 and inv.coeffs == inverse_euclid(a)
            assert_canonical(inv)
    # monomial times monomial, monomial times dense and dense times dense
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_json_exponents_past_the_order_fold_like_division():
    """from_json adds repeated exponents and folds exponents up to 3m."""
    rng = random.Random(4)
    for _ in range(200):
        m = rng.choice(ORDERS)
        terms = [[rng.randint(0, 3 * m), f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"]
                 for _ in range(rng.randint(0, 12))]
        poly = [Fraction(0)] * (3 * m + 1)
        for e, c in terms:
            poly[e] += Fraction(c)
        assert CycNum.from_json({"order": m, "terms": terms}).coeffs == _reduce_mod_phi(poly, m)


def assert_canonical(x: CycNum):
    assert all(type(c) is int for c in x.nums) and type(x.den) is int
    assert len(x.nums) == euler_phi(x.order)
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.den == 1


@st.composite
def cycnums(draw):
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]))
    coeffs = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                           max_size=2 * m))
    return CycNum(m, coeffs)


@settings(max_examples=300, deadline=None)
@given(cycnums(), cycnums(), st.integers(min_value=1, max_value=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_every_result_is_canonical(a, b, step, q):
    results = [a, b, a + b, a - b, b - a, a * b, -a, a + q, q - a, a * q,
               a.lifted(step * a.order), a - a, a * 0, CycNum.promote(q)]
    if b:
        results.append(a / b)
    if a:
        results += [a.inverse(), q / a]
    for x in results:
        assert_canonical(x)


def test_inverse_matches_euclid():
    rng = random.Random(105)
    for m in list(range(1, 17)) + [60, 105]:
        values = [root_of_unity(m, 1), root_of_unity(m, m - 1) * Fraction(-3, 7),
                  CycNum(m, [Fraction(2, 9)])]
        values += [CycNum(m, random_coords(rng, m, terms)) for terms in (2, 5, euler_phi(m))]
        for x in values:
            if not x.is_zero():
                inv = x.inverse()
                assert inv.coeffs == inverse_euclid(x)
                assert (x * inv).is_one()
                assert_canonical(inv)
