"""Properties of the shared sparse linear-combination core, checked on
all three kinds of combination: enveloping-algebra polynomials, the
braided tensor square and the anyspace."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anylie.anyspace import ThetaPoly
from anylie.constructions import build_matrix_type
from anylie.cyclotomic import CycNum
from anylie.envelope import NCPoly, TensorSquarePoly
from anylie.grading import Bicharacter
from anylie.sparse import LinComb

from reference import ncpoly_mul, tensor_square_mul, theta_mul

SPEC = build_matrix_type(2, Bicharacter.anyonic(3), (0, 1))
SPEC_Z2 = build_matrix_type(2, Bicharacter.anyonic(2), (0, 1))

cyc = st.builds(CycNum, st.sampled_from([1, 2, 3, 4, 6]),
                st.lists(st.integers(-3, 3), max_size=4))
scalars = cyc | st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=4)
words = st.lists(st.integers(0, 3), max_size=3).map(tuple)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))

SPACES = {
    "NCPoly": (words, NCPoly),
    "TensorSquarePoly": (st.tuples(words, words), lambda t: TensorSquarePoly(SPEC, t)),
    "ThetaPoly": (exponents, lambda t: ThetaPoly(4, 2, t)),
}


def combinations(name):
    keys, make = SPACES[name]
    return st.dictionaries(keys, cyc, max_size=5).map(make)


def assert_clean(x, like):
    assert type(x) is type(like)
    assert all(not v.is_zero() for v in x.terms.values())
    for slot in type(like)._context:
        assert getattr(x, slot) is getattr(like, slot)


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vector_space_laws(name, data):
    a, b = data.draw(combinations(name)), data.draw(combinations(name))
    s = data.draw(scalars)
    assert isinstance(a, LinComb)
    assert a + b - b == a
    assert a + b == b + a
    for zero in (a - a, a + (-a), a.scaled(0), 0 * a, a * 0):
        assert zero.terms == {}
        assert_clean(zero, a)
    assert (a + b).scaled(s) == a.scaled(s) + b.scaled(s)
    assert s * a == a * s == a.scaled(s)
    for result in (a + b, a - b, -a, a.scaled(s)):
        assert_clean(result, a)


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_laws(name, data):
    a, b, c = (data.draw(combinations(name)) for _ in range(3))
    s = data.draw(scalars)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    one = a ** 0
    assert one * a == a == a * one
    assert (s * a) * b == s * (a * b) == a * (s * b) == (a * b) * s
    for result in (a * b, a * s, a ** 2):
        assert_clean(result, a)


def _random_cyc(rng):
    order = rng.randint(1, 12)
    return CycNum(order, [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])


def _random_terms(rng, key):
    return {key(rng): _random_cyc(rng) for _ in range(rng.randint(1, 3))}


def _random_word(rng):
    return tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 2)))


# each space: a seeded operand maker and the product it had before the
# shared loop, copied into tests/reference.py
OLD_PRODUCTS = {
    "NCPoly": (lambda rng: NCPoly(_random_terms(rng, _random_word)), ncpoly_mul),
    "TensorSquarePoly": (
        lambda rng: TensorSquarePoly(
            SPEC, _random_terms(rng, lambda r: (_random_word(r), _random_word(r)))),
        tensor_square_mul),
    "ThetaPoly": (
        lambda rng: ThetaPoly(4, 3, _random_terms(
            rng, lambda r: tuple(r.randint(0, 3) for _ in range(3)))),
        theta_mul),
}


@pytest.mark.parametrize("name", sorted(OLD_PRODUCTS))
def test_product_matches_the_hand_written_loops(name):
    """Same terms, same CycNum orders, same rendering: compared by repr.
    The tensor square alone no longer multiplies by a unit phase, which
    lifted the coefficient into the phase's field: there the values are
    equal, and each order divides the one the old loop gave."""
    make, old_mul = OLD_PRODUCTS[name]
    rng = random.Random(17)
    for _ in range(500):
        a, b = make(rng), make(rng)
        new, old = a * b, old_mul(a, b)
        if name == "TensorSquarePoly":
            assert new == old
            assert all(old.terms[k].order % v.order == 0 for k, v in new.terms.items())
        else:
            assert repr(new) == repr(old)


Z3 = CycNum(3, (0, 1))
PRINTED = [
    (NCPoly({(2, 1): Z3, (): 2, (0,): -1, (1, 0): CycNum.from_rational("1/2")}),
     lambda p: p.render(SPEC.basis),
     "(2) + (-1)*x[1,1] + (1/2)*x[1,2]*x[1,1] + (z3)*x[2,1]*x[1,2]"),
    (TensorSquarePoly(SPEC, {((1,), (2,)): 1, ((), (0, 3)): Z3, ((3,), ()): -2, ((), ()): 3}),
     TensorSquarePoly.render,
     "(3)*1(x)1 + (-2)*x[2,2](x)1 + (z3)*1(x)x[1,1]*x[2,2] + (1)*x[1,2](x)x[2,1]"),
    (ThetaPoly(4, 2, {(0, 0): 5, (1, 0): Z3, (0, 3): -1, (2, 1): 1}),
     ThetaPoly.render,
     "(5)*1 + (-1)*t2^3 + (z3)*t1 + (1)*t1^2*t2"),
]


@pytest.mark.parametrize("poly, render, text", PRINTED,
                         ids=[type(poly).__name__ for poly, _, _ in PRINTED])
def test_one_printer_json_encoder_and_lookup(poly, render, text):
    """Each kind prints in its own key order and key text through the one
    printer; the JSON term list runs in key order; an absent key has
    coefficient zero."""
    assert render(poly) == text
    assert render(poly - poly) == "0"
    keys = sorted(poly.terms)
    assert poly.terms_json("key") == [{"key": list(k), "val": poly.terms[k].to_json()}
                                      for k in keys]
    assert [poly.coefficient(k) for k in keys] == [poly.terms[k] for k in keys]
    assert (poly - poly).coefficient(keys[0]).is_zero()


def test_tensor_square_skips_unit_phases():
    """Legs that cross with phase 1 (here an empty leg) give no phase to
    multiply by; a degree crossing itself does."""
    t = TensorSquarePoly(SPEC)
    g = next(g for g in range(SPEC.dim) if SPEC.degrees[g] != SPEC.group.zero())
    assert t._times(((0,), ()), ((), (1,))) == (((0,), (1,)), None)
    key, phase = t._times(((), (g,)), ((g,), ()))
    assert key == ((g,), (g,)) and not phase.is_one()


def test_theta_shape_mismatch_raises():
    """Combinations of different shapes, tensors over different gradings
    included, neither combine nor compare equal."""
    theta = ThetaPoly.theta(3, 2)
    key = ((1,), (2,))
    tensor = TensorSquarePoly(SPEC, {key: 1})
    for a, other in ((theta, ThetaPoly.theta(4, 2)), (theta, ThetaPoly.theta(3, 1)),
                     (tensor, TensorSquarePoly(SPEC_Z2, {key: 1}))):
        assert a != other
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            for x, y in ((a, other), (other, a)):
                with pytest.raises(ValueError):
                    op(x, y)


@pytest.mark.parametrize("n, vars, exps", [
    (3, 1, (1.5,)), (3, 1, (True,)), (3, 1, ("2",)), (3, 1, (None,)),
    (3.0, 1, (1,)), (True, 1, (0,)), ("3", 1, (1,)),
    (3, 1.0, (1,)), (3, True, (1,)), (3, "1", (1,)),
])
def test_theta_refuses_non_integers(n, vars, exps):
    with pytest.raises(ValueError, match="integers"):
        ThetaPoly(n, vars, {exps: 1})
