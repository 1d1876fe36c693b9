"""Properties of the shared sparse linear-combination core, checked on
all three kinds of combination: enveloping-algebra polynomials, the
braided tensor square and the anyspace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anylie.anyspace import ThetaPoly
from anylie.constructions import build_matrix_type
from anylie.cyclotomic import CycNum
from anylie.envelope import NCPoly, TensorSquarePoly
from anylie.grading import Bicharacter
from anylie.sparse import LinComb

SPEC = build_matrix_type(2, Bicharacter.anyonic(3), (0, 1))

cyc = st.builds(CycNum, st.sampled_from([1, 2, 3, 4, 6]),
                st.lists(st.integers(-3, 3), max_size=4))
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
    s = data.draw(cyc)
    assert isinstance(a, LinComb)
    assert a + b - b == a
    assert a + b == b + a
    for zero in (a - a, a + (-a), a.scaled(0), 0 * a):
        assert zero.terms == {}
        assert_clean(zero, a)
    assert (a + b).scaled(s) == a.scaled(s) + b.scaled(s)
    assert s * a == a.scaled(s)
    for result in (a + b, a - b, -a, a.scaled(s)):
        assert_clean(result, a)


def test_theta_shape_mismatch_raises():
    a = ThetaPoly.theta(3, 2)
    for other in (ThetaPoly.theta(4, 2), ThetaPoly.theta(3, 1)):
        assert a != other
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ValueError):
                op(a, other)
