from itertools import product

import pytest

from anylie.cyclotomic import CycNum, root_of_unity
from anylie.grading import Bicharacter, GradingGroup

from conftest import z
from reference import group_generators


def test_group_arithmetic():
    g = GradingGroup((2, 3))
    assert g.rank == 2 and g.exponent == 6 and g.size == 6
    assert g.degree((3, -1)) == (1, 2)
    assert g.degree((0, 0)) == g.zero()
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 2)) == (1, 1)
    assert list(group_generators(g)) == [(1, 0), (0, 1)]
    assert len(list(g.elements())) == 6


def test_group_validation():
    with pytest.raises(ValueError):
        GradingGroup(())
    with pytest.raises(ValueError):
        GradingGroup((0,))
    with pytest.raises(ValueError):
        GradingGroup((3,)).degree((1, 2))


def test_braiding_phase_anyonic():
    b3 = Bicharacter.anyonic(3)
    assert b3.phase((1,), (1,)) == z(3)
    assert b3.phase((0,), (2,)).is_one()
    b2 = Bicharacter.anyonic(2)
    assert b2.phase((1,), (1,)) == -1


def test_phase_accepts_bare_ints_for_rank_one():
    b3 = Bicharacter.anyonic(3)
    assert b3.phase(1, 2) == z(3, 2)


def test_phase_arity_mismatch():
    b = Bicharacter.anyonic(3)
    with pytest.raises(ValueError):
        b.phase((1, 0), (1,))


def test_anyonic_phase_equals_root_of_unity():
    for n in range(1, 7):
        b = Bicharacter.anyonic(n)
        for g in range(n):
            for h in range(n):
                assert b.phase((g,), (h,)) == root_of_unity(n, g * h)


def test_phase_inverse_pairing():
    groups = [GradingGroup((2,)), GradingGroup((3,)), GradingGroup((6,)),
              GradingGroup((2, 2)), GradingGroup((2, 3))]
    for group in groups:
        k = group.rank
        bi = Bicharacter(group, matrix=tuple(tuple(1 for _ in range(k))
                                             for _ in range(k)))
        for g in group.elements():
            for h in group.elements():
                lhs = bi.phase(g, h) * bi.phase(group.neg(g), h)
                assert lhs.is_one(), (group.factors, g, h)


def test_phase_power_matches_pow():
    bi = Bicharacter(GradingGroup((2, 3)), matrix=((1, 2), (0, 1)))
    for g in bi.group.elements():
        for h in bi.group.elements():
            for e in (-2, -1, 0, 1, 3):
                assert bi.phase_power(g, h, e) == bi.phase(g, h) ** e


def is_skew_oracle(bi):
    """Exhaustive skewness over the whole group."""
    for g in bi.group.elements():
        for h in bi.group.elements():
            if not (bi.phase(g, h) * bi.phase(h, g)).is_one():
                return False
    return True


def test_is_skew_examples():
    # the fermionic case is skew: (-1)(-1) = 1 on the generator pair
    assert is_skew_oracle(Bicharacter.anyonic(2)) is True
    assert is_skew_oracle(Bicharacter.trivial(GradingGroup((4,)))) is True
    # z3^2 != 1, so the n=3 anyonic braiding is not skew
    assert is_skew_oracle(Bicharacter.anyonic(3)) is False
    assert is_skew_oracle(Bicharacter(GradingGroup((3, 3)), matrix=((0, 1), (-1, 0))))
    assert not is_skew_oracle(Bicharacter(GradingGroup((3, 3)), matrix=((0, 1), (1, 0))))


def test_validate_matrix_backed():
    assert Bicharacter.anyonic(5).validate().passed
    assert Bicharacter.trivial(GradingGroup((2, 2))).validate().passed


def test_validate_raw_table():
    n = 3
    good = {((a,), (b,)): root_of_unity(n, a * b) for a in range(n) for b in range(n)}
    bi = Bicharacter.from_table(GradingGroup((n,)), good)
    assert bi.validate().passed
    assert bi.phase((1,), (1,)) == z(3)

    bad = dict(good)
    bad[((1,), (1,))] = CycNum.one()  # corrupt one entry
    bad_bi = Bicharacter.from_table(GradingGroup((n,)), bad)
    report = bad_bi.validate()
    assert not report.passed
    assert report.failures  # carries a witness
    assert "FAIL" in str(report)


def test_yang_baxter_for_diagonal_braiding():
    """Hexagon bookkeeping on three one-dimensional graded lines: both
    orders of re-braiding accumulate the same total phase."""
    for n in (2, 3, 4):
        bi = Bicharacter.anyonic(n)
        for g1, g2, g3 in product(range(n), repeat=3):
            # psi12 psi13 psi23 vs psi23 psi13 psi12 on phases
            left = bi.phase(g1, g2) * bi.phase(g1, g3) * bi.phase(g2, g3)
            right = bi.phase(g2, g3) * bi.phase(g1, g3) * bi.phase(g1, g2)
            assert left == right


def test_bicharacter_construction_errors():
    group = GradingGroup((2, 2))
    with pytest.raises(ValueError):
        Bicharacter(group, matrix=((1,),))
    with pytest.raises(ValueError):
        Bicharacter(group)
    with pytest.raises(ValueError):
        Bicharacter(group, matrix=((1, 0), (0, 1)), table={})


def test_json_round_trip_and_defaults():
    bi = Bicharacter(GradingGroup((2, 3)), matrix=((1, 0), (2, 1)))
    assert Bicharacter.from_json(bi.to_json()) == bi
    default = Bicharacter.from_json({"group": [4]})
    assert default == Bicharacter.anyonic(4)
    with pytest.raises(ValueError):
        Bicharacter.from_json({"group": [2, 2]})  # rank > 1 needs bichar
    with pytest.raises(ValueError):
        Bicharacter.from_json({})
    raw = Bicharacter.from_table(GradingGroup((2,)), {((a,), (b,)): root_of_unity(2, a * b)
                                                      for a in range(2) for b in range(2)})
    with pytest.raises(ValueError):
        raw.to_json()
