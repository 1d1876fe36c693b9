import random
from itertools import product

import pytest

from anylie.cyclotomic import root_of_unity
from anylie.grading import Bicharacter, GradingGroup

from conftest import z
from reference import bicharacter_table, group_generators, table_failures


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
    assert is_skew_oracle(Bicharacter(GradingGroup((4,)), matrix=((0,),))) is True
    # z3^2 != 1, so the n=3 anyonic braiding is not skew
    assert is_skew_oracle(Bicharacter.anyonic(3)) is False
    assert is_skew_oracle(Bicharacter(GradingGroup((3, 3)), matrix=((0, 1), (-1, 0))))
    assert not is_skew_oracle(Bicharacter(GradingGroup((3, 3)), matrix=((0, 1), (1, 0))))


ORACLE_GROUPS = [(1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 3), (2, 4, 6)]


@pytest.mark.parametrize("factors", ORACLE_GROUPS,
                         ids=lambda factors: "x".join(f"Z{n}" for n in factors))
def test_phases_match_the_table_oracle(factors):
    """Every phase and phase power of a matrix bicharacter equals the
    generator-by-generator table; the table is a bicharacter, and one
    corrupted entry is caught with a witness."""
    group = GradingGroup(factors)
    rng = random.Random(f"bichar-{factors}")
    k = group.rank
    for _ in range(3):
        matrix = tuple(tuple(rng.randint(-7, 7) for _ in range(k)) for _ in range(k))
        bi = Bicharacter(group, matrix)
        table = bicharacter_table(group, matrix)
        for (g, h), value in table.items():
            assert bi.phase(g, h) == value, (matrix, g, h)
            for e in (-2, -1, 0, 1, 3):
                assert bi.phase_power(g, h, e) == value ** e, (matrix, g, h, e)
    assert list(table_failures(group, table)) == []
    g, h = rng.choice(list(table))
    table[(g, h)] = -table[(g, h)]
    assert next(table_failures(group, table), None) is not None


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
    with pytest.raises(TypeError):
        Bicharacter(group)  # the matrix is required


NON_INTEGER_INPUT = {
    "float factor": lambda: GradingGroup((3.7,)),
    "string factor": lambda: GradingGroup(("3",)),
    "null factor": lambda: GradingGroup((None,)),
    "float coordinate": lambda: GradingGroup((2,)).degree((1.5,)),
    "bare float degree": lambda: GradingGroup((2,)).degree(1.5),
    "null degree": lambda: GradingGroup((2,)).degree(None),
    "float entry": lambda: Bicharacter(GradingGroup((3,)), matrix=((1.9,),)),
    "string entry": lambda: Bicharacter(GradingGroup((3,)), matrix=(("1",),)),
    "float JSON": lambda: Bicharacter.from_json({"group": [3.7], "bichar": [[1.9]]}),
}


@pytest.mark.parametrize("build", NON_INTEGER_INPUT.values(), ids=NON_INTEGER_INPUT)
def test_non_integer_grading_input_is_refused(build):
    """Floats, strings and None used to be truncated by int() or to end in
    a TypeError; each is now a ValueError."""
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_json_round_trip_and_defaults():
    bi = Bicharacter(GradingGroup((2, 3)), matrix=((1, 0), (2, 1)))
    assert Bicharacter.from_json(bi.to_json()) == bi
    default = Bicharacter.from_json({"group": [4]})
    assert default == Bicharacter.anyonic(4)
    with pytest.raises(ValueError):
        Bicharacter.from_json({"group": [2, 2]})  # rank > 1 needs bichar
    with pytest.raises(ValueError):
        Bicharacter.from_json({})
