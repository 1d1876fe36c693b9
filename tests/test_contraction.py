"""The declared contractions against the hand-written loops they replaced.

`tests/reference.py` keeps the old check functions, the old relation loop
of `generate_relations` and the old dense Jacobi loop of
`check_ansatz_reduction`.  On seeded specs the library must print the same
witnesses: the same index tuples, the same rendered values (a value keeps
the cyclotomic order of the terms it was summed from, so this also pins
which terms each side sums), the same notes, and the same relations term
by term in the same order.

It also keeps the per-factor join that the sparse products replaced,
`ref_contract`: every declared contraction must give the same keys, in the
same order, with the same order, coordinates and denominator.
"""

import random

import pytest

from anylie import algebra, constructions, envelope
from anylie.algebra import AlgebraSpec, Contraction, verify_all
from anylie.constructions import build_ansatz, build_matrix_type, check_ansatz_reduction
from anylie.cyclotomic import CycNum, root_of_unity
from anylie.envelope import generate_relations
from anylie.grading import Bicharacter, GradingGroup

from conftest import SL2_C, SUPER_C, SUPER_P
from reference import (ref_check_ansatz_reduction, ref_contract, ref_generate_relations,
                       ref_verify_all)

# values of several cyclotomic orders, so that a side summing other terms
# than the reference would render differently
VALUES = [CycNum.zero(), CycNum.one(), -CycNum.one(), CycNum.from_rational(2),
          CycNum.from_rational("1/2"), root_of_unity(3, 1), root_of_unity(4, 1),
          root_of_unity(6, 5), root_of_unity(5, 2), CycNum.one() + root_of_unity(3, 2)]

Z2xZ3 = Bicharacter(GradingGroup((2, 3)), ((1, 0), (1, 2)))
# beta(g, h) != beta(h, g) here, which pins the order of each phase's letters
# (every bicharacter of a cyclic group, Z/2 x Z/3 included, is symmetric)
Z3xZ3 = Bicharacter(GradingGroup((3, 3)), ((1, 1), (0, 2)))


def perturbed(rng: random.Random, spec: AlgebraSpec) -> AlgebraSpec:
    """`spec` with up to three entries of eps, d or c set to a random value
    (zero deletes), at an existing key or anywhere in range."""
    tables = {"eps": dict(spec.eps), "d": dict(spec.d), "c": dict(spec.c)}
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(sorted(tables))
        table = tables[name]
        if table and rng.random() < 0.5:
            key = rng.choice(sorted(table))
        elif name == "eps":
            key = rng.randrange(spec.dim)
        else:
            key = tuple(rng.randrange(spec.dim) for _ in range(3))
        table[key] = rng.choice(VALUES)
    return AlgebraSpec(spec.bichar, spec.basis, spec.degrees,
                       tables["eps"], tables["d"], tables["c"])


def random_tensor(rng: random.Random, dim: int, arity: int) -> dict:
    keys = [(mu,) for mu in range(dim)] if arity == 1 else \
        [(a, b, c) for a in range(dim) for b in range(dim) for c in range(dim)]
    return {key[0] if arity == 1 else key: rng.choice(VALUES[1:])
            for key in keys if rng.random() < 0.4}


def random_spec(rng: random.Random, bichar: Bicharacter) -> AlgebraSpec:
    dim = rng.randint(2, 3)
    return AlgebraSpec(bichar, [f"x{i}" for i in range(dim)],
                       [tuple(rng.randrange(n) for n in bichar.group.factors)
                        for _ in range(dim)],
                       random_tensor(rng, dim, 1), random_tensor(rng, dim, 3),
                       random_tensor(rng, dim, 3))


def seeded_spec(seed: int) -> AlgebraSpec:
    """Seed 0..199: the matrix family with N <= 4 and n <= 5 (N = 4 only
    for seeds divisible by 8); 200..219: the matrix family and random
    tensors over Z/2 x Z/3; 220..239: the sl2 and (1|1) ansatz; 240..259:
    random tensors over Z/3 x Z/3.  Each one perturbed."""
    rng = random.Random(seed)
    if seed < 200:
        N = 4 if seed % 8 == 0 else rng.randint(1, 3)
        n = rng.randint(1, 5)
        base = build_matrix_type(N, Bicharacter.anyonic(n),
                                 [rng.randrange(n) for _ in range(N)])
    elif seed < 220 and seed % 2:
        N = rng.randint(1, 3)
        base = build_matrix_type(N, Z2xZ3, [(rng.randrange(2), rng.randrange(3))
                                            for _ in range(N)])
    elif seed < 220:
        base = random_spec(rng, Z2xZ3)
    elif seed >= 240:
        base = random_spec(rng, Z3xZ3)
    elif seed % 2:
        base = build_ansatz(Bicharacter.anyonic(1), (0, 0, 0), SL2_C)
    else:
        base = build_ansatz(Bicharacter.anyonic(2), SUPER_P, SUPER_C)
    return perturbed(rng, base)


def relation_terms(rules):
    return [(rule.lhs, [(word, str(val)) for word, val in rule.rhs.terms.items()])
            for rule in rules]


@pytest.mark.parametrize("first", range(0, 260, 20))
def test_checks_and_relations_match_the_reference(first):
    for seed in range(first, first + 20):
        spec = seeded_spec(seed)
        assert verify_all(spec).to_json() == ref_verify_all(spec).to_json(), seed
        assert relation_terms(generate_relations(spec)) == \
            relation_terms(ref_generate_relations(spec)), seed


def test_the_seeded_specs_fail_every_check_somewhere():
    """The differential test above compares witnesses, not just verdicts."""
    failed = set()
    for seed in range(0, 260, 3):
        report = verify_all(seeded_spec(seed))
        failed |= {ch.name for ch in report.checks + report.info if ch.witnesses}
    assert failed == {"grading", "coassociativity", "counit", "bracket_counit",
                      "delta_bracket", "cocommutation", "braided_jacobi", "antisymmetry"}


def ansatz_case(rng: random.Random):
    """sl2 or (1|1) with a perturbed bracket, or a random bracket of
    dimension <= 3 over Z/1..Z/4, Z/2 x Z/3 or Z/3 x Z/3."""
    kind = rng.randrange(5)
    if kind < 2:
        bichar, p, c = ((Bicharacter.anyonic(1), (0, 0, 0), dict(SL2_C)) if kind == 0
                        else (Bicharacter.anyonic(2), SUPER_P, dict(SUPER_C)))
        for _ in range(rng.randint(0, 3)):
            c[tuple(rng.randint(1, len(p)) for _ in range(3))] = rng.choice(VALUES)
        return bichar, p, c
    bichar = {3: Z2xZ3, 4: Z3xZ3}.get(kind) or Bicharacter.anyonic(rng.randint(1, 4))
    p = tuple(tuple(rng.randrange(n) for n in bichar.group.factors)
              for _ in range(rng.randint(1, 3)))
    c = random_tensor(rng, len(p), 3)
    return bichar, p, {(i + 1, j + 1, k + 1): v for (i, j, k), v in c.items()}


def test_ansatz_reduction_matches_the_reference():
    rng = random.Random(16)
    failing = 0
    for _ in range(120):
        case = ansatz_case(rng)
        report = check_ansatz_reduction(*case)
        assert report.to_json() == ref_check_ansatz_reduction(*case).to_json(), case
        failing += not report.checks[1].passed
    assert failing > 20


def test_verify_all_reaches_each_check_through_the_module():
    """The benchmark's tracer times each check by rebinding its module
    global, so `verify_all` must look each one up at call time."""
    names = ["check_grading", "check_coalgebra", "check_bracket_counit",
             "check_delta_bracket", "check_cocommutation", "check_braided_jacobi",
             "check_antisymmetry_info"]
    calls = {}

    def counting(name, fn):
        def wrapper(spec):
            calls[name] = calls.get(name, 0) + 1
            return fn(spec)
        return wrapper

    mp = pytest.MonkeyPatch()
    try:
        for name in names:
            mp.setattr(algebra, name, counting(name, getattr(algebra, name)))
        report = algebra.verify_all(build_matrix_type(2, Bicharacter.anyonic(3), (0, 1)))
    finally:
        mp.undo()
    assert calls == {name: 1 for name in names}
    assert report.passed


def test_contraction_declarations():
    spec = build_matrix_type(2, Bicharacter.anyonic(3), (0, 1))
    # the coproduct of x[1,2] (index 1): x[1,1] (x) x[1,2] + x[1,2] (x) x[2,2]
    row = Contraction("d[mab]", "mab")(spec)
    assert {k: str(v) for k, v in row.items() if k[0] == 1} == {(1, 0, 1): "1", (1, 1, 3): "1"}
    # a summed letter, and a phase with a sign: -beta(p(a), p(b)) d^m_{a,b}
    signed = Contraction("d[mab] eps[a]", "mb", "-beta[ab]")(spec)
    assert signed == {(0, 0): -CycNum.one(), (1, 1): -CycNum.one(),
                      (2, 2): -CycNum.one(), (3, 3): -CycNum.one()}
    # the square of a phase: beta(p(n), p(r))^2 c^{m,n}_r, where p(x[1,2]) = 2
    squared = Contraction("c[mnr]", "mnr", "beta[nr]^2")(spec)
    assert squared[(0, 0, 0)] == CycNum.one()
    assert squared[(0, 1, 1)] == root_of_unity(3, 2)
    with pytest.raises(ValueError, match="repeated letter"):
        Contraction("d[maa]", "ma")


# -- the sparse products against the per-factor join -------------------------

# every contraction the library declares
CONTRACTIONS = ([side for sides in algebra._IDENTITIES.values() for side in sides]
                + [side for side, _ in algebra._COUNIT] + [envelope._RELATION]
                + list(constructions._ANSATZ_JACOBI))


def exact(values: dict) -> list:
    """Each key with its value's order, coordinates and denominator, in
    insertion order."""
    return [(key, v.order, v.nums, v.den) for key, v in values.items()]


def assert_contractions_match(spec: AlgebraSpec):
    for contraction in CONTRACTIONS:
        assert exact(contraction(spec)) == exact(ref_contract(contraction, spec))
    # a contraction added into another's result, as check_ansatz_reduction does
    _, rhs, crossed = constructions._ANSATZ_JACOBI
    assert exact(crossed(spec, rhs(spec))) == \
        exact(ref_contract(crossed, spec, ref_contract(rhs, spec)))


@pytest.mark.parametrize("first", range(0, 260, 65))
def test_every_contraction_matches_the_per_factor_join(first):
    for seed in range(first, first + 65):
        assert_contractions_match(seeded_spec(seed))


@pytest.mark.parametrize("N, n", [(5, 6), (5, 7), (6, 6), (6, 7)])
def test_wide_matrix_specs_match_the_per_factor_join(N, n):
    """Past the seeded sizes: z_n^(n-1) is spread over n - 1 coordinates
    when n is prime, and products reach phases of every degree."""
    rng = random.Random(N * 10 + n)
    spec = perturbed(rng, build_matrix_type(N, Bicharacter.anyonic(n),
                                            [rng.randrange(n) for _ in range(N)]))
    assert_contractions_match(spec)


def test_a_product_of_orders_4_and_6_lands_in_order_12():
    """One term multiplies an entry of order 4 by one of order 6; their lcm
    12 divides neither, so the product changes the order of both."""
    z4, z6 = root_of_unity(4, 1), root_of_unity(6, 5)  # z6^5 = 1 - z6: two coordinates
    spec = AlgebraSpec(Bicharacter.anyonic(1), ["a", "b"], [0, 0], {0: CycNum.one()},
                       {(0, 0, 0): z4, (0, 1, 0): CycNum.one() + z4},
                       {(0, 0, 0): z6, (0, 0, 1): CycNum.from_rational("1/2") * z6})
    assert_contractions_match(spec)
    value = Contraction("c[mna] d[arl]", "mnrl")(spec)[(0, 0, 0, 0)]
    assert value.order == 12 and value == z6 * z4


def test_the_join_multiplies_no_cycnum():
    """Products stay in the join's sparse form; a phase with one power
    needs no `CycNum` product either."""
    spec = seeded_spec(3)
    calls = []
    mp = pytest.MonkeyPatch()
    try:
        for attr in ("__mul__", "__rmul__"):
            mp.setattr(CycNum, attr,
                       lambda a, b, f=getattr(CycNum, attr): calls.append(1) or f(a, b))
        for sides in algebra._IDENTITIES.values():
            for side in sides:
                if side._phase_depth is None or len(side._phase[1]) == 1:
                    side(spec)
    finally:
        mp.undo()
    assert calls == []
