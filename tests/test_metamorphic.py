"""Metamorphic tests: relabelling the data that a verdict cannot depend on
must leave the verdicts alone and move the witnesses exactly as the data
moved, and conjugating every number must conjugate every result."""

import random
from math import gcd, lcm

import pytest

from anylie.algebra import AlgebraSpec, verify_all
from anylie.constructions import build_matrix_type
from anylie.cyclotomic import CycNum
from anylie.envelope import build_rewrite_system, generate_relations
from anylie.grading import Bicharacter, GradingGroup

from reference import conjugate, conjugated


def rebuilt(spec, eps=None, c=None):
    """`spec` with its counit or bracket replaced."""
    return AlgebraSpec(spec.bichar, spec.basis, spec.degrees, eps or spec.eps, spec.d,
                       c or spec.c)


def perturbed_counit(spec):
    eps = dict(spec.eps)
    eps[0] = CycNum.from_rational(2)
    return rebuilt(spec, eps=eps)


def perturbed_bracket(spec):
    c = dict(spec.c)
    key = max(c)
    c[key] = c[key] * 2
    return rebuilt(spec, c=c)


def matrix_spec(N, bichar, f, perturb=None):
    spec = build_matrix_type(N, bichar, f)
    return perturb(spec) if perturb else spec


def rendered(report, index_map=lambda i: i):
    """Verdict and witnesses of every check, witness indices mapped through
    `index_map` and values rendered as the CLI prints them."""
    return [(ch.name, ch.passed,
             sorted((tuple(index_map(i) for i in w.indices), str(w.lhs), str(w.rhs), w.note)
                    for w in ch.witnesses))
            for ch in report.checks + report.info]


def permuted(spec, perm):
    """Basis position i of the result holds element perm[i] of `spec`."""
    new = {old: i for i, old in enumerate(perm)}

    def move(table, arity):
        return {(new[k] if arity == 1 else tuple(new[i] for i in k)): v
                for k, v in table.items()}
    return AlgebraSpec(spec.bichar, [spec.basis[i] for i in perm],
                       [spec.degrees[i] for i in perm],
                       move(spec.eps, 1), move(spec.d, 3), move(spec.c, 3))


CASES = [
    (2, 2, (0, 1), None),
    (2, 3, (0, 1), None),
    (2, 4, (0, 1), None),
    (3, 4, (0, 1, 3), None),
    (2, 3, (0, 1), perturbed_counit),
    (2, 4, (0, 1), perturbed_bracket),
]


@pytest.mark.parametrize("N, n, f, perturb", CASES)
def test_trivial_factor_keeps_verdicts_and_witnesses(N, n, f, perturb):
    """Z/n and Z/n x Z/1 with the pairing ((1, 0), (0, 0)) and f = (f_i, 0)
    give the same phases, so the same verdicts and witnesses."""
    spec = matrix_spec(N, Bicharacter.anyonic(n), f, perturb)
    wide = matrix_spec(N, Bicharacter(GradingGroup((n, 1)), matrix=((1, 0), (0, 0))),
                       [(fi, 0) for fi in f], perturb)
    assert wide.group.rank == 2
    report = verify_all(spec)
    assert report.passed == (perturb is None)
    assert rendered(verify_all(wide)) == rendered(report)


@pytest.mark.parametrize("N, n, f, perturb", CASES)
def test_basis_permutation_permutes_witnesses(N, n, f, perturb):
    spec = matrix_spec(N, Bicharacter.anyonic(n), f, perturb)
    perm = list(range(spec.dim))
    random.Random(N * 100 + n).shuffle(perm)
    report = verify_all(permuted(spec, perm))
    assert rendered(report, index_map=perm.__getitem__) == rendered(verify_all(spec))


# -- the Galois law ------------------------------------------------------------

def galois_cases():
    """(label, spec, k): four matrix-family specs and a one-entry bracket
    perturbation of each, with up to three units k != 1 modulo the lcm of
    the group exponent and every entry's order; and the Z/3 x Z/3 spec
    with a non-symmetric bicharacter at k = 2."""
    cases = []
    for N, n, f in [(2, 3, (0, 1)), (3, 5, (0, 1, 3)), (3, 3, (0, 0, 1)), (2, 7, (0, 3))]:
        for perturb in (None, perturbed_bracket):
            spec = matrix_spec(N, Bicharacter.anyonic(n), f, perturb)
            m = lcm(n, *(v.order for t in (spec.eps, spec.d, spec.c) for v in t.values()))
            label = f"N={N} n={n} f={f}" + (" perturbed" if perturb else "")
            units = [k for k in range(2, m) if gcd(k, m) == 1][:3]
            cases += [(label, spec, k) for k in units]
    group33 = Bicharacter(GradingGroup((3, 3)), matrix=((0, 1), (0, 0)))
    cases.append(("Z/3xZ/3", build_matrix_type(3, group33, [(0, 0), (1, 0), (0, 1)]), 2))
    return cases


GALOIS_CASES = galois_cases()


def conjugated_value(value, k):
    return conjugate(value, k) if isinstance(value, CycNum) else value


def assert_verify_conjugates(report, image_report, k):
    """The same verdicts and witness indices, and each witness side the
    conjugate of the original's."""
    assert [(ch.name, ch.passed) for ch in image_report.checks + image_report.info] == \
        [(ch.name, ch.passed) for ch in report.checks + report.info]
    for ch, image_ch in zip(report.checks + report.info, image_report.checks + image_report.info):
        assert [(w.indices, w.lhs, w.rhs) for w in image_ch.witnesses] == \
            [(w.indices, conjugated_value(w.lhs, k), conjugated_value(w.rhs, k))
             for w in ch.witnesses]


def test_galois_cases_cover_every_kind():
    """Passing and failing specs, confluent and divergent rule sets."""
    assert len(GALOIS_CASES) == 17
    assert {verify_all(spec).passed for _, spec, _ in GALOIS_CASES} == {True, False}
    assert {build_rewrite_system(generate_relations(spec), spec.dim).check_critical_pairs()
            .confluent for _, spec, _ in GALOIS_CASES} == {True, False}


@pytest.mark.parametrize("label, spec, k", GALOIS_CASES,
                         ids=[f"{label} k={k}" for label, _, k in GALOIS_CASES])
def test_galois_conjugation_conjugates_every_result(label, spec, k):
    """sigma_k on every entry, with the bicharacter matrix times k, keeps
    every verdict and witness index and conjugates every value: the
    witnesses' sides, the rules' right sides, and nothing else."""
    image = conjugated(spec, k)
    assert_verify_conjugates(verify_all(spec), verify_all(image), k)

    rs = build_rewrite_system(generate_relations(spec), spec.dim)
    image_rs = build_rewrite_system(generate_relations(image), image.dim)
    assert [r.lhs for r in image_rs.rules] == [r.lhs for r in rs.rules]
    for rule, image_rule in zip(rs.rules, image_rs.rules):
        assert image_rule.rhs.terms == {w: conjugate(v, k) for w, v in rule.rhs.terms.items()}

    pairs, image_pairs = rs.check_critical_pairs(), image_rs.check_critical_pairs()
    assert image_pairs.confluent == pairs.confluent
    assert len(image_pairs.divergences) == len(pairs.divergences)


def family_specs(n: int) -> list:
    """The matrix family at Z/n: N = 2 with every f whose f(1) is 0 and
    N = 3 with two seeded f, each with and without a bracket perturbation.
    Every entry and phase has an order dividing n."""
    rng = random.Random(n)
    fs = [(0, f2) for f2 in range(n)] + [tuple(rng.randrange(n) for _ in range(3))
                                          for _ in range(2)]
    return [matrix_spec(len(f), Bicharacter.anyonic(n), f, perturb)
            for f in fs for perturb in (None, perturbed_bracket)]


@pytest.mark.parametrize("n", range(2, 8))
def test_galois_law_across_the_matrix_family(n):
    """verify_all commutes with sigma_k for every unit k != 1 modulo n
    (Z/2 has none, so there the family only has to build)."""
    units = [k for k in range(2, n) if gcd(k, n) == 1]
    specs = family_specs(n)
    assert {verify_all(spec).passed for spec in specs[:2]} == {True, False}
    for spec in specs:
        report = verify_all(spec)
        for k in units:
            assert_verify_conjugates(report, verify_all(conjugated(spec, k)), k)
