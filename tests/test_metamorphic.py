"""Metamorphic tests for `verify_all`: relabelling the data that a verdict
cannot depend on must leave the verdicts alone and move the witnesses
exactly as the data moved."""

import random

import pytest

from anylie.algebra import AlgebraSpec, verify_all
from anylie.constructions import build_matrix_type
from anylie.cyclotomic import CycNum
from anylie.grading import Bicharacter, GradingGroup


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
