import random
from itertools import product

import pytest

from anylie.algebra import Element, bracket, coproduct, counit, verify_all
from anylie.constructions import (AnsatzParams, MatrixTypeParams, build_ansatz,
                                  build_matrix_type, check_ansatz_reduction)
from anylie.envelope import build_rewrite_system, generate_relations
from anylie.grading import Bicharacter, GradingGroup

from conftest import ONE, SL2_C, SUPER_C, SUPER_P, classical_jacobi_holds, z
from reference import spec_index_of, spec_label


def test_one_dimensional_case():
    spec = build_matrix_type(MatrixTypeParams.anyonic(1, 1, (0,)))
    x = Element.basis(0)
    assert bracket(spec, x, x) == x
    assert coproduct(spec, x) == {(0, 0): ONE}
    assert counit(spec, x) == 1
    assert spec.degrees[0] == (0,)


def test_super_case_structure(l2f2):
    a, b, c, d = range(4)
    assert [l2f2.degrees[i] for i in range(4)] == [(0,), (1,), (1,), (0,)]
    assert coproduct(l2f2, Element.basis(a)) == {(a, a): ONE, (b, c): ONE}
    assert coproduct(l2f2, Element.basis(b)) == {(b, d): ONE, (a, b): ONE}
    assert coproduct(l2f2, Element.basis(c)) == {(c, a): ONE, (d, c): ONE}
    assert coproduct(l2f2, Element.basis(d)) == {(d, d): ONE, (c, b): ONE}
    for x in range(4):
        assert bracket(l2f2, Element.basis(a), Element.basis(x)) == Element.basis(x)
        assert bracket(l2f2, Element.basis(d), Element.basis(x)) == Element.basis(x)
        assert bracket(l2f2, Element.basis(b), Element.basis(x)).is_zero()
        assert bracket(l2f2, Element.basis(c), Element.basis(x)).is_zero()


def test_z3_case_structure(l2f3):
    a, b, c, d = range(4)
    assert [l2f3.degrees[i] for i in range(4)] == [(0,), (2,), (1,), (0,)]
    for x in range(4):
        assert bracket(l2f3, Element.basis(a), Element.basis(x)) == Element.basis(x)
        # [d, x] = z3^{|x|} x
        deg = l2f3.degrees[x][0]
        assert bracket(l2f3, Element.basis(d), Element.basis(x)) == \
            Element({x: z(3, deg)})


def test_l3f_degree_matrix_and_brackets(l3f):
    rows = [[l3f.degrees[m * 3 + md][0] for md in range(3)] for m in range(3)]
    assert rows == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]  # (0,-1,1;1,0,-1;-1,1,0) mod 3
    a, dplus, dminus = 0, 4, 8
    for x in range(9):
        deg = l3f.degrees[x][0]
        assert bracket(l3f, Element.basis(a), Element.basis(x)) == Element.basis(x)
        assert bracket(l3f, Element.basis(dplus), Element.basis(x)) == \
            Element({x: z(3, deg)})
        assert bracket(l3f, Element.basis(dminus), Element.basis(x)) == \
            Element({x: z(3, -deg)})
    for off in (1, 2, 3, 5, 6, 7):  # b's, c's, e's all act as zero
        for x in range(9):
            assert bracket(l3f, Element.basis(off), Element.basis(x)).is_zero()


def test_matrix_labels(l3f):
    assert l3f.basis[0] == "x[1,1]"
    assert l3f.basis[5] == "x[2,3]"
    assert spec_label(l3f, 8) == "x[3,3]"
    assert spec_index_of(l3f, "x[2,1]") == 3


def test_exhaustive_small_families():
    for N in (1, 2):
        for n in range(1, 7):
            for f in product(range(n), repeat=N):
                spec = build_matrix_type(MatrixTypeParams.anyonic(N, n, f), check=False)
                assert verify_all(spec).passed, (N, n, f)


def test_n3_spot_checks():
    for n, f in [(2, (0, 1, 1)), (3, (0, 1, 2)), (4, (1, 2, 3)), (6, (0, 2, 5))]:
        spec = build_matrix_type(MatrixTypeParams.anyonic(3, n, f), check=False)
        assert verify_all(spec).passed


def test_n4_sampled():
    rng = random.Random(11)
    for _ in range(3):
        n = rng.randint(1, 6)
        f = tuple(rng.randrange(n) for _ in range(4))
        spec = build_matrix_type(MatrixTypeParams.anyonic(4, n, f), check=False)
        assert verify_all(spec).passed, (n, f)


def test_constructed_spec_always_checked_by_default():
    # check=True is the default and asserts verification internally
    build_matrix_type(MatrixTypeParams.anyonic(2, 4, (0, 3)))


def test_envelope_matches_closed_form():
    """Relations regenerated through the general formula agree with the
    matrix-family closed form coefficient by coefficient."""
    for N, n in [(2, 2), (2, 3), (3, 3), (2, 5)]:
        for f in product(range(n), repeat=N):
            spec = build_matrix_type(MatrixTypeParams.anyonic(N, n, f), check=False)
            for rel in generate_relations(spec, force=True):
                mu, nu = rel.lhs
                m, mdot = divmod(mu, N)
                fsum = (f[m] + f[mdot]) % n
                coeff = spec.bichar.phase_power((fsum,), spec.degrees[nu], -1)
                assert rel.rhs == {(nu, mu): coeff}, (N, n, f, rel.lhs)


def test_bicharacter_mode_matrix_family():
    group = GradingGroup((2, 2))
    bi = Bicharacter(group, matrix=((1, 0), (0, 1)))
    spec = build_matrix_type(MatrixTypeParams(2, bi, ((0, 1), (1, 0))))
    assert verify_all(spec).passed
    bi2 = Bicharacter(GradingGroup((4,)), matrix=((3,),))
    spec2 = build_matrix_type(MatrixTypeParams(2, bi2, ((1,), (2,))))
    assert verify_all(spec2).passed


def test_matrix_params_validation():
    with pytest.raises(ValueError):
        MatrixTypeParams.anyonic(0, 2, ())
    with pytest.raises(ValueError):
        MatrixTypeParams.anyonic(2, 2, (0,))  # f must have N entries


# ---------------------------------------------------------------------------
# the C + g ansatz
# ---------------------------------------------------------------------------

def test_ansatz_abelian_trivial_phases():
    spec = build_ansatz(AnsatzParams.anyonic(4, (2, 2), {}), check=False)
    assert verify_all(spec).passed


def test_ansatz_sl2(sl2_ansatz):
    assert verify_all(sl2_ansatz).passed
    assert classical_jacobi_holds(3, SL2_C)
    assert sl2_ansatz.basis == ("x0", "h", "e", "f")
    # x0 is grouplike with counit 1 and acts as identity
    assert coproduct(sl2_ansatz, Element.basis(0)) == {(0, 0): ONE}
    assert bracket(sl2_ansatz, Element.basis(0), Element.basis(2)) == Element.basis(2)


def test_ansatz_super(super_ansatz):
    assert verify_all(super_ansatz).passed


def test_ansatz_odd_generator_squares_to_zero():
    """One odd generator over Z/2 with zero bracket: the enveloping
    relation x1 x1 = -x1 x1 forces nilpotency."""
    spec = build_ansatz(AnsatzParams.anyonic(2, (1,), {}), check=True)
    rs = build_rewrite_system(generate_relations(spec), spec.dim, labels=spec.basis)
    assert rs.nilpotents == {1}


def test_ansatz_param_validation():
    with pytest.raises(ValueError):
        AnsatzParams.anyonic(2, (1,), {(1, 2, 1): 1})  # j out of range
    with pytest.raises(ValueError):
        AnsatzParams.anyonic(2, (1,), {}, names=("a", "b"))  # name count


def test_ansatz_reduction_sl2():
    report = check_ansatz_reduction(
        AnsatzParams.anyonic(1, (0, 0, 0), SL2_C))
    assert report.phase_condition.passed
    assert report.jacobi_condition.passed
    assert report.homogeneous.passed
    assert report.verify_passed and report.agrees


def test_ansatz_reduction_odd_pair_over_z3():
    report = check_ansatz_reduction(AnsatzParams.anyonic(3, (1, 1), {(1, 2, 1): 1}))
    assert not report.phase_condition.passed
    assert not report.verify_passed
    assert report.agrees  # both reject


def test_ansatz_reduction_z4_even_degrees():
    report = check_ansatz_reduction(AnsatzParams.anyonic(4, (2, 2), {}))
    assert report.phase_condition.passed  # 2*2*2 = 0 mod 4
    assert report.reduced_passed and report.verify_passed and report.agrees


def test_ansatz_reduction_agreement_on_many_parameter_sets():
    """The reduced conditions and the full verifier agree on every tested
    parameter set, including constructed failures."""
    rng = random.Random(5)
    cases = [
        AnsatzParams.anyonic(1, (0, 0, 0), SL2_C),
        AnsatzParams.anyonic(2, SUPER_P, SUPER_C),
        AnsatzParams.anyonic(2, (1, 1), {}),
        AnsatzParams.anyonic(3, (1,), {}),
        AnsatzParams.anyonic(2, (0, 1), {(2, 2, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}),
    ]
    for _ in range(12):
        n = rng.randint(1, 4)
        gdim = rng.randint(1, 2)
        p = tuple(rng.randrange(n) for _ in range(gdim))
        c = {}
        for i in range(1, gdim + 1):
            for j in range(1, gdim + 1):
                for k in range(1, gdim + 1):
                    if rng.random() < 0.3:
                        c[(i, j, k)] = rng.choice([1, -1, 2])
        cases.append(AnsatzParams.anyonic(n, p, c))
    for params in cases:
        report = check_ansatz_reduction(params)
        assert report.agrees, (params.p, params.c, str(report))
