import random
from itertools import product

import pytest

from anylie.algebra import Element, bracket, coproduct, counit, verify_all
from anylie.constructions import build_ansatz, build_matrix_type, check_ansatz_reduction
from anylie.envelope import build_rewrite_system, generate_relations
from anylie.grading import Bicharacter, GradingGroup

from conftest import ONE, SL2_C, SUPER_C, SUPER_P, classical_jacobi_holds, z
from reference import spec_index_of, spec_label


def test_one_dimensional_case():
    spec = build_matrix_type(1, Bicharacter.anyonic(1), (0,))
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
                spec = build_matrix_type(N, Bicharacter.anyonic(n), f)
                assert verify_all(spec).passed, (N, n, f)


def test_n3_spot_checks():
    for n, f in [(2, (0, 1, 1)), (3, (0, 1, 2)), (4, (1, 2, 3)), (6, (0, 2, 5))]:
        spec = build_matrix_type(3, Bicharacter.anyonic(n), f)
        assert verify_all(spec).passed


def test_n4_sampled():
    rng = random.Random(11)
    for _ in range(3):
        n = rng.randint(1, 6)
        f = tuple(rng.randrange(n) for _ in range(4))
        spec = build_matrix_type(4, Bicharacter.anyonic(n), f)
        assert verify_all(spec).passed, (n, f)


def test_constructed_spec_always_checked_by_default():
    spec = build_matrix_type(2, Bicharacter.anyonic(4), (0, 3))
    assert verify_all(spec).passed


def test_envelope_matches_closed_form():
    """Relations regenerated through the general formula agree with the
    matrix-family closed form coefficient by coefficient."""
    for N, n in [(2, 2), (2, 3), (3, 3), (2, 5)]:
        for f in product(range(n), repeat=N):
            spec = build_matrix_type(N, Bicharacter.anyonic(n), f)
            for rel in generate_relations(spec):
                mu, nu = rel.lhs
                m, mdot = divmod(mu, N)
                fsum = (f[m] + f[mdot]) % n
                coeff = spec.bichar.phase((fsum,), spec.degrees[nu], -1)
                assert rel.rhs.terms == {(nu, mu): coeff}, (N, n, f, rel.lhs)


def test_bicharacter_mode_matrix_family():
    group = GradingGroup((2, 2))
    bi = Bicharacter(group, matrix=((1, 0), (0, 1)))
    spec = build_matrix_type(2, bi, ((0, 1), (1, 0)))
    assert verify_all(spec).passed
    bi2 = Bicharacter(GradingGroup((4,)), matrix=((3,),))
    spec2 = build_matrix_type(2, bi2, ((1,), (2,)))
    assert verify_all(spec2).passed


def test_matrix_params_validation():
    with pytest.raises(ValueError, match="N must be >= 1"):
        build_matrix_type(0, Bicharacter.anyonic(2), ())
    with pytest.raises(ValueError, match="one value per row"):
        build_matrix_type(2, Bicharacter.anyonic(2), (0,))


# ---------------------------------------------------------------------------
# the C + g ansatz
# ---------------------------------------------------------------------------

def test_ansatz_abelian_trivial_phases():
    spec = build_ansatz(Bicharacter.anyonic(4), (2, 2), {})
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
    spec = build_ansatz(Bicharacter.anyonic(2), (1,), {})
    assert verify_all(spec).passed
    rs = build_rewrite_system(generate_relations(spec), spec.dim)
    assert rs.nilpotents == {1}


def test_ansatz_param_validation():
    with pytest.raises(ValueError, match="out of range"):
        build_ansatz(Bicharacter.anyonic(2), (1,), {(1, 2, 1): 1})  # j out of range
    with pytest.raises(ValueError, match="out of range"):
        check_ansatz_reduction(Bicharacter.anyonic(2), (1,), {(1, 2, 1): 1})
    with pytest.raises(ValueError, match="one name per g-generator"):
        build_ansatz(Bicharacter.anyonic(2), (1,), {}, names=("a", "b"))


def _reduction_and_full(bichar, p, c):
    """The reduced-condition checks by name, and full verification of the
    built ansatz."""
    report = check_ansatz_reduction(bichar, p, c)
    checks = {ch.name: ch.passed for ch in report.checks}
    assert report.passed == all(checks.values())
    return checks, verify_all(build_ansatz(bichar, p, c)).passed


def test_ansatz_reduction_sl2():
    checks, full = _reduction_and_full(Bicharacter.anyonic(1), (0, 0, 0), SL2_C)
    assert checks == {"ansatz_phase_condition": True, "ansatz_jacobi_condition": True,
                      "ansatz_c_homogeneous": True}
    assert full


def test_ansatz_reduction_odd_pair_over_z3():
    checks, full = _reduction_and_full(Bicharacter.anyonic(3), (1, 1), {(1, 2, 1): 1})
    assert not checks["ansatz_phase_condition"]
    assert not full  # both reject


def test_ansatz_reduction_z4_even_degrees():
    checks, full = _reduction_and_full(Bicharacter.anyonic(4), (2, 2), {})
    assert checks["ansatz_phase_condition"]  # 2*2*2 = 0 mod 4
    assert all(checks.values()) and full


def test_ansatz_reduction_agreement_on_many_parameter_sets():
    """The reduced conditions and the full verifier agree on every tested
    parameter set, including constructed failures."""
    rng = random.Random(5)
    cases = [
        (Bicharacter.anyonic(1), (0, 0, 0), SL2_C),
        (Bicharacter.anyonic(2), SUPER_P, SUPER_C),
        (Bicharacter.anyonic(2), (1, 1), {}),
        (Bicharacter.anyonic(3), (1,), {}),
        (Bicharacter.anyonic(2), (0, 1), {(2, 2, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}),
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
        cases.append((Bicharacter.anyonic(n), p, c))
    for bichar, p, c in cases:
        report = check_ansatz_reduction(bichar, p, c)
        full = verify_all(build_ansatz(bichar, p, c))
        assert report.passed == full.passed, (p, c, str(report), str(full))
