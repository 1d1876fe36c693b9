from fractions import Fraction

import pytest

from anylie.algebra import (AlgebraSpec, SpecFormatError, check_bracket_counit,
                            check_braided_jacobi, check_coalgebra, check_cocommutation,
                            check_delta_bracket, check_grading, verify_all)
from anylie.constructions import build_ansatz, build_matrix_type
from anylie.cyclotomic import CycNum
from anylie.envelope import NCPoly, counit_on_poly
from anylie.grading import Bicharacter

from conftest import ONE, SL2_C, classical_jacobi_holds, z
from reference import bracket_row, delta_row, report_check


def one_dim_case():
    """eps = 1, delta x = x (x) x, [x,x] = x over the trivial grading."""
    bi = Bicharacter.anyonic(1)
    return AlgebraSpec(bi, ["x"], [0], {0: ONE}, {(0, 0, 0): ONE}, {(0, 0, 0): ONE})


def matrix_coproduct(N):
    return {(m * N + md, m * N + a, a * N + md): ONE
            for m in range(N) for md in range(N) for a in range(N)}


def test_one_dim_case_passes():
    report = verify_all(one_dim_case())
    assert report.passed


def test_grading_pass_and_witness(l2f3):
    assert check_grading(l2f3).passed
    # inject eps on the degree -1 generator b
    bad = AlgebraSpec(l2f3.bichar, l2f3.basis, l2f3.degrees,
                      dict(l2f3.eps) | {1: ONE}, l2f3.d, l2f3.c)
    report = check_grading(bad)
    assert not report.passed
    assert report.checks[0].witnesses[0].indices == (1,)


def test_coalgebra_pass_and_counit_failure(l2f3):
    assert check_coalgebra(l2f3).passed
    # matrix coalgebra with eps = 0 cannot be counital
    no_eps = AlgebraSpec(l2f3.bichar, l2f3.basis, l2f3.degrees, {}, l2f3.d, l2f3.c)
    report = check_coalgebra(no_eps)
    assert report_check(report, "coassociativity").passed
    assert not report_check(report, "counit").passed


def test_ansatz_coalgebra_passes(sl2_ansatz):
    assert check_coalgebra(sl2_ansatz).passed


def test_bracket_counit():
    spec = one_dim_case()
    assert check_bracket_counit(spec).passed
    # c = 0 with eps = 1 forces 0 = 1
    zero_c = AlgebraSpec(spec.bichar, spec.basis, spec.degrees, spec.eps, spec.d, {})
    report = check_bracket_counit(zero_c)
    assert not report.passed
    w = report.checks[0].witnesses[0]
    assert w.indices == (0, 0) and w.lhs == 0 and w.rhs == 1


def test_zero_algebra_fails_bracket_counit_only(l2f2):
    spec = AlgebraSpec(l2f2.bichar, l2f2.basis, [0, 0, 0, 0],
                       l2f2.eps, matrix_coproduct(2), {})
    report = verify_all(spec)
    failing = [ch.name for ch in report.checks if not ch.passed]
    assert failing == ["bracket_counit"]


def brute_force_delta_bracket(spec):
    """Dense oracle for the coproduct/bracket compatibility: loops over
    every index tuple with no sparsity shortcuts."""
    dim = spec.dim
    p = spec.degrees
    zero = CycNum.zero()
    for mu in range(dim):
        for nu in range(dim):
            for rho in range(dim):
                for lam in range(dim):
                    lhs = zero
                    for alpha in range(dim):
                        cv = spec.c.get((mu, nu, alpha))
                        dv = spec.d.get((alpha, rho, lam))
                        if cv is not None and dv is not None:
                            lhs = lhs + cv * dv
                    rhs = zero
                    for alpha in range(dim):
                        for beta in range(dim):
                            d1 = spec.d.get((mu, alpha, beta))
                            if d1 is None:
                                continue
                            for gamma in range(dim):
                                for delta in range(dim):
                                    d2 = spec.d.get((nu, gamma, delta))
                                    if d2 is None:
                                        continue
                                    c1 = spec.c.get((beta, delta, lam))
                                    c2 = spec.c.get((alpha, gamma, rho))
                                    if c1 is None or c2 is None:
                                        continue
                                    ph = spec.bichar.phase(p[beta], p[gamma])
                                    rhs = rhs + ph * d1 * d2 * c1 * c2
                    if lhs != rhs:
                        return False
    return True


def test_delta_bracket_on_families(l2f3, l3f, sl2_ansatz):
    for spec in (l2f3, l3f, sl2_ansatz):
        assert check_delta_bracket(spec).passed
        assert brute_force_delta_bracket(spec)


def test_delta_bracket_blind_to_jacobi():
    """A non-Jacobi bracket can still satisfy the coproduct compatibility:
    the axioms are independent."""
    bad_c = dict(SL2_C)
    bad_c[(1, 2, 1)] = 1  # breaks Jacobi
    spec = build_ansatz(Bicharacter.anyonic(1), (0, 0, 0), bad_c)
    assert check_delta_bracket(spec).passed
    assert brute_force_delta_bracket(spec)
    assert not check_braided_jacobi(spec).passed


def test_cocommutation_on_families(l2f2, l2f3):
    assert check_cocommutation(l2f2).passed
    assert check_cocommutation(l2f3).passed


def test_cocommutation_detects_bad_grading():
    # an odd generator over Z/3 violates the doubled-pairing condition
    spec = build_ansatz(Bicharacter.anyonic(3), (1,), {})
    report = check_cocommutation(spec)
    assert not report.passed


def test_cocommutation_trivial_when_phases_trivial():
    spec = build_ansatz(Bicharacter.anyonic(4), (2, 2), {})
    assert check_cocommutation(spec).passed


def test_braided_jacobi_on_families(l3f, sl2_ansatz):
    assert check_braided_jacobi(l3f).passed
    assert check_braided_jacobi(sl2_ansatz).passed
    assert classical_jacobi_holds(3, SL2_C)


def test_braided_jacobi_perturbation_fails():
    bad_c = dict(SL2_C)
    bad_c[(1, 2, 1)] = 1
    assert not classical_jacobi_holds(3, bad_c)
    spec = build_ansatz(Bicharacter.anyonic(1), (0, 0, 0), bad_c)
    report = check_braided_jacobi(spec)
    assert not report.passed
    assert report.checks[0].witnesses  # carries the index tuple and both sides


def test_verify_all_aggregates(l2f3):
    report = verify_all(l2f3)
    assert report.passed
    names = [ch.name for ch in report.checks]
    assert names == ["grading", "coassociativity", "counit", "bracket_counit",
                     "delta_bracket", "cocommutation", "braided_jacobi"]
    # antisymmetry is informational and fails here: [a,a] = a != -a
    assert report.info[0].name == "antisymmetry"
    assert not report.info[0].passed
    assert report.passed  # info never affects the verdict


def test_report_rendering(l2f3):
    text = str(verify_all(l2f3))
    assert "verdict: pass" in text
    data = verify_all(l2f3).to_json()
    assert data["passed"] is True
    assert len(data["checks"]) == 7


# ---------------------------------------------------------------------------
# axiom independence: one spec per check failing exactly that check
# ---------------------------------------------------------------------------

def failing_names(spec):
    return [ch.name for ch in verify_all(spec).checks if not ch.passed]


def test_independence_grading_only():
    bi = Bicharacter.anyonic(2)
    spec = AlgebraSpec(
        bi, ["u", "v"], [0, 1], {0: ONE},
        {(0, 0, 0): ONE, (1, 0, 1): ONE, (1, 1, 0): ONE, (1, 1, 1): ONE},
        {(0, 0, 0): ONE, (0, 1, 1): ONE})
    assert failing_names(spec) == ["grading"]


def test_independence_coalgebra_only():
    bi = Bicharacter.anyonic(1)
    spec = AlgebraSpec(bi, list("abcd"), [0] * 4, {}, matrix_coproduct(2), {})
    assert failing_names(spec) == ["counit"]


def test_independence_bracket_counit_only(l2f2):
    spec = AlgebraSpec(Bicharacter.anyonic(1), list("abcd"), [0] * 4,
                       {0: ONE, 3: ONE}, matrix_coproduct(2), {})
    assert failing_names(spec) == ["bracket_counit"]


def test_independence_delta_bracket_only():
    half = CycNum.from_rational(Fraction(1, 2))
    bi = Bicharacter.anyonic(1)
    spec = AlgebraSpec(
        bi, ["g", "h"], [0, 0], {0: ONE, 1: ONE},
        {(0, 0, 0): ONE, (1, 1, 1): ONE},
        {(0, 0, 0): ONE, (1, 1, 1): ONE,
         (0, 1, 0): half, (0, 1, 1): half, (1, 0, 0): half, (1, 0, 1): half})
    assert failing_names(spec) == ["delta_bracket"]


def test_independence_cocommutation_only():
    spec = build_ansatz(Bicharacter.anyonic(3), (1,), {})
    assert failing_names(spec) == ["cocommutation"]


def test_independence_braided_jacobi_only():
    bad_c = dict(SL2_C)
    bad_c[(1, 2, 1)] = 1
    spec = build_ansatz(Bicharacter.anyonic(1), (0, 0, 0), bad_c)
    assert failing_names(spec) == ["braided_jacobi"]


# ---------------------------------------------------------------------------
# the structure tensors
# ---------------------------------------------------------------------------

def test_eval_examples(l2f3):
    a, b, c, d = range(4)
    assert delta_row(l2f3, a) == {(a, a): ONE, (b, c): ONE}
    for x in range(4):
        assert bracket_row(l2f3, b, x) == {}
    assert bracket_row(l2f3, d, c) == {c: z(3)}
    assert counit_on_poly(l2f3, NCPoly.word((a,)) + NCPoly.word((b,))) == 1


def test_delta_summands_add_to_degree(l2f3):
    group = l2f3.group
    for (mu, nu, rho) in l2f3.d:
        assert group.add(l2f3.degrees[nu], l2f3.degrees[rho]) == l2f3.degrees[mu]


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_spec_json_round_trip(l2f3, l3f, sl2_ansatz):
    for spec in (l2f3, l3f, sl2_ansatz):
        again = AlgebraSpec.from_json(spec.to_json())
        assert again == spec
        assert verify_all(again).passed


def test_spec_json_errors():
    with pytest.raises(SpecFormatError):
        AlgebraSpec.from_json("{not json")
    with pytest.raises(SpecFormatError):
        AlgebraSpec.from_json({"grading": {"group": [3]}, "basis": []})
    with pytest.raises(SpecFormatError):
        AlgebraSpec.from_json({"grading": {"group": [3]},
                               "basis": [{"name": "x", "degree": [0]}],
                               "eps": [{"mu": 5, "val": {"order": 1, "terms": [[0, "1"]]}}]})


def test_sparse_storage_prunes_zeros(l2f3):
    spec = AlgebraSpec(l2f3.bichar, l2f3.basis, l2f3.degrees,
                       {0: CycNum.zero(), 3: ONE},
                       dict(l2f3.d) | {(0, 1, 1): CycNum.zero()}, l2f3.c)
    assert 0 not in spec.eps
    assert (0, 1, 1) not in spec.d


def test_verify_all_concurrent_and_deterministic(l2f3, l3f):
    """Specs are immutable and the checks are pure: hammering verify_all
    from several threads yields identical reports."""
    from concurrent.futures import ThreadPoolExecutor

    for spec in (l2f3, l3f):
        baseline = verify_all(spec).to_json()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: verify_all(spec).to_json(), range(16)))
        assert all(r == baseline for r in results)


def test_cocommutation_fails_with_nonzero_odd_bracket():
    # same bad grading as the abelian case, now with a bracket present
    spec = build_ansatz(Bicharacter.anyonic(3), (1, 1), {(1, 2, 1): 1})
    assert not check_cocommutation(spec).passed


def test_rows_never_publishes_a_half_filled_table():
    """A reader that gets in while a table is filled, here re-entrantly
    from inside the fill, must not see the entries read so far."""
    spec = build_matrix_type(2, Bicharacter.anyonic(3), (0, 1))
    seen = []

    class Spy(dict):
        def items(self):
            for count, item in enumerate(super().items()):
                if count == 3 and not seen:  # one-shot: the inner fill reads items() too
                    seen.append(None)
                    seen[0] = sum(map(len, spec.rows("d", (0,)).values()))
                yield item

    spec.d = Spy(spec.d)
    table = spec.rows("d", (0,))
    assert seen == [8]
    assert sum(map(len, table.values())) == 8
