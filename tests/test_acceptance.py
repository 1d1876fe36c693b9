"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import random
import time
from itertools import product

from anylie.algebra import AlgebraSpec, verify_all
from anylie.anyspace import ThetaPoly, antipode, coproduct as theta_coproduct
from anylie.cli import SearchSpace, run_search
from anylie.constructions import build_ansatz, build_matrix_type, check_ansatz_reduction
from anylie.cyclotomic import CycNum, q_binomial, root_of_unity
from anylie.envelope import (NCPoly, TensorSquarePoly, build_rewrite_system,
                             delta_on_products, generate_relations,
                             quotient_by_central_grouplike)
from anylie.grading import Bicharacter

from conftest import ONE, SL2_C, SUPER_C, SUPER_P, random_word, z
from reference import check_local_confluence


class _criterion:
    """Prints the PASS/FAIL line for a criterion whatever the outcome."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {verdict}")
        return False


def _example_systems():
    """Every example algebra with its rewrite system."""
    out = []
    for spec in (
        build_matrix_type(2, Bicharacter.anyonic(3), (0, 1)),
        build_matrix_type(2, Bicharacter.anyonic(2), (0, 1)),
        build_matrix_type(3, Bicharacter.anyonic(3), (0, 1, 2)),
        build_ansatz(Bicharacter.anyonic(1), (0, 0, 0), SL2_C, names=("h", "e", "f")),
        build_ansatz(Bicharacter.anyonic(2), SUPER_P, SUPER_C, names=("h", "q")),
    ):
        rs = build_rewrite_system(generate_relations(spec), spec.dim)
        out.append((spec, rs))
    return out


def test_criterion_01_matrix_family_exhaustive():
    with _criterion(1, "matrix family verifies for all N<=3, n<=6, all f"):
        start = time.monotonic()
        count = 0
        for N in (1, 2, 3):
            for n in range(1, 7):
                for f in product(range(n), repeat=N):
                    spec = build_matrix_type(N, Bicharacter.anyonic(n), f)
                    report = verify_all(spec)
                    assert report.passed, (N, n, f, str(report))
                    count += 1
        elapsed = time.monotonic() - start
        assert count == sum(n ** N for N in (1, 2, 3) for n in range(1, 7))
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_z3_example_relations(tmp_path, capsys):
    with _criterion(2, "L_{2,f} at n=3 derives the six zero products and cb = z3*bc"):
        spec = build_matrix_type(2, Bicharacter.anyonic(3), (0, 1))
        a, b, c, d = range(4)
        rs = build_rewrite_system(generate_relations(spec), 4)
        assert rs.zero_pairs == {(b, d), (d, b), (c, d), (d, c)}
        assert rs.nilpotents == {b, c}
        assert rs.nf_word((c, b)) == NCPoly({(b, c): z(3)})
        # nothing else collapses: a commutes, d^2 and powers of b*c survive
        assert rs.nf_word((a, a)) == NCPoly({(a, a): ONE})
        assert rs.nf_word((d, d)) == NCPoly({(d, d): ONE})
        assert rs.nf_word((b, c)) == NCPoly({(b, c): ONE})
        # the same content through the command line
        from anylie.cli import main
        path = tmp_path / "l2f3.json"
        path.write_text(json.dumps(spec.to_json()))
        assert main(["env", str(path)]) == 0
        out = capsys.readouterr().out
        assert "x[2,1]*x[1,2] = (z3)*x[1,2]*x[2,1]" in out
        assert ("zero products: x[1,2]*x[2,2], x[2,1]*x[2,2], "
                "x[2,2]*x[1,2], x[2,2]*x[2,1]") in out
        assert "nilpotent generators: x[1,2], x[2,1]" in out


def test_criterion_03_super_example_m11():
    with _criterion(3, "U(L_{2,f}) at n=2 is the super-matrix algebra M_{1|1}"):
        spec = build_matrix_type(2, Bicharacter.anyonic(2), (0, 1))
        a, b, c, d = range(4)
        rs = build_rewrite_system(generate_relations(spec), 4)
        for x in range(4):
            assert rs.normal_form(
                NCPoly.word((a, x)) - NCPoly.word((x, a))).is_zero()
            assert rs.normal_form(
                NCPoly.word((d, x)) - NCPoly.word((x, d))).is_zero()
        assert rs.nilpotents == {b, c}
        assert rs.zero_pairs == set()
        assert rs.nf_word((c, b)) == NCPoly({(b, c): -ONE})


def test_criterion_04_l3f_relations():
    with _criterion(4, "L_{3,f} quasi-commutation phases and zero products"):
        spec = build_matrix_type(3, Bicharacter.anyonic(3), (0, 1, 2))
        aa, bm, bp, cp, dp, em, cm, ep, dm = range(9)
        rs = build_rewrite_system(generate_relations(spec), 9)
        # b+-c+- = z3 c+-b+- and b+-c-+ = z3^-1 c-+b+-
        assert rs.nf_word((cp, bp)) == NCPoly({(bp, cp): z(3, -1)})
        assert rs.nf_word((cm, bm)) == NCPoly({(bm, cm): z(3, -1)})
        assert rs.nf_word((cm, bp)) == NCPoly({(bp, cm): z(3)})
        assert rs.nf_word((cp, bm)) == NCPoly({(bm, cp): z(3)})
        # d's commute among themselves; a is central
        assert rs.normal_form(
            NCPoly.word((dm, dp)) - NCPoly.word((dp, dm))).is_zero()
        for g in range(9):
            assert rs.normal_form(
                NCPoly.word((aa, g)) - NCPoly.word((g, aa))).is_zero()
        # nilpotents and the full zero set
        assert rs.nilpotents == {bp, bm, cp, cm}
        expected = set()
        for x, y in [(bp, bm), (cp, cm)]:
            expected |= {(x, y), (y, x)}
        for x in (bp, bm, cp, cm):
            for y in (dp, dm, ep, em):
                expected |= {(x, y), (y, x)}
        for x in (dp, dm):
            for y in (ep, em):
                expected |= {(x, y), (y, x)}
        assert rs.zero_pairs == expected


def test_criterion_05_grouplike_central_quotient():
    with _criterion(5, "ad-cb is grouplike and central; quotient gives b=c=0, ad=1"):
        spec = build_matrix_type(2, Bicharacter.anyonic(3), (0, 1))
        a, b, c, d = range(4)
        rs = build_rewrite_system(generate_relations(spec), 4)
        det = NCPoly({(a, d): ONE, (c, b): -ONE})
        delta = delta_on_products(spec, rs, det)
        nf = rs.normal_form(det)
        square = TensorSquarePoly(
            spec, {(w1, w2): v1 * v2 for w1, v1 in nf.terms.items()
                   for w2, v2 in nf.terms.items()}).normalized(rs)
        assert delta == square
        central, witnesses = rs.is_central(det)
        assert central, witnesses
        quotient = quotient_by_central_grouplike(rs, det)
        assert quotient.nf_word((b,)).is_zero()
        assert quotient.nf_word((c,)).is_zero()
        assert quotient.nf_word((a, d)) == NCPoly.one()
        assert quotient.nf_word((d, a)) == NCPoly.one()


def test_criterion_06_anyspace_additivity():
    with _criterion(6, "(t + t')^n = 0 for 2<=n<=12 with Gaussian-binomial coefficients"):
        for n in range(2, 13):
            zn = root_of_unity(n, 1)
            tsum = ThetaPoly(n, 2, {(1, 0): ONE, (0, 1): ONE})
            power = ThetaPoly.one(n, 2)
            for k in range(1, n):
                power = power * tsum
                assert power.terms, (n, k)
                for (i, j), coeff in power.terms.items():
                    assert i + j == k
                    assert coeff == q_binomial(k, j, zn), (n, k, j)
            assert (power * tsum).is_zero(), n
            for k in range(1, n):
                assert q_binomial(n, k, zn).is_zero(), (n, k)


def test_criterion_07_anyspace_coalgebra_laws():
    with _criterion(7, "coassociativity, counit and antipode laws for n<=8"):
        for n in range(2, 9):
            t1, t2, t3 = (ThetaPoly.theta(n, 3, s) for s in (1, 2, 3))
            for k in range(n):
                mono = ThetaPoly.monomial(n, (k,))
                dp = theta_coproduct(mono)
                # coassociativity in the 3-fold braided power
                left = ThetaPoly.zero(n, 3)
                right = ThetaPoly.zero(n, 3)
                for (i, j), v in dp.terms.items():
                    left = left + (((t1 + t2) ** i) * (t3 ** j)).scaled(v)
                    right = right + ((t1 ** i) * ((t2 + t3) ** j)).scaled(v)
                assert left == right == ((t1 + t2 + t3) ** k), (n, k)
                # counit laws
                keep_l = ThetaPoly.zero(n, 1)
                keep_r = ThetaPoly.zero(n, 1)
                for (i, j), v in dp.terms.items():
                    if i == 0:
                        keep_l = keep_l + ThetaPoly.monomial(n, (j,)).scaled(v)
                    if j == 0:
                        keep_r = keep_r + ThetaPoly.monomial(n, (i,)).scaled(v)
                assert keep_l == keep_r == mono
                # antipode law and its mirror
                law_l = ThetaPoly.zero(n, 1)
                law_r = ThetaPoly.zero(n, 1)
                for (i, j), v in dp.terms.items():
                    law_l = law_l + (antipode(ThetaPoly.monomial(n, (i,)))
                                     * ThetaPoly.monomial(n, (j,))).scaled(v)
                    law_r = law_r + (ThetaPoly.monomial(n, (i,))
                                     * antipode(ThetaPoly.monomial(n, (j,)))).scaled(v)
                want = ThetaPoly.one(n) if k == 0 else ThetaPoly.zero(n, 1)
                assert law_l == want and law_r == want, (n, k)


def test_criterion_08_ansatz_equivalence():
    with _criterion(8, "reduced ansatz conditions agree with full verification"):
        rng = random.Random(41)
        cases = [
            (Bicharacter.anyonic(1), (0, 0, 0), SL2_C),
            (Bicharacter.anyonic(2), SUPER_P, SUPER_C),
        ]
        # constructed failures: broken Jacobi, broken phase condition
        bad_jacobi = dict(SL2_C)
        bad_jacobi[(1, 2, 1)] = 1
        cases.append((Bicharacter.anyonic(1), (0, 0, 0), bad_jacobi))
        cases.append((Bicharacter.anyonic(3), (1, 1), {(1, 2, 1): 1}))
        cases.append((Bicharacter.anyonic(3), (1,), {}))
        # randomized parameter sets around sl2 and the super pair
        for _ in range(20):
            n = rng.choice([1, 2])
            if n == 1:
                c = dict(SL2_C)
                key = rng.choice(list(c))
                c[key] = c[key] + rng.choice([0, 1, -1])
                cases.append((Bicharacter.anyonic(1), (0, 0, 0), c))
            else:
                c = dict(SUPER_C)
                if rng.random() < 0.5:
                    c[(2, 2, 1)] = rng.choice([1, -1, 2])
                if rng.random() < 0.5:
                    c[(1, 2, 2)] = rng.choice([1, -1])
                    c[(2, 1, 2)] = rng.choice([1, -1])
                cases.append((Bicharacter.anyonic(2), SUPER_P, c))
        agreements = 0
        for bichar, p, c in cases:
            report = check_ansatz_reduction(bichar, p, c)
            full = verify_all(build_ansatz(bichar, p, c))
            assert report.passed == full.passed, (p, c, str(report), str(full))
            agreements += 1
        assert agreements == len(cases)
        # and the two flagship cases verify positively
        assert check_ansatz_reduction(*cases[0]).passed
        assert check_ansatz_reduction(*cases[1]).passed


def test_criterion_09_property_suites():
    with _criterion(9, "field axioms, rewriting laws, Delta homomorphism, confluence"):
        # cyclotomic field axioms on 10^4 randomized triples
        rng = random.Random(97)

        def rand_cyc():
            order = rng.randint(1, 6)
            return CycNum(order, [rng.randint(-3, 3) for _ in range(order)])

        for i in range(10_000):
            a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if i % 10 == 0 and not b.is_zero():
                assert (a / b) * b == a

        systems = _example_systems()
        for spec, rs in systems:
            group = spec.group

            def wdeg(word):
                total = group.zero()
                for g in word:
                    total = group.add(total, spec.degrees[g])
                return total

            # normal-form idempotence and degree preservation
            for _ in range(40):
                word = tuple(rng.randrange(spec.dim)
                             for _ in range(rng.randint(1, 4)))
                nf = rs.nf_word(word)
                assert rs.normal_form(nf) == nf
                for w in nf.terms:
                    assert wdeg(w) == wdeg(word)

            # Delta homomorphism law on random words of length <= 3
            for _ in range(10):
                u = NCPoly.word(random_word(rng, spec.dim))
                v = NCPoly.word(random_word(rng, spec.dim))
                lhs = delta_on_products(spec, rs, u * v)
                rhs = (delta_on_products(spec, rs, u)
                       * delta_on_products(spec, rs, v)).normalized(rs)
                assert lhs == rhs

            # local confluence at degree cap 4
            report = check_local_confluence(rs, 4)
            assert report.confluent, report.render(spec.basis)


def test_criterion_10_desk_scale_search(capsys):
    with _criterion(10, "dimension-1 searches behave as predicted"):
        alphabet = [CycNum.zero(), CycNum.one(), -CycNum.one()]
        space = SearchSpace(1, Bicharacter.anyonic(1), alphabet)
        solutions = list(run_search(space))
        target = AlgebraSpec(Bicharacter.anyonic(1), ["x0"], [0],
                             {0: ONE}, {(0, 0, 0): ONE}, {(0, 0, 0): ONE})
        assert any(sol == target for sol in solutions)

        alphabet3 = alphabet + [z(3), z(3, 2)]
        space3 = SearchSpace(1, Bicharacter.anyonic(3), alphabet3,
                             degrees=[(1,)], require_nonzero_delta=True)
        assert list(run_search(space3)) == []

        # and through the command line
        from anylie.cli import main
        assert main(["search", "--dim", "1", "--n", "1",
                     "--alphabet", "0,1,-1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 2 and data["candidates"] == 27
        assert target.to_json() in data["solutions"]
        assert main(["search", "--dim", "1", "--n", "3", "--degrees", "1",
                     "--require-nonzero-delta", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0
