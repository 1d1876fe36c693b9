import copy
import random

import pytest

from anylie.algebra import AlgebraSpec, verify_all
from anylie.cyclotomic import CycNum
from anylie.envelope import (NCPoly, RewriteSystem, Rule, TensorSquarePoly,
                             build_rewrite_system, counit_on_poly,
                             delta_on_products, generate_relations,
                             is_grouplike, quotient_by_central_grouplike)

from conftest import ONE, random_word, rewrite_system_for, z
from reference import check_local_confluence, word_less

A, B, C, D = range(4)


def test_ncpoly_arithmetic():
    p = NCPoly.word((A, B)) + NCPoly.word((B,), 2)
    q = NCPoly.word((C,))
    assert (p * q).terms == {(A, B, C): ONE, (B, C): CycNum.promote(2)}
    assert (p - p).is_zero()
    assert NCPoly.one() * p == p
    assert (2 * p).terms[(B,)] == 4
    assert p.render(("a", "b", "c")) == "(2)*b + (1)*a*b"


def test_generated_relations_worked_examples(l2f3, l2f2):
    rel3 = {r.lhs: r.rhs.terms for r in generate_relations(l2f3)}
    assert rel3[(C, B)] == {(B, C): z(3)}
    assert rel3[(B, C)] == {(C, B): z(3, 2)}
    for x in range(4):
        assert rel3[(A, x)] == {(x, A): ONE}
    rel2 = {r.lhs: r.rhs.terms for r in generate_relations(l2f2)}
    assert rel2[(B, C)] == {(C, B): -ONE}
    assert rel2[(C, B)] == {(B, C): -ONE}


def test_relations_of_unverified_spec(l2f3):
    """The library does not verify: a counit that breaks the axioms enters
    no relation, so the broken spec has the relations of the good one."""
    broken = AlgebraSpec(l2f3.bichar, l2f3.basis, l2f3.degrees,
                         dict(l2f3.eps) | {1: ONE}, l2f3.d, l2f3.c)
    assert not verify_all(broken).passed
    assert generate_relations(broken) == generate_relations(l2f3)


def test_rewrite_system_l2f3(l2f3_rs):
    assert l2f3_rs.zero_pairs == {(B, D), (D, B), (C, D), (D, C)}
    assert l2f3_rs.nilpotents == {B, C}
    assert l2f3_rs.nf_word((D, B)).is_zero()
    assert l2f3_rs.nf_word((B, D)).is_zero()
    assert l2f3_rs.nf_word((C, B)) == NCPoly({(B, C): z(3)})
    assert l2f3_rs.nf_word((B, B)).is_zero()
    assert l2f3_rs.nf_word((D, A)) == NCPoly({(A, D): ONE})


def test_rewrite_system_m11(l2f2_rs):
    assert l2f2_rs.nilpotents == {B, C}
    assert l2f2_rs.zero_pairs == set()
    assert l2f2_rs.nf_word((C, B)) == NCPoly({(B, C): -ONE})
    assert l2f2_rs.nf_word((D, B)) == NCPoly({(B, D): ONE})
    assert l2f2_rs.nf_word((D, A)) == NCPoly({(A, D): ONE})


def test_rewrite_system_l3f(l3f_rs):
    aa, bm, bp, cp, dp, em, cm, ep, dm = range(9)
    assert l3f_rs.nilpotents == {bm, bp, cp, cm}
    expected = set()
    for x, y in [(bp, bm), (cp, cm)]:
        expected |= {(x, y), (y, x)}
    for x in (bp, bm, cp, cm):
        for y in (dp, dm, ep, em):
            expected |= {(x, y), (y, x)}
    for x in (dp, dm):
        for y in (ep, em):
            expected |= {(x, y), (y, x)}
    assert l3f_rs.zero_pairs == expected
    # b+- c+- quasi-commutation phases
    assert l3f_rs.nf_word((cp, bp)) == NCPoly({(bp, cp): z(3, 2)})
    assert l3f_rs.nf_word((cm, bm)) == NCPoly({(bm, cm): z(3, 2)})
    assert l3f_rs.nf_word((cm, bp)) == NCPoly({(bp, cm): z(3)})
    assert l3f_rs.nf_word((bp, cp)) == NCPoly({(bp, cp): ONE})
    # d's commute among themselves, e's too, a is central
    assert l3f_rs.nf_word((dm, dp)) == NCPoly({(dp, dm): ONE})
    assert l3f_rs.nf_word((ep, em)) == NCPoly({(em, ep): ONE})
    for g in range(9):
        diff = l3f_rs.normal_form(NCPoly.word((aa, g)) - NCPoly.word((g, aa)))
        assert diff.is_zero()


def test_custom_generator_order(l2f3):
    rs = build_rewrite_system(generate_relations(l2f3), 4, order=(3, 2, 1, 0))
    # with d smallest, bc rewrites towards cb instead
    assert rs.nf_word((B, C)) == NCPoly({(C, B): z(3, 2)})
    assert rs.zero_pairs == {(B, D), (D, B), (C, D), (D, C)}


def test_bad_order_rejected(l2f3):
    with pytest.raises(ValueError):
        build_rewrite_system(generate_relations(l2f3), 4, order=(0, 1, 2, 2))


def test_normal_form_idempotent_and_degree_preserving(l2f3, l2f3_rs):
    rng = random.Random(3)
    group = l2f3.group

    def wdeg(word):
        total = group.zero()
        for g in word:
            total = group.add(total, l2f3.degrees[g])
        return total

    for _ in range(80):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
        nf = l2f3_rs.nf_word(word)
        assert l2f3_rs.normal_form(nf) == nf
        for w in nf.terms:
            assert wdeg(w) == wdeg(word)


def test_local_confluence_of_families(l2f2_rs, l3f_rs, sl2_rs):
    assert check_local_confluence(l2f2_rs, 4).confluent
    assert check_local_confluence(l3f_rs, 3).confluent
    assert check_local_confluence(sl2_rs, 4).confluent


def test_inconsistent_system_divergence_witness(l2f3):
    """Dropping the derived zero-pair closure and keeping both raw
    quasi-commutation orientations makes reduction ambiguous."""
    rules = [
        Rule((D, B), NCPoly({(B, D): z(3, 2)})),
        Rule((D, B), NCPoly({(B, D): ONE})),
    ]
    rs = RewriteSystem(4, rules)
    report = check_local_confluence(rs, 3)
    assert not report.confluent
    word, forms = report.divergences[0]
    assert (D, B) == word[-2:] or (D, B) == word[:2]
    assert len(forms) == 2
    lines = report.render("abcd").splitlines()
    assert lines[:2] == ["NOT confluent (9 divergent words)",
                         "  word d*b: normal forms (-1-z3)*b*d; (1)*b*d"]
    # the critical pairs see d*b twice, once per rule, and render counts words
    pairs = rs.check_critical_pairs()
    assert [word for word, _ in pairs.divergences] == [(D, B), (D, B)]
    assert pairs.render("abcd").splitlines() == ["NOT confluent (1 divergent words)", lines[1]]


def test_shape_errors():
    """Elimination orients any span at its largest words: the inputs the
    pairwise orientation refused, quadratic or not, give rule sets."""
    def rules_of(relations):
        rs = build_rewrite_system(relations, 2)
        return {r.lhs: r.rhs for r in rs.rules}

    def rel(lhs, rhs):
        return Rule(lhs, NCPoly({w: ONE for w in rhs}))

    # x0^2 = x1^2 ascends: the pivot is the larger word x1x1
    assert rules_of([rel((0, 0), [(1, 1)])]) == {(1, 1): NCPoly.word((0, 0))}
    # a lone relation needs no partner
    assert rules_of([rel((0, 1), [(1, 0)])]) == {(1, 0): NCPoly.word((0, 1))}
    # x1 x1 = x1 x1 + x0 x0 leaves 0 = x0 x0
    assert rules_of([rel((1, 1), [(1, 1), (0, 0)])]) == {(0, 0): NCPoly.zero()}
    # width three: x0 x0 x1 is the largest word of its row
    assert rules_of([rel((0, 0, 1), [(1, 0)])]) == {(0, 0, 1): NCPoly.word((1, 0))}
    # a linear right side: x0 x1 -> x1
    assert rules_of([rel((0, 1), [(1,)])]) == {(0, 1): NCPoly.word((1,))}


def test_delta_on_products_examples(l2f3, l2f3_rs, l2f2, l2f2_rs):
    det = NCPoly({(A, D): ONE, (C, B): -ONE})
    delta = delta_on_products(l2f3, l2f3_rs, det)
    nf = l2f3_rs.normal_form(det)
    square = TensorSquarePoly(
        l2f3, {(w1, w2): v1 * v2 for w1, v1 in nf.terms.items()
               for w2, v2 in nf.terms.items()}).normalized(l2f3_rs)
    assert delta == square
    assert is_grouplike(l2f3, l2f3_rs, det) == (True, [])
    assert delta_on_products(l2f3, l2f3_rs, NCPoly.one()) == TensorSquarePoly(l2f3) ** 0
    assert delta_on_products(l2f2, l2f2_rs, NCPoly.word((B, B))).is_zero()


def test_delta_homomorphism_law(l2f3, l2f3_rs, l2f2, l2f2_rs, l3f, l3f_rs,
                                sl2_ansatz, sl2_rs):
    rng = random.Random(17)
    for spec, rs in [(l2f3, l2f3_rs), (l2f2, l2f2_rs), (l3f, l3f_rs),
                     (sl2_ansatz, sl2_rs)]:
        for _ in range(12):
            u = NCPoly.word(random_word(rng, spec.dim))
            v = NCPoly.word(random_word(rng, spec.dim))
            lhs = delta_on_products(spec, rs, u * v)
            rhs = (delta_on_products(spec, rs, u)
                   * delta_on_products(spec, rs, v)).normalized(rs)
            assert lhs == rhs, (spec.basis, u, v)


def test_is_grouplike_names_the_defect(l2f3, l2f3_rs, l2f2_rs, l2f2):
    """At n=2, x[2,2] x[1,2] = x[1,2] x[2,2], so ad - cb is not grouplike;
    a generator is not grouplike either, and 0 has counit 0."""
    det = NCPoly({(A, D): ONE, (C, B): -ONE})
    ok, witnesses = is_grouplike(l2f2, l2f2_rs, det)
    assert not ok
    assert [(name, w.render()) for name, w in witnesses] == \
        [("delta", "(2)*x[1,2]*x[2,2](x)x[2,1]*x[2,2]")]
    ok, witnesses = is_grouplike(l2f3, l2f3_rs, NCPoly.word((A,)))
    assert [(name, w.render()) for name, w in witnesses] == [("delta", "(1)*x[1,2](x)x[2,1]")]
    assert is_grouplike(l2f3, l2f3_rs, NCPoly.zero()) == (False, [("counit", CycNum.zero())])


def test_counit_on_products(l2f3, l2f3_rs):
    rng = random.Random(23)
    for _ in range(60):
        w = NCPoly.word(random_word(rng, 4, max_len=4))
        assert counit_on_poly(l2f3, l2f3_rs.normal_form(w)) == counit_on_poly(l2f3, w)


def test_is_central_examples(l2f3_rs, l2f2_rs):
    det = NCPoly({(A, D): ONE, (C, B): -ONE})
    ok, _ = l2f3_rs.is_central(det)
    assert ok
    ok, _ = l2f3_rs.is_central(NCPoly.word((A,)))
    assert ok
    ok, witnesses = l2f2_rs.is_central(NCPoly.word((B,)))
    assert not ok
    assert witnesses[0][0] == C


def test_quotient_by_determinant(l2f3, l2f3_rs):
    det = NCPoly({(A, D): ONE, (C, B): -ONE})
    q = quotient_by_central_grouplike(l2f3_rs, det)
    assert q.nf_word((B,)).is_zero()
    assert q.nf_word((C,)).is_zero()
    assert q.nf_word((A, D)) == NCPoly.one()
    assert q.nf_word((D, A)) == NCPoly.one()
    # the quotient is the Laurent ring in a: powers of a stay free
    assert q.nf_word((A, A)) == NCPoly({(A, A): ONE})


@pytest.mark.parametrize("quotient", [False, True])
def test_queries_leave_a_rewrite_system_unchanged(l2f3_rs, quotient):
    """normal_form is a pure function of the rules: nothing is memoised."""
    det = NCPoly({(A, D): ONE, (C, B): -ONE})
    rs = quotient_by_central_grouplike(l2f3_rs, det) if quotient else l2f3_rs
    before = copy.deepcopy(vars(rs))
    for word in [(A,), (D, A), (C, B, A), (D, C, B, A), (D, D, A, A)]:
        rs.nf_word(word)
    assert rs.check_critical_pairs().confluent
    assert rs.is_central(det)[0]
    assert vars(rs) == before


def test_quotient_by_x0_realizes_classical_enveloping(sl2_ansatz, sl2_rs):
    x0, h, e, f = range(4)
    q = quotient_by_central_grouplike(sl2_rs, NCPoly.word((x0,)))
    assert q.nf_word((f, e)) == NCPoly({(e, f): ONE, (h,): -ONE})
    assert q.nf_word((e, h)) == NCPoly({(h, e): ONE, (e,): CycNum.promote(-2)})
    comm = q.normal_form(NCPoly.word((e, f)) - NCPoly.word((f, e)))
    assert comm == NCPoly({(h,): ONE})


def test_quotient_reproduces_quasi_commutation_of_ansatz(super_ansatz):
    """x^i x^j - beta(p_i, p_j) x^j x^i = c^{ij}_a x^a after setting x0 = 1."""
    q = quotient_by_central_grouplike(rewrite_system_for(super_ansatz), NCPoly.word((0,)))
    hh, qq = 1, 2
    phase = super_ansatz.bichar.phase(super_ansatz.degrees[qq], super_ansatz.degrees[qq])
    lhs = q.normal_form(NCPoly.word((qq, qq)) - NCPoly.word((qq, qq), phase))
    assert lhs == NCPoly({(hh,): ONE})


def test_quotient_rejects_noncentral(l2f2_rs):
    with pytest.raises(ValueError):
        quotient_by_central_grouplike(l2f2_rs, NCPoly.word((B,)))
    with pytest.raises(ValueError):
        quotient_by_central_grouplike(l2f2_rs, NCPoly.zero())


def test_tensor_square_render(l2f3, l2f3_rs):
    delta = delta_on_products(l2f3, l2f3_rs, NCPoly.word((A,)))
    assert "(x)" in delta.render()


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=5),
       st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=5))
def test_normal_form_is_multiplicative_modulo_relations(l2f3_rs, u, v):
    """nf(u * v) = nf(nf(u) * nf(v)): rewriting is a congruence."""
    pu, pv = NCPoly.word(tuple(u)), NCPoly.word(tuple(v))
    direct = l2f3_rs.normal_form(pu * pv)
    staged = l2f3_rs.normal_form(l2f3_rs.normal_form(pu) * l2f3_rs.normal_form(pv))
    assert direct == staged


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4))
def test_normal_form_never_increases_word_order(l3f_rs, word):
    word = tuple(word)
    nf = l3f_rs.nf_word(word)
    for w in nf.terms:
        assert not word_less(l3f_rs, word, w)
