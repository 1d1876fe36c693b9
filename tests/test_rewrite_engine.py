"""The rewrite engine at any width: elimination against the pairwise
orientation it replaced, and critical pairs against the brute-force
diamond check."""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from anylie.cli import SearchSpace, _parse_alphabet, run_search
from anylie.constructions import build_matrix_type
from anylie.cyclotomic import CycNum
from anylie.envelope import (NCPoly, RewriteSystem, Rule, build_rewrite_system,
                             generate_relations, quotient_by_central_grouplike)
from anylie.grading import Bicharacter

from reference import RelationShapeError, build_rewrite_system_pairwise, word_less

ONE = CycNum.one()


def test_width_three_rule_reduces():
    rs = RewriteSystem(3, [Rule((0, 1, 2), NCPoly.one())])
    assert rs.nf_word((0, 1, 2)) == NCPoly.one()
    assert rs.nf_word((2, 0, 1, 2, 0)) == NCPoly.word((2, 0))
    assert rs._one_step_reducts((0, 1, 2, 1)) == [NCPoly.word((1,))]


def test_critical_pairs_of_a_hand_made_system():
    # ba -> ab, aa -> 0, cba -> 0 over a, b, c = 0, 1, 2
    rs = RewriteSystem(3, [Rule((1, 0), NCPoly.word((0, 1))),
                           Rule((0, 0), NCPoly.zero()),
                           Rule((2, 1, 0), NCPoly.zero())])
    pairs = rs.critical_pairs()
    # overlaps ba.a, aa.a and cba.a; ba inside cba
    assert [word for word, _, _ in pairs] == [(1, 0, 0), (0, 0, 0), (2, 1, 0), (2, 1, 0, 0)]
    word, left, right = pairs[2]
    assert (left, right) == (NCPoly.zero(), NCPoly.word((2, 0, 1)))
    report = rs.check_critical_pairs()
    assert not report.confluent
    assert [word for word, _ in report.divergences] == [(2, 1, 0)]
    assert report.words_checked == 4
    # with cab -> 0 the inclusion resolves, and so does every overlap
    fixed = RewriteSystem(3, rs.rules + [Rule((2, 0, 1), NCPoly.zero())])
    assert fixed.check_critical_pairs().confluent
    assert fixed.check_local_confluence(5).confluent


@st.composite
def descending_rules(draw):
    """1-4 rules over 2 or 3 generators with distinct left sides of width
    1-3, each right side a combination of up to two smaller words."""
    ngens = draw(st.integers(2, 3))
    rs = RewriteSystem(ngens, ())
    words = [w for k in range(4) for w in product(range(ngens), repeat=k)]
    lhss = draw(st.lists(st.sampled_from([w for w in words if w]),
                         min_size=1, max_size=4, unique=True))
    rules = []
    for lhs in lhss:
        below = [w for w in words if word_less(rs, w, lhs)]
        terms = draw(st.lists(st.tuples(st.sampled_from(below), st.sampled_from((1, -1, 2))),
                              max_size=2))
        rules.append(Rule(lhs, sum((NCPoly.word(w, c) for w, c in terms), NCPoly.zero())))
    return RewriteSystem(ngens, rules)


@settings(max_examples=120, deadline=None)
@given(descending_rules())
def test_critical_pairs_agree_with_brute_force(rs):
    width = max(len(rule.lhs) for rule in rs.rules)
    brute = rs.check_local_confluence(max(3, 2 * width - 1))
    assert rs.check_critical_pairs().confluent == brute.confluent


# -- elimination against the pairwise orientation ---------------------------

def _sweep():
    """(name, relations, ngens, order): the matrix family for N <= 3,
    n <= 7 and every f, N=2 under shuffled generator orders, samples at
    N=4, the sl2 and (1|1) ansatz, and the dim-1 and dim-2 search
    solutions."""
    rng = random.Random(6)
    for N in (1, 2, 3):
        for n in range(1, 8):
            for f in product(range(n), repeat=N):
                spec = build_matrix_type(N, Bicharacter.anyonic(n), f)
                rels = generate_relations(spec)
                yield f"N={N} n={n} f={f}", rels, spec.dim, None
                if N == 2:
                    order = rng.sample(range(4), 4)
                    yield f"N=2 n={n} f={f} order={order}", rels, 4, order
    for n, f in ((3, (0, 1, 2, 0)), (4, (0, 1, 2, 3)), (5, (0, 1, 2, 3)), (6, (0, 2, 3, 5))):
        spec = build_matrix_type(4, Bicharacter.anyonic(n), f)
        yield f"N=4 n={n} f={f}", generate_relations(spec), 16, None
    for n in range(1, 9):
        space = SearchSpace(1, Bicharacter.anyonic(n), _parse_alphabet("", n))
        for i, spec in enumerate(run_search(space)):
            yield f"dim 1 n={n} #{i}", generate_relations(spec), 1, None
    for n, alphabet, degrees in ((2, "0,1,-1", ((0,), (1,))), (2, "0,1", ((0,), (0,))),
                                 (2, "0,1", ((1,), (1,)))):
        space = SearchSpace(2, Bicharacter.anyonic(n), _parse_alphabet(alphabet, n),
                            list(degrees))
        for i, spec in enumerate(run_search(space)):
            yield f"dim 2 n={n} {degrees} #{i}", generate_relations(spec), 2, None


def test_elimination_matches_pairwise_orientation(sl2_ansatz, super_ansatz):
    cases = list(_sweep())
    cases += [("sl2", generate_relations(sl2_ansatz), sl2_ansatz.dim, None),
              ("(1|1)", generate_relations(super_ansatz), super_ansatz.dim, None)]
    compared = refused = 0
    for name, rels, ngens, order in cases:
        rs = build_rewrite_system(rels, ngens, order=order)
        # every relation lies in the span of the rules, which descend
        for rel in rels:
            row = NCPoly.word(rel.lhs) - rel.rhs
            assert rs.normal_form(row).is_zero(), (name, rel.lhs)
        for rule in rs.rules:
            assert all(word_less(rs, w, rule.lhs) for w in rule.rhs.terms), (name, rule)
        try:
            old = build_rewrite_system_pairwise(rels, ngens, order=order)
        except RelationShapeError:
            refused += 1
            continue
        compared += 1
        assert [(r.lhs, r.rhs.render()) for r in rs.rules] == \
            [(r.lhs, r.rhs.render()) for r in old.rules], name
    assert compared > 1000 and refused > 0


def test_n2_quotient_is_confluent_beyond_its_widest_overlap(l2f2_rs):
    det = NCPoly({(0, 3): ONE, (2, 1): -ONE})
    q = quotient_by_central_grouplike(l2f2_rs, det)
    assert max(len(rule.lhs) for rule in q.rules) == 4
    assert q.check_critical_pairs().confluent
    assert q.check_local_confluence(7).confluent
    assert q.normal_form(det) == NCPoly.one()
