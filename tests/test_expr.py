"""The one expression grammar behind `env --quotient` and `anyspace
expand`, unit cases plus a differential test against the two parsers it
replaced (kept in tests/reference.py)."""

import random
import re
import sys

import pytest

import reference as old
from anylie import cli
from anylie.algebra import AlgebraSpec, SpecFormatError
from anylie.anyspace import ExprError, ThetaPoly, parse_theta_expr
from anylie.envelope import NCPoly
from anylie.expr import parse_expr

# labels for the four generators of l2f3; two contain '(' or '^', and
# "a" is a prefix of "ab"
LABELS = ["a", "ab", "(c", "d^"]


@pytest.fixture(scope="module")
def spec(l2f3):
    return AlgebraSpec(l2f3.bichar, LABELS, l2f3.degrees, l2f3.eps, l2f3.d, l2f3.c)


def test_precedence_and_juxtaposition():
    t1 = ThetaPoly.theta(5, 2, 1)
    t2 = ThetaPoly.theta(5, 2, 2)
    assert parse_theta_expr("-t1^2", 5, 2) == (-t1) ** 2 == t1 * t1
    assert parse_theta_expr("-(t1^2)", 5, 2) == -(t1 * t1)
    assert parse_theta_expr("-t1^3", 5, 2) == -(t1 * t1 * t1)
    assert parse_theta_expr("-2^2 + 3^0", 5, 2) == ThetaPoly.one(5, 2).scaled(5)
    assert parse_theta_expr("t1 2", 5, 2) == parse_theta_expr("2 t1", 5, 2) == t1.scaled(2)
    assert parse_theta_expr("t2 t1^2 3", 5, 2) == (t2 * t1 * t1).scaled(3)
    assert parse_theta_expr("2 3 - 12", 5, 2) == ThetaPoly.one(5, 2).scaled(-6)
    assert parse_theta_expr("t1 - - + t2", 5, 2) == t1 + t2


def test_quotient_grammar(spec):
    a, b, c, d = (NCPoly.word((g,)) for g in range(4))
    assert cli._parse_poly(spec, "ab(c - d^ - + a") == b * c - d - a
    assert cli._parse_poly(spec, "(a - ab)^2 3") == ((a - b) * (a - b)).scaled(3)
    assert cli._parse_poly(spec, "d^^2") == d * d
    assert cli._parse_poly(spec, "((c)") == c
    assert cli._parse_poly(spec, "a * - ab") == -(a * b)
    assert cli._parse_poly(spec, "  ") == NCPoly.zero()


@pytest.mark.parametrize("text, where", [
    ("t1 +", "position 4"), ("(t1", "position 3"), ("t1 ^ t1", "position 5"),
    ("t1 ) ", "position 3"), ("* t1", "position 0"), ("t1 q", "position 3"),
])
def test_errors_quote_the_text(text, where):
    with pytest.raises(ExprError) as info:
        parse_theta_expr(text, 3, 2)
    assert repr(text) in str(info.value) and where in str(info.value)


def test_long_sign_runs_and_deep_brackets():
    """Sign runs of any length read, as in the flat parser; brackets too
    deep for the recursion limit are one ExprError, not a traceback."""
    assert parse_theta_expr("-" * 5001 + "t1", 3) == -ThetaPoly.theta(3)
    with pytest.raises(ExprError, match="nested too deeply"):
        parse_theta_expr("(" * 3000 + "t1" + ")" * 3000, 3)


def test_integers_are_multiples_of_one():
    one = NCPoly.one()
    assert parse_expr("0", one, lambda text, pos: None).is_zero()
    assert parse_expr("2^10 - 24", one, lambda text, pos: None) == one.scaled(1000)


def test_literal_length_follows_the_interpreters_digit_limit():
    """A literal is bounded by the interpreter's current int-string limit,
    not a fixed count: refused at its position past a lowered limit, read
    at any length with the limit off."""
    one, no_atom = NCPoly.one(), (lambda text, pos: None)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert parse_expr("1" * 640, one, no_atom) == one.scaled(int("1" * 640))
        with pytest.raises(ExprError, match="integer of 641 digits at position 2 .* at most 640"):
            parse_expr("2 " + "1" * 641, one, no_atom)
        sys.set_int_max_str_digits(0)
        assert parse_expr("1" * 5000, one, no_atom).scaled(9) == one.scaled(10 ** 5000 - 1)
    finally:
        sys.set_int_max_str_digits(saved)


def _random_text(rng, pieces, weights):
    out = []
    for piece in rng.choices(pieces, weights, k=rng.randint(1, 10)):
        if out and out[-1][-1].isdigit() and piece[0].isdigit():
            out.append(" ")  # two integer pieces must not merge into one
        out.append(piece)
    return "".join(out)


def _parse_or_none(parse, *args):
    try:
        return parse(*args)
    except ValueError:  # ExprError, SpecFormatError, or a bad ThetaPoly
        return None


def _sign_fixed(text):
    """text with every '+' deleted that follows a '-' in its run of signs."""
    def fix(match):
        run = match.group()
        cut = run.find("-") + 1
        return run[:cut] + run[cut:].replace("+", "") if cut else run
    return re.sub(r"[-+](?:\s*[-+])*", fix, text)


def test_quotient_parser_matches_flat_parser(spec):
    """Every input the flat parser read means the same, except that a '+'
    after a '-' no longer cancels it.  New inputs use '(', ')' or '^'
    outside a label, or a sign right after '*'."""
    rng = random.Random(8)
    pieces = LABELS + ["e", "0", "1", "2", "3", "+", "-", "*", " ", "(", ")", "^"]
    weights = [3] * 4 + [1, 1, 1, 1, 1, 3, 3, 3, 3, 1, 1, 1]
    seen = {"same": 0, "sign fixed": 0, "grouping": 0, "sign after *": 0}
    for _ in range(20_000):
        text = _random_text(rng, pieces, weights)
        new = _parse_or_none(cli._parse_poly, spec, text)
        try:
            flat = old._parse_poly(spec, text)
        except SpecFormatError as exc:
            if new is None:
                continue
            if re.match(r"cannot read polynomial at \.\.\.'[()^]", str(exc)):
                seen["grouping"] += 1
            else:
                assert re.search(r"\*\s*[-+]", text), text
                seen["sign after *"] += 1
            continue
        assert new is not None, text
        fixed = _sign_fixed(text)
        if fixed == text:
            assert new == flat, text
            seen["same"] += 1
        else:
            assert new == old._parse_poly(spec, fixed), text
            seen["sign fixed"] += (new != flat)
    assert min(seen.values()) >= 50, seen


def _starred(text):
    """text with '*' before each integer that directly follows a factor."""
    return re.sub(r"(?<=\d)\s+(?=\d)|(?<=\))\s*(?=\d)", "*", text)


def test_theta_parser_matches_nested_parser():
    """Every input the nested parser read means the same; the only new
    inputs juxtapose an integer after a factor, and mean what the same
    text with a '*' before that integer meant."""
    rng = random.Random(8)
    pieces = ["t1", "t2", "t3", "t", "q", "0", "1", "2", "3", "12",
              "+", "-", "*", "^", "(", ")", " "]
    weights = [3, 3, 2, 1, 1, 1, 2, 2, 1, 1, 3, 3, 2, 2, 2, 2, 3]
    seen = {"same": 0, "integer after factor": 0}
    for _ in range(12_000):
        text = _random_text(rng, pieces, weights)
        n = rng.choice((2, 3, 4))
        vars = rng.choice((None, 3))
        new = _parse_or_none(parse_theta_expr, text, n, vars)
        nested = _parse_or_none(old.parse_theta_expr, text, n, vars)
        if nested is not None:
            assert new == nested, text
            seen["same"] += 1
        elif new is not None:
            starred = _starred(text)
            assert starred != text and old.parse_theta_expr(starred, n, vars) == new, text
            seen["integer after factor"] += 1
    assert min(seen.values()) >= 50, seen
