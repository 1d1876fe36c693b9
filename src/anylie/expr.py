"""The expression grammar for polynomials typed on the command line.

`env --quotient` (noncommutative polynomials over basis labels) and
`anyspace expand` (the braided line) both read

    sum     := product (('+' | '-') product)*
    product := power (['*'] power)*          juxtaposition multiplies
    power   := ('+' | '-')* (INT | ATOM | '(' sum ')') ['^' INT]

so a sign binds tighter than '^' (-t1^2 is (-t1)^2), and any factor, an
integer included, may follow another without a '*'.
"""

import sys

__all__ = ["ExprError", "parse_expr"]


class ExprError(ValueError):
    """Text that the expression grammar cannot read."""


def _tokenize(text: str, read_atom):
    """(token, start) pairs: operators as strings, integers as ints and
    variables as ring elements.  Signs and digits are tried before
    `read_atom`, brackets and '^' after it, so a name may contain those."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch, start = text[pos], pos
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            # Python's limit on converting a string to an int, read each time
            # so that `int` never refuses a literal with its own message
            limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
            if limit and pos - start > limit:
                raise ExprError(f"integer of {pos - start} digits at position {start} of "
                                f"{text!r}: at most {limit} are read")
            tokens.append((int(text[start:pos]), start))
            continue
        hit = None if ch in "+-*" else read_atom(text, pos)
        if hit is not None:
            tok, pos = hit
        elif ch in "+-*()^":
            tok, pos = ch, pos + 1
        else:
            raise ExprError(f"unreadable text at position {pos} of {text!r}")
        tokens.append((tok, start))
    return tokens


def parse_expr(text: str, one, read_atom):
    """Evaluate `text` in the ring of `one`, the multiples of which are the
    integers; `read_atom(text, pos)` returns (element, end) for a variable
    at `pos`, or None.  Errors raise `ExprError`, quoting the text."""
    tokens = _tokenize(text, read_atom) + [(None, len(text))]
    pos = 0

    def fail(what):
        return ExprError(f"{what} at position {tokens[pos][1]} of {text!r}")

    def take(ops):
        """Consume the next token if it is one of the operators `ops`."""
        nonlocal pos
        tok = tokens[pos][0]
        if isinstance(tok, str) and tok in ops:
            pos += 1
            return tok
        return None

    def parse_sum():
        node = parse_product()
        while op := take("+-"):
            node = node + parse_product() if op == "+" else node - parse_product()
        return node

    def parse_product():
        node = parse_power()
        while take("*") or tokens[pos][0] not in (None, "+", "-", ")", "^"):  # juxtaposition
            node = node * parse_power()
        return node

    def parse_power():
        """Signs, then an operand, then an optional '^' and exponent."""
        nonlocal pos
        negative = False
        while sign := take("+-"):
            negative ^= sign == "-"
        node = tokens[pos][0]
        if take("("):
            node = parse_sum()
            if not take(")"):
                raise fail("unclosed '('")
        elif node is None or isinstance(node, str):
            raise fail("missing operand")
        else:
            pos += 1
            if type(node) is int:
                node = one.scaled(node)
        if negative:
            node = -node
        if not take("^"):
            return node
        exponent = tokens[pos][0]
        if type(exponent) is not int:
            raise fail("'^' needs a nonnegative integer exponent")
        pos += 1
        return node ** exponent

    try:
        result = parse_sum()
    except RecursionError:
        raise ExprError(f"brackets nested too deeply in {text!r}") from None
    if tokens[pos][0] is not None:
        raise fail("unexpected token")
    return result
