"""Command-line surface.

Commands:

    verify       load an algebra description and run the axiom checks
    make-matrix  emit the matrix-family algebra for N, grading, f
    make-ansatz  emit the C + g ansatz from a bracket-constants file
    env          enveloping relations, derived zero/nilpotent sets,
                 confluence verdict from critical pairs (a proof at all
                 degrees), optional grouplike quotient
    nf           normal form of a word in the enveloping algebra
    anyspace     expand expressions on the braided line C[t]/t^n
    search       brute-force enumeration of low-dimensional algebras

Exit codes: 0 success / checks pass, 1 semantic failure (axioms fail,
also for a make-* result without --skip-check, env or nf on a spec that
fails verification without --force, a rewrite that exhausts its step
budget, a quotient closure that does not close, nf on rules whose
critical pairs do not all resolve), 2 input or usage errors (also a
--quotient element that is not grouplike or not central, and a
--degree-cap below 3 or, without --json, one whose word count has more
digits than Python prints).  All output is a pure
function of files and flags; repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import product

from .algebra import (AlgebraSpec, SpecFormatError, UnverifiedSpecError,
                      check_coalgebra, checked_degrees, grading_constraint, verify_all)
from .anyspace import parse_theta_expr
from .constructions import build_ansatz, build_matrix_type
from .cyclotomic import CycNum, checked_integers, root_of_unity
from .envelope import (CompletionError, NCPoly, build_rewrite_system, generate_relations,
                       is_grouplike, quotient_by_central_grouplike, render_word)
from .expr import ExprError, parse_expr
from .grading import Bicharacter

__all__ = ["main", "SearchSpace", "run_search"]


# ---------------------------------------------------------------------------
# small parsing helpers
# ---------------------------------------------------------------------------

def _int(text: str, what: str) -> int:
    """`int(text)` for a number read from `what`, a flag or a field; one with
    more digits than the interpreter converts (its limit is read each time)
    is refused in the command line's words, not with Python's advice."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    digits = sum(map(str.isdigit, text))
    if limit and digits > limit:
        raise ValueError(f"an integer of {digits} digits in {what}: at most {limit} are read")
    return int(text)


def _loose_cyc(value, n: int = 1) -> CycNum:
    """Accept CycNum JSON dicts, integers, or fraction strings; 'z^k' and
    'z' denote the primitive n-th root of unity."""
    if isinstance(value, dict):
        return CycNum.from_json(value)
    text = str(value).strip()
    neg = text.startswith("-")
    if neg:
        text = text[1:].strip()
    if text == "z":
        out = root_of_unity(n, 1)
    elif text.startswith("z^"):
        out = root_of_unity(n, _int(text[2:], "z^k"))
    else:
        out = CycNum.from_rational(text)
    return -out if neg else out


def _parse_int_list(text: str, flag: str):
    return [_int(tok, flag) for tok in text.split(",") if tok.strip() != ""]


def _parse_rows(text: str, flag: str):
    """Integer tuples: '0 1;1 0', each row's entries split on spaces or commas."""
    return [tuple(_int(t, flag) for t in row.replace(",", " ").split())
            for row in text.split(";")]


def _parse_degrees(text: str, rank: int, flag: str):
    """Degrees: '0,1,2' for rank 1, or '0 1;1 0' tuples for higher rank."""
    if rank == 1:
        return [(v,) for v in _parse_int_list(text, flag)]
    return _parse_rows(text, flag)


def _grading_from_flags(args) -> Bicharacter:
    """The grading JSON that the flags spell, read by `Bicharacter.from_json`:
    the group is --group, else Z/n from --n."""
    rows = _parse_rows(args.bichar, "--bichar") if args.bichar else None
    group = _parse_int_list(args.group, "--group") if args.group else [args.n]
    return Bicharacter.from_json({"group": group, "bichar": rows})


def _load_spec(path: str) -> AlgebraSpec:
    with open(path) as handle:
        return AlgebraSpec.from_json(handle.read())


def _emit(text: str, out_path=None):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _match_label(spec: AlgebraSpec, text: str, pos: int):
    """(index, length) of the longest basis label at text[pos:], or None;
    the first such label wins a tie."""
    best = None
    for idx, lab in enumerate(spec.basis):
        if text.startswith(lab, pos) and (best is None or len(lab) > best[1]):
            best = (idx, len(lab))
    return best


def _parse_poly(spec: AlgebraSpec, text: str) -> NCPoly:
    """Polynomial over the basis labels in the grammar of `anylie.expr`;
    blank text is 0."""
    if not text.strip():
        return NCPoly.zero()

    def read_label(text, pos):
        hit = _match_label(spec, text, pos)
        return None if hit is None else (NCPoly.word((hit[0],)), pos + hit[1])

    return parse_expr(text, NCPoly.one(), read_label)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    report = verify_all(spec)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report)
    return 0 if report.passed else 1


def _require_verified(spec: AlgebraSpec, override: str):
    """Refuse a spec that fails verification, naming the first failing
    check and, in `override`, the flag that skips this refusal."""
    failed = [ch.name for ch in verify_all(spec).checks if not ch.passed]
    if failed:
        raise UnverifiedSpecError(f"the algebra fails the {failed[0]} check; {override}")


def _emit_built(spec: AlgebraSpec, args) -> int:
    """Write a built spec; without --skip-check, one that fails
    verification is refused and nothing is written."""
    if not args.skip_check:
        _require_verified(spec, "--skip-check writes it unverified")
    _emit(json.dumps(spec.to_json(), sort_keys=True), args.output)
    return 0


def cmd_make_matrix(args) -> int:
    bichar = _grading_from_flags(args)
    f = _parse_degrees(args.f, bichar.group.rank, "--f")
    return _emit_built(build_matrix_type(args.N, bichar, f), args)


def cmd_make_ansatz(args) -> int:
    with open(args.g_file) as handle:
        gdata = json.load(handle)
    bichar = _grading_from_flags(args)
    try:
        (dim,) = checked_integers((gdata["dim"],), "dim")
        degrees = gdata.get("degrees", [0] * dim)
        if len(degrees) != dim:
            raise SpecFormatError(f"bad g-file: {len(degrees)} degrees for dim {dim}")
        degrees = checked_degrees(degrees)
        n_hint = bichar.group.exponent
        c = {}
        for e in gdata.get("c", []):
            key = checked_integers((e["i"], e["j"], e["k"]), "bracket constant indices")
            c[key] = _loose_cyc(e["val"], n_hint)
        names = gdata.get("names")
        names = tuple(names) if names else None
    except (KeyError, TypeError) as exc:
        raise SpecFormatError(f"bad g-file: {exc}") from exc
    return _emit_built(build_ansatz(bichar, degrees, c, names), args)


def _envelope(args):
    """The spec, its relations and their rewrite system under --order, for
    env and nf; a spec that fails verification is refused unless --force."""
    spec = _load_spec(args.spec)
    order = _parse_word(spec, args.order) if args.order else None
    if not args.force:
        _require_verified(spec, "--force computes with it anyway")
    rels = generate_relations(spec)
    return spec, rels, build_rewrite_system(rels, spec.dim, order=order)


def _words_up_to(dim: int, cap: int) -> int:
    """How many words of length 2..cap a confluent verdict names (the
    diamond lemma covers them all): the sum of dim^k.  A count with more
    digits than `str` prints is refused, uncomputed when dim^cap has them."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (before 3.10.7)
    if not (limit and dim > 1 and cap * math.log10(dim) >= limit):  # count > dim^cap
        count = cap - 1 if dim == 1 else (dim ** (cap + 1) - dim * dim) // (dim - 1)
        if not limit or count < 10 ** limit:
            return count
    raise ValueError(f"--degree-cap {cap} gives a word count of more than "
                     f"{limit} digits, too long to print")


def cmd_env(args) -> int:
    if args.degree_cap < 3:
        raise ValueError("degree_cap must be >= 3 to see overlaps")
    spec, rels, rs = _envelope(args)
    labels = spec.basis
    words = None if args.json else _words_up_to(spec.dim, args.degree_cap)
    if args.quotient:
        poly = _parse_poly(spec, args.quotient)
        grouplike, witnesses = is_grouplike(spec, rs, poly)
        if not grouplike:
            raise ValueError("the --quotient element is not grouplike: " + ", ".join(
                f"delta(p) - p(x)p = {w.render()}" if name == "delta" else f"eps(p) = {w}"
                for name, w in witnesses))
        central, witnesses = rs.is_central(poly)
        if not central:
            raise ValueError("the --quotient element is not central: " + ", ".join(
                f"p*{labels[g]} - {labels[g]}*p = {w.render(labels)}" for g, w in witnesses[:2]))
        rs = quotient_by_central_grouplike(rs, poly)
    conf = rs.check_critical_pairs()
    rules = sorted(rs.rules, key=lambda r: (len(r.lhs), r.lhs))
    if args.json:
        payload = {
            "relations": [{"lhs": list(r.lhs), "rhs": r.rhs.terms_json("pair")} for r in rels],
            "rules": [{"lhs": list(r.lhs), "rhs": r.rhs.terms_json("word")} for r in rules],
            "zero_pairs": sorted(list(p) for p in rs.zero_pairs),
            "nilpotents": sorted(rs.nilpotents),
            "confluent": conf.confluent,
            "degree_cap": args.degree_cap,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    for rel in rels:
        print(f"{render_word(rel.lhs, labels)} = {rel.rhs.render(labels)}")
    print("zero products:",
          ", ".join(render_word(pair, labels) for pair in sorted(rs.zero_pairs)) or "(none)")
    print("nilpotent generators:",
          ", ".join(labels[g] for g in sorted(rs.nilpotents)) or "(none)")
    if args.quotient:
        for rule in rules:
            print(f"{render_word(rule.lhs, labels)} -> {rule.rhs.render(labels)}")
    conf.words_checked = words
    print(conf.render(labels))
    return 0


def _parse_word(spec: AlgebraSpec, text: str):
    """Read a word as generator labels or indices; labels may themselves
    contain commas or digits, so they are matched first."""
    word = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in ", *":
            pos += 1
            continue
        hit = _match_label(spec, text, pos)
        if hit is not None:
            word.append(hit[0])
            pos += hit[1]
        elif ch.isdigit():
            j = pos
            while j < len(text) and text[j].isdigit():
                j += 1
            # sized by its digits first: `int` refuses strings past its limit
            idx = text[pos:j].lstrip("0") or "0"
            if len(idx) > len(str(spec.dim)) or int(idx) >= spec.dim:
                raise SpecFormatError(
                    f"generator index {idx} out of range: the spec has {spec.dim} generators")
            word.append(int(idx))
            pos = j
        else:
            raise SpecFormatError(f"cannot read word at ...{text[pos:pos+12]!r}")
    return tuple(word)


def cmd_nf(args) -> int:
    spec, _, rs = _envelope(args)
    word = _parse_word(spec, args.word)
    report = rs.check_critical_pairs()
    if not report.confluent:
        at = render_word(report.divergences[0][0], spec.basis)
        raise CompletionError(f"normal forms are not unique: the critical pair at {at} diverges")
    nf = rs.nf_word(word)
    if args.json:
        print(json.dumps({"nf": nf.terms_json("word")}, sort_keys=True))
    else:
        print(nf.render(spec.basis))
    return 0


def cmd_anyspace(args) -> int:
    poly = parse_theta_expr(args.expr, args.n, args.vars)
    try:
        if args.json:
            payload = {"n": poly.n, "vars": poly.vars, "terms": poly.terms_json("exponents")}
            text = json.dumps(payload, sort_keys=True)
        else:
            text = poly.render()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # not Python's digit limit
            raise
        raise ValueError(f"a coefficient of the expansion has more than "
                         f"{sys.get_int_max_str_digits()} digits, too many to print") from None
    print(text)
    return 0


# ---------------------------------------------------------------------------
# search (desk-scale classification)
# ---------------------------------------------------------------------------

@dataclass
class SearchSpace:
    """Finite enumeration of candidate structure tensors.

    Every eps / d / c slot ranges over the alphabet; degree assignments
    either enumerate the whole group or are fixed by `degrees`.  The
    candidate count refers to this raw product, although `run_search`
    visits only the part of it that can pass; `search --cap` bounds it.
    """

    dim: int
    bichar: Bicharacter
    alphabet: list
    degrees: list = None  # list of degree tuples per basis element, or None
    require_nonzero_delta: bool = False

    def slot_count(self) -> int:
        return self.dim + 2 * self.dim ** 3

    def degree_assignments(self):
        group = self.bichar.group
        if self.degrees is not None:
            yield tuple(group.degree(p) for p in self.degrees)
            return
        for combo in product(group.elements(), repeat=self.dim):
            yield tuple(combo)

    def candidate_count(self) -> int:
        degree_count = (1 if self.degrees is not None
                        else self.bichar.group.size ** self.dim)
        return degree_count * len(self.alphabet) ** self.slot_count()


def run_search(space: SearchSpace):
    """Yield every verified AlgebraSpec in deterministic order.

    The order is that of the raw product over degree assignments and the
    eps, d, c slots (c varying fastest), but two kinds of candidate are
    skipped without being built, because they cannot pass:

    * grading pruning: a slot that `grading_constraint` forbids takes
      only the alphabet's zero (and, if the alphabet has none, the degree
      assignment has no candidates at all);
    * staging: each (eps, d) prefix is run through `check_coalgebra`,
      which reads no c, before any c is enumerated for it.

    Every yielded spec still passes the full `verify_all`.  No
    basis-rescaling or permutation canonicalisation is applied, so
    isomorphic duplicates are reported as distinct solutions.
    """
    dim = space.dim
    group = space.bichar.group
    triples = [(m, n, r) for m in range(dim) for n in range(dim) for r in range(dim)]
    basis = [f"x{i}" for i in range(dim)]
    zeros = [v for v in space.alphabet if v.is_zero()]

    def choices(degrees, tensor, keys):
        out = []
        for key in keys:
            have, want = grading_constraint(group, degrees, tensor, key)
            out.append(space.alphabet if have == want else zeros)
        return out

    for degrees in space.degree_assignments():
        prefix_choices = (choices(degrees, "eps", [(i,) for i in range(dim)])
                          + choices(degrees, "d", triples))
        c_choices = choices(degrees, "c", triples)
        for prefix in product(*prefix_choices):
            eps_vals = prefix[:dim]
            d_vals = prefix[dim:]
            if space.require_nonzero_delta and all(v.is_zero() for v in d_vals):
                continue
            eps = {i: v for i, v in enumerate(eps_vals) if not v.is_zero()}
            d = {t: v for t, v in zip(triples, d_vals) if not v.is_zero()}
            coalgebra = AlgebraSpec(space.bichar, basis, degrees, eps, d, {})
            if not check_coalgebra(coalgebra).passed:
                continue
            for c_vals in product(*c_choices):
                c = {t: v for t, v in zip(triples, c_vals) if not v.is_zero()}
                spec = AlgebraSpec(space.bichar, basis, degrees, eps, d, c)
                if verify_all(spec).passed:
                    yield spec


def _parse_alphabet(text: str, n: int):
    if not text:
        values = [CycNum.zero(), CycNum.one(), -CycNum.one()]
        values += [root_of_unity(n, k) for k in range(1, n)]
    else:
        values = [_loose_cyc(tok.strip(), n) for tok in text.split(",")]
    unique = []
    for v in values:
        if all(v != u for u in unique):
            unique.append(v)
    return unique


def cmd_search(args) -> int:
    bichar = _grading_from_flags(args)
    alphabet = _parse_alphabet(args.alphabet, bichar.group.exponent)
    degrees = None
    if args.degrees:
        degrees = _parse_degrees(args.degrees, bichar.group.rank, "--degrees")
        if len(degrees) != args.dim:
            raise SpecFormatError("--degrees needs one entry per basis element")
    space = SearchSpace(args.dim, bichar, alphabet, degrees, args.require_nonzero_delta)
    count = space.candidate_count()
    if count > args.cap:
        print(f"refusing to enumerate {count} candidates (cap {args.cap}); "
              "narrow the alphabet, dimension, or degrees", file=sys.stderr)
        return 2
    solutions = list(run_search(space))
    if args.json:
        print(json.dumps({"candidates": count,
                          "solutions": [s.to_json() for s in solutions],
                          "count": len(solutions)}, sort_keys=True))
    else:
        print(f"candidates: {count}")
        for spec in solutions:
            print(json.dumps(spec.to_json(), sort_keys=True))
        print(f"solutions: {len(solutions)} "
              "(duplicates under rescaling/permutation are not merged)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anylie",
        description="exact kernel for graded braided Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the axiom checks on an algebra file")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    def add_grading_flags(p):
        p.add_argument("--n", type=int, default=1,
                       help="anyonic grading modulus (default 1)")
        p.add_argument("--group", help="comma-separated group factors, e.g. 2,2")
        p.add_argument("--bicharacter", "--bichar", dest="bichar",
                       help="integer matrix rows separated by ';', e.g. '1,0;0,1'; "
                            "without --group it applies to Z/n from --n")

    p = sub.add_parser("make-matrix", help="emit the matrix-family algebra")
    p.add_argument("--N", type=int, required=True)
    add_grading_flags(p)
    p.add_argument("--f", required=True,
                   help="grading function, e.g. 0,1,2 (';'-separated tuples for rank > 1)")
    p.add_argument("-o", "--output")
    p.add_argument("--skip-check", action="store_true",
                   help="write the algebra without verifying it (batch speed)")
    p.set_defaults(func=cmd_make_matrix)

    p = sub.add_parser("make-ansatz", help="emit the C + g ansatz algebra")
    add_grading_flags(p)
    p.add_argument("--g-file", required=True,
                   help="JSON with dim, degrees, names and bracket constants c")
    p.add_argument("-o", "--output")
    p.add_argument("--skip-check", action="store_true",
                   help="write the algebra without verifying it")
    p.set_defaults(func=cmd_make_ansatz)

    p = sub.add_parser("env", help="enveloping relations and rewrite data")
    p.add_argument("spec")
    p.add_argument("--order", help="generator order: labels or indices, comma-separated")
    p.add_argument("--degree-cap", type=int, default=4,
                   help="at least 3; the confluent verdict counts the words of length 2 "
                        "up to it, which the critical-pair proof covers (default 4)")
    p.add_argument("--force", action="store_true",
                   help="generate relations even if the algebra fails verification")
    p.add_argument("--quotient",
                   help="central grouplike polynomial to set equal to 1 (one that is "
                        "not grouplike is refused, exit 2); prints the rules of the closure")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_env)

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("spec")
    p.add_argument("word", help="comma-separated generator labels or indices")
    p.add_argument("--order")
    p.add_argument("--force", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("anyspace", help="expand expressions on the braided line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("action", choices=["expand"])
    p.add_argument("expr")
    p.add_argument("--vars", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_anyspace)

    p = sub.add_parser("search", help="enumerate small anyonic Lie algebras")
    p.add_argument("--dim", type=int, required=True, choices=[1, 2])
    add_grading_flags(p)
    p.add_argument("--alphabet",
                   help="comma-separated coefficients (default 0,1,-1 plus z^k)")
    p.add_argument("--degrees",
                   help="fixed degree per basis element; omit to enumerate all")
    p.add_argument("--require-nonzero-delta", action="store_true")
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnverifiedSpecError, CompletionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpecFormatError, ExprError, json.JSONDecodeError, OSError,
            KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
