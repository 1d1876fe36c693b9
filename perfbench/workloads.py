"""The four benchmark workloads.

A workload is a list of set-up steps, which write the input specs, and a
fixed list of `anylie` commands, each with its oracle.  The seed picks
the grading functions, perturbations, words, alphabets and scalars; the
sizes (N, n, word lengths, alphabet sizes, powers) are fixed per slot, so
every seed costs about the same and the seed moves the inputs, not the
amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles as O

DET = "x[1,1]*x[2,2] - x[2,1]*x[1,2]"

# sl(2) on (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h, with the
# antisymmetric partners; and the (1|1) pair: even h, odd q, [q,q] = h
SL2_G = {"dim": 3, "names": ["h", "e", "f"], "degrees": [0, 0, 0],
         "c": [{"i": i, "j": j, "k": k, "val": v} for (i, j, k), v in {
             (1, 2, 2): 2, (2, 1, 2): -2, (1, 3, 3): -2, (3, 1, 3): 2,
             (2, 3, 1): 1, (3, 2, 1): -1}.items()]}
SUPER_G = {"dim": 2, "names": ["h", "q"], "degrees": [0, 1],
           "c": [{"i": 2, "j": 2, "k": 1, "val": 1}]}

# stdout digests of outputs with no independent oracle, taken at the
# parent commit; CLI output is required to stay byte-identical
PINNED = {
    "env sl2": "f9791ac6e32acb5ad3e0b27e6c611adb2fa8745977db022af02575b2220e9b43",
    "env super --json": "2e208e9e3974a77926621e3b8a88064393f635726531d71d7b52006140801ffb",
}


@dataclass
class Output:
    code: int
    stdout: str
    stderr: str
    workdir: Path
    notes: list = field(default_factory=list)


@dataclass
class Command:
    args: list
    label: str
    check: object  # Output -> list of error strings
    known_defect: str = None  # why this command fails at the parent commit


@dataclass
class Workload:
    name: str
    sizes: str
    setup: list  # ("cli", args) or ("file", name, fn(workdir) -> text)
    commands: list
    nominal_cycle_s: float  # one pass over `commands` at the parent commit


def _models():
    memo = {}

    def model(out: Output, name: str) -> O.QuasiCommutation:
        path = out.workdir / name
        if path not in memo:
            memo[path] = O.QuasiCommutation(O.SpecModel.from_json(json.loads(path.read_text())))
        return memo[path]
    return model


def _checked(check, allowed=(0,)):
    """Wrap an output check with the exit-code and traceback check; a
    check that cannot read the output counts as a failure."""
    def run(out: Output) -> list:
        errors = O.no_traceback(out.code, out.stderr, allowed)
        if errors:
            return errors
        try:
            return check(out)
        except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return run


def _make_matrix(name, N, n, f):
    return ("cli", ["make-matrix", "--N", str(N), "--n", str(n), "--f", ",".join(map(str, f)),
                    "--skip-check", "-o", name])


def _make_ansatz(name, n, gdata):
    gname = "g_" + name
    return [("file", gname, lambda workdir: json.dumps(gdata)),
            ("cli", ["make-ansatz", "--n", str(n), "--g-file", gname, "--skip-check",
                     "-o", name])]


# ---------------------------------------------------------------------------

VERIFY_SLOTS = [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5), (9, 6), (10, 7)]


def verify(rng: random.Random) -> Workload:
    """Mixed-order CycNum arithmetic and the six algebra contractions do
    nearly all the work; envelope and search do none.  This is where one
    field per computation (ROADMAP item 2) must show."""
    setup, commands = [], []
    for N, n in VERIFY_SLOTS:
        name = f"m{N}.json"
        setup.append(_make_matrix(name, N, n, rng.sample([m % n for m in range(N)], N)))
        as_json = N % 2 == 1
        commands.append(Command(
            ["verify", name] + (["--json"] if as_json else []), f"verify N={N} n={n}",
            _checked(lambda out, j=as_json: O.check_verify(out.stdout, j, True))))
    for N, as_json in ((5, False), (6, True)):
        k = rng.randrange(N)
        broken = k * N + k
        value = rng.choice(["2", "-1", "1/2", "3"])

        def perturb(workdir, N=N, broken=broken, value=value):
            data = json.loads((workdir / f"m{N}.json").read_text())
            for entry in data["eps"]:
                if entry["mu"] == broken:
                    entry["val"] = {"order": 1, "terms": [[0, value]]}
            return json.dumps(data, sort_keys=True)
        name = f"bad{N}.json"
        setup.append(("file", name, perturb))
        commands.append(Command(
            ["verify", name] + (["--json"] if as_json else []),
            f"verify N={N} eps[{broken}]={value}",
            _checked(lambda out, j=as_json, b=broken: O.check_verify(out.stdout, j, False, b),
                     allowed=(1,))))
    setup += _make_ansatz("sl2.json", 1, SL2_G) + _make_ansatz("super.json", 2, SUPER_G)
    commands.append(Command(["verify", "sl2.json"], "verify sl2",
                            _checked(lambda out: O.check_verify(out.stdout, False, True))))
    commands.append(Command(["verify", "super.json", "--json"], "verify super --json",
                            _checked(lambda out: O.check_verify(out.stdout, True, True))))
    return Workload(
        "verify",
        "matrix family N=4..10 (dim 16..100) with n=1..7, two perturbed copies "
        "(N=5, 6), sl2 (dim 4) and (1|1) (dim 3) ansatz; 11 commands per pass",
        setup, commands, 3.2)


# ---------------------------------------------------------------------------

def _permuted(rng, base, n, confluent=False):
    """A seeded permutation of the grading values `base`.  Permuting f
    relabels the basis, so the algebra and the cost of verifying it stay
    the same while the spec changes; with `confluent`, only permutations
    whose rule set the zero-pair criterion accepts are drawn."""
    while True:
        f = rng.sample(list(base), len(base))
        if not confluent or O.QuasiCommutation(
                O.SpecModel.matrix_family(len(f), n, f)).confluent():
            return f


def _closed_or_one_line(out: Output) -> list:
    if out.code:
        lines = out.stderr.strip().splitlines()
        return [] if len(lines) == 1 else [f"{len(lines)}-line diagnostic on stderr"]
    verdict = out.stdout.rstrip("\n").split("\n")[-1]
    return [] if verdict.startswith("locally confluent") else [f"quotient not closed: {verdict}"]


def envelope(rng: random.Random) -> Workload:
    """env is build-and-enumerate (relations, orientation, fixpoint pruning,
    brute-force confluence filling the nf cache); nf is build-then-query.
    Scalars are mostly same-order.  Critical-pair confluence (ROADMAP item
    3) must show here, and item 2 should barely move it."""
    model = _models()
    setup = [_make_matrix("l2f3.json", 2, 3, (0, 1)), _make_matrix("l2f2.json", 2, 2, (0, 1)),
             _make_matrix("d3.json", 3, 3, (0, 0, 1)), _make_matrix("d4.json", 4, 3, (0, 1, 2, 0))]
    # nf words need a confluent rule set, so their specs get gradings the
    # zero-pair criterion accepts; the other two are unrestricted
    nf_specs = {"e3.json": (3, 5, (0, 1, 3)), "e4a.json": (4, 6, (0, 1, 2, 4))}
    for name, (N, n, base) in nf_specs.items():
        setup.append(_make_matrix(name, N, n, _permuted(rng, base, n, confluent=True)))
    for name, (N, n, base) in {"c3.json": (3, 7, (0, 2, 3)),
                               "e4b.json": (4, 7, (0, 1, 3, 5))}.items():
        setup.append(_make_matrix(name, N, n, _permuted(rng, base, n)))
    setup += _make_ansatz("sl2.json", 1, SL2_G) + _make_ansatz("super.json", 2, SUPER_G)

    def env_text(name, cap=4, judge=False, lines=()):
        def check(out):
            errors = [f"missing line {line!r}" for line in lines
                      if line not in out.stdout.split("\n")]
            return errors + O.check_env_text(model(out, name), out.stdout, cap, judge,
                                             out.notes)
        return _checked(check)

    commands = [
        Command(["env", "l2f3.json"], "env l2f3", env_text("l2f3.json", judge=True, lines=(
            "x[2,1]*x[1,2] = (z3)*x[1,2]*x[2,1]",
            "zero products: x[1,2]*x[2,2], x[2,1]*x[2,2], x[2,2]*x[1,2], x[2,2]*x[2,1]",
            "nilpotent generators: x[1,2], x[2,1]"))),
        Command(["env", "l2f2.json"], "env super matrix", env_text("l2f2.json", judge=True, lines=(
            "x[2,1]*x[1,2] = (-1)*x[1,2]*x[2,1]", "zero products: (none)",
            "nilpotent generators: x[1,2], x[2,1]"))),
        Command(["env", "e3.json"], "env N=3 n=5", env_text("e3.json")),
        Command(["env", "c3.json", "--degree-cap", "5"], "env N=3 n=7 cap 5",
                env_text("c3.json", cap=5)),
        Command(["env", "e4a.json", "--json"], "env N=4 n=6 --json", _checked(
            lambda out: O.check_env_json(model(out, "e4a.json"), out.stdout, out.notes))),
        Command(["env", "e4b.json"], "env N=4 n=7", env_text("e4b.json")),
        Command(["env", "d3.json"], "env N=3 n=3 f=0,0,1", env_text("d3.json")),
        Command(["env", "d4.json"], "env N=4 n=3 f=0,1,2,0", env_text("d4.json")),
        Command(["env", "sl2.json"], "env sl2", _checked(
            lambda out: [] if O.digest(out.stdout) == PINNED["env sl2"]
            else ["stdout digest differs from the parent commit"])),
        Command(["env", "super.json", "--json"], "env super --json", _checked(
            lambda out: [] if O.digest(out.stdout) == PINNED["env super --json"]
            else ["stdout digest differs from the parent commit"])),
        Command(["env", "l2f3.json", "--quotient", DET, "--json"], "quotient n=3", _checked(
            lambda out: O.check_quotient_json(out.stdout, {(0, 3): 1, (1,): 0, (2,): 0}))),
        # the closure does not stabilise for n=2; the CLI should say so in
        # one line with a nonzero exit code, not a traceback
        Command(["env", "l2f2.json", "--quotient", DET], "quotient n=2",
                _checked(_closed_or_one_line, allowed=(0, 1, 2)),
                known_defect="CompletionError ends in a traceback (ROADMAP item 1)"),
    ]
    for name, (N, n, _) in nf_specs.items():
        labels = [f"x[{m + 1},{k + 1}]" for m in range(N) for k in range(N)]
        for i in range(6):
            word = [rng.randrange(N * N) for _ in range(rng.randint(6, 12))]
            commands.append(Command(
                ["nf", name, ",".join(labels[g] for g in word), "--json"],
                f"nf N={N} word {i} len={len(word)}",
                _checked(lambda out, name=name, word=word:
                         O.check_nf_json(model(out, name), word, out.stdout))))
    return Workload(
        "envelope",
        "env on matrix specs N=2..4 (dim 4..16, cap 4; cap 5 at N=3) and sl2/(1|1) ansatz, "
        "two quotients at N=2, 12 nf words of length 6..12 at N=3, 4; 24 commands per pass",
        setup, commands, 3.2)


# ---------------------------------------------------------------------------

RATIONALS = ["2", "1/2", "-2", "-1/2", "3", "1/3", "-3", "-1/3"]


def search(rng: random.Random) -> Workload:
    """Thousands of tiny specs built and verified per command: the cost is
    per-candidate construction and dispatch, which only pruned, staged
    search (ROADMAP item 4) moves.  Dim 2 does not finish in minutes at the
    parent commit and is left out."""
    commands = []

    def add(n, tokens, degree, nonzero, as_json, label):
        args = ["search", "--dim", "1", "--n", str(n)]
        if tokens is not None:
            args += ["--alphabet", ",".join(tokens)]
        else:
            tokens = ["0", "1", "-1"] + [f"z^{k}" for k in range(1, n)]
        if degree is not None:
            args += ["--degrees", str(degree)]
        if nonzero:
            args.append("--require-nonzero-delta")
        if as_json:
            args.append("--json")
        commands.append(Command(args, label, _checked(
            lambda out: O.check_search(out.stdout, as_json, n, tokens, degree))))

    for n in range(3, 9):
        add(n, None, None, n in (4, 7), n % 2 == 1, f"search n={n}")
    for n in range(3, 9):
        # z^k for other k has more power-basis terms and costs more
        tokens = ["0", "1"] + rng.sample(RATIONALS, 2) + ["z^1", f"z^{n - 1}"]
        degree = rng.randrange(n) if n % 2 == 0 else None
        add(n, tokens, degree, n in (3, 6), n % 2 == 0, f"search n={n} custom")
    add(2, None, None, False, True, "search n=2")
    # criterion 10
    add(1, ["0", "1", "-1"], None, False, True, "search n=1")
    add(3, None, 1, True, True, "search n=3 degree 1")
    return Workload(
        "search",
        "dim 1, n=2..8, default alphabets (27..729 tuples per degree) and 6-letter "
        "seeded alphabets, plus the criterion-10 cases; 15 commands per pass",
        [], commands, 4.1)


# ---------------------------------------------------------------------------

def braided_line(rng: random.Random) -> Workload:
    """Same-order, high-degree cyclotomic arithmetic (phi(m) up to 12) with
    no algebra layer: a scalar change that helps small mixed-order
    multiplies but costs large same-order ones shows here."""
    commands = []

    def add(n, k, scales, as_json):
        terms = []
        for slot, s in enumerate(scales, 1):
            sign = "-" if s < 0 else "+"
            mag = "" if abs(s) == 1 else f"{abs(s)}*"
            terms.append(f"{sign}{mag}t{slot}")
        expr = "(" + "".join(terms).lstrip("+") + f")^{k}"
        args = ["anyspace", "--n", str(n), "expand", expr] + (["--json"] if as_json else [])
        commands.append(Command(args, f"{len(scales)} vars n={n} k={k}", _checked(
            lambda out: O.check_power(out.stdout, as_json, n, k, scales))))

    for i, n in enumerate((5, 7, 9, 11, 13, 16)):
        add(n, n - 1, (1, rng.choice([1, -1, 2, -2])), i % 2 == 0)
        add(n, n, (1, rng.choice([1, -1, 2, -2])), i % 2 == 1)
    # n=13 (phi = 12) three times: the slowest command is then a third of
    # the samples near the tail, which keeps latency_tail_s inside one group
    for i, n in enumerate((7, 9, 11, 13, 13, 13, 16)):
        add(n, n - 1, (1, rng.choice([1, -1]), rng.choice([1, -1])), i % 2 == 1)
    add(9, 9, (1, rng.choice([1, -1]), rng.choice([1, -1])), False)
    return Workload(
        "braided-line",
        "(t1+t2)^k for n=5..16 at k=n-1 and k=n, (t1+t2+t3)^(n-1) for n=7..16 "
        "(three seeded sign patterns at n=13) and ^9 at n=9; 20 commands per pass",
        [], commands, 3.2)


WORKLOADS = {"verify": verify, "envelope": envelope, "search": search,
             "braided-line": braided_line}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
