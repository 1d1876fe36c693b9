"""Output oracles that do not depend on the code under test.

Every check takes a finished command (exit code, stdout, stderr) and
returns a list of error strings; an empty list means the output is right.
The expected values come from the mathematics, recomputed here in
floating point from the input files and flags:

* the matrix family and the C + g ansatz verify (acceptance criterion 01
  and the construction theorem); a perturbed counit entry breaks the
  counit identity at that index;
* the matrix family's enveloping algebra is a quasi-commutation algebra:
  each relation is x_mu x_nu = q(mu, nu) x_nu x_mu, a pair with
  q(mu, nu) q(nu, mu) != 1 multiplies to zero and a generator with
  q(mu, mu) != 1 squares to zero, so a word's normal form is zero or the
  sorted word times the product of q over its inversions;
* (t1 + t2)^k on the braided line has Gaussian-binomial coefficients at
  q = exp(2 pi i / n), and (t1 + t2)^n = 0;
* a dimension-1 algebra passes exactly when its degree is 0, eps * delta
  = 1 and the bracket constant equals eps (criterion 10).

Where no such oracle exists the caller pins a stdout digest instead.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import re
from fractions import Fraction
from math import gcd

TOL = 1e-7


def close(a: complex, b: complex) -> bool:
    return abs(a - b) <= TOL * (1.0 + abs(b))


def root(m: int, k: int = 1) -> complex:
    return cmath.exp(2j * cmath.pi * (k % m) / m)


def cyc_value(data: dict) -> complex:
    """Complex value of a CycNum in its JSON form."""
    order = int(data["order"])
    return sum((float(Fraction(str(c))) * root(order, int(e))
                for e, c in data["terms"]), 0j)


_CYC_TERM = re.compile(r"(?:(\d+(?:/\d+)?)\*)?z(\d+)(?:\^(\d+))?")


def cyc_text_value(text: str) -> complex:
    """Complex value of a CycNum as printed, e.g. '-1-z3' or '1/2*z5^2'."""
    total = 0j
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text.strip()):
        m = _CYC_TERM.fullmatch(body)
        if m:
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            val = float(coeff) * root(int(m.group(2)), int(m.group(3) or 1))
        else:
            val = complex(float(Fraction(body)))
        total += -val if sign == "-" else val
    return total


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def no_traceback(code: int, stderr: str, allowed=(0,)) -> list:
    errors = []
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1]
        errors.append(f"traceback on stderr: {last}")
    if code not in allowed:
        errors.append(f"exit code {code}, expected {' or '.join(map(str, allowed))}")
    return errors


# ---------------------------------------------------------------------------
# algebra specs
# ---------------------------------------------------------------------------

class SpecModel:
    """Floating-point reading of an algebra spec: grading, basis labels,
    degree tuples, and the d and c tensors with complex values."""

    def __init__(self, factors, matrix, labels, degrees, d, c):
        self.factors = list(factors)
        self.matrix = matrix
        self.labels = list(labels)
        self.degrees = [tuple(p) for p in degrees]
        self.dim = len(self.labels)
        self.d, self.c = d, c

    @classmethod
    def from_json(cls, data: dict) -> "SpecModel":
        grading = data["grading"]
        return cls([int(f) for f in grading["group"]], grading.get("bichar") or [[1]],
                   [b["name"] for b in data["basis"]],
                   [[int(x) for x in b["degree"]] for b in data["basis"]],
                   [(e["mu"], e["nu"], e["rho"], cyc_value(e["val"])) for e in data["d"]],
                   [(e["mu"], e["nu"], e["rho"], cyc_value(e["val"])) for e in data["c"]])

    @classmethod
    def matrix_family(cls, N: int, n: int, f) -> "SpecModel":
        """The N^2-dimensional matrix family over Z/n with grading function
        f: degrees f(m) - f(m'), matrix coalgebra, and
        [x_mm, x_nu] = zeta_n^(-2 f(m) p(nu)) x_nu."""
        idx = [[m * N + k for k in range(N)] for m in range(N)]
        labels = [f"x[{m + 1},{k + 1}]" for m in range(N) for k in range(N)]
        degrees = [((f[m] - f[k]) % n,) for m in range(N) for k in range(N)]
        d = [(idx[m][k], idx[m][a], idx[a][k], 1 + 0j)
             for m in range(N) for k in range(N) for a in range(N)]
        c = [(idx[m][m], nu, nu, root(n, -2 * f[m] * degrees[nu][0]))
             for m in range(N) for nu in range(N * N)]
        return cls([n], [[1]], labels, degrees, d, c)

    def phase(self, g, h) -> complex:
        exponent = 1
        for f in self.factors:
            exponent = exponent * f // gcd(exponent, f)
        acc = 0
        for i, gi in enumerate(g):
            for j, hj in enumerate(h):
                acc += gi * self.matrix[i][j] * hj * (exponent // gcd(self.factors[i],
                                                                      self.factors[j]))
        return root(exponent, acc)

    def relations(self) -> dict:
        """(mu, nu) -> {(gamma, beta): coefficient} of the quadratic
        presentation x_mu x_nu = sum phase(p_beta, p_nu) d^mu_{a,beta}
        c^{a,nu}_gamma x_gamma x_beta."""
        c_by_pair = {}
        for (a, nu, gamma, cv) in self.c:
            c_by_pair.setdefault((a, nu), []).append((gamma, cv))
        rels = {}
        for mu in range(self.dim):
            for nu in range(self.dim):
                rhs = {}
                for (m, a, beta, dv) in self.d:
                    if m != mu:
                        continue
                    for gamma, cv in c_by_pair.get((a, nu), ()):
                        key = (gamma, beta)
                        rhs[key] = rhs.get(key, 0j) + self.phase(
                            self.degrees[beta], self.degrees[nu]) * dv * cv
                rels[(mu, nu)] = {k: v for k, v in rhs.items() if abs(v) > TOL}
        return rels


class QuasiCommutation:
    """The enveloping algebra of a spec whose relations are all single
    swaps x_mu x_nu = q x_nu x_mu (the matrix family)."""

    def __init__(self, model: SpecModel):
        self.model = model
        self.rels = model.relations()
        self.q = {}
        for (mu, nu), rhs in self.rels.items():
            if set(rhs) != {(nu, mu)}:
                raise ValueError(f"relation {(mu, nu)} is not a single swap: {rhs}")
            self.q[(mu, nu)] = rhs[(nu, mu)]
        dim = model.dim
        self.nilpotents = {g for g in range(dim) if not close(self.q[(g, g)], 1)}
        self.zero_pairs = {(a, b) for a in range(dim) for b in range(dim) if a != b
                           and not close(self.q[(a, b)] * self.q[(b, a)], 1)}

    def normal_form(self, word):
        """None for zero, else (sorted word, coefficient)."""
        coeff = 1 + 0j
        for i, a in enumerate(word):
            for b in word[i + 1:]:
                if (a == b and a in self.nilpotents) or (a, b) in self.zero_pairs:
                    return None
                if a > b:
                    coeff *= self.q[(a, b)]
        return tuple(sorted(word)), coeff

    def confluent(self) -> bool:
        """Whether the oriented rules (swaps towards ascending index, zero
        pairs, nilpotent squares) are confluent.  An ascending word is
        irreducible unless it has an adjacent zero pair, so the rules are
        confluent exactly when no a < b < c has (a, c) a zero pair while
        neither (a, b) nor (b, c) is one."""
        dim = self.model.dim
        return not any((a, c) in self.zero_pairs and (a, b) not in self.zero_pairs
                       and (b, c) not in self.zero_pairs
                       for a in range(dim) for b in range(a + 1, dim)
                       for c in range(b + 1, dim))


def _names(labels, items) -> str:
    return ", ".join("*".join(labels[g] for g in it) if isinstance(it, tuple)
                     else labels[it] for it in items) or "(none)"


def words_up_to(dim: int, cap: int) -> int:
    return sum(dim ** length for length in range(2, cap + 1))


_REL_LINE = re.compile(r"(x\[\d+,\d+\])\*(x\[\d+,\d+\]) = \((.+)\)\*(x\[\d+,\d+\])\*(x\[\d+,\d+\])")


def check_env_text(qc: QuasiCommutation, stdout: str, cap: int = 4,
                   judge_confluence: bool = True, notes: list = None) -> list:
    """`anylie env` text output on a matrix-family spec."""
    labels = qc.model.labels
    index = {lab: i for i, lab in enumerate(labels)}
    lines = stdout.rstrip("\n").split("\n")
    dim = qc.model.dim
    errors = []
    rel_lines = lines[:dim * dim]
    seen = set()
    for line in rel_lines:
        m = _REL_LINE.fullmatch(line)
        if not m:
            errors.append(f"unexpected relation line {line!r}")
            continue
        mu, nu, g, b = (index[m.group(k)] for k in (1, 2, 4, 5))
        seen.add((mu, nu))
        if (g, b) != (nu, mu) or not close(cyc_text_value(m.group(3)), qc.q[(mu, nu)]):
            errors.append(f"relation {line!r} disagrees with q = {qc.q[(mu, nu)]:.6f}")
    if len(seen) != dim * dim:
        errors.append(f"{len(seen)} relations printed, expected {dim * dim}")
    want_zero = "zero products: " + _names(labels, sorted(qc.zero_pairs))
    want_nil = "nilpotent generators: " + _names(labels, sorted(qc.nilpotents))
    rest = lines[dim * dim:]
    if len(rest) < 3 or rest[0] != want_zero:
        errors.append(f"expected {want_zero!r}")
    if len(rest) < 3 or rest[1] != want_nil:
        errors.append(f"expected {want_nil!r}")
    verdict = rest[2] if len(rest) > 2 else ""
    if notes is not None:
        notes.append(_verdict_note(qc, verdict))
    if judge_confluence:
        want = f"locally confluent ({words_up_to(dim, cap)} words checked)"
        if verdict != want:
            errors.append(f"expected {want!r}, got {verdict!r}")
    elif not re.fullmatch(r"locally confluent \(\d+ words checked\)|"
                          r"NOT confluent \(\d+ divergent words\)", verdict):
        errors.append(f"unreadable confluence verdict {verdict!r}")
    return errors


def check_env_json(qc: QuasiCommutation, stdout: str, notes: list, cap: int = 4) -> list:
    """`anylie env --json` on a matrix-family spec; the confluence verdict
    is recorded in `notes`, not judged."""
    data = json.loads(stdout)
    errors = []
    got = {}
    for rel in data["relations"]:
        got[tuple(rel["lhs"])] = {tuple(t["pair"]): cyc_value(t["val"]) for t in rel["rhs"]}
    for key, rhs in qc.rels.items():
        other = got.get(key, {})
        if set(other) != set(rhs) or not all(close(other[k], v) for k, v in rhs.items()):
            errors.append(f"relation {key} disagrees with the model")
            break
    if {tuple(p) for p in data["zero_pairs"]} != qc.zero_pairs:
        errors.append("zero_pairs disagree with the model")
    if set(data["nilpotents"]) != qc.nilpotents:
        errors.append("nilpotents disagree with the model")
    if data["degree_cap"] != cap:
        errors.append(f"degree_cap {data['degree_cap']}, expected {cap}")
    notes.append(_verdict_note(qc, "confluent" if data["confluent"] else "NOT confluent"))
    return errors


def _verdict_note(qc: QuasiCommutation, verdict: str) -> str:
    predicted = "confluent" if qc.confluent() else "not confluent"
    return f"{verdict} [the a<b<c zero-pair criterion predicts {predicted}]"


def check_nf_json(qc: QuasiCommutation, word, stdout: str) -> list:
    terms = json.loads(stdout)["nf"]
    want = qc.normal_form(tuple(word))
    if want is None:
        return [] if not terms else [f"nf of {word} should be 0, got {terms}"]
    w, coeff = want
    if (len(terms) != 1 or tuple(terms[0]["word"]) != w
            or not close(cyc_value(terms[0]["val"]), coeff)):
        return [f"nf of {word} should be {coeff:.6f} * {w}, got {terms}"]
    return []


def rewrite(rules: dict, word: tuple, budget: int = 100_000) -> dict:
    """Normal form under rules {lhs word: {rhs word: coefficient}}, always
    rewriting the leftmost occurrence of the shortest-starting left side."""
    out = {}
    stack = [(tuple(word), 1 + 0j)]
    while stack:
        budget -= 1
        if budget < 0:
            raise ValueError("rewriting did not terminate")
        w, c = stack.pop()
        hit = next(((i, lhs) for i in range(len(w)) for lhs in rules
                    if w[i:i + len(lhs)] == lhs), None)
        if hit is None:
            out[w] = out.get(w, 0j) + c
            continue
        i, lhs = hit
        for r, v in rules[lhs].items():
            stack.append((w[:i] + r + w[i + len(lhs):], c * v))
    return {w: v for w, v in out.items() if abs(v) > TOL}


def check_quotient_json(stdout: str, sends: dict) -> list:
    """`env --quotient ... --json`: the returned rules must send each word
    of `sends` to the given constant (criterion 05)."""
    data = json.loads(stdout)
    rules = {tuple(r["lhs"]): {tuple(t["word"]): cyc_value(t["val"]) for t in r["rhs"]}
             for r in data["rules"]}
    errors = [] if data["confluent"] is True else ["quotient system is not confluent"]
    for word, value in sends.items():
        nf = rewrite(rules, word)
        want = {(): complex(value)} if value else {}
        if set(nf) != set(want) or not all(close(nf[k], v) for k, v in want.items()):
            errors.append(f"quotient rules send {word} to {nf}, expected {value}")
    return errors


def check_verify(stdout: str, as_json: bool, passes: bool, broken_index=None) -> list:
    """`anylie verify`: the verdict, and for a perturbed counit entry the
    failing counit check with a witness at the perturbed index."""
    errors = []
    if as_json:
        data = json.loads(stdout)
        if data["passed"] is not passes:
            errors.append(f"passed={data['passed']}, expected {passes}")
        if broken_index is not None:
            counit = next(ch for ch in data["checks"] if ch["name"] == "counit")
            if counit["passed"] or not any(broken_index in w["indices"]
                                           for w in counit["witnesses"]):
                errors.append(f"counit check has no witness at index {broken_index}")
        return errors
    lines = stdout.rstrip("\n").split("\n")
    want = "verdict: " + ("pass" if passes else "FAIL")
    if lines[-1] != want:
        errors.append(f"last line {lines[-1]!r}, expected {want!r}")
    if broken_index is not None and "counit: FAIL" not in lines:
        errors.append("counit check did not fail")
    return errors


# ---------------------------------------------------------------------------
# the braided line
# ---------------------------------------------------------------------------

def q_binomials(k: int, q: complex) -> list:
    """[k choose j]_q for j = 0..k, by the Pascal recurrence."""
    row = [1 + 0j]
    for a in range(1, k + 1):
        new = [1 + 0j] * (a + 1)
        for j in range(1, a):
            new[j] = row[j - 1] + q ** j * row[j]
        row = new
    return row


def power_terms(n: int, k: int, scales) -> dict:
    """Expected terms of (s1 t1 + s2 t2 [+ s3 t3])^k in C[t]/t^n: the
    q-multinomial [k; l][i+j; j] times the scale powers, q = exp(2 pi i/n)."""
    q = root(n)
    out = {}
    if len(scales) == 2:
        row = q_binomials(k, q)
        for j in range(k + 1):
            exps = (k - j, j)
            out[exps] = row[j] * scales[0] ** (k - j) * scales[1] ** j
    else:
        outer = q_binomials(k, q)
        for l in range(k + 1):
            inner = q_binomials(k - l, q)
            for j in range(k - l + 1):
                exps = (k - l - j, j, l)
                out[exps] = (outer[l] * inner[j] * scales[0] ** exps[0]
                             * scales[1] ** j * scales[2] ** l)
    return {e: v for e, v in out.items() if max(e) < n and abs(v) > 1e-6}


_TERM = re.compile(r"\((.+?)\)\*([t0-9^*]+)")


def check_power(stdout: str, as_json: bool, n: int, k: int, scales) -> list:
    want = power_terms(n, k, scales)
    if as_json:
        got = {tuple(t["exponents"]): cyc_value(t["val"])
               for t in json.loads(stdout)["terms"]}
    else:
        text = stdout.strip()
        got = {}
        if text != "0":
            for part in text.split(" + "):
                m = _TERM.fullmatch(part)
                if not m:
                    return [f"unreadable term {part!r}"]
                exps = [0] * len(scales)
                for factor in m.group(2).split("*"):
                    slot, _, power = factor[1:].partition("^")
                    exps[int(slot) - 1] = int(power or 1)
                got[tuple(exps)] = cyc_text_value(m.group(1))
    if set(got) != set(want):
        return [f"(..)^{k} at n={n}: monomials {sorted(got)[:4]}... "
                f"expected {sorted(want)[:4]}... ({len(got)} vs {len(want)})"]
    bad = [e for e in want if not close(got[e], want[e])]
    return [f"(..)^{k} at n={n}: wrong coefficient at {bad[0]}"] if bad else []


# ---------------------------------------------------------------------------
# dimension-1 search
# ---------------------------------------------------------------------------

def alphabet_values(tokens, n: int) -> list:
    """Distinct complex values of alphabet tokens ('2', '-1/2', 'z^3')."""
    values = []
    for tok in tokens:
        neg = tok.startswith("-")
        body = tok[1:] if neg else tok
        val = root(n, int(body[2:])) if body.startswith("z^") else complex(
            float(Fraction(body)))
        val = -val if neg else val
        if not any(close(val, v) for v in values):
            values.append(val)
    return values


def check_search(stdout: str, as_json: bool, n: int, tokens, degree) -> list:
    values = alphabet_values(tokens, n)
    count = (1 if degree is not None else n) * len(values) ** 3
    units = [e for e in values if abs(e) > TOL and any(close(1 / e, v) for v in values)]
    expected = 0 if degree is not None and degree % n else len(units)
    if as_json:
        data = json.loads(stdout)
        candidates, solutions, reported = data["candidates"], data["solutions"], data["count"]
    else:
        lines = stdout.rstrip("\n").split("\n")
        candidates = int(lines[0].removeprefix("candidates: "))
        solutions = [json.loads(line) for line in lines[1:-1]]
        reported = int(lines[-1].removeprefix("solutions: ").split()[0])
    errors = []
    if candidates != count:
        errors.append(f"candidates {candidates}, expected {count}")
    if reported != expected or len(solutions) != expected:
        errors.append(f"{len(solutions)} solutions, expected {expected}")
    for sol in solutions:
        e = cyc_value(sol["eps"][0]["val"])
        delta = cyc_value(sol["d"][0]["val"])
        gamma = cyc_value(sol["c"][0]["val"])
        if sol["basis"][0]["degree"] != [0] or not close(e * delta, 1) or not close(gamma, e):
            errors.append(f"solution {sol} is not eps*delta = 1, c = eps at degree 0")
            break
    return errors
