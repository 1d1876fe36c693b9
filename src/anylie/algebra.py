"""Structure-constant model of a graded braided Lie algebra and its axioms.

A candidate algebra is three sparse tensors over Q(zeta):

    eps[mu]          counit values,
    d[mu][nu,rho]    coproduct coefficients,  D(x^mu) = d^mu_{nu,rho} x^nu (x) x^rho,
    c[mu,nu][rho]    bracket coefficients,    [x^mu, x^nu] = c^{mu,nu}_rho x^rho,

together with a degree p(mu) per basis element and a braiding bicharacter.
The six verification routines check, exhaustively over index tuples, the
compatibility conditions that make the data a braided Lie algebra.  All
but `grading` equate two sums, each written below as the `Contraction`
that declares it ("d[mab]" is d^m_{a,b}, "beta[bg]" is beta(p(b), p(g))):

    grading         nonzero entries respect the degree bookkeeping;
    coalgebra       coassociativity  d[mal] d[anr] = d[mna] d[arl],
                    and the counit   d[mab] eps[a] = delta_mb,  d[mab] eps[b] = delta_ma;
    bracket_counit  eps([x,y]) = eps(x) eps(y): c[mnr] eps[r] = eps[m] eps[n];
    delta_bracket   D is multiplicative over [,], phased on the crossed legs:
                    c[mna] d[arl] = beta[bg] d[mab] c[agr] d[nge] c[bel];
    cocommutation   [,] kills the braided antisymmetrisation of D's legs:
                    d[mla] c[anr] = beta[ln]^2 beta[la] d[mal] c[anr];
    braided_jacobi  the phase-decorated Jacobi identity:
                    c[mna] c[ral] = beta[bm] d[rab] c[amg] c[bnd] c[gdl];
    antisymmetry    (informational) c[mnr] = -beta[mn] c[nmr].

Because the tensors are sparse and the comparisons cover the full index
range (absent keys are zero), a pass is a proof at the given dimension,
not a sample.  Failures carry the offending index tuple and both sides.

The tensors are the whole interface: the bracket is `c` itself, and L is
reached as the degree-1 part of U(L), where `anylie.envelope` evaluates
the coproduct and the counit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import starmap
from operator import itemgetter, mul

from .cyclotomic import CycNum, _from_sparse, _sparse_product, _to_sparse, checked_integers
from .grading import Bicharacter
from .sparse import accumulate

__all__ = [
    "AlgebraSpec",
    "Contraction",
    "Witness",
    "CheckResult",
    "AxiomReport",
    "compare_sparse",
    "SpecFormatError",
    "UnverifiedSpecError",
    "grading_constraint",
    "check_grading",
    "check_coalgebra",
    "check_bracket_counit",
    "check_delta_bracket",
    "check_cocommutation",
    "check_braided_jacobi",
    "check_antisymmetry_info",
    "verify_all",
]


class SpecFormatError(ValueError):
    """Raised when an algebra description cannot be parsed."""


class AlgebraSpec:
    """Immutable bundle of basis, degrees and the three structure tensors."""

    __slots__ = ("bichar", "basis", "degrees", "eps", "d", "c", "_rows")

    def __init__(self, bichar: Bicharacter, basis, degrees, eps, d, c):
        dim = len(basis)
        if dim < 1:
            raise SpecFormatError("basis must be nonempty")
        group = bichar.group
        self.bichar = bichar
        self.basis = tuple(str(b) for b in basis)
        if "" in self.basis:
            raise SpecFormatError("basis labels must be nonempty")
        if len(set(self.basis)) != dim:
            raise SpecFormatError("basis labels must be distinct")
        if len(degrees) != dim:
            raise SpecFormatError("one degree per basis element required")
        self.degrees = tuple(group.degree(p) for p in degrees)

        def clean(entries, name, arity):
            """Entries keyed by one basis index (arity 1) or by a tuple of
            `arity` indices, checked to lie in range; zeros are dropped."""
            out = {}
            for key, val in dict(entries).items():
                indices = (key,) if arity == 1 else key
                if len(indices) != arity or not all(0 <= i < dim for i in indices):
                    raise SpecFormatError(f"{name} index {key} out of range")
                val = CycNum.promote(val)
                if not val.is_zero():
                    out[key] = val
            return out

        self.eps = clean(eps, "eps", 1)
        self.d = clean(d, "d", 3)
        self.c = clean(c, "c", 3)
        self._rows = {}

    def rows(self, tensor: str, positions: tuple) -> dict:
        """The entries of `tensor` ('eps', 'd' or 'c') grouped by their
        indices at `positions`: {bound: [(key, form), ...]}, keys as index
        tuples, each list in entry order, and each value as the sparse form
        of `anylie.cyclotomic` that `Contraction` reads; equal values share
        one form.  Built on first use and cached; the cache only ever holds
        whole tables."""
        table = self._rows.get((tensor, positions))
        if table is None:
            entries = ({(mu,): v for mu, v in self.eps.items()} if tensor == "eps"
                       else getattr(self, tensor))
            bound, forms, table = _getter(positions), {}, {}
            for key, val in entries.items():
                same = (val.order, val.nums, val.den)
                form = forms.get(same)
                if form is None:
                    form = forms[same] = _to_sparse(val)
                table.setdefault(bound(key), []).append((key, form))
            self._rows[(tensor, positions)] = table
        return table

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def group(self):
        return self.bichar.group

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return (self.bichar == other.bichar and self.basis == other.basis
                and self.degrees == other.degrees and self.eps == other.eps
                and self.d == other.d and self.c == other.c)

    def __repr__(self):
        return f"AlgebraSpec(dim={self.dim}, group={self.group.factors})"

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "grading": self.bichar.to_json(),
            "basis": [{"name": name, "degree": list(p)}
                      for name, p in zip(self.basis, self.degrees)],
            "eps": [{"mu": mu, "val": val.to_json()}
                    for mu, val in sorted(self.eps.items())],
            "d": [{"mu": k[0], "nu": k[1], "rho": k[2], "val": v.to_json()}
                  for k, v in sorted(self.d.items())],
            "c": [{"mu": k[0], "nu": k[1], "rho": k[2], "val": v.to_json()}
                  for k, v in sorted(self.c.items())],
        }

    @classmethod
    def from_json(cls, data) -> "AlgebraSpec":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise SpecFormatError(f"invalid JSON: {exc}") from exc
        try:
            bichar = Bicharacter.from_json(data["grading"])
            basis = [entry["name"] for entry in data["basis"]]
            degrees = [entry.get("degree", 0) for entry in data["basis"]]
            degrees = [checked_integers(p if isinstance(p, list) else (p,), "degree coordinates")
                       for p in degrees]
            eps = {checked_integers((e["mu"],), "basis indices")[0]: CycNum.from_json(e["val"])
                   for e in data.get("eps", [])}
            d = {checked_integers((e["mu"], e["nu"], e["rho"]), "basis indices"):
                 CycNum.from_json(e["val"]) for e in data.get("d", [])}
            c = {checked_integers((e["mu"], e["nu"], e["rho"]), "basis indices"):
                 CycNum.from_json(e["val"]) for e in data.get("c", [])}
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecFormatError(f"bad algebra description: {exc}") from exc
        return cls(bichar, basis, degrees, eps, d, c)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def _getter(positions: tuple):
    """Reads the tuple of the items at `positions` of a sequence."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0))


_FACTOR = re.compile(r"(\w+)\[(\w+)\]$")
_PHASE = re.compile(r"beta\[(\w)(\w)\](?:\^(\d+))?$")


class Contraction:
    """One side of a structure-tensor identity, declared as data.

    `factors` is a product of tensor entries with one letter per index:
    "d[mab] c[agr]" is d^m_{a,b} c^{a,g}_r.  Letters not in `out`, the
    result's key, are summed over.  `phase` multiplies each term by phases
    of its letters' degrees: "beta[bg]" is beta(p(b), p(g)), "beta[ln]^2"
    its square, and a leading "-" negates the product.

    Evaluation is one depth-first sparse join in the written order: the
    first factor is scanned and each later one looked up by the letters
    bound before it.  A partial product is formed only once the next lookup
    is nonempty; the phase joins it at the factor binding its last letter,
    computed once per degree tuple.  Products are carried unreduced, as the
    sparse forms of `anylie.cyclotomic` (a matrix-family entry or a phase
    is one monomial, so a factor costs one integer multiply), and each
    finished term is folded into a `CycNum` once, of the lcm of its
    factors' orders, the value and order that `*` would give.  The factors
    are read from the spec's `rows` tables, whose values are sparse forms
    already, and the result holds `CycNum` values only.
    """

    def __init__(self, factors: str, out: str, phase: str = ""):
        slot, depth = {}, {}  # letter -> its place among the bound indices, its factor
        self._tables, self._steps = [], []  # per factor: (tensor, bound), (lookup, new)
        for i, token in enumerate(factors.split()):
            tensor, letters = _FACTOR.match(token).groups()
            if len(set(letters)) != len(letters):
                raise ValueError(f"repeated letter in factor {token}")
            bound = tuple(k for k, x in enumerate(letters) if x in slot)
            new = tuple(k for k, x in enumerate(letters) if x not in slot)
            self._tables.append((tensor, bound))
            self._steps.append((_getter(tuple(slot[letters[k]] for k in bound)), _getter(new)))
            for k in new:
                slot[letters[k]], depth[letters[k]] = len(slot), i
        self._out = _getter(tuple(slot[x] for x in out))
        self._phase_depth = None
        if phase:
            terms = [_PHASE.match(token).groups() for token in phase.lstrip("-").split()]
            pairs = [x for term in terms for x in term[:2]]  # the letters of each beta
            self._phase_key = _getter(tuple(slot[x] for x in pairs))
            self._phase = (phase.startswith("-"), [int(power or 1) for _, _, power in terms])
            self._phase_depth = max(depth[x] for x in pairs)

    def __call__(self, spec: "AlgebraSpec", acc=None) -> dict:
        """{out key: value} over the tensors of `spec`, added into `acc`."""
        acc = {} if acc is None else acc
        tables = list(starmap(spec.rows, self._tables))
        phase = None if self._phase_depth is None else self._phase_of(spec)
        self._join(0, tables[0].get((), ()), None, (), tables, phase, acc)
        return acc

    def _join(self, depth, entries, partial, env, tables, phase, acc):
        """Extend `env`, the bound indices in letter order, by each row."""
        new = self._steps[depth][1]
        last = depth + 1 == len(tables)
        with_phase = depth == self._phase_depth
        if not last:
            table, lookup = tables[depth + 1], self._steps[depth + 1][0]
        for key, val in entries:
            indices = env + new(key)
            if not last:
                below = table.get(lookup(indices))
                if not below:
                    continue
            term = val if partial is None else _sparse_product(partial, val)
            if with_phase:
                term = _sparse_product(term, phase(indices))
            if last:
                accumulate(acc, self._out(indices), _from_sparse(term))
            else:
                self._join(depth + 1, below, term, indices, tables, phase, acc)

    def _phase_of(self, spec: "AlgebraSpec"):
        """The phase of the bound indices as a sparse form, computed once
        per degree tuple."""
        negate, powers = self._phase
        key_of, degree, bichar = self._phase_key, spec.degrees.__getitem__, spec.bichar
        cache = {}

        def phase(env):
            degs = tuple(map(degree, key_of(env)))
            value = cache.get(degs)
            if value is None:
                value = reduce(mul, [bichar.phase(degs[2 * i], degs[2 * i + 1], power)
                                     for i, power in enumerate(powers)])
                value = cache[degs] = _to_sparse(-value if negate else value)
            return value
        return phase


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    indices: tuple
    lhs: object
    rhs: object
    note: str = ""

    def __str__(self):
        base = f"at {self.indices}: {self.lhs} != {self.rhs}"
        return base + (f" ({self.note})" if self.note else "")


@dataclass
class CheckResult:
    name: str
    passed: bool
    witnesses: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def __str__(self):
        head = f"{self.name}: {'pass' if self.passed else 'FAIL'}"
        lines = [head]
        lines += [f"    {w}" for w in self.witnesses[:8]]
        if len(self.witnesses) > 8:
            lines.append(f"    ... {len(self.witnesses) - 8} more witnesses")
        lines += [f"    note: {n}" for n in self.notes]
        return "\n".join(lines)


@dataclass
class AxiomReport:
    checks: list
    info: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.checks + other.checks, self.info + other.info)

    def to_json(self) -> dict:
        def enc(ch):
            return {
                "name": ch.name,
                "passed": ch.passed,
                "witnesses": [{"indices": list(w.indices),
                               "lhs": str(w.lhs), "rhs": str(w.rhs),
                               "note": w.note} for w in ch.witnesses],
                "notes": list(ch.notes),
            }
        return {"passed": self.passed,
                "checks": [enc(ch) for ch in self.checks],
                "info": [enc(ch) for ch in self.info]}

    def __str__(self):
        lines = [str(ch) for ch in self.checks]
        lines += [str(ch) + "  [informational]" for ch in self.info]
        lines.append("verdict: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def compare_sparse(lhs: dict, rhs: dict, note: str = "") -> list:
    """Witnesses where two sparse tensors differ, in key order; absent keys
    are zero."""
    witnesses = []
    zero = CycNum.zero()
    for key in sorted(set(lhs) | set(rhs)):
        lv = lhs.get(key, zero)
        rv = rhs.get(key, zero)
        if lv != rv:
            witnesses.append(Witness(key, lv, rv, note))
    return witnesses


# ---------------------------------------------------------------------------
# the six axiom checks
# ---------------------------------------------------------------------------

def grading_constraint(group, degrees, tensor: str, key: tuple) -> tuple:
    """The two degrees that must agree for `tensor` ('eps', 'd' or 'c') to
    be nonzero at `key`, as (have, want): eps at (mu,) needs p(mu) = 0,
    d at (mu, nu, rho) needs p(mu) = p(nu) + p(rho), and c at
    (mu, nu, rho) needs p(rho) = p(mu) + p(nu).  Shared by `check_grading`
    and the search, which enumerates only slots where the two agree."""
    if tensor == "eps":
        return degrees[key[0]], group.zero()
    mu, nu, rho = key
    if tensor == "d":
        return degrees[mu], group.add(degrees[nu], degrees[rho])
    return degrees[rho], group.add(degrees[mu], degrees[nu])


def check_grading(spec: AlgebraSpec) -> AxiomReport:
    """Nonzero entries must respect degrees: eps on degree 0, d splits the
    degree, c adds the degrees."""
    witnesses = []
    for tensor, keys, note in (
            ("eps", [(mu,) for mu in sorted(spec.eps)], "eps supported off degree 0"),
            ("d", sorted(spec.d), "coproduct entry splits degree wrongly"),
            ("c", sorted(spec.c), "bracket entry breaks degree additivity")):
        for key in keys:
            have, want = grading_constraint(spec.group, spec.degrees, tensor, key)
            if have != want:
                witnesses.append(Witness(key, have, want, note))
    return AxiomReport([CheckResult("grading", not witnesses, witnesses)])


# The two sides of each identity, as the module docstring states them.
_IDENTITIES = {
    "coassociativity": (Contraction("d[mal] d[anr]", "mnrl"),
                        Contraction("d[mna] d[arl]", "mnrl")),
    "bracket_counit": (Contraction("c[mnr] eps[r]", "mn"), Contraction("eps[m] eps[n]", "mn")),
    "delta_bracket": (Contraction("c[mna] d[arl]", "mnrl"),
                      Contraction("d[mab] c[agr] d[nge] c[bel]", "mnrl", "beta[bg]")),
    "cocommutation": (Contraction("d[mla] c[anr]", "mnrl"),
                      Contraction("d[mal] c[anr]", "mnrl", "beta[ln]^2 beta[la]")),
    "braided_jacobi": (Contraction("c[mna] c[ral]", "mnrl"),
                       Contraction("d[rab] c[amg] c[bnd] c[gdl]", "mnrl", "beta[bm]")),
    "antisymmetry": (Contraction("c[mnr]", "mnr"), Contraction("c[nmr]", "mnr", "-beta[mn]")),
}
_COUNIT = ((Contraction("d[mab] eps[a]", "mb"), "(eps x id) o delta"),
           (Contraction("d[mab] eps[b]", "ma"), "(id x eps) o delta"))


def _identity_check(name: str, spec: AlgebraSpec, notes=()) -> CheckResult:
    """The check of `_IDENTITIES[name]`: witnesses where its sides differ."""
    lhs, rhs = _IDENTITIES[name]
    witnesses = compare_sparse(lhs(spec), rhs(spec))
    return CheckResult(name, not witnesses, witnesses, list(notes))


def check_coalgebra(spec: AlgebraSpec) -> AxiomReport:
    """Coassociativity and both counit identities of the d, eps data."""
    identity = dict.fromkeys([(mu, mu) for mu in range(spec.dim)], CycNum.one())
    counit_w = sorted((w for side, note in _COUNIT
                       for w in compare_sparse(side(spec), identity, note)),
                      key=lambda w: w.indices)
    return AxiomReport([_identity_check("coassociativity", spec),
                        CheckResult("counit", not counit_w, counit_w)])


def check_bracket_counit(spec: AlgebraSpec) -> AxiomReport:
    """eps([x^mu, x^nu]) = eps(x^mu) eps(x^nu) for all pairs."""
    return AxiomReport([_identity_check("bracket_counit", spec)])


def check_delta_bracket(spec: AlgebraSpec) -> AxiomReport:
    """Multiplicativity of the coproduct over the bracket, with the
    braiding phase of the crossed legs inside the sum."""
    return AxiomReport([_identity_check("delta_bracket", spec)])


def check_cocommutation(spec: AlgebraSpec) -> AxiomReport:
    """Braided symmetry of the coproduct legs against the bracket.  In
    bicharacter mode the squared pairing is an interpretation of the
    anyonic exponent and is flagged in the report notes."""
    notes = []
    if spec.group.rank != 1:
        notes.append("phase read as beta(p(lam),p(nu))^2 * beta(p(lam),p(a)) "
                     "in bicharacter mode")
    return AxiomReport([_identity_check("cocommutation", spec, notes)])


def check_braided_jacobi(spec: AlgebraSpec) -> AxiomReport:
    """The braided Jacobi identity, exhaustive over all index tuples."""
    return AxiomReport([_identity_check("braided_jacobi", spec)])


def check_antisymmetry_info(spec: AlgebraSpec) -> CheckResult:
    """Optional braided antisymmetry of the bracket: not an axiom, and
    reported apart because useful examples (the matrix families) fail it."""
    return _identity_check("antisymmetry", spec)


class UnverifiedSpecError(ValueError):
    """A computation was refused for a spec that fails `verify_all`."""


def verify_all(spec: AlgebraSpec) -> AxiomReport:
    """Run the six axiom checks; antisymmetry is reported as info only."""
    report = check_grading(spec)
    for check in (check_coalgebra, check_bracket_counit, check_delta_bracket,
                  check_cocommutation, check_braided_jacobi):
        report = report.merged(check(spec))
    report.info.append(check_antisymmetry_info(spec))
    return report

