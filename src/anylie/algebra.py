"""Structure-constant model of a graded braided Lie algebra and its axioms.

A candidate algebra is three sparse tensors over Q(zeta):

    eps[mu]          counit values,
    d[mu][nu,rho]    coproduct coefficients,  D(x^mu) = d^mu_{nu,rho} x^nu (x) x^rho,
    c[mu,nu][rho]    bracket coefficients,    [x^mu, x^nu] = c^{mu,nu}_rho x^rho,

together with a degree p(mu) per basis element and a braiding bicharacter.
The five verification routines check, exhaustively over index tuples, the
compatibility conditions that make the data a braided Lie algebra:

    grading         nonzero entries respect the degree bookkeeping;
    coalgebra       coassociativity and the counit identities;
    bracket_counit  eps([x,y]) = eps(x) eps(y);
    delta_bracket   the coproduct is multiplicative over the bracket,
                    with the braiding phase on the crossed legs;
    cocommutation   the bracket kills the braided antisymmetrisation of
                    the coproduct's legs;
    braided_jacobi  the phase-decorated replacement of the Jacobi identity.

Because the tensors are sparse and the comparisons cover the full index
range (absent keys are zero), a pass is a proof at the given dimension,
not a sample.  Failures carry the offending index tuple and both sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cyclotomic import CycNum, checked_integers
from .grading import Bicharacter
from .sparse import LinComb, accumulate, nonzero

__all__ = [
    "AlgebraSpec",
    "Element",
    "Witness",
    "CheckResult",
    "AxiomReport",
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
    "coproduct",
    "counit",
    "bracket",
]


class SpecFormatError(ValueError):
    """Raised when an algebra description cannot be parsed."""


class AlgebraSpec:
    """Immutable bundle of basis, degrees and the three structure tensors."""

    __slots__ = ("bichar", "basis", "degrees", "eps", "d", "c",
                 "_d_rows", "_c_by_first", "_c_by_pair", "_c_by_second")

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

        d_rows = {}
        for (mu, nu, rho), val in self.d.items():
            d_rows.setdefault(mu, []).append((nu, rho, val))
        c_by_first = {}
        c_by_pair = {}
        c_by_second = {}
        for (mu, nu, rho), val in self.c.items():
            c_by_first.setdefault(mu, []).append((nu, rho, val))
            c_by_pair.setdefault((mu, nu), []).append((rho, val))
            c_by_second.setdefault(nu, []).append((mu, rho, val))
        self._d_rows = d_rows
        self._c_by_first = c_by_first
        self._c_by_pair = c_by_pair
        self._c_by_second = c_by_second

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


class Element(LinComb):
    """A vector in the algebra: sparse map basis index -> coefficient."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        self.terms = nonzero({int(mu): CycNum.promote(val)
                              for mu, val in dict(coeffs).items()})

    @classmethod
    def basis(cls, mu: int) -> "Element":
        return cls({mu: CycNum.one()})

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        parts = [f"({val})*x[{mu}]" for mu, val in sorted(self.terms.items())]
        return "Element(" + " + ".join(parts) + ")"


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


def _compare_sparse(lhs: dict, rhs: dict) -> list:
    """Witnesses where two sparse tensors differ; absent keys are zero."""
    witnesses = []
    for key in sorted(set(lhs) | set(rhs)):
        lv = lhs.get(key, CycNum.zero())
        rv = rhs.get(key, CycNum.zero())
        if lv != rv:
            witnesses.append(Witness(key, lv, rv))
    return witnesses


# ---------------------------------------------------------------------------
# the five axiom checks
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


def check_coalgebra(spec: AlgebraSpec) -> AxiomReport:
    """Coassociativity and both counit identities of the d, eps data."""
    lhs, rhs = {}, {}
    for (mu, alpha, lam), v1 in spec.d.items():
        for (nu, rho, v2) in spec._d_rows.get(alpha, ()):
            accumulate(lhs, (mu, nu, rho, lam), v1 * v2)
    for (mu, nu, alpha), v1 in spec.d.items():
        for (rho, lam, v2) in spec._d_rows.get(alpha, ()):
            accumulate(rhs, (mu, nu, rho, lam), v1 * v2)
    coassoc = _compare_sparse(lhs, rhs)

    counit_w = []
    dim = spec.dim
    for mu in range(dim):
        left = {}
        right = {}
        for (nu, rho, val) in spec._d_rows.get(mu, ()):
            e_nu = spec.eps.get(nu)
            if e_nu is not None:
                accumulate(left, rho, e_nu * val)
            e_rho = spec.eps.get(rho)
            if e_rho is not None:
                accumulate(right, nu, e_rho * val)
        for nu in range(dim):
            want = CycNum.one() if nu == mu else CycNum.zero()
            got_l = left.get(nu, CycNum.zero())
            got_r = right.get(nu, CycNum.zero())
            if got_l != want:
                counit_w.append(Witness((mu, nu), got_l, want, "(eps x id) o delta"))
            if got_r != want:
                counit_w.append(Witness((mu, nu), got_r, want, "(id x eps) o delta"))
    return AxiomReport([
        CheckResult("coassociativity", not coassoc, coassoc),
        CheckResult("counit", not counit_w, counit_w),
    ])


def check_bracket_counit(spec: AlgebraSpec) -> AxiomReport:
    """eps([x^mu, x^nu]) = eps(x^mu) eps(x^nu) for all pairs."""
    witnesses = []
    dim = spec.dim
    zero = CycNum.zero()
    for mu in range(dim):
        e_mu = spec.eps.get(mu, zero)
        for nu in range(dim):
            got = zero
            for (rho, val) in spec._c_by_pair.get((mu, nu), ()):
                e_rho = spec.eps.get(rho)
                if e_rho is not None:
                    got = got + val * e_rho
            want = e_mu * spec.eps.get(nu, zero)
            if got != want:
                witnesses.append(Witness((mu, nu), got, want))
    return AxiomReport([CheckResult("bracket_counit", not witnesses, witnesses)])


def check_delta_bracket(spec: AlgebraSpec) -> AxiomReport:
    """Multiplicativity of the coproduct over the bracket.

    Sparse form of: sum_a c^{mu,nu}_a d^a_{rho,lam} equals the double-
    coproduct contraction with the braiding phase beta(p(b), p(g)) on each
    summand, b the second leg of delta(x^mu), g the first leg of
    delta(x^nu).  The phase sits inside the summation.
    """
    lhs, rhs = {}, {}
    for (mu, nu, alpha), cv in spec.c.items():
        for (rho, lam, dv) in spec._d_rows.get(alpha, ()):
            accumulate(lhs, (mu, nu, rho, lam), cv * dv)
    p = spec.degrees
    for mu, row_mu in spec._d_rows.items():
        for (alpha, beta, dv1) in row_mu:
            for nu, row_nu in spec._d_rows.items():
                for (gamma, delta, dv2) in row_nu:
                    c_bd = spec._c_by_pair.get((beta, delta))
                    if not c_bd:
                        continue
                    c_ag = spec._c_by_pair.get((alpha, gamma))
                    if not c_ag:
                        continue
                    ph = spec.bichar.phase(p[beta], p[gamma]) * dv1 * dv2
                    for (lam, cv1) in c_bd:
                        for (rho, cv2) in c_ag:
                            accumulate(rhs, (mu, nu, rho, lam), ph * cv1 * cv2)
    witnesses = _compare_sparse(lhs, rhs)
    return AxiomReport([CheckResult("delta_bracket", not witnesses, witnesses)])


def check_cocommutation(spec: AlgebraSpec) -> AxiomReport:
    """Braided symmetry of the coproduct legs against the bracket.

    Compares sum_a d^mu_{lam,a} c^{a,nu}_rho with the leg-swapped
    contraction weighted by beta(p(lam), p(nu))^2 * beta(p(lam), p(a)).
    In bicharacter mode the squared pairing is an interpretation of the
    anyonic exponent and is flagged in the report notes.
    """
    lhs, rhs = {}, {}
    p = spec.degrees
    for (mu, lam, alpha), dv in spec.d.items():
        crow = spec._c_by_first.get(alpha)
        if crow:
            for (nu, rho, cv) in crow:
                accumulate(lhs, (mu, nu, rho, lam), dv * cv)
    for (mu, alpha, lam), dv in spec.d.items():
        crow = spec._c_by_first.get(alpha)
        if crow:
            for (nu, rho, cv) in crow:
                ph = spec.bichar.phase(p[lam], p[nu], 2) * spec.bichar.phase(p[lam], p[alpha])
                accumulate(rhs, (mu, nu, rho, lam), ph * dv * cv)
    witnesses = _compare_sparse(lhs, rhs)
    notes = []
    if spec.group.rank != 1:
        notes.append("phase read as beta(p(lam),p(nu))^2 * beta(p(lam),p(a)) "
                     "in bicharacter mode")
    return AxiomReport([CheckResult("cocommutation", not witnesses, witnesses, notes)])


def check_braided_jacobi(spec: AlgebraSpec) -> AxiomReport:
    """The braided Jacobi identity, exhaustive over all index tuples."""
    lhs, rhs = {}, {}
    p = spec.degrees
    for (mu, nu, alpha), cv1 in spec.c.items():
        for (rho, lam, cv2) in spec._c_by_second.get(alpha, ()):
            accumulate(lhs, (mu, nu, rho, lam), cv1 * cv2)
    for rho, row_rho in spec._d_rows.items():
        for (alpha, beta, dv) in row_rho:
            row_a = spec._c_by_first.get(alpha)
            row_b = spec._c_by_first.get(beta)
            if not row_a or not row_b:
                continue
            for (mu, gamma, cv1) in row_a:
                ph = spec.bichar.phase(p[beta], p[mu]) * dv * cv1
                for (nu, delta, cv2) in row_b:
                    c_gd = spec._c_by_pair.get((gamma, delta))
                    if not c_gd:
                        continue
                    for (lam, cv3) in c_gd:
                        accumulate(rhs, (mu, nu, rho, lam), ph * cv2 * cv3)
    witnesses = _compare_sparse(lhs, rhs)
    return AxiomReport([CheckResult("braided_jacobi", not witnesses, witnesses)])


def check_antisymmetry_info(spec: AlgebraSpec) -> CheckResult:
    """Optional braided antisymmetry of the bracket.

    Not part of the axiom system; reported separately because useful
    examples (the matrix families) fail it by design.
    """
    lhs, rhs = {}, {}
    p = spec.degrees
    for (mu, nu, rho), cv in spec.c.items():
        lhs[(mu, nu, rho)] = cv
    for (nu, mu, rho), cv in spec.c.items():
        rhs[(mu, nu, rho)] = -(spec.bichar.phase(p[mu], p[nu]) * cv)
    witnesses = _compare_sparse(lhs, rhs)
    return CheckResult("antisymmetry", not witnesses, witnesses)


class UnverifiedSpecError(ValueError):
    """A computation was refused for a spec that fails `verify_all`."""


def verify_all(spec: AlgebraSpec) -> AxiomReport:
    """Run the five axiom checks; antisymmetry is reported as info only."""
    report = check_grading(spec)
    report = report.merged(check_coalgebra(spec))
    report = report.merged(check_bracket_counit(spec))
    report = report.merged(check_delta_bracket(spec))
    report = report.merged(check_cocommutation(spec))
    report = report.merged(check_braided_jacobi(spec))
    report.info.append(check_antisymmetry_info(spec))
    return report


# ---------------------------------------------------------------------------
# evaluation on elements
# ---------------------------------------------------------------------------

def _check_element(spec: AlgebraSpec, el: Element):
    for mu in el.terms:
        if not 0 <= mu < spec.dim:
            raise ValueError(f"element index {mu} outside dimension {spec.dim}")


def coproduct(spec: AlgebraSpec, el: Element) -> dict:
    """delta extended linearly; returns a sparse rank-2 tensor
    {(nu, rho): coefficient}."""
    _check_element(spec, el)
    out = {}
    for mu, coeff in el.terms.items():
        for (nu, rho, val) in spec._d_rows.get(mu, ()):
            accumulate(out, (nu, rho), coeff * val)
    return nonzero(out)


def counit(spec: AlgebraSpec, el: Element) -> CycNum:
    _check_element(spec, el)
    total = CycNum.zero()
    for mu, coeff in el.terms.items():
        e = spec.eps.get(mu)
        if e is not None:
            total = total + coeff * e
    return total


def bracket(spec: AlgebraSpec, x: Element, y: Element) -> Element:
    _check_element(spec, x)
    _check_element(spec, y)
    out = {}
    for mu, cx in x.terms.items():
        for nu, cy in y.terms.items():
            for (rho, val) in spec._c_by_pair.get((mu, nu), ()):
                accumulate(out, rho, cx * cy * val)
    return x._raw(nonzero(out))
