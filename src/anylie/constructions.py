"""Builders for the concrete algebra families.

Two constructions are provided:

* the matrix family on N^2 generators x[m,mdot] with a grading function f
  on rows/columns, matrix coalgebra, counit the Kronecker delta, and the
  bracket [x^mu, x^nu] = eps(x^mu) * beta(f(m), p(nu))^-2 * x^nu;
* the one-dimensional-extension ansatz C + g: a bosonic generator x0 that
  is grouplike and acts as identity, glued onto user-supplied bracket
  constants c[i,j,k] for g.

Both take plain arguments, refuse malformed ones with ValueError, and
return ordinary `AlgebraSpec` values, so everything downstream
(verification, enveloping relations, rewriting) applies unchanged.  They
do not verify what they build: a caller that needs a proof runs `verify_all`.
"""

from __future__ import annotations

from .algebra import (AlgebraSpec, AxiomReport, CheckResult, Contraction, Witness,
                      compare_sparse, grading_constraint)
from .cyclotomic import CycNum
from .grading import Bicharacter

__all__ = [
    "build_matrix_type",
    "build_ansatz",
    "check_ansatz_reduction",
]


def build_matrix_type(N: int, bichar: Bicharacter, f) -> AlgebraSpec:
    """The N^2-dimensional matrix-form algebra for a grading function f
    (one degree per row index, reduced in the group).

    Basis x[m,mdot] (1-based labels, row-major indices), degrees
    p(m,mdot) = f(m) - f(mdot), matrix coalgebra, counit = delta, and the
    diagonal-supported bracket with coefficient beta(f(m), p(nu))^-2.
    """
    if N < 1:
        raise ValueError("matrix size N must be >= 1")
    group = bichar.group
    f = tuple(group.degree(v) for v in f)
    if len(f) != N:
        raise ValueError("grading function needs one value per row index")

    def idx(m, mdot):  # 0-based row-major position of x[m+1, mdot+1]
        return m * N + mdot

    basis = []
    degrees = []
    for m in range(N):
        for mdot in range(N):
            basis.append(f"x[{m + 1},{mdot + 1}]")
            degrees.append(group.add(f[m], group.neg(f[mdot])))

    eps = {idx(m, m): CycNum.one() for m in range(N)}

    d = {}
    for m in range(N):
        for mdot in range(N):
            for a in range(N):
                d[(idx(m, mdot), idx(m, a), idx(a, mdot))] = CycNum.one()

    c = {}
    for m in range(N):
        mu = idx(m, m)
        for r in range(N):
            for rdot in range(N):
                nu = idx(r, rdot)
                c[(mu, nu, nu)] = bichar.phase(f[m], degrees[nu], -2)

    return AlgebraSpec(bichar, basis, degrees, eps, d, c)


def _ansatz_data(bichar: Bicharacter, degrees, c):
    """The g-degrees reduced in the group, and the nonzero bracket
    constants as CycNums keyed by 1-based triples (i, j, k) within dim g."""
    group = bichar.group
    p = tuple(group.degree(v) for v in degrees)
    dim = len(p)
    fixed = {}
    for (i, j, k), val in dict(c).items():
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise ValueError(f"bracket constant index {(i, j, k)} out of range")
        val = CycNum.promote(val)
        if not val.is_zero():
            fixed[(i, j, k)] = val
    return p, fixed


def build_ansatz(bichar: Bicharacter, degrees, c, names=None) -> AlgebraSpec:
    """The (1 + dim g)-dimensional ansatz spec: a bosonic grouplike x0
    adjoined to g.  `degrees` are those of the g-generators x^1..x^dim, `c`
    maps 1-based triples (i, j, k) to the coefficient of x^k in [x^i, x^j],
    and `names` (default x1, x2, ...) labels the g-generators."""
    p, gc = _ansatz_data(bichar, degrees, c)
    g_dim = len(p)
    if names is None:
        names = tuple(f"x{i}" for i in range(1, g_dim + 1))
    elif len(names) != g_dim:
        raise ValueError("one name per g-generator required")
    basis = ("x0",) + tuple(names)
    degrees = (bichar.group.zero(),) + p

    one = CycNum.one()
    eps = {0: one}
    d = {(0, 0, 0): one}
    full_c = {(0, 0, 0): one}
    for i in range(1, g_dim + 1):
        d[(i, 0, i)] = one
        d[(i, i, 0)] = one
        full_c[(0, i, i)] = one
    full_c.update(gc)
    return AlgebraSpec(bichar, basis, degrees, eps, d, full_c)


# the phase-decorated Jacobi identity on the bracket of g: one sum equals two
_ANSATZ_JACOBI = (Contraction("c[ija] c[kal]", "ijkl"),
                  Contraction("c[kia] c[ajl]", "ijkl"),
                  Contraction("c[kja] c[ial]", "ijkl", "beta[ki]"))


def check_ansatz_reduction(bichar: Bicharacter, degrees, c) -> AxiomReport:
    """The reduced conditions for the ansatz, evaluated on g alone.

    `ansatz_phase_condition` is beta(p(i), p(j))^2 = 1 over all g-pairs;
    `ansatz_jacobi_condition` is the phase-decorated Jacobi identity on the
    c of g; `ansatz_c_homogeneous` records that c respects degrees, which
    full verification also demands but the two reduced conditions cannot
    see.  The report passes exactly when `verify_all` passes on
    `build_ansatz(bichar, degrees, c)`, which the tests confirm.
    """
    group = bichar.group
    p, c = _ansatz_data(bichar, degrees, c)
    g = len(p)
    p = (None,) + p  # 1-based

    phase_w = []
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            ph = bichar.phase(p[i], p[j]) ** 2
            if not ph.is_one():
                phase_w.append(Witness((i, j), ph, CycNum.one()))

    # g with an unused x0, so that its 1-based keys index the basis
    g_spec = AlgebraSpec(bichar, range(g + 1), (group.zero(),) + p[1:], {}, {}, c)
    lhs, rhs, crossed = _ANSATZ_JACOBI
    jacobi_w = compare_sparse(lhs(g_spec), crossed(g_spec, rhs(g_spec)))

    homog_w = []
    for key in sorted(c):
        have, want = grading_constraint(group, g_spec.degrees, "c", key)
        if have != want:
            homog_w.append(Witness(key, have, want, "c entry breaks degrees"))

    return AxiomReport([
        CheckResult("ansatz_phase_condition", not phase_w, phase_w),
        CheckResult("ansatz_jacobi_condition", not jacobi_w, jacobi_w),
        CheckResult("ansatz_c_homogeneous", not homog_w, homog_w),
    ])
