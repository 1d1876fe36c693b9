"""The unpruned search: builds and fully verifies every tuple of the raw
product, in the same order as `anylie.cli.run_search` walks it.

Kept in the tests only, as the reference the grading-pruned, staged
search is compared against.
"""

from itertools import product

from anylie.algebra import AlgebraSpec, verify_all


def reference_search(space):
    dim = space.dim
    triples = [(m, n, r) for m in range(dim) for n in range(dim) for r in range(dim)]
    basis = [f"x{i}" for i in range(dim)]
    for degrees in space.degree_assignments():
        for values in product(space.alphabet, repeat=space.slot_count()):
            eps_vals = values[:dim]
            d_vals = values[dim : dim + dim ** 3]
            c_vals = values[dim + dim ** 3 :]
            if space.require_nonzero_delta and all(v.is_zero() for v in d_vals):
                continue
            eps = {i: v for i, v in enumerate(eps_vals) if not v.is_zero()}
            d = {t: v for t, v in zip(triples, d_vals) if not v.is_zero()}
            c = {t: v for t, v in zip(triples, c_vals) if not v.is_zero()}
            spec = AlgebraSpec(space.bichar, basis, degrees, eps, d, c)
            if verify_all(spec).passed:
                yield spec
