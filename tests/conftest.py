import random

import pytest

from anylie.constructions import build_ansatz, build_matrix_type
from anylie.cyclotomic import CycNum, root_of_unity
from anylie.envelope import build_rewrite_system, generate_relations
from anylie.grading import Bicharacter


def z(m, k=1):
    return root_of_unity(m, k)


ONE = CycNum.one()

# sl(2) on basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h,
# with the antisymmetric partners spelled out (1-based g indices)
SL2_C = {
    (1, 2, 2): 2, (2, 1, 2): -2,
    (1, 3, 3): -2, (3, 1, 3): 2,
    (2, 3, 1): 1, (3, 2, 1): -1,
}

# (1|1) super pair: even h, odd q with [q,q] = h
SUPER_C = {(2, 2, 1): 1}
SUPER_P = (0, 1)


@pytest.fixture(scope="session")
def l2f3():
    """Matrix family N=2 over Z/3 with f=(0,1): generators a,b,c,d."""
    return build_matrix_type(2, Bicharacter.anyonic(3), (0, 1))


@pytest.fixture(scope="session")
def l2f2():
    """Matrix family N=2 over Z/2 with f=(0,1): the super case."""
    return build_matrix_type(2, Bicharacter.anyonic(2), (0, 1))


@pytest.fixture(scope="session")
def l3f():
    """Matrix family N=3 over Z/3 with f=(0,1,2)."""
    return build_matrix_type(3, Bicharacter.anyonic(3), (0, 1, 2))


@pytest.fixture(scope="session")
def sl2_ansatz():
    return build_ansatz(
        Bicharacter.anyonic(1), (0, 0, 0), SL2_C, names=("h", "e", "f"))


@pytest.fixture(scope="session")
def super_ansatz():
    return build_ansatz(
        Bicharacter.anyonic(2), SUPER_P, SUPER_C, names=("h", "q"))


def rewrite_system_for(spec, order=None):
    rels = generate_relations(spec)
    return build_rewrite_system(rels, spec.dim, order=order)


@pytest.fixture(scope="session")
def l2f3_rs(l2f3):
    return rewrite_system_for(l2f3)


@pytest.fixture(scope="session")
def l2f2_rs(l2f2):
    return rewrite_system_for(l2f2)


@pytest.fixture(scope="session")
def l3f_rs(l3f):
    return rewrite_system_for(l3f)


@pytest.fixture(scope="session")
def sl2_rs(sl2_ansatz):
    return rewrite_system_for(sl2_ansatz)


def classical_jacobi_holds(dim, c):
    """Brute-force [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on structure
    constants (1-based dict), independent of the package's checkers."""
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                for l in range(1, dim + 1):
                    total = CycNum.zero()
                    for a in range(1, dim + 1):
                        for (x, y, zz) in ((i, j, k), (j, k, i), (k, i, j)):
                            v1 = c.get((x, y, a))
                            v2 = c.get((a, zz, l))
                            if v1 is not None and v2 is not None:
                                total = total + CycNum.promote(v1) * CycNum.promote(v2)
                    if not total.is_zero():
                        return False
    return True


def random_cyc(rng: random.Random, max_order=8) -> CycNum:
    order = rng.randint(1, max_order)
    coeffs = [rng.randint(-4, 4) for _ in range(order)]
    return CycNum(order, coeffs)


def random_word(rng: random.Random, ngens, max_len=3):
    return tuple(rng.randrange(ngens) for _ in range(rng.randint(0, max_len)))
