"""FiniteAlgebra: the radical chain, ideal powers, commutative splitting.

The radical and the splitting pool are compared with straightforward
references kept here: the Gram matrix and characteristic polynomials of
the full n x n left multiplications, and a splitting scan that restarts
at the first idempotent after every split.
"""

import itertools
import random

import pytest

from hopfex import GF, QQ, FieldSpec
from hopfex.algebra import _frobenius_root, char_poly
from hopfex.coalgebra import _split_commutative
from hopfex.errors import LinAlgError
from hopfex.linalg import (Mat, SubspaceBasis, kernel, rref_rows, unit_vec,
                           vec_add, vec_scale, vec_sub, zero_vec)
from hopfex.zoo import (cyclic, group_algebra, restricted_poly, sweedler,
                        taft, tensor_product)


def reference_radical(alg):
    """Jacobson radical from full-dimension traces and char polys."""
    n = alg.dim
    if alg.field.char == 0:
        gram = Mat(alg.field, [
            tuple(alg.left_mult_mat(alg.table[i][j]).trace() for j in range(n))
            for i in range(n)])
        return kernel(gram), 1
    p = alg.field.char
    current = [unit_vec(alg.field, n, i) for i in range(n)]
    q, levels = 1, 0
    while q <= n and current:
        rows = [tuple(char_poly(alg.left_mult_mat(alg.mult(a, y)))[q]
                      for a in current)
                for y in current]
        ker = kernel(Mat(alg.field, rows, len(current)))
        new = []
        for v in ker.rows:
            acc = zero_vec(alg.field, n)
            for c, b in zip(v, current):
                acc = vec_add(acc, vec_scale(_frobenius_root(c, q), b))
            new.append(acc)
        current = list(rref_rows(alg.field, new)[0])
        q *= p
        levels += 1
    return SubspaceBasis(alg.field, n, current), levels


def reference_split(alg):
    """_split_commutative's candidates, scanned from pool[0] after a split."""
    base = [unit_vec(alg.field, alg.dim, i) for i in range(alg.dim)]
    cands = list(base)
    cands.extend(vec_add(a, b) for a, b in itertools.combinations(base, 2))
    cands.extend(alg.mult(a, b) for a, b in itertools.combinations(base, 2))
    rng = random.Random(0xC0A16)
    for _ in range(64):
        v = zero_vec(alg.field, alg.dim)
        for b in base:
            v = vec_add(v, vec_scale(alg.field.from_int(rng.randrange(-3, 4)), b))
        cands.append(v)
    pool = [alg.unit]
    changed = True
    while changed:
        changed = False
        for idx, e in enumerate(pool):
            for x in cands:
                f = alg.split_idempotent(e, alg.mult(alg.mult(e, x), e))
                if f is not None:
                    pool[idx:idx + 1] = [f, vec_sub(e, f)]
                    changed = True
                    break
            if changed:
                break
    return pool


F3 = GF(3)

RADICAL_CASES = [
    ("taft25_Qzeta5",
     lambda: taft(5, FieldSpec(0, cyclotomic_order=5)), 1),
    ("kZ12_F13", lambda: group_algebra(cyclic(12), GF(13)), 1),
    ("restricted5", lambda: restricted_poly(5), 2),
    ("sweedler_kZ3_F3",
     lambda: tensor_product(sweedler(F3), group_algebra(cyclic(3), F3)), 3),
    ("taft9_F4", lambda: taft(3, GF(2, modulus=[1, 1, 1])), 4),
]


@pytest.mark.parametrize("make, levels", [case[1:] for case in RADICAL_CASES],
                         ids=[case[0] for case in RADICAL_CASES])
def test_radical_matches_full_dimension_reference(make, levels):
    alg = make().dual_algebra()
    want, ref_levels = reference_radical(alg)
    assert ref_levels == levels
    assert alg.radical() == want
    powers = alg.radical_powers()
    assert powers[0] == want and powers[-1].dim == 0


@pytest.mark.parametrize("field", [QQ, GF(13)], ids=["Q", "F_13"])
def test_split_commutative_matches_restarting_scan(field):
    analysis = group_algebra(cyclic(12), field).analysis()
    q = analysis.quotient.algebra
    center = q.subalgebra_on(list(q.center().rows), q.unit).algebra
    pool = _split_commutative(center)
    assert len(pool) == 12
    assert pool == reference_split(center)


def test_ideal_powers_of_whole_algebra_raises():
    alg = sweedler(QQ).dual_algebra()
    with pytest.raises(LinAlgError):
        alg.ideal_powers(SubspaceBasis.full(alg.field, alg.dim))


def test_radical_chain_rejects_a_level_that_is_not_an_ideal():
    alg = sweedler(F3).dual_algebra()
    unit_line = [alg.unit]
    with pytest.raises(LinAlgError):
        alg._require_right_ideal(unit_line, [0])
