"""Exact linear algebra: RREF canonicality, solving, subspace lattice."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfex import GF, QQ
from hopfex.errors import NoSolution, ShapeMismatch
from hopfex.linalg import (Mat, SubspaceBasis, kernel, rref, rref_rows, solve,
                           solve_columns, unit_vec, vec_add, vec_is_zero,
                           vec_scale, zero_vec)

F5 = GF(5)


def qmat(rows):
    return Mat(QQ, [[QQ.from_fraction(Fraction(c)) for c in r] for r in rows])


def qvec(entries):
    return tuple(QQ.from_fraction(Fraction(c)) for c in entries)


def random_mat(field, rng, nrows, ncols):
    if field.char == 0:
        pick = lambda: field.from_fraction(Fraction(rng.randint(-6, 6),
                                                    rng.randint(1, 4)))
    else:
        pick = lambda: field.from_int(rng.randint(0, field.char - 1))
    return Mat(field, [[pick() for _ in range(ncols)] for _ in range(nrows)])


def test_rref_is_canonical_and_idempotent():
    rng = random.Random(20260814)
    for field in (QQ, F5):
        for _ in range(25):
            m = random_mat(field, rng, rng.randint(1, 5), rng.randint(1, 5))
            rows, pivots = rref_rows(field, m.rows)
            # no zero rows, pivot columns strictly increase
            assert all(not vec_is_zero(r) for r in rows)
            assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
            for r, p in zip(rows, pivots):
                assert r[p] == field.one()
                # pivot column is zero elsewhere
                for other in rows:
                    if other is not r:
                        assert other[p].is_zero()
            # idempotent
            again, pav = rref_rows(field, rows)
            assert again == rows and pav == pivots


def test_rref_invariant_under_row_operations():
    rng = random.Random(7)
    for _ in range(20):
        m = random_mat(QQ, rng, 4, 5)
        rows1, piv1 = rref_rows(QQ, m.rows)
        shuffled = list(m.rows)
        rng.shuffle(shuffled)
        # add a random multiple of one row to another
        if len(shuffled) > 1:
            c = QQ.from_int(rng.randint(-3, 3))
            shuffled[0] = vec_add(shuffled[0], vec_scale(c, shuffled[1]))
        rows2, piv2 = rref_rows(QQ, shuffled)
        assert rows1 == rows2 and piv1 == piv2


def test_solve_exact_and_no_solution():
    m = qmat([[1, 2], [3, 4]])
    x = solve(m, qvec([5, 6]))
    assert m.apply(x) == qvec([5, 6])
    assert x == qvec([Fraction(-4), Fraction(9, 2)])

    sing = qmat([[1, 2], [2, 4]])
    with pytest.raises(NoSolution):
        solve(sing, qvec([1, 0]))
    # consistent singular system still solves, free variables pinned to zero
    x = solve(sing, qvec([1, 2]))
    assert sing.apply(x) == qvec([1, 2])
    assert x[1].is_zero()


def test_solve_columns_matches_columnwise_solve():
    rng = random.Random(99)
    m = random_mat(F5, rng, 3, 3)
    rhs = random_mat(F5, rng, 3, 2)
    try:
        sol = solve_columns(m, rhs)
    except NoSolution:
        pytest.skip("random system happened to be inconsistent")
    for j in range(2):
        assert m.apply(sol.column(j)) == rhs.column(j)


def test_kernel_is_exact_nullspace():
    m = qmat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    ker = kernel(m)
    assert ker.dim == 1
    for row in ker.rows:
        assert vec_is_zero(m.apply(row))
    # rank-nullity against rref
    _, pivots = rref(m)
    assert len(pivots) + ker.dim == 3


def test_matrix_algebra_ops():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    assert a @ b == qmat([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.scale(QQ.from_int(2)) == qmat([[2, 4], [6, 8]])
    assert a.transpose().transpose() == a
    assert Mat.identity(QQ, 2) @ a == a
    assert a.trace() == QQ.from_int(5)
    assert Mat.from_columns(QQ, a.columns()) == a
    with pytest.raises(ShapeMismatch):
        a @ qmat([[1, 2, 3]])


def test_subspace_lattice_dims():
    # two planes in Q^3 meeting in a line
    u = SubspaceBasis(QQ, 3, [qvec([1, 0, 0]), qvec([0, 1, 0])])
    v = SubspaceBasis(QQ, 3, [qvec([0, 1, 0]), qvec([0, 0, 1])])
    assert u.dim == v.dim == 2
    assert u.sum(v).dim == 3
    line = u.intersect(v)
    assert line.dim == 1
    assert line.contains_vector(qvec([0, 5, 0]))
    assert not line.contains_vector(qvec([1, 0, 0]))
    # dim(U + V) + dim(U cap V) = dim U + dim V
    assert u.sum(v).dim + line.dim == u.dim + v.dim


def test_perp_complements():
    u = SubspaceBasis(QQ, 4, [qvec([1, 1, 0, 0]), qvec([0, 0, 1, -1])])
    p = u.perp()
    assert u.dim + p.dim == 4
    assert u.intersect(p).dim == 0
    assert p.perp() == u  # canonical bases make double-perp literal equality


def test_subspace_coords_roundtrip():
    u = SubspaceBasis(QQ, 3, [qvec([1, 2, 0]), qvec([0, 0, 1])])
    w = qvec([2, 4, 7])
    coords = u.coords_of(w)
    rebuilt = zero_vec(QQ, 3)
    for c, row in zip(coords, u.rows):
        rebuilt = vec_add(rebuilt, vec_scale(c, row))
    assert rebuilt == w


def test_subspace_coords_reject_vectors_outside():
    u = SubspaceBasis(QQ, 3, [qvec([1, 2, 0]), qvec([0, 0, 1])])
    # the pivot entries (1, 0) would give 1*(1, 2, 0), which is not w
    with pytest.raises(NoSolution):
        u.coords_of(qvec([1, 0, 0]))
    with pytest.raises(NoSolution):
        SubspaceBasis.zero(QQ, 3).coords_of(qvec([0, 0, 1]))
    assert SubspaceBasis.zero(QQ, 3).coords_of(zero_vec(QQ, 3)) == ()


@settings(max_examples=40, derandomize=True)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rref_preserves_row_space(int_rows):
    rows = [qvec(r) for r in int_rows]
    before = SubspaceBasis(QQ, 3, rows)
    reduced, _ = rref_rows(QQ, rows)
    after = SubspaceBasis(QQ, 3, reduced)
    assert before == after


def test_unit_and_zero_vectors():
    assert unit_vec(QQ, 3, 1) == qvec([0, 1, 0])
    assert vec_is_zero(zero_vec(F5, 4))
