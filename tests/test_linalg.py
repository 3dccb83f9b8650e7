"""Exact linear algebra: RREF canonicality, solving, subspace lattice."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hopfex.extension
from hopfex import GF, QQ, Element, FieldSpec, linalg
from hopfex.errors import FieldMismatch, NoSolution, ShapeMismatch
from hopfex.linalg import (Echelon, Mat, SubspaceBasis, combine, kernel, rref,
                           rref_raw, rref_rows, solve, solve_columns,
                           t2_add_term, t2_flatten, unit_vec, vec_add,
                           vec_is_zero, vec_scale, vec_sub, zero_vec)
from hopfex.extension import extend_coalgebra
from hopfex.scalars import box, nonzero_raw
from hopfex.zoo import taft
from lifting_cases import (F9, HALF_ROOT, LIFT_FIELDS, QZ5, fraction_scalar,
                           fraction_vector, has_denominators, is_canonical)

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


def reference_solve_columns(m, rhs):
    """One solve() per column: solve_columns before it row-reduced once."""
    cols = [solve(m, rhs.column(j)) for j in range(rhs.ncols)]
    return Mat.from_columns(m.field, cols, m.ncols)


def test_solve_columns_matches_the_columnwise_reference_on_singular_systems():
    rng = random.Random(2026)
    checked = 0
    for field in (QQ, F5):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            # rank at most 2, so most systems are singular
            a = random_mat(field, rng, nrows, 2)
            m = a @ random_mat(field, rng, 2, ncols)
            rhs = m @ random_mat(field, rng, ncols, 3)
            want = reference_solve_columns(m, rhs)
            assert solve_columns(m, rhs) == want
            checked += 1
    assert checked == 60


def test_solve_columns_rejects_one_inconsistent_column():
    sing = qmat([[1, 2], [2, 4]])
    good = qvec([1, 2])
    rhs = Mat.from_columns(QQ, [good, qvec([1, 0]), good])
    with pytest.raises(NoSolution):
        reference_solve_columns(sing, rhs)
    with pytest.raises(NoSolution):
        solve_columns(sing, rhs)
    # without the bad column both give the solution with free variables 0
    ok = Mat.from_columns(QQ, [good, vec_scale(QQ.from_int(3), good)])
    assert solve_columns(sing, ok) == reference_solve_columns(sing, ok) == \
        Mat.from_columns(QQ, [qvec([1, 0]), qvec([3, 0])])


def test_solve_columns_rejects_mismatched_rows():
    with pytest.raises(ShapeMismatch):
        solve_columns(qmat([[1, 0], [0, 1]]), qmat([[1], [2], [3]]))
    # also with no right-hand columns at all
    with pytest.raises(ShapeMismatch):
        solve_columns(qmat([[1, 0], [0, 1]]), Mat(QQ, [(), (), ()], 0))


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


# ---------------------------------------------------------------------------
# membership and cuts read the pivots; the old eliminations are the oracle
# ---------------------------------------------------------------------------

def reference_contains(space, v):
    """Membership by row-reducing the basis together with v."""
    merged, _ = rref_rows(space.field, space.rows + [v])
    return len(merged) == space.dim


def reference_intersect(a, b):
    """Intersection as the perp of the sum of the perps."""
    return a.perp().sum(b.perp()).perp()


def golden_subspaces(h):
    return (list(h.coradical_filtration())
            + [c.subspace for c in h.simple_subcoalgebras()])


def probe_vectors(h, space):
    """Basis rows, their sum, every unit vector and the sum shifted by each."""
    total = zero_vec(h.field, h.dim)
    for r in space.rows:
        total = vec_add(total, r)
    units = [unit_vec(h.field, h.dim, i) for i in range(h.dim)]
    return (list(space.rows) + [total] + units
            + [vec_sub(total, u) for u in units])


def probe_functionals(h, space):
    """Functionals that cut space and functionals that kill it.

    The counit, the coordinate functional at each pivot (each one cuts,
    on a different last row), the all-ones functional, one coordinate
    functional off the pivots and one functional from space.perp().
    """
    units = [unit_vec(h.field, h.dim, i) for i in range(h.dim)]
    ones = tuple(h.field.one() for _ in range(h.dim))
    off = [units[i] for i in range(h.dim) if i not in space.pivots]
    return ([tuple(h.counit), ones] + [units[p] for p in space.pivots]
            + off[:1] + space.perp().rows[:1])


def test_contains_vector_matches_the_reference(zoo):
    seen = set()
    for stem, h in zoo.items():
        for space in golden_subspaces(h):
            for v in probe_vectors(h, space):
                want = reference_contains(space, v)
                assert space.contains_vector(v) == want, stem
                seen.add(want)
    assert seen == {True, False}


def test_cut_matches_the_reference(zoo):
    seen = set()
    for stem, h in zoo.items():
        for space in golden_subspaces(h):
            for f in probe_functionals(h, space):
                want = reference_intersect(
                    space, SubspaceBasis(h.field, h.dim, [f]).perp())
                got = space.cut(f)
                assert got == want and got.pivots == want.pivots, stem
                seen.add(got.dim == space.dim)
    assert seen == {True, False}


def test_intersect_matches_the_reference(zoo):
    for stem in ("sweedler", "taft9", "dual_kS3", "restricted3", "kZ6"):
        h = zoo[stem]
        spaces = golden_subspaces(h)
        for a in spaces:
            for b in spaces:
                got = a.intersect(b)
                assert got == reference_intersect(a, b), stem
                assert got.pivots == reference_intersect(a, b).pivots


def test_cut_by_hand():
    u = SubspaceBasis(QQ, 3, [qvec([1, 0, 2]), qvec([0, 1, 3])])
    # f = x + y - z takes a*(1,0,2) + b*(0,1,3) to -a - 2b
    cut = u.cut(qvec([1, 1, -1]))
    assert cut.dim == 1
    assert cut == SubspaceBasis(QQ, 3, [qvec([1, Fraction(-1, 2), Fraction(1, 2)])])
    assert u.cut(zero_vec(QQ, 3)) is u
    assert u.cut(qvec([2, 3, -1])) is u  # kills both rows
    assert SubspaceBasis.zero(QQ, 3).cut(qvec([1, 0, 0])).dim == 0
    with pytest.raises(ShapeMismatch):
        u.cut(qvec([1, 1]))
    with pytest.raises(ShapeMismatch):
        u.contains_vector(qvec([1, 1]))


def test_membership_and_cuts_do_not_row_reduce(zoo, monkeypatch):
    h = zoo["taft9"]
    spaces = golden_subspaces(h)
    probes = [(s, probe_vectors(h, s), probe_functionals(h, s)) for s in spaces]
    calls = []
    real = linalg.rref_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "rref_rows", counted)
    for space, vectors, functionals in probes:
        for v in vectors:
            space.contains_vector(v)
        for f in functionals:
            space.cut(f)
        h.is_subcoalgebra(space)
    assert calls == []
    # the counter does see an elimination
    SubspaceBasis(h.field, h.dim, [h.counit])
    assert len(calls) == 1


def reference_rref_rows(rows):
    """rref_rows as a loop of Scalar operations, before it ran on raw values."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    row_idx = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row_idx, len(work))
                          if not work[i][col].is_zero()), None)
        if pivot_row is None:
            continue
        work[row_idx], work[pivot_row] = work[pivot_row], work[row_idx]
        inv = work[row_idx][col].inverse()
        work[row_idx] = [inv * x for x in work[row_idx]]
        for i in range(len(work)):
            if i != row_idx and not work[i][col].is_zero():
                c = work[i][col]
                work[i] = [x - c * y for x, y in zip(work[i], work[row_idx])]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(work):
            break
    return [tuple(r) for r in work[:row_idx]], pivots


def random_scalar(field, rng):
    """A seeded element of field, zero about a third of the time."""
    if rng.random() < 0.35:
        return field.zero()
    if field.char == 0:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(field.degree)]
    else:
        coeffs = [rng.randrange(field.char) for _ in range(field.degree)]
    if field.modulus:
        return field.from_coeffs(coeffs)
    return field.from_fraction(Fraction(coeffs[0]))


def raw_types(rows):
    """The type of each raw value, and of each coefficient of a tuple."""
    return [[(type(x.val), tuple(map(type, x.val))
              if isinstance(x.val, tuple) else ()) for x in r] for r in rows]


RAW_FIELDS = [QQ, F5, GF(2, modulus=[1, 1, 1]),
              FieldSpec(0, cyclotomic_order=3), FieldSpec(0, cyclotomic_order=5)]


def random_low_rank_rows(field, rng):
    """A seeded matrix of at most 6 rows and 7 columns, of rank at most 3."""
    nrows, ncols, rank = rng.randint(1, 6), rng.randint(1, 7), rng.randint(0, 3)
    basis = [[random_scalar(field, rng) for _ in range(ncols)]
             for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = list(zero_vec(field, ncols))
        for b in basis:
            c = random_scalar(field, rng)
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(tuple(row))
    return rows, rank


@pytest.mark.parametrize("field", RAW_FIELDS, ids=lambda f: f.describe())
def test_rref_rows_matches_the_scalar_reference(field):
    rng = random.Random(9)
    for _ in range(15):
        rows, rank = random_low_rank_rows(field, rng)
        got, want = rref_rows(field, rows), reference_rref_rows(rows)
        assert got == want
        assert len(got[0]) <= rank
        assert raw_types(got[0]) == raw_types(want[0])
        assert all(is_canonical(field, x.val) for r in got[0] for x in r)


@pytest.mark.parametrize("field", RAW_FIELDS, ids=lambda f: f.describe())
def test_rref_raw_matches_the_scalar_reference(field):
    rng = random.Random(11)
    for _ in range(15):
        rows, _ = random_low_rank_rows(field, rng)
        work = [[x.val for x in r] for r in rows]
        pivots = rref_raw(field, work)
        want_rows, want_pivots = reference_rref_rows(rows)
        assert pivots == want_pivots
        assert len(work) == len(want_rows)
        assert [[x.val for x in r] for r in want_rows] == work
        assert all(is_canonical(field, x) for r in work for x in r)


def test_rref_rows_rejects_rows_from_two_fields():
    f7 = GF(7)
    with pytest.raises(FieldMismatch):
        rref_rows(F5, [(F5.one(), F5.zero()), (f7.one(), f7.one())])
    with pytest.raises(FieldMismatch):
        rref_rows(F5, [(F5.one(), f7.zero())])


# -- lifted membership and solving without the zero rows --------------------

def reference_coords_of(space, v):
    """coords_of as the Scalar loop it replaced."""
    coords = tuple(v[p] for p in space.pivots)
    back = list(zero_vec(space.field, space.ambient))
    for c, r in zip(coords, space.rows):
        if c.is_zero():
            continue
        for j, x in enumerate(r):
            if not x.is_zero():
                back[j] = back[j] + c * x
    if tuple(back) != tuple(v):
        raise NoSolution("vector is not in the subspace")
    return coords


def value_or_none(f, arg):
    """f(arg), or None when it raises NoSolution."""
    try:
        return f(arg)
    except NoSolution:
        return None


@pytest.mark.parametrize("field", [f for _, f in LIFT_FIELDS],
                         ids=[name for name, _ in LIFT_FIELDS])
def test_coords_of_matches_the_scalar_reference(field):
    rng = random.Random(29)
    found = set()
    for _ in range(12):
        n, k = rng.randint(2, 7), rng.randint(1, 4)
        gens = [fraction_vector(field, rng, n) for _ in range(k)]
        space = SubspaceBasis(field, n, gens)
        members = []
        for _ in range(3):
            v = zero_vec(field, n)
            for g in gens:
                v = vec_add(v, vec_scale(fraction_scalar(field, rng), g))
            members.append(v)
        for v in members + [fraction_vector(field, rng, n) for _ in range(3)]:
            want = value_or_none(lambda w: reference_coords_of(space, w), v)
            assert value_or_none(space.coords_of, v) == want
            assert space.contains_vector(v) == (want is not None)
            found.add(want is not None)
        if field.char == 0:
            found.add(has_denominators(x for r in space.rows for x in r))
    assert found == {True, False}


def reference_solve(m, b):
    """solve before it dropped the all-zero rows of [m | b]."""
    n = m.ncols
    red, pivots = rref_rows(m.field, [m.rows[i] + (b[i],) for i in range(m.nrows)])
    x = [m.field.zero()] * n
    for r, p in zip(red, pivots):
        if p == n:
            raise NoSolution("inconsistent linear system")
        x[p] = r[n]
    return tuple(x)


def skew_calls(z, g, h, n):
    """The inputs (coalg, sigma, tau, mid) of the skew-primitive solver
    while z, in the (g, h) bicomponent of taft16 over Q(zeta_4), is
    extended to a corner at degree n."""
    taft16 = taft(4, FieldSpec(0, cyclotomic_order=4))
    calls = []
    original = hopfex.extension._solve_skew

    def recording(coalg, sigma, tau, mid):
        calls.append((coalg, sigma, tau, mid))
        return original(coalg, sigma, tau, mid)

    def power_of_g(k):
        return Element(taft16, taft16.power_vec(taft16.basis_element(1).vec, k))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopfex.extension, "_solve_skew", recording)
        extend_coalgebra(taft16, power_of_g(g), power_of_g(h),
                         taft16.basis_element(taft16.index_of(z)), n)
    return calls


def dense_skew_system(coalg, sigma, tau, mid):
    """delta(r) = sigma (x) r + mid + r (x) tau as the dense dim^2 x dim
    system (m, b) of the H (x) H ambient, as the solver once built it."""
    field, dim = coalg.field, coalg.dim
    cols = []
    for e in range(dim):
        col = dict(coalg.comul[e])
        for a, c in enumerate(sigma):
            if not c.is_zero():
                t2_add_term(col, (a, e), -c)
        for b, c in enumerate(tau):
            if not c.is_zero():
                t2_add_term(col, (e, b), -c)
        cols.append(t2_flatten(field, col, dim))
    return (Mat.from_columns(field, cols, nrows=dim * dim),
            t2_flatten(field, mid, dim))


# Taft9 extensions have degree at most 2 and never reach the solver.
@pytest.mark.parametrize("z, g, h", [("x^3", 3, 0), ("gx^3", 0, 1)],
                         ids=["x^3", "gx^3"])
def test_solve_without_zero_rows_matches_the_full_reference(z, g, h):
    calls = skew_calls(z, g, h, 3)
    assert calls
    for coalg, sigma, tau, mid in calls:
        m, b = dense_skew_system(coalg, sigma, tau, mid)
        zero_rows = [i for i, (r, c) in enumerate(zip(m.rows, b))
                     if vec_is_zero(r + (c,))]
        assert zero_rows
        # a zero row of m beside a nonzero right-hand side has no solution
        one = m.field.one()
        bad = list(b)
        bad[zero_rows[0]] = one
        bad_mid = dict(mid)
        bad_mid[divmod(zero_rows[0], coalg.dim)] = one
        for rhs, tensor in ((b, mid), (tuple(bad), bad_mid)):
            want = value_or_none(lambda r: reference_solve(m, r), rhs)
            assert value_or_none(lambda r: solve(m, r), rhs) == want
            assert hopfex.extension._solve_skew(coalg, sigma, tau,
                                                tensor) == want
            assert (want is None) == (rhs is not b)


def test_a_zero_row_with_a_nonzero_rhs_still_has_no_solution():
    m = qmat([[1, 2], [0, 0], [0, 0]])
    assert solve(m, qvec([3, 0, 0])) == qvec([3, 0])
    with pytest.raises(NoSolution):
        solve(m, qvec([3, 0, 1]))
    with pytest.raises(NoSolution):
        solve_columns(m, qmat([[1, 3], [0, 0], [0, 1]]))
    assert solve_columns(m, qmat([[1, 3], [0, 0], [0, 0]])) == \
        qmat([[1, 3], [0, 0]])


ECHELON_FIELDS = [("F_2", GF(2)), ("F_5", F5), ("F_9", F9), ("Q", QQ),
                  ("Q_zeta5", QZ5), ("Q_sqrt_half", HALF_ROOT)]


def pair_keyed(field, vec):
    """vec as a sparse raw row keyed by the pairs (i // 3, i % 3), which
    sort as the indices do."""
    return {divmod(i, 3): x for i, x in nonzero_raw(field, vec)}


def dense_of_pairs(field, row, n):
    out = [field.zero()] * n
    for (a, b), x in row.items():
        out[3 * a + b] = box(field, [x])[0]
    return tuple(out)


def seeded_columns(field, rng, nrows, ncols):
    """Seeded columns with denominators, about a third of them
    combinations of earlier ones."""
    cols = []
    while len(cols) < ncols:
        if cols and rng.random() < 0.35:
            v = zero_vec(field, nrows)
            for c in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
                v = vec_add(v, vec_scale(fraction_scalar(field, rng), c))
            cols.append(v)
        else:
            cols.append(fraction_vector(field, rng, nrows))
    return cols


def raw_comb(x):
    """A solution vector as the {column: raw value} an Echelon returns."""
    return {k: c.val for k, c in enumerate(x) if not c.is_zero()}


@pytest.mark.parametrize("field", [f for _, f in ECHELON_FIELDS],
                         ids=[name for name, _ in ECHELON_FIELDS])
def test_echelon_matches_the_rref_reference(field):
    rng = random.Random(20261018)
    dependent, consistent = set(), set()
    for _ in range(15):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        cols = seeded_columns(field, rng, nrows, ncols)
        ech = Echelon(field)
        for k, col in enumerate(cols):
            # comb: the column over the earlier ones, free variables zero
            earlier = Mat.from_columns(field, cols[:k], nrows)
            want = value_or_none(lambda b: reference_solve(earlier, b), col)
            got = ech.add(pair_keyed(field, col))
            assert (got is None) == (want is None)
            if got is not None:
                assert got == raw_comb(want)
            dependent.add(got is not None)
        m = Mat.from_columns(field, cols, nrows)
        pivots = {p for p, _, _ in ech.rows}
        inside = zero_vec(field, nrows)
        for c in cols:
            inside = vec_add(inside, vec_scale(fraction_scalar(field, rng), c))
        for b in (inside, fraction_vector(field, rng, nrows)):
            want = value_or_none(lambda r: reference_solve(m, r), b)
            assert value_or_none(lambda r: solve(m, r), b) == want
            remainder, comb = ech.reduce(pair_keyed(field, b))
            # b = remainder + sum comb[k] cols[k], the remainder cleared
            # at every pivot and empty exactly when b is in the span
            back = dense_of_pairs(field, remainder, nrows)
            for k, c in comb.items():
                back = vec_add(back, vec_scale(box(field, [c])[0], cols[k]))
            assert back == b
            assert not pivots & set(remainder)
            assert (not remainder) == (want is not None)
            if want is not None:
                assert comb == raw_comb(want)
                assert ech.coords(pair_keyed(field, b)) == comb
            else:
                with pytest.raises(NoSolution):
                    ech.coords(pair_keyed(field, b))
            consistent.add(want is not None)
    assert dependent == consistent == {True, False}


@pytest.mark.parametrize("field", [f for _, f in LIFT_FIELDS],
                         ids=[name for name, _ in LIFT_FIELDS])
def test_combine_matches_the_boxed_sum(field):
    rng = random.Random(7)
    for _ in range(10):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        rows = [fraction_vector(field, rng, n) for _ in range(k)]
        coeffs = fraction_vector(field, rng, k)
        want = zero_vec(field, n)
        for c, r in zip(coeffs, rows):
            want = vec_add(want, vec_scale(c, r))
        assert combine(field, coeffs, rows) == want
