"""FiniteAlgebra: the radical chain, ideal powers, splitting.

The radical and the splitting are compared with straightforward
references kept here: the Gram matrix and characteristic polynomials
(Berkowitz, on Scalars; also the reference of the Hessenberg char_poly)
of the full n x n left multiplications, a splitting scan of the centre that
restarts at the first idempotent after every split, and the block
search with its seeded random candidates.  The routines that read
products by basis vectors off the structure constants (multiplication
matrices, centre, corners, the right-ideal test and ideal powers) are
compared with their earlier forms, which multiply by unit vectors.  The
lifted kernels (products, products by basis vectors, traces and the
trace form) are compared with the Scalar loops they replaced, on
structure constants and vectors with denominators 2 to 7.
"""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import hopfex.algebra
import hopfex.poly
from hopfex import GF, QQ, FieldSpec
from hopfex.algebra import FiniteAlgebra, _divisors, field_roots
from hopfex.errors import (AxiomViolation, LinAlgError, NonSplitField,
                           SplittingSearchExhausted)
from hopfex.linalg import Mat, SubspaceBasis, kernel, rref_rows
from hopfex.poly import char_poly
from hopfex.zoo import (cyclic, dual_group_algebra, group_algebra,
                        restricted_poly, sweedler, symmetric, taft,
                        tensor_product)
from hopfex.scalars import Scalar
from golden_defs import golden_objects
from lifting_cases import (F13, F9, HALF_ROOT, LIFT_FIELDS, QZ5, as_boxed,
                           as_raw, basis_scales, delta_vec, dense_table,
                           fraction_scalar, fraction_vector, has_denominators,
                           hopf_case, is_canonical, rebased_coalgebra,
                           reference_mult, rescaled_algebra,
                           rescaled_coalgebra, right_mult_mat,
                           scalar_constants, solve, tensor_mult,
                           unit_pool_split, unit_vec, vec_add, vec_scale,
                           vec_sub, zero_vec)


def reference_char_poly(m):
    """Coefficients [1, c_1, ..., c_n] of det(tI - m) = sum c_k t^(n-k),
    by the division-free Berkowitz algorithm on Scalars."""
    field = m.field
    one, zero = field.one(), field.zero()
    n = m.nrows
    if n == 0:
        return [one]
    poly = [one, -m[0, 0]]
    for r in range(1, n):
        row = m.rows[r][:r]
        col = tuple(m.rows[i][r] for i in range(r))
        corner = m[r, r]
        # q_k = row . (leading block)^(k-1) . col
        qs = [corner]
        vec = col
        for _ in range(r):
            acc = zero
            for a, b in zip(row, vec):
                acc = acc + a * b
            qs.append(acc)
            vec = tuple(
                sum((m.rows[i][j] * vec[j] for j in range(r)), zero) for i in range(r))
        toep = [one] + [-q for q in qs]
        new = [zero] * (r + 2)
        for i in range(r + 2):
            acc = zero
            for j in range(max(0, i - len(toep) + 1), min(i, r) + 1):
                acc = acc + toep[i - j] * poly[j]
            new[i] = acc
        poly = new
    return poly


def frobenius_root(c, q):
    """The q-th root of the Scalar c (q a power of char) in a finite field."""
    p, deg = c.field.char, c.field.degree
    while q > 1:
        c, q = c ** (p ** (deg - 1)), q // p
    return c


def reference_radical(alg):
    """Jacobson radical from full-dimension traces and char polys."""
    n = alg.dim
    if alg.field.char == 0:
        table = dense_table(alg)
        gram = Mat(alg.field, [
            tuple(alg.left_mult_mat(table[i][j]).trace() for j in range(n))
            for i in range(n)])
        return kernel(gram), 1
    p = alg.field.char
    current = [unit_vec(alg.field, n, i) for i in range(n)]
    q, levels = 1, 0
    while q <= n and current:
        rows = [tuple(
                    reference_char_poly(alg.left_mult_mat(alg.mult(a, y)))[q]
                    for a in current)
                for y in current]
        ker = kernel(Mat(alg.field, rows, len(current)))
        new = []
        for v in ker.rows:
            acc = zero_vec(alg.field, n)
            for c, b in zip(v, current):
                acc = vec_add(acc, vec_scale(frobenius_root(c, q), b))
            new.append(acc)
        current = list(rref_rows(alg.field, new)[0])
        q *= p
        levels += 1
    return SubspaceBasis(alg.field, n, current), levels


def reference_split(alg):
    """split_commutative's old candidates, scanned from pool[0] after a split."""
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
                f = alg.split_idempotent(
                    as_raw(alg, e), as_raw(alg, alg.mult(alg.mult(e, x), e)))
                if f is not None:
                    f = as_boxed(alg, f)
                    pool[idx:idx + 1] = [f, vec_sub(e, f)]
                    changed = True
                    break
            if changed:
                break
    return pool


def reference_primitive_idempotent(alg, e, seed=0):
    """The block search with its 200 seeded random candidates at the end."""
    corner = [as_boxed(alg, r) for r in alg.corner_basis(as_raw(alg, e))]
    if len(corner) == 1:
        return e
    cands = list(corner)
    cands.extend(vec_add(a, b) for a, b in itertools.combinations(corner, 2))
    cands.extend(vec_sub(a, b) for a, b in itertools.combinations(corner, 2))
    cands.extend(alg.mult(a, b) for a, b in itertools.permutations(corner, 2))
    rng = random.Random(seed ^ 0x5EED)
    for _ in range(200):
        v = zero_vec(alg.field, alg.dim)
        for b in corner:
            v = vec_add(v, vec_scale(alg.field.from_int(rng.randrange(-3, 4)), b))
        cands.append(v)
    for x in cands:
        f = alg.split_idempotent(
            as_raw(alg, e), as_raw(alg, alg.mult(alg.mult(e, x), e)))
        if f is not None:
            return reference_primitive_idempotent(alg, as_boxed(alg, f),
                                                  seed + 1)
    raise AssertionError("reference search exhausted")


F3 = GF(3)


def kZ2_dual_kS3():
    return tensor_product(group_algebra(cyclic(2), QQ),
                          dual_group_algebra(symmetric(3), QQ))


def quotient_and_center(h):
    q = h.analysis().quotient.algebra
    return q, q.subalgebra_on(q.center())


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


def rescaled_taft25_qzeta5():
    h = hopf_case(QZ5)
    return rescaled_coalgebra(h, basis_scales(QZ5, h.dim, 7))


SPLIT_CASES = [
    ("Q", lambda: group_algebra(cyclic(12), QQ), 12),
    ("F_13", lambda: group_algebra(cyclic(12), GF(13)), 12),
    ("taft25_Qzeta5", lambda: taft(5, FieldSpec(0, cyclotomic_order=5)), 5),
    ("kZ2_dual_kS3_Q", kZ2_dual_kS3, 6),
    # dim Z above the size of the field: several basis vectors refine
    ("kZ5_F2", lambda: group_algebra(cyclic(5), GF(2)), 5),
    ("kZ8_F3", lambda: group_algebra(cyclic(8), GF(3)), 8),
    # dense bases: minimal polynomials with several roots
    ("kZ6_Q_rebased",
     lambda: rebased_coalgebra(group_algebra(cyclic(6), QQ), 1), 6),
    ("kZ4_F5_rebased",
     lambda: rebased_coalgebra(group_algebra(cyclic(4), GF(5)), 2), 4),
    # field_roots misses the roots with a t-coefficient: the rest of a
    # piece becomes a piece of its own
    ("taft25_Qzeta5_rescaled", rescaled_taft25_qzeta5, 5),
]


@pytest.mark.parametrize("make, size", [case[1:] for case in SPLIT_CASES],
                         ids=[case[0] for case in SPLIT_CASES])
def test_split_commutative_matches_restarting_scan(make, size):
    center = quotient_and_center(make())[1].algebra
    pool = [as_boxed(center, e) for e in center.split_commutative()]
    assert len(pool) == size
    # the reference in split_commutative's order, by raw coefficient vector
    assert pool == sorted(reference_split(center),
                          key=lambda e: [x.val for x in e])


def root_path_pieces(alg, e, b):
    """_eigen_pieces without its idempotent case: e h_lam(x) for each
    root lam of mu, then the rest of e."""
    ops = alg.field.ops
    x = list(alg._product(e.items(), [(b, ops.one)]).items())
    mu, powers = alg._min_poly(e, x)
    if len(mu) <= 2:
        return [e]
    projections, rest = [], [ops.one]
    for lam in field_roots(alg.field, mu):
        away = hopfex.algebra._eigen_projection(ops, mu, lam)[1]
        if away is not None:
            projections.append(hopfex.poly.sub(ops, [ops.one], away))
            rest = hopfex.poly.sub(ops, rest, projections[-1])
    at = alg._at_powers(powers)
    return [at(h) for h in projections + [rest] if h]


@pytest.mark.parametrize("make", [case[1] for case in SPLIT_CASES],
                         ids=[case[0] for case in SPLIT_CASES])
def test_eigen_pieces_match_the_root_path(make, monkeypatch):
    # an idempotent x = e e_b (mu = t^2 - t) is split into [e - x, x]
    # without the root search; every call, that case included, gives the
    # pieces of the roots of mu, in the same order.  split_commutative
    # refines nothing on a centre whose basis is already idempotent, so
    # the refinement from the unit drives _eigen_pieces here
    center = quotient_and_center(make())[1].algebra
    calls = []
    original = FiniteAlgebra._eigen_pieces

    def recorded(self, e, b):
        pieces = original(self, e, b)
        calls.append((dict(e), b, pieces))
        return pieces

    monkeypatch.setattr(FiniteAlgebra, "_eigen_pieces", recorded)
    unit_pool_split(center)
    monkeypatch.undo()
    assert calls
    for e, b, pieces in calls:
        assert pieces == root_path_pieces(center, e, b)


def test_eigen_pieces_split_an_idempotent_without_the_root_search(
        monkeypatch):
    # the centre of the dual of kZ12 is spanned by the delta functions,
    # so every x = e e_b of the refinement from the unit is 0, e or an
    # idempotent that splits e; a zero x needs no minimal polynomial
    center = quotient_and_center(group_algebra(cyclic(12), QQ))[1].algebra
    roots = count_calls(monkeypatch, hopfex.algebra, "field_roots")
    pieces = count_calls(monkeypatch, FiniteAlgebra, "_eigen_pieces")
    xs = []
    min_poly = FiniteAlgebra._min_poly

    def recorded(self, e, x):
        xs.append(x)
        return min_poly(self, e, x)

    monkeypatch.setattr(FiniteAlgebra, "_min_poly", recorded)
    assert len(unit_pool_split(center)) == 12
    assert roots == []
    assert all(xs) and 0 < len(xs) < len(pieces)


def count_calls(monkeypatch, owner, name):
    """The calls of owner.name from now on, one entry each."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def q_times_kz2():
    """Q x QZ2 on the basis u = (1, 0), v = (0, 1 + g), w = (0, g): u is
    the one basis idempotent, and 1 - u = v - w is not a basis vector."""
    one = QQ.one()
    constants = {(0, 0, 0): one, (1, 1, 1): QQ.from_int(2), (1, 2, 1): one,
                 (2, 1, 1): one, (2, 2, 1): one, (2, 2, 2): -one}
    return FiniteAlgebra(QQ, 3, constants, (one, one, -one), check=True)


def commutative_cases():
    """(id, algebra): the centres of SPLIT_CASES and of every golden's
    H*/J, each commutative H*/J itself, and Q x QZ2 on a basis with one
    idempotent."""
    cases = [(name, quotient_and_center(make())[1].algebra)
             for name, make, _ in SPLIT_CASES]
    for stem, build in golden_objects():
        q, zmap = quotient_and_center(build())
        cases.append((f"{stem}-centre", zmap.algebra))
        if q.is_commutative():
            cases.append((f"{stem}-quotient", q))
    return cases + [("Q_x_QZ2", q_times_kz2())]


def test_split_commutative_matches_the_refinement_from_the_unit():
    # the pool started from the basis idempotents ends at the same
    # primitive idempotents, in the same order, as the pool started at
    # the unit; both kinds of start occur
    starts = set()
    for name, alg in commutative_cases():
        assert alg.is_commutative(), name
        assert alg.split_commutative() == unit_pool_split(alg), name
        taken = len(alg._basis_idempotents())
        starts.add("all" if taken == alg.dim else "some" if taken else "none")
    assert starts == {"all", "some", "none"}
    assert q_times_kz2()._basis_idempotents() == [0]


def test_split_commutative_raises_non_split_like_the_refinement_from_the_unit():
    # QZ3 = Q x Q(zeta_3) on 1, g, g^2: the unit is a basis idempotent,
    # and t^2 + t + 1 has no rational root
    alg = group_algebra(cyclic(3), QQ).algebra
    assert alg._basis_idempotents() == [0]
    with pytest.raises(NonSplitField):
        unit_pool_split(alg)
    with pytest.raises(NonSplitField):
        alg.split_commutative()


def test_kz12_analyses_run_no_eigen_pieces(monkeypatch):
    # the dual of a group algebra is split on its delta functions, which
    # are the basis idempotents: nothing is refined
    pieces = count_calls(monkeypatch, FiniteAlgebra, "_eigen_pieces")
    for field in (QQ, GF(13)):
        h = group_algebra(cyclic(12), field)
        assert len(h.simple_subcoalgebras()) == 12
        assert len(h.coradical_idempotents()) == 12
    assert pieces == []


def test_is_commutative_matches_the_centre(zoo):
    for stem, h in zoo.items():
        for alg in (h.dual_algebra(), h.analysis().quotient.algebra):
            assert alg.is_commutative() == (alg.center().dim == alg.dim), stem


def test_quotient_by_zero_is_the_parent(zoo):
    # kS3 over Q is cosemisimple: J = 0 and H*/J is H* itself, with the
    # identity section and no constant copied
    h = zoo["kS3"]
    a = h.dual_algebra()
    qmap = h.analysis().quotient
    assert qmap.ideal.dim == 0 and qmap.algebra is a
    qmap = a.quotient(SubspaceBasis.zero(a.field, a.dim))
    assert qmap.algebra is a and qmap.section_cols == list(range(a.dim))
    one = a.field.ops.one
    for i in range(a.dim):
        assert qmap.project([(i, one)]) == {i: one}
        assert qmap.lift({i: one}) == {i: one}
    # a nonzero ideal still gives an algebra of its own
    b = zoo["sweedler"].dual_algebra()
    assert b.quotient(b.radical()).algebra is not b


def test_split_commutative_tests_no_piece_for_primitivity(monkeypatch):
    # dim A orthogonal idempotents are primitive: no corner is reduced
    # and no piece goes through the split_idempotent of the block search
    q = group_algebra(cyclic(12), QQ).analysis().quotient.algebra
    corners = count_calls(monkeypatch, FiniteAlgebra, "corner_basis")
    splits = count_calls(monkeypatch, FiniteAlgebra, "split_idempotent")
    assert len(q.split_commutative()) == 12
    assert corners == [] and splits == []


def test_idempotents_prove_orthogonality_with_two_products_each(monkeypatch):
    # idempotents() forms its products on raw values (FiniteAlgebra._product).
    # Outside lift_idempotent those are 2 per simple for the mask (1 - F) e (1 - F)
    # and 2 per later simple for f F = F f = 0 against the sum F of the earlier
    # idempotents; a pairwise check of f against each earlier g would form
    # n (n - 1) orthogonality products, past the bound for n >= 4 simples
    for h in (group_algebra(cyclic(12), QQ), kZ2_dual_kS3()):
        analysis = h.analysis()
        n = len(analysis.simples())
        assert n >= 4
        products, lifting = [], []
        product, lift = FiniteAlgebra._product, FiniteAlgebra.lift_idempotent

        def counted(self, u, v):
            if not lifting:
                products.append(1)
            return product(self, u, v)

        def lifted(self, v):
            lifting.append(1)
            try:
                return lift(self, v)
            finally:
                lifting.pop()

        monkeypatch.setattr(FiniteAlgebra, "_product", counted)
        monkeypatch.setattr(FiniteAlgebra, "lift_idempotent", lifted)
        assert len(analysis.idempotents()) == n
        monkeypatch.undo()
        assert 2 * n < len(products) <= 4 * n


@pytest.mark.parametrize("make, m2_blocks",
                         [(lambda: dual_group_algebra(symmetric(3), QQ), 1),
                          (kZ2_dual_kS3, 2)],
                         ids=["dual_kS3_Q", "kZ2_dual_kS3_Q"])
def test_block_idempotent_matches_seeded_search(make, m2_blocks):
    q, zmap = quotient_and_center(make())
    blocks = 0
    for t, e in enumerate(zmap.algebra.split_commutative()):
        z = zmap.embed(e)
        if len(q.corner_basis(z)) == 4:
            blocks += 1
            assert as_boxed(q, q.primitive_idempotent_in(z)) == \
                reference_primitive_idempotent(q, as_boxed(q, z), seed=t)
    assert blocks == m2_blocks


def test_rational_quaternions_exhaust_the_search():
    # (-1,-1)_Q on 1, i, j, k: a division algebra, so no candidate splits
    # its unit, and a bounded search that finds nothing proves nothing.
    field = QQ
    one, zero = field.one(), field.zero()
    signs = {(1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
             (1, 2): (3, 1), (2, 1): (3, -1), (2, 3): (1, 1),
             (3, 2): (1, -1), (3, 1): (2, 1), (1, 3): (2, -1)}
    constants = {}
    for i, j in itertools.product(range(4), repeat=2):
        m, s = (j, 1) if i == 0 else (i, 1) if j == 0 else signs[(i, j)]
        constants[(i, j, m)] = field.from_int(s)
    alg = FiniteAlgebra(field, 4, constants, (one, zero, zero, zero),
                        check=True)
    with pytest.raises(SplittingSearchExhausted):
        alg.primitive_idempotent_in(as_raw(alg, alg.unit))


def count_char_polys(monkeypatch):
    """The sizes of the matrices given to the char_poly that the radical
    chain calls, hopfex.algebra.char_poly, from now on."""
    calls = []
    original = hopfex.algebra.char_poly

    def counted(ops, m):
        calls.append(len(m))
        return original(ops, m)

    monkeypatch.setattr(hopfex.algebra, "char_poly", counted)
    return calls


def test_taft25_f11_radical_stops_at_the_trace_form_level(monkeypatch):
    calls = count_char_polys(monkeypatch)
    alg = taft(5, GF(11)).dual_algebra()
    assert alg.radical().dim == 20
    assert calls == []


def test_restricted3_radical_reaches_the_char_poly_level(monkeypatch):
    # the positive control of the test above: the trace-form level is the
    # whole dual algebra, so the chain goes on to c_3
    calls = count_char_polys(monkeypatch)
    alg = restricted_poly(3).dual_algebra()
    assert alg.radical() == reference_radical(alg)[0]
    assert calls and set(calls) == {alg.dim}


def test_radical_chain_and_filtration_make_no_scalar(zoo, monkeypatch):
    # the radical chain of every golden's dual, through the char-p levels
    # too, and the perp of each power run on raw values: the subspaces
    # hold no Scalar until their rows are read
    made = []
    original = Scalar.__init__

    def counted(self, field, val):
        made.append(val)
        original(self, field, val)

    levels = count_char_polys(monkeypatch)
    chains = {}
    for stem, h in zoo.items():
        dual = h.dual_algebra()
        alg = FiniteAlgebra(dual.field, dual.dim, scalar_constants(dual),
                            dual.unit)
        with monkeypatch.context() as m:
            m.setattr(Scalar, "__init__", counted)
            chains[stem] = alg.radical_powers()
            for power in chains[stem]:
                power.perp()
        assert made == [], stem
    assert levels  # some chain went below the trace-form level
    # the counter does see the rows being boxed
    with monkeypatch.context() as m:
        m.setattr(Scalar, "__init__", counted)
        chains["taft9"][0].rows
    assert made


CHAR_POLY_FIELDS = [("F_2", GF(2)), ("F_5", GF(5)), ("F_7", GF(7)),
                    ("F_9", F9), ("Q", QQ), ("Q_zeta5", QZ5),
                    ("Q_sqrt_half", HALF_ROOT)]


def random_matrix(field, rng, n, kind):
    """A seeded n x n matrix of Scalars with denominators (on char 0):
    dense, sparse (zero pivots, row swaps), singular (a multiple of row 0
    last) or block upper triangular (a zero subdiagonal entry)."""
    zero = field.zero()
    rows = [list(fraction_vector(field, rng, n)) for _ in range(n)]
    if kind == "sparse":
        rows = [[c if rng.random() < 0.3 else zero for c in r] for r in rows]
    elif kind == "singular" and n > 1:
        s = fraction_scalar(field, rng)
        rows[-1] = [s * c for c in rows[0]]
    elif kind == "block" and n > 1:
        k = rng.randrange(1, n)
        for r in rows[k:]:
            r[:k] = [zero] * k
    return Mat(field, [tuple(r) for r in rows], n)


@pytest.mark.parametrize("field", [f for _, f in CHAR_POLY_FIELDS],
                         ids=[name for name, _ in CHAR_POLY_FIELDS])
def test_hessenberg_char_poly_matches_berkowitz(field):
    rng = random.Random(2029)
    ops = field.ops
    for n, kind in itertools.product(
            range(9), ("dense", "sparse", "singular", "block")):
        for _ in range(2):
            m = random_matrix(field, rng, n, kind)
            want = [c.val for c in reversed(reference_char_poly(m))]
            raw = [[c.val for c in row] for row in m.rows]
            assert char_poly(ops, raw) == want, (n, kind, m)
            assert char_poly(ops, [list(c) for c in zip(*raw)]) == want
            if kind == "singular" and n > 1:
                assert ops.is_zero(want[0])


@pytest.mark.parametrize("field", [QQ, FieldSpec(0, cyclotomic_order=4)],
                         ids=lambda f: f.describe())
def test_field_roots_with_root_zero_finds_the_other_rational_roots(field):
    def raw(*cs):
        return [field.from_fraction(Fraction(c)).val for c in cs]

    # x^2 - 7x, and x^3 (2x - 3)(x + 5) = 2x^5 + 7x^4 - 15x^3
    assert field_roots(field, raw(0, -7, 1)) == raw(0, 7)
    assert field_roots(field, raw(0, 0, 0, -15, 7, 2)) == raw(0, "3/2", -5)
    # a nonzero constant term keeps its candidates first
    assert field_roots(field, raw(-6, 1, 1)) == raw(2, -3)


def test_field_roots_finds_divisors_of_large_coefficients():
    n = 10 ** 8 - 1
    assert field_roots(QQ, [Fraction(-n), Fraction(1)]) == [Fraction(n)]
    assert field_roots(QQ, [Fraction(n), Fraction(0), Fraction(-1)]) == []
    for k in range(-60, 61):
        if k:
            assert _divisors(k) == [d for d in range(1, abs(k) + 1)
                                    if k % d == 0]


def test_ideal_powers_of_whole_algebra_raises():
    alg = sweedler(QQ).dual_algebra()
    with pytest.raises(LinAlgError):
        alg.ideal_powers(SubspaceBasis.full(alg.field, alg.dim))


def test_radical_chain_rejects_a_level_that_is_not_an_ideal():
    alg = sweedler(F3).dual_algebra()
    unit_line = SubspaceBasis(alg.field, alg.dim, [alg.unit])
    with pytest.raises(LinAlgError):
        alg._require_right_ideal(unit_line)


def test_quotient_projection_matches_a_full_solve():
    # taft9 over F_7: dual algebra of dim 9 with a 6-dimensional radical
    a = taft(3, GF(7)).dual_algebra()
    qmap = a.quotient(a.radical())
    m = Mat.from_columns(a.field, list(qmap.ideal.rows)
                         + [unit_vec(a.field, a.dim, j)
                            for j in qmap.section_cols], a.dim)
    table = dense_table(a)
    for i, j in itertools.product(range(a.dim), repeat=2):
        v = vec_add(table[i][j], unit_vec(a.field, a.dim, (i + j) % a.dim))
        assert qmap.project(as_raw(a, v).items()) == as_raw(
            a, solve(m, v)[qmap.ideal.dim:]), (i, j)


def test_check_raises_on_a_unit_failure():
    # k[z]/(z^2 - z) with z, not 1, as the claimed unit
    field = QQ
    one, zero = field.one(), field.zero()
    constants = {(0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one,
                 (1, 1, 1): one}
    FiniteAlgebra(field, 2, constants, (one, zero), check=True)
    with pytest.raises(LinAlgError, match="unit law fails"):
        FiniteAlgebra(field, 2, constants, (zero, one), check=True)


def test_unit_vector_of_the_wrong_length_is_rejected():
    # dim 2: a unit of length 1 was once accepted with no violations, and
    # one of length 3 made violations() raise a bare IndexError
    field = QQ
    one, zero = field.one(), field.zero()
    constants = {(0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one}
    raw = {key: c.val for key, c in constants.items()}
    for unit in ((one,), (one, zero, one)):
        with pytest.raises(AxiomViolation, match="unit vector length differs"):
            FiniteAlgebra(field, 2, constants, unit)
        with pytest.raises(AxiomViolation, match="unit vector length differs"):
            FiniteAlgebra.of_raw(field, 2, raw, [c.val for c in unit])
    assert FiniteAlgebra(field, 2, constants, (one, zero)).violations() == []


def test_check_raises_on_an_associativity_failure():
    # unital, with a^2 = b, ab = ba = a and b^2 = 0: (aa)b = bb = 0 but
    # a(ab) = aa = b
    field = QQ
    one, zero = field.one(), field.zero()
    products = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 2,
                (1, 2): 1, (2, 0): 2, (2, 1): 1}
    constants = {(i, j, m): one for (i, j), m in products.items()}
    unit = (one, zero, zero)
    alg = FiniteAlgebra(field, 3, constants, unit)
    assert alg.violations()[0] == "associativity fails at (1,1,2)"
    with pytest.raises(LinAlgError, match="associativity fails"):
        FiniteAlgebra(field, 3, constants, unit, check=True)


def test_constructor_keeps_the_nonzero_constants_in_order():
    field = GF(5)
    two, three, zero = field.from_int(2), field.from_int(3), field.zero()
    constants = {(1, 1, 2): two, (0, 0, 0): two, (1, 1, 0): three,
                 (0, 1, 1): zero, (1, 1, 1): zero, (2, 2, 2): field.one()}
    alg = FiniteAlgebra(field, 3, constants, unit_vec(field, 3, 0))
    # explicit zeros are dropped, each (i, j) lists its (m, raw) by m
    assert alg.constants[1][1] == [(0, 3), (2, 2)]
    assert alg.constants[0][0] == [(0, 2)]
    assert not alg.constants[0][1] and not alg.constants[2][0]
    assert list(scalar_constants(alg).items()) == [
        ((0, 0, 0), two), ((1, 1, 0), three), ((1, 1, 2), two),
        ((2, 2, 2), field.one())]
    # the dict order of the constants does not matter, also where terms
    # lifts them over a denominator
    halves = {(1, 1, 2): QQ.from_fraction(Fraction(1, 2)), (0, 0, 0): QQ.one(),
              (1, 1, 0): QQ.from_fraction(Fraction(-2, 3))}
    for f, cs in ((field, constants), (QQ, halves)):
        first, again = (FiniteAlgebra(f, 3, dict(items), unit_vec(f, 3, 0))
                        for items in (cs.items(), reversed(cs.items())))
        assert again.constants == first.constants
        assert again.terms == first.terms
    lifted, denom = first.terms
    assert (denom, lifted[0][0], lifted[1][1]) == (6, [(0, 6)],
                                                   [(0, -4), (2, 3)])
    # an index outside range(dim) is an error, not a dropped or wrapped term
    for bad in ((3, 0, 0), (0, -1, 0), (0, 0, 3)):
        with pytest.raises(AxiomViolation, match="multiplication index"):
            FiniteAlgebra(field, 3, {bad: two}, unit_vec(field, 3, 0))


def test_constructor_keeps_no_dense_table():
    # a dim-256 algebra with 511 constants: a dense table would hold
    # 256^3 = 16.7M slots, over 130 MB of pointers alone
    field, dim = GF(5), 256
    constants = {(i, 0, i): field.one() for i in range(dim)}
    constants.update({(0, i, i): field.one() for i in range(dim)})
    tracemalloc.start()
    try:
        alg = FiniteAlgebra(field, dim, constants, unit_vec(field, dim, 0))
        alg.terms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    e7 = unit_vec(field, dim, 7)
    assert alg.mult(e7, alg.unit) == e7


def test_mult_matches_the_dense_reference(zoo):
    rng = random.Random(3)
    for stem, h in zoo.items():
        alg = h.algebra
        units = [unit_vec(h.field, h.dim, i) for i in range(h.dim)]
        for i, j in itertools.product(range(h.dim), repeat=2):
            got = alg.mult(units[i], units[j])
            assert got == reference_mult(alg, units[i], units[j]), (stem, i, j)
            assert got == dense_table(alg)[i][j], (stem, i, j)
        t = h.field.gen() if h.field.modulus else h.field.one()
        for _ in range(4):
            u, v = ([h.field.from_int(rng.randint(-3, 3))
                     + h.field.from_int(rng.randint(-3, 3)) * t
                     for _ in range(h.dim)] for _ in range(2))
            assert alg.mult(u, v) == reference_mult(alg, u, v), stem


# -- products by basis vectors: the unit-vector references ----------------

def reference_left_mult_mat(alg, u):
    cols = [alg.mult(u, unit_vec(alg.field, alg.dim, j)) for j in range(alg.dim)]
    return Mat.from_columns(alg.field, cols, alg.dim)


def reference_right_mult_mat(alg, u):
    cols = [alg.mult(unit_vec(alg.field, alg.dim, j), u) for j in range(alg.dim)]
    return Mat.from_columns(alg.field, cols, alg.dim)


def reference_center(alg):
    rows = []
    for j in range(alg.dim):
        ej = unit_vec(alg.field, alg.dim, j)
        diff = reference_left_mult_mat(alg, ej) - reference_right_mult_mat(alg, ej)
        rows.extend(diff.rows)
    return kernel(Mat(alg.field, rows, alg.dim))


def reference_corner_basis(alg, e):
    rows = [alg.mult(alg.mult(e, unit_vec(alg.field, alg.dim, i)), e)
            for i in range(alg.dim)]
    return list(rref_rows(alg.field, rows)[0])


def reference_is_right_ideal(alg, level):
    return all(level.contains_raw(as_raw(alg, alg.mult(
        b, unit_vec(alg.field, alg.dim, k))))
               for b in level.rows for k in range(alg.dim))


def reference_ideal_powers(alg, ideal):
    out = [ideal]
    while out[-1].dim:
        nxt = SubspaceBasis(alg.field, alg.dim,
                            [alg.mult(u, v) for u in out[-1].rows
                             for v in ideal.rows])
        if nxt.dim >= out[-1].dim:
            raise LinAlgError("ideal is not nilpotent")
        out.append(nxt)
    return out


def is_right_ideal(alg, level):
    try:
        alg._require_right_ideal(level)
    except LinAlgError:
        return False
    return True


def basis_product_cases(h):
    """(name, algebra, idempotents) for the dual algebra of h, its
    semisimple quotient with the embedded central idempotents, and the
    centre with the idempotents split_commutative returns."""
    q, zmap = quotient_and_center(h)
    pool = zmap.algebra.split_commutative()
    return [("dual", h.dual_algebra(), [h.dual_algebra().unit]),
            ("quotient", q,
             [q.unit] + [as_boxed(q, zmap.embed(e)) for e in pool]),
            ("centre", zmap.algebra, [as_boxed(zmap.algebra, e) for e in pool])]


def test_basis_products_match_the_unit_vector_references(zoo):
    for stem, h in zoo.items():
        for name, alg, idempotents in basis_product_cases(h):
            where = (stem, name)
            units = [unit_vec(alg.field, alg.dim, i) for i in range(alg.dim)]
            for u in units + idempotents:
                assert alg.left_mult_mat(u) == reference_left_mult_mat(alg, u), where
                assert right_mult_mat(alg, u) == reference_right_mult_mat(alg, u), where
            assert alg.center() == reference_center(alg), where
            for e in idempotents:
                corner = alg.corner_basis(as_raw(alg, e))
                assert [as_boxed(alg, r) for r in corner] == \
                    reference_corner_basis(alg, e), where
            powers = alg.radical_powers()
            assert alg.ideal_powers(powers[0]) == \
                reference_ideal_powers(alg, powers[0]), where
            lines = [SubspaceBasis(alg.field, alg.dim, [u]) for u in units]
            for level in powers + lines:
                assert is_right_ideal(alg, level) == \
                    reference_is_right_ideal(alg, level), where


def test_ideal_powers_match_the_all_pairs_reference(zoo):
    # the radical of every golden's dual, and of taft25 over Q(zeta_5),
    # where most products u v of J^k and J are zero
    algebras = {stem: h.dual_algebra() for stem, h in zoo.items()}
    algebras["taft25 over Q(zeta_5)"] = taft(5, QZ5).dual_algebra()
    depths = set()
    for stem, alg in algebras.items():
        radical = alg.radical()
        want = reference_ideal_powers(alg, radical)
        got = alg.ideal_powers(radical)
        assert got == want, stem
        assert [p.pivots for p in got] == [p.pivots for p in want], stem
        depths.add(len(got))
    assert {1, 2} < depths and max(depths) >= 5


def test_ideal_powers_reject_a_non_nilpotent_ideal_like_the_reference(zoo):
    for stem, h in zoo.items():
        alg = h.dual_algebra()
        full = SubspaceBasis.full(alg.field, alg.dim)
        with pytest.raises(LinAlgError):
            reference_ideal_powers(alg, full)
        with pytest.raises(LinAlgError):
            alg.ideal_powers(full)


def test_basis_product_routines_make_no_products(monkeypatch):
    h = taft(3, GF(7))
    alg = h.dual_algebra()
    q, zmap = quotient_and_center(h)
    powers = alg.radical_powers()
    idempotents = [zmap.embed(e) for e in zmap.algebra.split_commutative()]
    calls = []
    original = FiniteAlgebra.mult

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(FiniteAlgebra, "mult", counted)
    for level in powers:
        alg._require_right_ideal(level)
    alg.left_mult_mat(alg.unit)
    right_mult_mat(alg, alg.unit)
    assert q.center().dim == len(idempotents)
    for e in idempotents:
        q.corner_basis(e)
    alg.ideal_powers(powers[0])
    assert calls == []


SPLITTING_ROUTINES = ("split_commutative", "corner_basis", "split_idempotent",
                      "primitive_idempotent_in", "lift_idempotent")

SPLITTING_CASES = golden_objects() + [
    ("kZ12_Q", lambda: group_algebra(cyclic(12), QQ)),
    ("kZ2_dual_kS3_rebased", lambda: rebased_coalgebra(kZ2_dual_kS3(), 3))]


@pytest.mark.parametrize("build", [b for _, b in SPLITTING_CASES],
                         ids=[stem for stem, _ in SPLITTING_CASES])
def test_splitting_runs_on_raw_vectors(build, monkeypatch):
    # with the analysis built, the splitting routines make no Scalar and
    # the simples and idempotents form no product of Scalar vectors
    analysis = build().analysis()
    q = analysis.quotient.algebra
    commutative = q.center().dim == q.dim
    made, inside = [], []
    calls = dict.fromkeys(SPLITTING_ROUTINES, 0)
    init = Scalar.__init__

    def counted(self, field, val):
        if inside:
            made.append(val)
        init(self, field, val)

    def watched(name, original):
        def run(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()
        return run

    for name in SPLITTING_ROUTINES:
        monkeypatch.setattr(FiniteAlgebra, name,
                            watched(name, getattr(FiniteAlgebra, name)))
    mults = count_calls(monkeypatch, FiniteAlgebra, "mult")
    monkeypatch.setattr(Scalar, "__init__", counted)
    analysis.simples()
    analysis.idempotents()
    monkeypatch.undo()
    assert made == [] and mults == []
    # a commutative H*/J is split without the block search
    assert calls["split_commutative"] and calls["lift_idempotent"]
    assert commutative or all(calls.values())


@pytest.mark.parametrize("build", [b for _, b in SPLITTING_CASES],
                         ids=[stem for stem, _ in SPLITTING_CASES])
def test_quotient_and_centre_take_the_raw_unit(build, monkeypatch):
    # H*/J and the subalgebra on its centre read their units off the
    # parent's raw unit, so building them makes no Scalar
    dual = build().dual_algebra()
    radical = dual.radical()
    made = []
    init = Scalar.__init__

    def counted(self, field, val):
        made.append(val)
        init(self, field, val)

    monkeypatch.setattr(Scalar, "__init__", counted)
    qmap = dual.quotient(radical)
    q = qmap.algebra
    centre = q.center()
    zmap = q.subalgebra_on(centre)
    monkeypatch.undo()
    assert made == []
    # the projection of the parent's unit, and its coordinates on the
    # centre
    assert as_raw(q, q.unit) == qmap.project(as_raw(dual, dual.unit).items())
    assert centre.contains_raw(as_raw(q, q.unit))
    assert zmap.algebra.unit == tuple(q.unit[p] for p in centre.pivots)


# -- lifted kernels: the Scalar loops they replaced -------------------------

def reference_basis_products(alg, u, left=True):
    """The columns u e_j (or e_j u) of L_u (or R_u) as a Scalar loop over
    the dense table."""
    table = dense_table(alg)
    cols = []
    for j in range(alg.dim):
        out = list(zero_vec(alg.field, alg.dim))
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            for m, t in enumerate(table[i][j] if left else table[j][i]):
                if not t.is_zero():
                    out[m] = out[m] + ui * t
        cols.append(tuple(out))
    return cols


def reference_left_traces(alg):
    """left_traces as the Scalar sum it replaced."""
    table = dense_table(alg)
    return tuple(sum((table[m][k][k] for k in range(alg.dim)),
                     alg.field.zero())
                 for m in range(alg.dim))


def reference_trace_form(alg):
    """_trace_form as the Scalar loop over the dense table it replaced."""
    table = dense_table(alg)
    taus = [(m, t) for m, t in enumerate(reference_left_traces(alg))
            if not t.is_zero()]
    zero = alg.field.zero()
    return Mat(alg.field, [
        tuple(sum((table[i][j][m] * t for m, t in taus), zero)
              for j in range(alg.dim))
        for i in range(alg.dim)], alg.dim)


def raw_sparse(vec):
    """(index, raw value) of the nonzero entries of a Scalar vector."""
    return [(i, x.val) for i, x in enumerate(vec) if not x.is_zero()]


def lifted_algebra(field, dual):
    """H, or the dual algebra of H, for the Hopf algebra of lifting_cases
    over field, on a basis rescaled by scalars with denominators."""
    h = hopf_case(field)
    scales = basis_scales(field, h.dim, 5)
    if dual:
        return rescaled_coalgebra(h, scales).dual_algebra()
    return rescaled_algebra(h.algebra, scales)


def rescaled_quotient_and_center():
    """The semisimple quotient of kZ2 (x) dual-kS3 and its centre, whose
    constants are the integers 0 to 3, on bases rescaled by scalars with
    denominators."""
    q, zmap = quotient_and_center(kZ2_dual_kS3())
    return tuple(rescaled_algebra(a, basis_scales(QQ, a.dim, 7))
                 for a in (q, zmap.algebra))


LIFTED_ALGEBRAS = [
    (f"{name}-{kind}", functools.partial(lifted_algebra, field, kind == "dual"))
    for name, field in LIFT_FIELDS for kind in ("H", "dual")] + [
    ("kZ2_dual_kS3-quotient", lambda: rescaled_quotient_and_center()[0]),
    ("kZ2_dual_kS3-centre", lambda: rescaled_quotient_and_center()[1])]


@pytest.mark.parametrize("make", [case[1] for case in LIFTED_ALGEBRAS],
                         ids=[case[0] for case in LIFTED_ALGEBRAS])
def test_lifted_kernels_match_the_scalar_references(make):
    alg = make()
    field = alg.field
    if field.char == 0:
        assert has_denominators(scalar_constants(alg).values())
    rng = random.Random(17)
    vecs = [fraction_vector(field, rng, alg.dim) for _ in range(3)]
    assert field.char or has_denominators(x for v in vecs for x in v)
    for u in vecs + [alg.unit, unit_vec(field, alg.dim, alg.dim - 1)]:
        for left in (True, False):
            got = alg._basis_products(raw_sparse(u), left)
            want = reference_basis_products(alg, u, left)
            assert got == [dict(raw_sparse(c)) for c in want]
            assert all(is_canonical(field, y)
                       for col in got for y in col.values())
    for u, v in zip(vecs, vecs[1:] + [alg.unit]):
        got = alg._product(raw_sparse(u), raw_sparse(v))
        assert got == dict(raw_sparse(reference_mult(alg, u, v)))
        assert all(is_canonical(field, y) for y in got.values())
    traces, form = alg.left_traces(), alg._trace_form()
    assert traces == reference_left_traces(alg)
    assert form == [dict(raw_sparse(r)) for r in reference_trace_form(alg).rows]
    assert all(is_canonical(field, x.val) for x in traces)
    assert all(is_canonical(field, y) for r in form for y in r.values())


@pytest.mark.parametrize("field", [QQ, F13], ids=["Q", "F_13"])
def test_lifted_kernels_make_no_field_products(field, monkeypatch):
    h = hopf_case(field)
    coalg = rescaled_coalgebra(h, basis_scales(field, h.dim, 5))
    alg = coalg.dual_algebra()
    rng = random.Random(3)
    u, v = (fraction_vector(field, rng, h.dim) for _ in range(2))
    space = SubspaceBasis(field, h.dim, [u, v])
    member, other = vec_sub(u, v), fraction_vector(field, rng, h.dim)
    calls = []

    def counting(name):
        original = getattr(field.ops, name)

        def counted(a, b):
            calls.append(name)
            return original(a, b)
        return counted

    for name in ("mul", "add"):
        monkeypatch.setattr(field.ops, name, counting(name))
    alg._product(raw_sparse(u), raw_sparse(v))
    alg._basis_products(raw_sparse(u))
    alg._basis_products(raw_sparse(v), False)
    alg._trace_form()
    alg.left_traces()
    tensor_mult(alg, delta_vec(coalg, u), delta_vec(coalg, v))
    assert space.contains_raw(as_raw(alg, member))
    assert not space.contains_raw(as_raw(alg, other))
    assert calls == []
    # the counter does see the Scalar loop the kernels replaced
    reference_mult(alg, u, v)
    assert "mul" in calls and "add" in calls
