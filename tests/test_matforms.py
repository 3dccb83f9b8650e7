"""Multiplicative and primitive matrices over a Hopf algebra."""

from fractions import Fraction

import pytest

from hopfex import GF, QQ
from hopfex.cli import _matrix_rows
from hopfex.coalgebra import Element
from hopfex.errors import (DiagonalOrderViolated, FieldMismatch,
                           MatrixFormError, NotDegreeOne, NotInBicomponent,
                           NotMultiplicative, ShapeMismatch)
from hopfex.extension import extend_coalgebra
from hopfex.linalg import SubspaceBasis
from hopfex.matforms import (MatrixOverH, antipode_inverse_check,
                             basic_multiplicative_matrix,
                             block_order_bound_check, is_multiplicative,
                             is_primitive_matrix, matrix_hopf_power, mtensor,
                             primitive_decompose, stack_triangular)
from hopfex.scalars import Scalar
from hopfex.zoo import sweedler

from golden_defs import golden_objects
from lifting_cases import (as_boxed, bicomponent_decomposition_vec, mul_vec,
                           vec_is_zero)

GOLDENS = golden_objects()


def basic_for(h, idx):
    return basic_multiplicative_matrix(h, h.simple_subcoalgebras()[idx])


def grouplike_matrix(h, vec):
    return MatrixOverH(h, [[vec]])


def test_basic_matrices_are_multiplicative(zoo):
    for stem, h in zoo.items():
        for comp in h.simple_subcoalgebras():
            basic = basic_multiplicative_matrix(h, comp)
            m = basic.matrix
            assert m.nrows == comp.matrix_size, stem
            assert is_multiplicative(m), stem


def test_basic_matrix_counit_is_identity(zoo):
    from hopfex.linalg import Mat
    for stem, h in zoo.items():
        for comp in h.simple_subcoalgebras():
            m = basic_multiplicative_matrix(h, comp).matrix
            assert m.counit() == Mat.identity(h.field, m.nrows), stem


def test_basic_matrix_entries_span_the_simple(zoo):
    for stem, h in zoo.items():
        for comp in h.simple_subcoalgebras():
            m = basic_multiplicative_matrix(h, comp).matrix
            entries = [m.entry(i, j) for i in range(m.nrows)
                       for j in range(m.nrows)]
            span = SubspaceBasis(h.field, h.dim, entries)
            assert span.dim == comp.dim, stem
            assert span == comp.subspace, stem


def test_grouplike_simple_gives_its_grouplike(zoo):
    h = zoo["taft9"]
    for comp in h.simple_subcoalgebras():
        assert comp.is_grouplike
        m = basic_multiplicative_matrix(h, comp).matrix
        assert m.nrows == 1
        assert m.entry(0, 0) == as_boxed(h, comp.grouplike_raw)


def test_matrix_power_matches_entrywise_hopf_power(zoo):
    for stem in ("kS3", "dual_kS3", "sweedler", "taft9"):
        h = zoo[stem]
        for comp in h.simple_subcoalgebras():
            g = basic_multiplicative_matrix(h, comp).matrix
            for n in range(9):
                gn = matrix_hopf_power(g, n)
                for i in range(g.nrows):
                    for j in range(g.nrows):
                        want = h.hopf_power(g.element(i, j), n).vec
                        assert gn.entry(i, j) == want, (stem, n, i, j)


def test_antipode_inverts_multiplicative_matrices(zoo):
    for stem, h in zoo.items():
        for comp in h.simple_subcoalgebras():
            g = basic_multiplicative_matrix(h, comp).matrix
            assert antipode_inverse_check(g), stem


def test_non_multiplicative_matrix_rejected(zoo):
    h = zoo["sweedler"]
    x = h.basis_element(h.index_of("x")).vec
    m = grouplike_matrix(h, x)
    assert not is_multiplicative(m)
    with pytest.raises(NotMultiplicative):
        matrix_hopf_power(m, 2)
    with pytest.raises(NotMultiplicative):
        antipode_inverse_check(m)


def test_primitive_matrix_and_stack(zoo):
    h = zoo["sweedler"]
    gl = {tuple(g.vec) for g in h.group_likes()}
    x = h.basis_element(h.index_of("x"))
    parts = bicomponent_decomposition_vec(h, x.vec)
    (left, right), _ = next(
        (k, v) for k, v in parts.items() if not vec_is_zero(v))
    c = basic_for(h, left).matrix
    d = basic_for(h, right).matrix
    w = grouplike_matrix(h, x.vec)
    assert is_primitive_matrix(w, c, d)
    assert w.delta() == mtensor(c, w) + mtensor(w, d)
    z = stack_triangular(c, w, d)
    assert z.nrows == 2
    assert is_multiplicative(z)
    assert antipode_inverse_check(z)


def test_primitive_decompose_roundtrip_sweedler(zoo):
    h = zoo["sweedler"]
    x = h.basis_element(h.index_of("x"))
    parts = bicomponent_decomposition_vec(h, x.vec)
    (left, right), _ = next(
        (k, v) for k, v in parts.items() if not vec_is_zero(v))
    cb, db = basic_for(h, left), basic_for(h, right)
    dec = primitive_decompose(x, cb, db)
    total = h.zero()
    for ip in range(cb.matrix.nrows):
        for jp in range(db.matrix.nrows):
            wm = dec.matrix(ip, jp)
            assert is_primitive_matrix(wm, cb.matrix, db.matrix)
            total = total + h.element(wm.entry(ip, jp))
    assert total + dec.remainder == x
    assert dec.remainder.is_zero()  # distinct simples leave no remainder


def test_primitive_decompose_remainder_on_cosemisimple(zoo):
    # in a cosemisimple object every degree-one element is coradical, so
    # the decomposition is all remainder
    h = zoo["dual_kS3"]
    comp = max(h.simple_subcoalgebras(), key=lambda s: s.matrix_size)
    cb = basic_for(h, comp.index)
    w = h.element(comp.subspace.rows[0])
    dec = primitive_decompose(w, cb, cb)
    total = h.zero()
    for wm in (m for row in dec.matrices for m in row):
        assert is_primitive_matrix(wm, cb.matrix, cb.matrix)
    assert dec.remainder + sum(
        (h.element(dec.matrix(i, j).entry(i, j))
         for i in range(comp.matrix_size) for j in range(comp.matrix_size)),
        h.zero()) == w


def test_primitive_decompose_rejects_bad_inputs(zoo):
    h = zoo["taft9"]
    x2 = h.basis_element(h.index_of("x^2"))
    cb, db = basic_for(h, 0), basic_for(h, 0)
    with pytest.raises(NotDegreeOne):
        primitive_decompose(x2, cb, db)
    x = h.basis_element(h.index_of("x"))
    parts = bicomponent_decomposition_vec(h, x.vec)
    (left, right), _ = next(
        (k, v) for k, v in parts.items() if not vec_is_zero(v))
    assert left != right
    with pytest.raises(NotInBicomponent):
        # x straddles two distinct simples, so (left, left) is wrong
        primitive_decompose(x, basic_for(h, left), basic_for(h, left))


def test_block_order_bound_taft_f7(zoo):
    h = zoo["taft9_f7"]
    q = mul_vec(h, h.basis_element(h.index_of("x")).vec,
                  h.basis_element(h.index_of("g")).vec)[h.index_of("gx")]
    one_plus_q = h.field.one() + q
    g2 = h.basis_element(h.index_of("g^2")).vec
    g = h.basis_element(h.index_of("g")).vec
    one = h.one().vec
    gx = h.basis_element(h.index_of("gx")).vec
    x = h.basis_element(h.index_of("x")).vec
    x2 = h.basis_element(h.index_of("x^2")).vec
    zero = tuple(h.field.zero() for _ in range(h.dim))
    from lifting_cases import vec_scale
    z = MatrixOverH(h, [[g2, vec_scale(one_plus_q, gx), x2],
                        [zero, g, x],
                        [zero, zero, one]])
    assert is_multiplicative(z)
    rep = block_order_bound_check(z, d=3, p=7)
    assert rep.bound == 21 and rep.holds
    assert rep.block_sizes == (1, 1, 1)
    assert z.power(21) == MatrixOverH.identity(h, 3)

    with pytest.raises(DiagonalOrderViolated):
        block_order_bound_check(z, d=2, p=7)
    with pytest.raises(MatrixFormError):
        block_order_bound_check(z, d=3, p=3)
    with pytest.raises(ShapeMismatch):
        block_order_bound_check(z, d=3, p=7, block_sizes=[2, 2])


def test_block_order_bound_full_block_sizes(zoo):
    # treating the whole matrix as one diagonal block: order divides d
    h = zoo["sweedler_f3"]
    g = h.basis_element(h.index_of("g")).vec
    x = h.basis_element(h.index_of("x")).vec
    one = h.one().vec
    zero = tuple(h.field.zero() for _ in range(h.dim))
    z = MatrixOverH(h, [[g, x], [zero, one]])
    assert is_multiplicative(z)
    rep = block_order_bound_check(z, d=2, p=3)
    assert rep.bound == 6 and rep.holds
    rep_full = block_order_bound_check(z, d=6, p=3, block_sizes=[2])
    assert rep_full.bound == 6 and rep_full.holds
    # [[1, 0], [x, g]] is multiplicative but lower triangular
    bad = MatrixOverH(h, [[one, zero], [x, g]])
    assert is_multiplicative(bad)
    with pytest.raises(MatrixFormError):
        block_order_bound_check(bad, d=6, p=3)


def test_tensor_matrix_algebra(zoo):
    h = zoo["sweedler"]
    c = basic_for(h, 0).matrix
    t = mtensor(c, c)
    assert t + t == mtensor(c, c.scale(h.field.from_int(2)))
    assert c.delta() == t


def test_block_order_bound_rejects_a_diagonal_order_below_one(zoo):
    # d = 0 made the bound 0 and held vacuously (z^0 = I); d < 0 failed
    # inside the matrix power
    h = zoo["sweedler_f3"]
    g = h.basis_element(h.index_of("g")).vec
    x = h.basis_element(h.index_of("x")).vec
    zero = tuple(h.field.zero() for _ in range(h.dim))
    z = MatrixOverH(h, [[g, x], [zero, h.one().vec]])
    for d in (0, -2):
        with pytest.raises(MatrixFormError, match="at least 1"):
            block_order_bound_check(z, d=d, p=3)
    assert block_order_bound_check(z, d=2, p=3).holds


def scalar_counter(monkeypatch) -> list:
    """From now on, the value of every Scalar made is appended to the
    returned list."""
    made = []
    original = Scalar.__init__

    def counted(self, field, val):
        made.append(val)
        original(self, field, val)

    monkeypatch.setattr(Scalar, "__init__", counted)
    return made


@pytest.mark.parametrize("build", [b for _, b in GOLDENS],
                         ids=[stem for stem, _ in GOLDENS])
def test_basic_matrices_and_their_laws_make_no_scalar(build, monkeypatch):
    # the matrix units, the pairing, both solves, the candidate entries and
    # every law run on raw values once the simples are known
    h = build()
    simples = h.simple_subcoalgebras()
    made = scalar_counter(monkeypatch)
    for comp in simples:
        m = basic_multiplicative_matrix(h, comp).matrix
        assert is_multiplicative(m)
        matrix_hopf_power(m, 3)
    assert made == []
    # the counter does see the entries being boxed
    m.entries
    assert made


def test_extension_witnesses_are_checked_without_scalars(zoo, monkeypatch):
    h = zoo["taft9_f7"]

    def el(name):
        return h.basis_element(h.index_of(name))

    ext = extend_coalgebra(h, el("g^2"), h.one(), el("x^2"), 2)
    assert ext.witnesses
    made = scalar_counter(monkeypatch)
    assert all(is_multiplicative(w) for w in ext.witnesses)
    assert made == []


def test_primitive_decompose_boxes_at_most_dim_scalars(monkeypatch):
    h = sweedler(QQ)
    cb, db = basic_for(h, 0), basic_for(h, 1)
    h.coradical_idempotents()
    x = h.basis_element(h.index_of("x"))
    made = scalar_counter(monkeypatch)
    dec = primitive_decompose(x, cb, db)
    assert len(made) <= h.dim
    monkeypatch.undo()
    assert dec.remainder.is_zero()
    assert sum((h.element(dec.matrix(i, j).entry(i, j)) for i in range(1)
                for j in range(1)), h.zero()) == x


def plain(field, c):
    """c as an int or Fraction when it lies in the prime field, else c."""
    coeffs = field.coefficients(c)
    return c if any(coeffs[1:]) else coeffs[0]


def test_matrix_views_agree_on_every_construction(zoo):
    for stem, h in zoo.items():
        for comp in h.simple_subcoalgebras():
            m = basic_multiplicative_matrix(h, comp).matrix
            grids = [
                [[m.element(i, j) for j in range(m.ncols)]
                 for i in range(m.nrows)],
                [[tuple(plain(h.field, c) for c in x) for x in row]
                 for row in m.entries],
            ]
            for other in [MatrixOverH(h, g) for g in grids] + [
                    MatrixOverH.of_raw(h, m.raw), MatrixOverH(h, m.entries)]:
                assert other == m and hash(other) == hash(m), stem
                assert other.raw == m.raw and other.entries == m.entries
                assert other.delta() == m.delta() == mtensor(m, m)
                assert other.counit() == m.counit()
                assert _matrix_rows(h, other) == _matrix_rows(h, m)
    # the int/Fraction grid above is exercised beyond Scalars somewhere
    h = zoo["kS3"]
    m = basic_multiplicative_matrix(h, h.simple_subcoalgebras()[-1]).matrix
    assert any(type(plain(h.field, c)) in (int, Fraction)
               for row in m.entries for x in row for c in x)


def test_matrix_constructor_rejects_what_it_did(zoo):
    h, other = zoo["sweedler"], zoo["kZ2"]
    g = h.basis_element(h.index_of("g"))
    with pytest.raises(FieldMismatch):
        MatrixOverH(h, [[tuple(GF(3).one() for _ in range(h.dim))]])
    with pytest.raises(FieldMismatch):
        MatrixOverH(h, [[other.basis_element(0)]])
    with pytest.raises(TypeError):
        MatrixOverH(h, [[(1.0, 0, 0, 0)]])
    with pytest.raises(ShapeMismatch, match="length"):
        MatrixOverH(h, [[(1, 0, 0)]])
    with pytest.raises(ShapeMismatch, match="ragged"):
        MatrixOverH(h, [[g, g], [g]])
    with pytest.raises(ShapeMismatch, match="empty"):
        MatrixOverH(h, [])
    with pytest.raises(ShapeMismatch, match="empty"):
        MatrixOverH(h, [[]])
    m = MatrixOverH(h, [[g, (0, Fraction(1, 2), 0, 0)], [(0, 0, 0, 0), 1 * g]])
    assert m.raw[0][1] == ((1, Fraction(1, 2)),) and m.raw[1][0] == ()
    assert m.element(0, 1) == Element(h, m.entry(0, 1))
