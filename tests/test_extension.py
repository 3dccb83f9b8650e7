"""One-dimensional coalgebra extensions and their witness matrices."""

import random

import pytest

from hopfex import GF, QQ, FieldSpec
from hopfex.errors import NotInComponent
from hopfex.extension import (_factor_middle, _flag_basis, delta_expansion,
                              extend_coalgebra, graded_positive_part)
from hopfex.linalg import add_scaled, raw_pair
from hopfex.matforms import is_multiplicative
from hopfex.zoo import restricted_poly, sweedler, taft, tensor_product
from lifting_cases import (dense_rref_raw, mul_vec, t2_add_term,
                           t2_from_pair, vec_is_zero)


def entry_name(coalg, vec):
    return coalg.format_element(vec)


def embedded(res, elem):
    """Element of the base, zero-extended to the result's dimension."""
    vec = tuple(elem.vec) + tuple(
        res.field.zero() for _ in range(res.dim - len(elem.vec)))
    return res.element(vec)


def tensor_minus(a, b):
    """a - b for sparse tensors of Scalars, kept free of zeros."""
    out = dict(a)
    for key, c in b.items():
        t2_add_term(out, key, -c)
    return out


def check_witness_shape(ext):
    """Invariants shared by every extension result."""
    res, base = ext.result, ext.base
    assert res.check() == []
    # coradical is untouched: same dimension, old coradical embedded
    assert res.coradical().dim == base.coradical().dim
    gpad, hpad = embedded(res, ext.g), embedded(res, ext.h)
    for w in ext.witnesses:
        assert is_multiplicative(w)
        m = w.nrows
        for i in range(m):
            for j in range(i):
                assert vec_is_zero(w.entries[i][j])
        for i in range(m):
            d = res.element(w.entry(i, i))
            assert d.delta() == t2_from_pair(d.vec, d.vec)
        # the diagonal runs from g down to h
        assert res.element(w.entry(0, 0)) == gpad
        assert res.element(w.entry(m - 1, m - 1)) == hpad


def test_positive_part_subtracts_counit_component():
    h = restricted_poly(3)
    one = h.one()
    x = h.basis_element(1)
    z = x + 2 * one
    ok, w = graded_positive_part(z, one, one, 1)
    # equal flanks: the eps(z) multiple of the group-like is removed
    assert ok and w == x
    assert w.eps().is_zero()


def test_positive_part_flags_wrong_bicomponent():
    h = sweedler(QQ)
    one = h.one()
    x = h.basis_element(h.index_of("x"))
    z = x + 3 * one
    ok, w = graded_positive_part(z, one, one, 1)
    # normalised to x, but x is not a (1, 1)-component element
    assert not ok and w == x


def test_positive_part_rejects_non_grouplike_flank():
    h = sweedler(QQ)
    x = h.basis_element(h.index_of("x"))
    with pytest.raises(NotInComponent):
        graded_positive_part(x, x, h.one(), 1)


def test_positive_part_accepts_skew_primitive():
    h = sweedler(QQ)
    g = h.basis_element(h.index_of("g"))
    x = h.basis_element(h.index_of("x"))
    ok, w = graded_positive_part(x, g, h.one(), 1)
    assert ok and w == x


def test_delta_expansion_structure_taft9():
    f = FieldSpec(0, cyclotomic_order=3)
    h = taft(3, f)
    g = h.basis_element(h.index_of("g"))
    g2 = h.element(h.power_vec(g.vec, 2))
    x2 = h.basis_element(h.index_of("x^2"))
    exp = delta_expansion(x2, g2, h.one(), 2)
    assert len(exp.terms) == 1
    deg, serial, k, xe, ye = exp.terms[0]
    assert (deg, serial) == (1, 1)
    assert k == g
    # middle coefficient (1 + q) g x (x) x, with q the Taft parameter
    q = mul_vec(h, h.basis_element(h.index_of("x")).vec, g.vec)[
        h.index_of("gx")]
    gx = h.basis_element(h.index_of("gx"))
    assert xe == (f.one() + q) * gx
    assert ye == h.basis_element(h.index_of("x"))
    # middle() rebuilds Delta(z) minus the two flank tensors
    want = tensor_minus(x2.delta(), t2_from_pair(g2.vec, x2.vec))
    want = tensor_minus(want, t2_from_pair(x2.vec, h.one().vec))
    assert exp.middle() == want


def test_delta_expansion_empty_for_skew_primitive():
    h = sweedler(QQ)
    x = h.basis_element(h.index_of("x"))
    g = h.basis_element(h.index_of("g"))
    exp = delta_expansion(x, g, h.one(), 1)
    assert exp.terms == ()
    assert exp.middle() == {}


def test_extend_sweedler_skew_primitive_adds_nothing():
    h = sweedler(QQ)
    g = h.basis_element(h.index_of("g"))
    x = h.basis_element(h.index_of("x"))
    ext = extend_coalgebra(h, g, h.one(), x, 1)
    assert ext.result.dim == h.dim
    assert ext.new_basis == ()
    assert len(ext.witnesses) == 1
    w = ext.witnesses[0]
    assert w.nrows == 2
    assert entry_name(ext.result, w.entry(0, 0)) == "g"
    assert entry_name(ext.result, w.entry(0, 1)) == "x"
    assert entry_name(ext.result, w.entry(1, 1)) == "1"
    assert ext.designated_sum() == ext.z
    check_witness_shape(ext)


def test_extend_taft9_degree_two():
    f = FieldSpec(0, cyclotomic_order=3)
    h = taft(3, f)
    g = h.basis_element(h.index_of("g"))
    g2 = h.element(h.power_vec(g.vec, 2))
    x2 = h.basis_element(h.index_of("x^2"))
    ext = extend_coalgebra(h, g2, h.one(), x2, 2)
    assert ext.base.dim == 9
    assert ext.result.dim == 10  # one adjoined vector
    assert ext.new_basis == ("z1",)
    assert len(ext.witnesses) == 1
    w = ext.witnesses[0]
    assert w.nrows == 3
    res = ext.result
    assert entry_name(res, w.entry(0, 0)) == "g^2"
    assert entry_name(res, w.entry(1, 1)) == "g"
    assert entry_name(res, w.entry(2, 2)) == "1"
    assert entry_name(res, w.entry(1, 2)) == "x"
    assert entry_name(res, w.entry(0, 2)) == "x^2"
    # the (0,1) slot carries (1+q) g x
    q = mul_vec(h, h.basis_element(h.index_of("x")).vec, g.vec)[
        h.index_of("gx")]
    gx = res.basis_element(res.index_of("gx"))
    assert res.element(w.entry(0, 1)) == (f.one() + q) * gx
    assert ext.designated_sum() == ext.z
    check_witness_shape(ext)
    # the coradical is exactly the old one
    assert ext.result.coradical().dim == 3


def test_extend_restricted5_degree_two():
    h = restricted_poly(5)
    one = h.one()
    x = h.basis_element(1)
    x2 = h.basis_element(2)
    ext = extend_coalgebra(h, one, one, x2, 2)
    assert ext.result.dim == 6
    w = ext.witnesses[0]
    res = ext.result
    assert entry_name(res, w.entry(0, 0)) == "1"
    assert entry_name(res, w.entry(1, 2)) == "x"
    # binomial middle: Delta(x^2) has 2 x (x) x between the flanks
    assert res.element(w.entry(0, 1)) == h.field.from_int(2) * res.element(
        x.vec + tuple([h.field.zero()]))
    assert entry_name(res, w.entry(0, 2)) == "x^2"
    check_witness_shape(ext)


def test_extend_taft16_degree_three_recursion():
    f = FieldSpec(0, cyclotomic_order=4)
    h = taft(4, f)
    g = h.basis_element(h.index_of("g"))
    g3 = h.element(h.power_vec(g.vec, 3))
    x3 = h.basis_element(h.index_of("x^3"))
    exp = delta_expansion(x3, g3, h.one(), 3)
    assert {t[0] for t in exp.terms} == {1, 2}  # both middle degrees occur
    ext = extend_coalgebra(h, g3, h.one(), x3, 3)
    assert ext.base.dim == 16
    assert ext.result.dim == 21
    assert ext.new_basis == ("z1", "z1.2", "z1'", "z2", "zc1")
    assert len(ext.witnesses) == 3
    assert all(w.nrows == 4 for w in ext.witnesses)
    assert ext.designated_sum() == ext.z
    check_witness_shape(ext)
    assert ext.result.coradical().dim == h.coradical().dim == 4
    # old structure constants survive verbatim on the leading block
    for i in range(16):
        assert ext.result.comul[i] == h.comul[i]
        assert ext.result.counit[i] == h.counit[i]
    assert ext.result.names[:16] == h.names


def test_extend_taft25_degree_four_amalgam():
    f = FieldSpec(0, cyclotomic_order=5)
    h = taft(5, f)
    g = h.basis_element(h.index_of("g"))
    g4 = h.element(h.power_vec(g.vec, 4))
    x4 = h.basis_element(h.index_of("x^4"))
    ext = extend_coalgebra(h, g4, h.one(), x4, 4)
    assert ext.result.dim == 45
    assert len(ext.witnesses) == 8
    assert all(w.nrows == 5 for w in ext.witnesses)
    assert ext.designated_sum() == ext.z
    assert ext.result.check() == []
    assert ext.result.coradical().dim == 5


def test_extend_rejects_bad_arguments():
    h = sweedler(QQ)
    g = h.basis_element(h.index_of("g"))
    x = h.basis_element(h.index_of("x"))
    with pytest.raises(NotInComponent):
        extend_coalgebra(h, x, h.one(), x, 1)  # flank is not group-like
    with pytest.raises(NotInComponent):
        extend_coalgebra(h, g, h.one(), x, 0)  # degree must be positive


def test_extend_rejects_wrong_component():
    f = FieldSpec(0, cyclotomic_order=3)
    h = taft(3, f)
    g = h.basis_element(h.index_of("g"))
    x2 = h.basis_element(h.index_of("x^2"))
    # x^2 is a (g^2, 1)-component element; (g, 1) flanks reject it
    with pytest.raises(NotInComponent):
        extend_coalgebra(h, g, h.one(), x2, 2)


def test_extension_designated_entries_locations():
    h = restricted_poly(3)
    one = h.one()
    x2 = h.basis_element(2)
    ext = extend_coalgebra(h, one, one, x2, 2)
    des = ext.designated_entries()
    assert len(des) == len(ext.witnesses)
    for w, d in zip(ext.witnesses, des):
        assert d == ext.result.element(w.entry(0, w.ncols - 1))


def test_extend_computes_the_simples_of_the_base_only(monkeypatch):
    # group-like checks read Delta g = g (x) g directly, so the grown
    # coalgebra of a degree-2 extension is never split into simples
    import hopfex.coalgebra
    dims = []
    real = hopfex.coalgebra.CoradicalAnalysis._compute_simples

    def counted(self):
        dims.append(self.coalgebra.dim)
        return real(self)

    monkeypatch.setattr(hopfex.coalgebra.CoradicalAnalysis,
                        "_compute_simples", counted)
    h = taft(3, GF(7))
    g2 = h.element(h.power_vec(h.basis_element(h.index_of("g")).vec, 2))
    ext = extend_coalgebra(h, g2, h.one(), h.basis_element(h.index_of("x^2")),
                           2)
    assert ext.result.dim == 10
    assert dims == [9]


def test_flanks_must_be_group_like_not_just_in_a_simple():
    h = sweedler(QQ)
    x, g = h.basis_element(h.index_of("x")), h.basis_element(h.index_of("g"))
    with pytest.raises(NotInComponent, match="group-like"):
        graded_positive_part(x, 2 * g, h.one(), 1)


def test_factor_middle_on_middles_of_rank_two():
    # k[x]/(x^3) (x) k[y]/(y^3) over F_3 has two primitives, a = x|1 and
    # b = 1|x, so a middle may need two terms of one degree, and a
    # reduced coefficient row two entries, which the goldens' extensions
    # never need
    h = tensor_product(restricted_poly(3), restricted_poly(3))
    ops, one = h.field.ops, h.analysis().find_simple_containing({0: 1})
    a, b, x2 = ({h.index_of(name): 1} for name in ("x|1", "1|x", "x^2|1"))
    ab = {**a, **b}

    def middle(terms):
        acc = {}
        for u, v in terms:
            add_scaled(ops, acc, ops.one,
                       raw_pair(ops, sorted(u.items()), sorted(v.items())))
        return acc

    cases = [
        ([(a, ab)], 2, [(1, 1, a, ab)]),
        ([(a, a), (a, b), (b, a)], 2, [(1, 1, a, b), (1, 2, ab, a)]),
        ([(x2, ab), (a, ab), (ab, x2)], 3,
         [(1, 1, a, ab), (1, 2, ab, x2), (2, 1, x2, ab)]),
    ]
    for terms, n, want in cases:
        got = _factor_middle(h, middle(terms), one, one, n)
        assert [(d, k, x, y) for d, k, _, x, y in got] == want
    # seeded middles: as many terms of each degree as the rank of its
    # coefficient rows (the function itself proves the reconstruction)
    flags = _flag_basis(h, one, one, 2)
    rng = random.Random(3)
    for _ in range(20):
        lam = [[rng.randrange(3) if da + db <= 3 else 0
                for _, db in flags] for _, da in flags]
        terms = [(u, {j: c * x % 3 for j, x in v.items()})
                 for (u, _), row in zip(flags, lam)
                 for (v, _), c in zip(flags, row) if c]
        got = _factor_middle(h, middle(terms), one, one, 3)
        for d in (1, 2):
            rows = [list(row) for row, (_, da) in zip(lam, flags) if da == d]
            rank = len(dense_rref_raw(h.field, rows)) if rows else 0
            assert sum(e[0] == d for e in got) == rank

