"""Example catalogue, cross-checked against independently derived formulas."""

import math

import pytest

from hopfex import GF, QQ, FieldSpec
from hopfex.errors import FieldMismatch, HopfError, NoSuchRoot
from hopfex.hopf import HopfAlgebra
from hopfex.structfile import emit_structure_file, structure_from_object
from hopfex.zoo import (build_named, cyclic, dual_group_algebra,
                        group_algebra, restricted_poly, sweedler, symmetric,
                        taft, tensor_product)
from lifting_cases import (dense_table, mul_vec)


def qint(field, q, m):
    """Gaussian integer [m]_q = 1 + q + ... + q^(m-1)."""
    acc, pw = field.zero(), field.one()
    for _ in range(m):
        acc = acc + pw
        pw = pw * q
    return acc


def qbinom(field, q, m, k):
    """Gaussian binomial via the falling-factorial quotient."""
    num, den = field.one(), field.one()
    for i in range(k):
        num = num * qint(field, q, m - i)
        den = den * qint(field, q, i + 1)
    return num / den


@pytest.mark.parametrize("n,field", [
    (2, QQ),
    (3, FieldSpec(0, cyclotomic_order=3)),
    (3, GF(7)),
    (4, FieldSpec(0, cyclotomic_order=4)),
])
def test_taft_comultiplication_against_q_binomials(n, field):
    h = taft(n, field)
    # read q off the relation x g = q (g x)
    gi, xi, gxi = h.index_of("g"), h.index_of("x"), h.index_of("gx")
    q = mul_vec(h, h.basis_element(xi).vec, h.basis_element(gi).vec)[gxi]
    assert qint(field, q, n).is_zero()  # q is a primitive n-th root

    def idx(a, j):
        # basis vector g^a x^j sits at position j*n + a
        return j * n + a

    for a in range(n):
        for j in range(n):
            want = {}
            for k in range(j + 1):
                c = qbinom(field, q, j, k)
                key = (idx((a + j - k) % n, k), idx(a, j - k))
                want[key] = want.get(key, field.zero()) + c
            want = {kk: v for kk, v in want.items() if not v.is_zero()}
            assert h.comul[idx(a, j)] == want, (a, j)


def test_taft_relations_and_antipode():
    field = FieldSpec(0, cyclotomic_order=3)
    h = taft(3, field)
    g = h.basis_element(h.index_of("g"))
    x = h.basis_element(h.index_of("x"))
    q = mul_vec(h, x.vec, g.vec)[h.index_of("gx")]
    assert g ** 3 == h.one()
    assert (x ** 3).is_zero()
    assert x * g == q * (g * x)
    # antipode: S(g) = g^(n-1), S(x) = -g^(n-1) x
    assert h.element(h.antipode_vec(g.vec)) == g ** 2
    assert h.element(h.antipode_vec(x.vec)) == -(g ** 2 * x)
    assert not h.involutory()


def test_sweedler_is_taft_two():
    a = sweedler(QQ)
    b = taft(2, QQ)
    assert a.names == b.names
    assert a.comul == b.comul
    assert a.counit == b.counit
    assert dense_table(a.algebra) == dense_table(b.algebra)
    assert a.antipode_mat == b.antipode_mat


def reference_taft(n, field):
    """T_{n^2}(q) with its products of basis monomials written by hand.

    The Taft builder as it stood before it multiplied through
    FiniteAlgebra; kept as the oracle for taft(n).
    """
    q = field.primitive_root_of_unity(n)
    one, zero = field.one(), field.zero()

    def idx(a, b):
        return b * n + a

    def mul_basis(i, j):
        a, b, c, d = i % n, i // n, j % n, j // n
        return None if b + d >= n else (idx((a + c) % n, b + d), q ** (b * c))

    def add(out, key, val):
        s = out.get(key, zero) + val
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s

    def dict_mul(u, v):
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                hit = mul_basis(i, j)
                if hit is not None:
                    add(out, hit[0], ci * cj * hit[1])
        return out

    def t2_mul(u, v):
        out = {}
        for (j, k), c in u.items():
            for (j2, k2), c2 in v.items():
                lhit, rhit = mul_basis(j, j2), mul_basis(k, k2)
                if lhit is not None and rhit is not None:
                    add(out, (lhit[0], rhit[0]), c * c2 * lhit[1] * rhit[1])
        return out

    names = []
    for b in range(n):
        for a in range(n):
            ga = "" if a == 0 else ("g" if a == 1 else f"g^{a}")
            xb = "" if b == 0 else ("x" if b == 1 else f"x^{b}")
            names.append(ga + xb or "1")
    dim = n * n
    dx = {(idx(0, 1), idx(0, 0)): one, (idx(1, 0), idx(0, 1)): one}
    comul, counit, antipode = {}, [0] * dim, {}
    for a in range(n):
        for b in range(n):
            d = {(idx(a, 0), idx(a, 0)): one}
            for _ in range(b):
                d = t2_mul(d, dx)
            for (j, k), c in d.items():
                comul[(idx(a, b), j, k)] = c
            counit[idx(a, b)] = 1 if b == 0 else 0
            img = {idx(0, 0): one}
            for _ in range(b):
                img = dict_mul(img, {idx(n - 1, 1): -one})
            for _ in range(a):
                img = dict_mul(img, {idx(n - 1, 0): one})
            for m, c in img.items():
                antipode[(idx(a, b), m)] = c
    mul = {}
    for i in range(dim):
        for j in range(dim):
            hit = mul_basis(i, j)
            if hit is not None:
                mul[(i, j, hit[0])] = hit[1]
    unit = [1] + [0] * (dim - 1)
    return HopfAlgebra(field, names, comul, counit, mul, unit, antipode,
                       name=f"T_{dim}(q={q})")


@pytest.mark.parametrize("n,p", [(2, 3), (3, 7), (4, 5), (5, 11)])
def test_taft_matches_the_closed_form_builder(n, p):
    for field in (FieldSpec(0, cyclotomic_order=n), GF(p)):
        got, want = taft(n, field), reference_taft(n, field)
        assert (got.name, got.names, got.counit, got.unit) == \
            (want.name, want.names, want.counit, want.unit)
        # same terms in the same order, so every report iterates alike
        assert [list(d.items()) for d in got.comul] == \
            [list(d.items()) for d in want.comul]
        assert dense_table(got.algebra) == dense_table(want.algebra)
        assert got.antipode_mat == want.antipode_mat
        assert emit_structure_file(structure_from_object(got)) == \
            emit_structure_file(structure_from_object(want))


def test_taft_needs_primitive_root():
    with pytest.raises(NoSuchRoot):
        taft(3, QQ)  # no primitive cube root of unity in Q
    with pytest.raises(NoSuchRoot):
        taft(7, GF(3))  # 7 does not divide 3^1 - 1


def test_group_algebra_structure():
    g6 = cyclic(6)
    h = group_algebra(g6, QQ)
    assert h.dim == 6
    for i in range(6):
        e = h.basis_element(i)
        assert e.delta() == {(i, i): QQ.one()}
        assert e.eps() == QQ.one()
    # multiplication is the group law
    for i in range(6):
        for j in range(6):
            prod = mul_vec(h, h.basis_element(i).vec, h.basis_element(j).vec)
            assert prod == h.basis_element(g6.mul_index(i, j)).vec
        # antipode sends a group element to its inverse
        assert h.antipode_vec(h.basis_element(i).vec) == \
            h.basis_element(g6.inverse_index(i)).vec


def test_dual_group_algebra_structure():
    s3 = symmetric(3)
    h = dual_group_algebra(s3, QQ)
    assert h.dim == 6
    # Delta(delta_g) = sum over factorizations ab = g
    for gidx in range(6):
        want = {}
        for a in range(6):
            for b in range(6):
                if s3.mul_index(a, b) == gidx:
                    want[(a, b)] = QQ.one()
        assert h.comul[gidx] == want
    # counit picks out the identity, multiplication is pointwise
    e = s3.index[s3.identity]
    assert list(h.counit) == \
        [QQ.one() if i == e else QQ.zero() for i in range(6)]
    for i in range(6):
        for j in range(6):
            prod = mul_vec(h, h.basis_element(i).vec, h.basis_element(j).vec)
            want = h.basis_element(i).vec if i == j else \
                tuple(QQ.zero() for _ in range(6))
            assert prod == want


def test_restricted_poly_binomial_comultiplication():
    for p in (2, 3, 5):
        h = restricted_poly(p)
        f = h.field
        assert f.char == p and h.dim == p
        for j in range(p):
            want = {}
            for k in range(j + 1):
                c = f.from_int(math.comb(j, k))
                if not c.is_zero():
                    want[(k, j - k)] = c
            assert h.comul[j] == want
        # x^p = 0 under the algebra product
        x = h.basis_element(1)
        assert (x ** p).is_zero()
        assert h.element(h.antipode_vec(x.vec)) == -x


def test_restricted_poly_needs_prime_field():
    from hopfex.errors import HopfexError
    with pytest.raises(HopfexError):
        restricted_poly(4)  # 4 is not prime, so F_4 needs a modulus


def test_tensor_product_structure(zoo):
    t = zoo["tensor_kZ2_kZ3"]
    assert t.dim == 6
    assert t.check_hopf() == []
    # group-likes of a tensor of group algebras form the product group
    assert len(t.group_likes()) == 6
    rep = t.exponent()
    assert rep.n == 6


def test_tensor_product_field_mismatch():
    with pytest.raises(FieldMismatch):
        tensor_product(group_algebra(cyclic(2), QQ),
                       group_algebra(cyclic(2), GF(3)))


def test_tensor_of_sweedler_keeps_hopf_axioms(zoo):
    t = zoo["tensor_sweedler_kZ2_f3"]
    assert t.dim == 8
    assert t.check_hopf() == []
    assert not t.is_cosemisimple()
    assert [layer.dim for layer in t.coradical_filtration()] == [4, 8]


def test_build_named_catalogue():
    assert build_named("kZ4").dim == 4
    assert build_named("kS3").dim == 6
    assert build_named("dual-kZ2").dim == 2
    assert build_named("sweedler").dim == 4
    assert build_named("taft3", FieldSpec(0, cyclotomic_order=3)).dim == 9
    assert build_named("restricted3").dim == 3
    with pytest.raises(HopfError):
        build_named("restricted3", QQ)  # needs the right prime field
    with pytest.raises(HopfError):
        build_named("nonsense")


def test_build_named_rejects_malformed_sizes():
    # each raised StopIteration or ValueError, or built F_0[x]/(x^0) over Q
    for name in ("kZ0", "kZ-1", "dual-kZ0", "kZ", "kZabc", "taftx",
                 "restricted", "restricted0"):
        with pytest.raises(HopfError):
            build_named(name)
    with pytest.raises(HopfError, match="n >= 1"):
        cyclic(0)
    with pytest.raises(HopfError, match="prime"):
        restricted_poly(0)
    assert build_named("kZ03").names == build_named("kZ3").names


def test_symmetric_group_table_is_a_group():
    s3 = symmetric(3)
    n = len(s3)
    assert n == 6
    e = s3.index[s3.identity]
    for a in range(n):
        assert s3.mul_index(a, e) == a and s3.mul_index(e, a) == a
        assert s3.mul_index(a, s3.inverse_index(a)) == e
        for b in range(n):
            for c in range(n):
                assert s3.mul_index(s3.mul_index(a, b), c) == \
                    s3.mul_index(a, s3.mul_index(b, c))
