"""Coalgebra engine: axioms, coradical filtration, simples, bicomponents."""

import random

import pytest

from hopfex import GF, QQ, Coalgebra, FieldSpec
from hopfex.algebra import FiniteAlgebra
from hopfex.coalgebra import coalgebra_amalgam, tensor_square_subspace
from hopfex.errors import (AxiomViolation, FieldMismatch, IncompatibleBase,
                           InvariantViolation, NonSplitField, UnknownSimple)
from hopfex.linalg import (SubspaceBasis, t2_add_term, t2_flatten, t2_from_pair,
                           unit_vec, vec_add, vec_is_zero, zero_vec)
from hopfex.zoo import (cyclic, dual_group_algebra, group_algebra,
                        restricted_poly, sweedler, symmetric, taft)
from lifting_cases import (LIFT_FIELDS, basis_scales, fraction_vector,
                           has_denominators, hopf_case, is_canonical,
                           rescaled_coalgebra)


def test_axiom_check_passes_on_zoo(zoo):
    for stem, obj in zoo.items():
        assert obj.check() == [], stem


def test_axiom_check_catches_broken_coassociativity():
    # "Delta(a) = a (x) b" fails coassociativity and the counit law
    f = QQ
    bad = Coalgebra(f, ("a", "b"),
                    {(0, 0, 1): f.one(), (1, 1, 1): f.one()},
                    [f.one(), f.one()])
    problems = bad.check()
    assert problems
    with pytest.raises(AxiomViolation):
        bad.require_valid()


def test_counit_law_violation_detected():
    f = QQ
    # group-like-looking Delta with the wrong counit value
    bad = Coalgebra(f, ("a",), {(0, 0, 0): f.one()}, [f.from_int(2)])
    assert any("counit" in p for p in bad.check())


def test_delta_and_counit_are_linear():
    h = sweedler(QQ)
    x = h.basis_element(h.index_of("x"))
    g = h.basis_element(h.index_of("g"))
    lhs = (x + 2 * g).delta()
    rhs = {}
    for key, c in x.delta().items():
        rhs[key] = rhs.get(key, QQ.zero()) + c
    for key, c in g.delta().items():
        rhs[key] = rhs.get(key, QQ.zero()) + QQ.from_int(2) * c
    rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
    assert lhs == rhs
    assert (x + 2 * g).eps() == QQ.from_int(2)


def test_group_likes_counts(zoo):
    expected = {"kZ2": 2, "kZ6": 6, "kS3": 6, "dual_kS3": 2,
                "sweedler": 2, "taft9": 3, "restricted5": 1}
    for stem, n in expected.items():
        gl = zoo[stem].group_likes()
        assert len(gl) == n, stem
        for g in gl:
            assert g.delta() == t2_from_pair(g.vec, g.vec)
            assert g.eps() == zoo[stem].field.one()


def test_coradical_filtration_dims():
    t9 = taft(3, FieldSpec(0, cyclotomic_order=3))
    dims = [layer.dim for layer in t9.coradical_filtration()]
    assert dims == [3, 6, 9]

    sw = sweedler(QQ)
    assert [layer.dim for layer in sw.coradical_filtration()] == [2, 4]

    r5 = restricted_poly(5)
    assert [layer.dim for layer in r5.coradical_filtration()] == [1, 2, 3, 4, 5]
    assert r5.coradical().dim == 1
    assert r5.analysis().depth == 4


def test_filtration_is_exhaustive_and_nested(zoo):
    for stem, obj in zoo.items():
        filt = obj.coradical_filtration()
        assert filt[-1].dim == obj.dim, stem
        for lo, hi in zip(filt, filt[1:]):
            assert hi.contains(lo) and hi.dim > lo.dim, stem


def test_cosemisimple_iff_trivial_filtration(zoo):
    for stem, obj in zoo.items():
        assert obj.is_cosemisimple() == (len(obj.coradical_filtration()) == 1)
    assert zoo["kS3"].is_cosemisimple()
    assert not zoo["sweedler"].is_cosemisimple()


def test_simples_of_group_coalgebra_are_grouplike():
    h = group_algebra(symmetric(3), QQ)
    simples = h.simple_subcoalgebras()
    assert len(simples) == 6
    assert all(s.is_grouplike and s.dim == 1 for s in simples)
    assert h.is_pointed()


def test_simples_of_dual_s3_include_matrix_block():
    h = dual_group_algebra(symmetric(3), QQ)
    simples = h.simple_subcoalgebras()
    sizes = sorted(s.matrix_size for s in simples)
    dims = sorted(s.dim for s in simples)
    assert sizes == [1, 1, 2]
    assert dims == [1, 1, 4]
    assert not h.is_pointed()
    # simple dimension is the square of the matrix block size
    for s in simples:
        assert s.dim == s.matrix_size ** 2


def test_simples_span_the_coradical(zoo):
    for stem, obj in zoo.items():
        simples = obj.simple_subcoalgebras()
        total = None
        for s in simples:
            total = s.subspace if total is None else total.sum(s.subspace)
            # simples intersect pairwise trivially, so dims add up
        assert total.dim == sum(s.dim for s in simples), stem
        assert total == obj.coradical(), stem


def test_idempotent_family_basics():
    h = sweedler(QQ)
    fam = h.coradical_idempotents()
    assert len(fam) == len(h.simple_subcoalgebras())
    dual = h.dual_algebra()
    e0, e1 = fam.functional(0), fam.functional(1)
    assert dual.mult(e0, e0) == e0
    assert dual.mult(e0, e1) == zero_vec(QQ, h.dim)
    assert vec_add(e0, e1) == tuple(h.counit)
    with pytest.raises(UnknownSimple):
        fam.functional(5)


def test_nonsplit_simple_raises():
    # the 3rd roots of unity do not exist over F_2, so the dual of kZ3
    # has a simple block that only splits after a field extension
    with pytest.raises(NonSplitField):
        dual_group_algebra(cyclic(3), GF(2)).simple_subcoalgebras()


def test_nonsplit_simple_raises_in_characteristic_zero():
    # the same over Q: x^2 + x + 1 has no rational root
    with pytest.raises(NonSplitField):
        dual_group_algebra(cyclic(3), QQ).simple_subcoalgebras()


def test_block_with_wrong_left_ideal_raises_nonsplit(monkeypatch):
    # return the block idempotent itself as the "primitive" one: its left
    # ideal is the whole 4-dim block of kS3, and 4^2 != 4 is the proof
    monkeypatch.setattr(FiniteAlgebra, "primitive_idempotent_in",
                        lambda self, z: z)
    with pytest.raises(NonSplitField):
        dual_group_algebra(symmetric(3), QQ).simple_subcoalgebras()


def test_failed_subcoalgebra_proof_raises_invariant_violation(monkeypatch):
    monkeypatch.setattr(Coalgebra, "is_subcoalgebra", lambda self, v: False)
    with pytest.raises(InvariantViolation, match="not a subcoalgebra"):
        sweedler(QQ).simple_subcoalgebras()


def tensor_square_oracle(h, space):
    """Delta(space) inside space (x) space, asked in the dim^2 ambient."""
    target = tensor_square_subspace(space, space)
    return all(target.contains_vector(t2_flatten(h.field, h.delta_vec(r), h.dim))
               for r in space.rows)


def test_is_subcoalgebra_matches_the_tensor_square_oracle(zoo):
    seen = set()
    for stem, h in zoo.items():
        filt = h.coradical_filtration()
        spaces = list(filt) + [c.subspace for c in h.simple_subcoalgebras()]
        # the positive part of H_1 is not a subcoalgebra on these inputs
        spaces.append(filt[min(1, len(filt) - 1)].cut(h.counit))
        for space in spaces:
            want = tensor_square_oracle(h, space)
            assert h.is_subcoalgebra(space) == want, stem
            seen.add(want)
    assert seen == {True, False}


def test_sweedler_subcoalgebras_by_hand(zoo):
    h = zoo["sweedler"]
    one, g, x = (unit_vec(QQ, h.dim, h.index_of(n)) for n in ("1", "g", "x"))
    # Delta x = x (x) 1 + g (x) x needs g
    assert not h.is_subcoalgebra(SubspaceBasis(QQ, h.dim, [one, x]))
    assert h.is_subcoalgebra(SubspaceBasis(QQ, h.dim, [one, g, x]))


def test_bicomponent_decomposition_of_degree_one(zoo):
    h = zoo["sweedler"]
    x = h.basis_element(h.index_of("x")).vec
    parts = h.bicomponent_decomposition_vec(x)
    nonzero = {key: v for key, v in parts.items() if not vec_is_zero(v)}
    assert len(nonzero) == 1
    (left, right), comp = next(iter(nonzero.items()))
    assert comp == x
    assert left != right  # x sits across the two group-like simples
    # membership: x lies in the (left, right) bicomponent of H_1
    sub = h.bicomponent_subspace(left, right)
    assert sub.contains_vector(x)


def test_bicomponents_sum_back(zoo):
    for stem in ("sweedler", "taft9", "restricted3", "dual_kS3"):
        h = zoo[stem]
        h1 = h.coradical_filtration()[min(1, h.analysis().depth)]
        for row in h1.rows:
            parts = h.bicomponent_decomposition_vec(row)
            total = zero_vec(h.field, h.dim)
            for v in parts.values():
                total = vec_add(total, v)
            assert total == row, stem


def test_hit_actions_commute():
    h = zoo_obj = taft(3, FieldSpec(0, cyclotomic_order=3))
    fam = h.coradical_idempotents()
    x = h.basis_element(h.index_of("gx")).vec
    e0 = fam.functional(0)
    e1 = fam.functional(1)
    lr = h.hit_right(h.hit_left(e0, x), e1)
    rl = h.hit_left(e0, h.hit_right(x, e1))
    assert lr == rl


def test_element_cross_parent_arithmetic_rejected(zoo):
    a = zoo["kZ2"].basis_element(0)
    b = zoo["kZ6"].basis_element(0)
    with pytest.raises(FieldMismatch):
        _ = a + b


def test_amalgam_accepts_matching_leading_block(zoo):
    # sweedler reproduces kZ2 on its first two basis vectors, so the
    # amalgam glues cleanly and keeps the shared block once
    glued = coalgebra_amalgam(zoo["kZ2"], [zoo["sweedler"]])
    assert glued.dim == 4
    assert glued.check() == []


def test_amalgam_rejects_wrong_base(zoo):
    with pytest.raises(IncompatibleBase):
        # same dimension, different comultiplication on the shared range
        coalgebra_amalgam(zoo["kS3"], [zoo["dual_kS3"]])
    with pytest.raises(IncompatibleBase):
        coalgebra_amalgam(zoo["kZ6"], [zoo["kZ2"]])  # smaller than base
    with pytest.raises(IncompatibleBase):
        coalgebra_amalgam(zoo["kZ2"], [group_algebra(cyclic(2), GF(3))])


def test_extend_scalars_preserves_structure():
    h = sweedler(QQ)
    big = FieldSpec(0, cyclotomic_order=4)
    h2 = h.extend_scalars(big)
    assert h2.field == big
    assert h2.dim == h.dim
    assert h2.check() == []
    assert [layer.dim for layer in h2.coradical_filtration()] == [2, 4]


def test_is_grouplike_matches_the_simples(zoo):
    for stem, h in zoo.items():
        for comp in h.simple_subcoalgebras():
            if comp.is_grouplike:
                g = comp.grouplike
                assert h.is_grouplike(g), stem
                two_g = tuple(c + c for c in g)
                assert not h.is_grouplike(two_g), stem
            else:
                assert not any(h.is_grouplike(r) for r in comp.subspace.rows)
        assert not h.is_grouplike(zero_vec(h.field, h.dim)), stem
    s = zoo["sweedler"]
    x = s.basis_element(s.index_of("x")).vec
    assert not s.is_grouplike(x)
    assert not s.is_grouplike(vec_add(s.unit, x))


def reference_delta_vec(h, vec):
    """delta_vec as the Scalar loop it replaced."""
    out: dict = {}
    for i, c in enumerate(vec):
        if c.is_zero():
            continue
        for key, val in h.comul[i].items():
            t2_add_term(out, key, c * val)
    return out


@pytest.mark.parametrize("field", [f for _, f in LIFT_FIELDS],
                         ids=[name for name, _ in LIFT_FIELDS])
def test_delta_vec_matches_the_scalar_reference(field):
    h = hopf_case(field)
    coalg = rescaled_coalgebra(h, basis_scales(field, h.dim, 5))
    if field.char == 0:
        assert has_denominators(c for d in coalg.comul for c in d.values())
    rng = random.Random(23)
    vecs = [fraction_vector(field, rng, h.dim) for _ in range(4)]
    units = [unit_vec(field, h.dim, i) for i in range(h.dim)]
    for v in vecs + units:
        got = coalg.delta_vec(v)
        assert got == reference_delta_vec(coalg, v)
        assert all(is_canonical(field, c.val) and not c.is_zero()
                   for c in got.values())


def reference_hit(h, f, vec, leg):
    """hit_left (leg 1) or hit_right (leg 0) as the boxed Scalar triple
    products they replaced."""
    out = list(zero_vec(h.field, h.dim))
    for i, c in enumerate(vec):
        if c.is_zero():
            continue
        for key, val in h.comul[i].items():
            fx = f[key[leg]]
            if not fx.is_zero():
                m = key[1 - leg]
                out[m] = out[m] + c * val * fx
    return tuple(out)


@pytest.mark.parametrize("field", [QQ, GF(13), FieldSpec(0, cyclotomic_order=5)],
                         ids=["Q", "F_13", "Q_zeta5"])
def test_hit_actions_match_the_boxed_reference(field):
    h = hopf_case(field)
    coalg = rescaled_coalgebra(h, basis_scales(field, h.dim, 7))
    rng = random.Random(29)
    vecs = [fraction_vector(field, rng, h.dim) for _ in range(4)]
    funcs = [fraction_vector(field, rng, h.dim) for _ in range(3)]
    if field.char == 0:
        assert has_denominators(c for d in coalg.comul for c in d.values())
        assert has_denominators(x for v in vecs + funcs for x in v)
    funcs += list(coalg.coradical_idempotents()) + [coalg.counit]
    units = [unit_vec(field, h.dim, i) for i in range(h.dim)]
    for f in funcs:
        for v in vecs + units + [zero_vec(field, h.dim)]:
            got_l, got_r = coalg.hit_left(f, v), coalg.hit_right(v, f)
            assert got_l == reference_hit(coalg, f, v, 1)
            assert got_r == reference_hit(coalg, f, v, 0)
            assert all(is_canonical(field, c.val) for c in got_l + got_r)
    # eps acts as the identity from both sides
    for v in vecs:
        assert coalg.hit_left(coalg.counit, v) == v
        assert coalg.hit_right(v, coalg.counit) == v
