"""Coalgebra engine: axioms, coradical filtration, simples, bicomponents.

The simples and the coradical idempotents are compared with the routes
they replaced: each simple as the perp of J and the other blocks, and
the idempotents' orthogonality product by product.
"""

import itertools
import random
from fractions import Fraction

import pytest

import hopfex.coalgebra
from hopfex import GF, QQ, Coalgebra, Element, FieldSpec
from hopfex.algebra import FiniteAlgebra
from hopfex.coalgebra import coalgebra_amalgam
from hopfex.extension import extend_coalgebra
from hopfex.errors import (AxiomViolation, FieldMismatch, HopfexError,
                           IncompatibleBase, InvariantViolation,
                           NonSplitField, ShapeMismatch, UnknownSimple)
from hopfex.linalg import SubspaceBasis, dense_raw, rref_rows, tensor_legs
from hopfex.matforms import MatrixOverH
from hopfex.scalars import Scalar, read_vector
from hopfex.zoo import (cyclic, dual_group_algebra, group_algebra,
                        restricted_poly, sweedler, symmetric, taft,
                        tensor_product)

from golden_defs import golden_objects
from lifting_cases import (LIFT_FIELDS, as_boxed, as_raw, basis_scales,
                           bicomponent_decomposition_vec, component, delta_vec,
                           fraction_scalar, fraction_vector, has_denominators,
                           hit_left, hit_right, hopf_case, is_canonical,
                           rebased_coalgebra, reference_coalgebra_check,
                           reference_format, reference_mult,
                           rescaled_coalgebra, t2_add_term, t2_flatten,
                           t2_from_pair, tensor_square_subspace, unit_vec,
                           vec_add, vec_dot, vec_is_zero, vec_scale, vec_sub,
                           zero_vec)


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


def hand_made_broken_coalgebras():
    """Small coalgebras that break coassociativity or a counit law."""
    f = QQ
    one, half = f.one(), f.from_fraction(Fraction(1, 2))
    yield Coalgebra(f, ("a", "b"), {(0, 0, 1): one, (1, 1, 1): one},
                    [one, one])
    yield Coalgebra(f, ("a",), {(0, 0, 0): one}, [f.from_int(2)])
    # Delta(x) = 1 (x) x: coassociative, only the left counit law holds
    yield Coalgebra(f, ("1", "x"), {(0, 0, 0): one, (1, 0, 1): one},
                    [one, f.zero()])
    # Delta(x) = 1 (x) x + 1/2 x (x) 1: coassociativity fails as well
    yield Coalgebra(f, ("1", "x"), {(0, 0, 0): one, (1, 0, 1): one,
                                    (1, 1, 0): half}, [one, f.zero()])
    # Delta(u) = t u (x) u + g (x) u with eps(u) = 1
    for field in (GF(5), FieldSpec(0, cyclotomic_order=3)):
        t = field.gen() if field.modulus else field.from_int(3)
        yield Coalgebra(field, ("g", "u"),
                        {(0, 0, 0): field.one(), (1, 1, 1): t,
                         (1, 0, 1): field.one()}, [field.one(), field.one()])


def comul_mutations(zoo, seed):
    """Each golden's coalgebra with one comul or counit entry moved."""
    rng = random.Random(seed)
    for stem, h in zoo.items():
        comul = {(i, j, k): c for i, d in enumerate(h.comul)
                 for (j, k), c in d.items()}
        counit = list(h.counit)
        if rng.random() < 0.75:
            key = tuple(rng.randrange(h.dim) for _ in range(3))
            comul[key] = comul.get(key, h.field.zero()) + h.field.one()
        else:
            i = rng.randrange(h.dim)
            counit[i] = counit[i] + h.field.one()
        yield stem, Coalgebra(h.field, h.names, comul, counit)


def test_check_matches_the_scalar_reference(zoo):
    broken = list(hand_made_broken_coalgebras())
    for c in broken:
        got = c.check()
        assert got, c
        assert got == reference_coalgebra_check(c), c
    for stem, c in comul_mutations(zoo, 21):
        got = c.check()
        assert got, stem
        assert got == reference_coalgebra_check(c), stem
    for stem, h in zoo.items():
        assert h.check() == reference_coalgebra_check(h) == [], stem


@pytest.mark.parametrize("field", [f for _, f in LIFT_FIELDS],
                         ids=[name for name, _ in LIFT_FIELDS])
def test_check_matches_the_scalar_reference_with_denominators(field):
    h = hopf_case(field)
    c = rescaled_coalgebra(h, basis_scales(field, h.dim, 5))
    assert c.check() == reference_coalgebra_check(c) == []
    comul = {(i, j, k): v for i, d in enumerate(c.comul)
             for (j, k), v in d.items()}
    key = next(iter(comul))
    comul[key] = comul[key] + field.one()
    bad = Coalgebra(field, c.names, comul, c.counit)
    assert bad.check() == reference_coalgebra_check(bad) != []


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


# Scalars made by simple_subcoalgebras() on a fresh golden before the
# sort key of the simples read raw rows and zero_vec shared the field's zero
SIMPLES_SCALARS_BEFORE = {
    "kZ2": 12, "kZ6": 36, "kS3": 36, "dual_kS3": 189, "sweedler": 12,
    "sweedler_f3": 12, "taft9": 18, "taft9_f7": 18, "taft16": 24,
    "restricted2": 6, "restricted3": 6, "restricted5": 6,
    "tensor_kZ2_kZ3": 36, "tensor_sweedler_kZ2_f3": 24}


@pytest.mark.parametrize("stem, build", golden_objects(),
                         ids=[stem for stem, _ in golden_objects()])
def test_simples_are_sorted_without_boxing_their_rows(stem, build,
                                                      monkeypatch):
    h = build()
    made = []
    original = Scalar.__init__

    def counted(self, field, val):
        made.append(val)
        original(self, field, val)

    with monkeypatch.context() as m:
        m.setattr(Scalar, "__init__", counted)
        simples = h.simple_subcoalgebras()
    assert len(made) <= SIMPLES_SCALARS_BEFORE[stem]
    assert all(c.subspace._rows is None for c in simples)
    # the order is the one the text of the boxed rows gives
    for obj in (h, rescaled_coalgebra(h, basis_scales(h.field, h.dim, 5))):
        keys = [(c.subspace.dim, tuple(str(x) for row in c.subspace.rows
                                       for x in row))
                for c in obj.simple_subcoalgebras()]
        assert keys == sorted(keys)


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


def test_block_rows_that_do_not_fill_the_dual_raise_invariant_violation(
        monkeypatch):
    # a repeated block: J and the blocks are no basis of H*
    original = FiniteAlgebra.split_commutative

    def repeated(self):
        pool = original(self)
        return [pool[0]] + pool[:-1]

    monkeypatch.setattr(FiniteAlgebra, "split_commutative", repeated)
    with pytest.raises(InvariantViolation, match="dimension mismatch"):
        group_algebra(cyclic(6), QQ).simple_subcoalgebras()


def test_simples_off_the_coradical_raise_invariant_violation():
    h = sweedler(QQ)
    analysis = h.analysis()
    analysis.filtration[0] = SubspaceBasis.full(QQ, h.dim)
    with pytest.raises(InvariantViolation, match="sum to the coradical"):
        analysis.simples()


def test_overlapping_idempotents_raise_invariant_violation(monkeypatch):
    monkeypatch.setattr(FiniteAlgebra, "lift_idempotent",
                        lambda self, v: as_raw(self, self.unit))
    with pytest.raises(InvariantViolation, match="not orthogonal"):
        sweedler(QQ).coradical_idempotents()


def reference_simple_subspaces(h):
    """Each simple as the perp of J and the lifted blocks of the others."""
    analysis = h.analysis()
    lifted = [[as_boxed(h, analysis.quotient.lift(b)) for b in c.block_rows]
              for c in analysis.simples()]
    out = []
    for t in range(len(lifted)):
        rows = list(analysis.radical.rows)
        for s, block in enumerate(lifted):
            if s != t:
                rows.extend(block)
        out.append(SubspaceBasis(h.field, h.dim, rows).perp())
    return out


def reference_orthogonal(h):
    """e_C e_D = 0 for every pair C != D, product by product."""
    dual = h.dual_algebra()
    return all(vec_is_zero(dual.mult(f, g))
               for f, g in itertools.permutations(h.coradical_idempotents(), 2))


def test_simples_and_idempotents_match_the_pairwise_references(zoo):
    cases = dict(zoo)
    for name, field in LIFT_FIELDS:
        h = hopf_case(field)
        cases[f"rescaled {name}"] = rescaled_coalgebra(
            h, basis_scales(field, h.dim, 7))
    for stem, h in cases.items():
        assert [c.subspace for c in h.simple_subcoalgebras()] == \
            reference_simple_subspaces(h), stem
        assert reference_orthogonal(h), stem


def tensor_square_oracle(h, space):
    """Delta(space) inside space (x) space, asked in the dim^2 ambient."""
    target = tensor_square_subspace(space, space)
    return all(target.contains_raw(as_raw(target, t2_flatten(
        h.field, delta_vec(h, r), h.dim))) for r in space.rows)


def test_is_subcoalgebra_matches_the_tensor_square_oracle(zoo):
    seen = set()
    for stem, h in zoo.items():
        filt = h.coradical_filtration()
        spaces = list(filt) + [c.subspace for c in h.simple_subcoalgebras()]
        # the positive part of H_1 is not a subcoalgebra on these inputs
        spaces.append(filt[min(1, len(filt) - 1)].cut(
            as_raw(h, h.counit).items()))
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


def test_a_left_coideal_is_rejected_only_by_the_pivot_rows(zoo):
    # span{g, x}: Delta x = x (x) 1 + g (x) x has its columns x and g in
    # the span, so Delta maps it into V (x) H; only the row of Delta x at
    # the pivot x, which is 1, leaves V
    h = zoo["sweedler"]
    g, x = (unit_vec(QQ, h.dim, h.index_of(n)) for n in ("g", "x"))
    space = SubspaceBasis(QQ, h.dim, [g, x])
    for row in space.raw:
        columns, _ = tensor_legs(h._delta_raw(row))
        assert all(space.contains_raw(leg) for leg in columns.values())
    _, rows = tensor_legs(h._delta_raw(space.raw[1]))
    assert not space.contains_raw(rows[h.index_of("x")])
    assert not tensor_square_oracle(h, space)
    assert not h.is_subcoalgebra(space)


@pytest.mark.parametrize("shift, field, error", [
    (-1, QQ, ShapeMismatch), (1, QQ, ShapeMismatch), (2, QQ, ShapeMismatch),
    (0, GF(3), FieldMismatch)], ids=["dim-1", "dim+1", "dim+2", "F_3"])
def test_subspaces_of_another_ambient_or_field_are_rejected(zoo, shift, field,
                                                            error):
    # each was once accepted (a verdict or a 0-dimensional quotient) or
    # failed with a bare KeyError or IndexError
    h = zoo["sweedler"]
    dual = h.dual_algebra()
    space = SubspaceBasis.full(field, h.dim + shift)
    with pytest.raises(error):
        h.is_subcoalgebra(space)
    with pytest.raises(error):
        dual.quotient(space)
    with pytest.raises(error):
        dual.subalgebra_on(space)
    with pytest.raises(error):
        h.bicomponent_subspace(0, 1, within=space)


def test_bicomponent_decomposition_of_degree_one(zoo):
    h = zoo["sweedler"]
    x = h.basis_element(h.index_of("x")).vec
    parts = bicomponent_decomposition_vec(h, x)
    nonzero = {key: v for key, v in parts.items() if not vec_is_zero(v)}
    assert len(nonzero) == 1
    (left, right), comp = next(iter(nonzero.items()))
    assert comp == x
    assert left != right  # x sits across the two group-like simples
    # membership: x lies in the (left, right) bicomponent of H_1
    sub = h.bicomponent_subspace(left, right)
    assert sub.contains_raw(as_raw(h, x))


def test_bicomponents_sum_back(zoo):
    for stem in ("sweedler", "taft9", "restricted3", "dual_kS3"):
        h = zoo[stem]
        h1 = h.coradical_filtration()[min(1, h.analysis().depth)]
        for row in h1.rows:
            parts = bicomponent_decomposition_vec(h, row)
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
    lr = hit_right(h, hit_left(h, e0, x), e1)
    rl = hit_left(h, e0, hit_right(h, x, e1))
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
                g = as_boxed(h, comp.grouplike_raw)
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


def reference_is_grouplike(h, vec):
    """is_grouplike as it stood before it ran on raw values."""
    return h.counit_vec(vec) == h.field.one() and \
        delta_vec(h, vec) == t2_from_pair(vec, vec)


def test_is_grouplike_matches_the_t2_from_pair_reference(zoo):
    for stem, h in zoo.items():
        basis = [h.basis_element(i).vec for i in range(h.dim)]
        grouplikes = [g.vec for g in h.group_likes()]
        vecs = basis + grouplikes + [zero_vec(h.field, h.dim)]
        for g in grouplikes:
            vecs.append(tuple(c + c for c in g))
            vecs.extend(vec_add(g, x) for x in basis)
        seen = {h.is_grouplike(v) for v in vecs}
        assert seen == {True, False}, stem
        for v in vecs:
            assert h.is_grouplike(v) == reference_is_grouplike(h, v), (stem, v)
        for bad in (basis[0][:-1], basis[0] + (h.field.zero(),)):
            with pytest.raises(ShapeMismatch):
                h.is_grouplike(bad)


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
        got = delta_vec(coalg, v)
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
            got_l, got_r = hit_left(coalg, f, v), hit_right(coalg, v, f)
            assert got_l == reference_hit(coalg, f, v, 1)
            assert got_r == reference_hit(coalg, f, v, 0)
            assert all(is_canonical(field, c.val) for c in got_l + got_r)
    # components from the family's functionals, lifted once
    fam = coalg.coradical_idempotents()
    for v in vecs:
        for c, d in itertools.product(range(len(fam)), repeat=2):
            left = reference_hit(coalg, fam.functional(c), v, 0)
            assert component(coalg, v, left=c, right=d) == \
                reference_hit(coalg, fam.functional(d), left, 1)
    # eps acts as the identity from both sides
    for v in vecs:
        assert hit_left(coalg, coalg.counit, v) == v
        assert hit_right(coalg, v, coalg.counit) == v


def test_component_lifts_each_idempotent_functional_once(monkeypatch):
    h = rescaled_coalgebra(hopf_case(QQ), basis_scales(QQ, 6, 7))
    fam = h.coradical_idempotents()
    lifted = []
    original = hopfex.coalgebra.lift_functionals

    def counted(field, functionals):
        functionals = list(functionals)
        lifted.extend(functionals)
        return original(field, functionals)

    monkeypatch.setattr(hopfex.coalgebra, "lift_functionals", counted)
    pairs = list(itertools.product(range(len(fam)), repeat=2))
    for _ in range(3):
        for i, (c, d) in itertools.product(range(h.dim), pairs):
            component(h, unit_vec(QQ, h.dim, i), left=c, right=d)
    assert len(lifted) == len(fam) and set(lifted) == set(fam.raw)


def extend_results():
    """The results of the four extensions of the benchmark's extend
    workload: x^n in the (g^n, 1) bicomponent of taft9 over Q(zeta_3) and
    over F_7 and of restricted5 at degree 2, of taft16 over Q(zeta_4) at
    degree 3."""
    from hopfex.extension import extend_coalgebra
    out = []
    for h, n in ((taft(3, FieldSpec(0, cyclotomic_order=3)), 2),
                 (taft(3, GF(7)), 2), (restricted_poly(5), 2),
                 (taft(4, FieldSpec(0, cyclotomic_order=4)), 3)):
        g = h.unit
        if "g" in h.names:
            g = h.power_vec(h.basis_element(h.index_of("g")).vec, n)
        z = h.basis_element(h.index_of(f"x^{n}"))
        out.append(extend_coalgebra(h, h.element(g), h.one(), z, n).result)
    return out


def test_bicomponent_table_equals_the_two_hit_passes(zoo):
    pointed = [h for h in zoo.values() if h.is_pointed()]
    for coalg in pointed + extend_results():
        field, ops = coalg.field, coalg.field.ops
        fam = coalg.coradical_idempotents()
        hits = [hopfex.coalgebra.lift_functionals(field, [f])
                for f in fam.raw]
        rng = random.Random(coalg.dim)
        vecs = [[(i, ops.one)] for i in range(coalg.dim)] + [
            read_vector(field, coalg.dim,
                        fraction_vector(field, rng, coalg.dim))]
        for v in vecs:
            for c in range(len(fam)):
                left = coalg._hit(v, hits[c], 0)[0]
                for d in range(len(fam)):
                    assert coalg._component_raw(v, c, d) == \
                        coalg._hit(left.items(), hits[d], 1)[0]
    h = pointed[0]
    n = len(h.coradical_idempotents())
    for left, right in ((n, 0), (0, n), (-1, 0), (0, -1)):
        with pytest.raises(UnknownSimple, match="no simple subcoalgebra"):
            h._component_raw([(0, 1)], left, right)


# the six inputs of the coradical benchmark, the dense one re-based
CORADICAL_INPUTS = [
    lambda: taft(5, FieldSpec(0, cyclotomic_order=5)),
    lambda: group_algebra(cyclic(12), QQ),
    lambda: group_algebra(cyclic(12), GF(13)),
    lambda: tensor_product(sweedler(GF(3)), group_algebra(cyclic(3), GF(3))),
    lambda: taft(3, GF(2, modulus=[1, 1, 1])),
    lambda: rebased_coalgebra(tensor_product(
        group_algebra(cyclic(2), QQ), dual_group_algebra(symmetric(3), QQ)), 7),
]


def formatted_dense_key(comp):
    """The order the simples were sorted by when every entry of every
    dense row was formatted, zeros included."""
    field, sub = comp.subspace.field, comp.subspace
    return sub.dim, tuple(field.format_raw(x) for row in sub.raw
                          for x in dense_raw(field.ops, sub.ambient, row))


def test_simples_keep_the_order_of_the_fully_formatted_key(zoo):
    # formatting only the nonzero entries sorts the simples as before; the
    # keys of distinct subspaces differ, so the order is determined.  On
    # the re-based cyclic group algebras the zeros sit beside negative
    # entries, where the text of zero decides the order
    objs = list(zoo.values()) + [make() for make in CORADICAL_INPUTS] + [
        rebased_coalgebra(group_algebra(cyclic(n), QQ), seed)
        for n in (3, 4, 6) for seed in (0, 1)]
    for h in objs:
        simples = h.simple_subcoalgebras()
        assert sorted(simples, key=formatted_dense_key) == simples, h.name
        assert len({formatted_dense_key(c) for c in simples}) == len(simples)


# -- elements on raw values ---------------------------------------------------

def test_vectors_are_coerced_once_at_the_edge():
    h = sweedler(QQ)
    one, g = h.basis_element(0), h.basis_element(1)
    unit = one.vec
    # an index outside the basis is an error, not the zero element
    for i in (99, 4, -1):
        with pytest.raises(AxiomViolation, match="basis element index"):
            h.basis_element(i)
    # every entry point that takes a vector reads it as Element(h, v)
    # does (read_vector): the boxed products, matrix and text, a span and
    # a row reduction, which reads its rows at the length of the first
    takers = [lambda v: Element(h, v), h.element, h.counit_vec,
              h.is_grouplike, h.subcoalgebra_support, h.antipode_vec,
              lambda v: h.hopf_order(v, 4), lambda v: h.hopf_power(v, 2),
              h.grouplike_order, lambda v: MatrixOverH(h, [[v]]),
              lambda v: h.algebra.mult(v, unit),
              lambda v: h.algebra.power(v, 2), lambda v: h.power_vec(v, 2),
              h.algebra.left_mult_mat, h.format_element,
              lambda v: SubspaceBasis(QQ, 4, [v]),
              lambda v: rref_rows(QQ, [unit, v])]
    # a vector of the wrong length fails wherever a vector is taken
    for vec in ((1, 0), (1, 0, 0, 0, 0), ()):
        for take in takers:
            with pytest.raises(ShapeMismatch) as err:
                take(vec)
            assert str(err.value) == f"vector lengths 4 vs {len(vec)}"
    # a float or a str is a TypeError, a Scalar of another field a
    # FieldMismatch, wherever a vector is taken
    bad = [((1.0, 0, 0, 0), TypeError), (("1", 0, 0, 0), TypeError),
           ((GF(5).one(), 0, 0, 0), FieldMismatch)]
    for vec, error in bad:
        for take in takers:
            with pytest.raises(error):
                take(vec)

    def outcome(take, vec):
        try:
            return take(vec)
        except HopfexError as exc:
            return type(exc), str(exc)

    # ints and Fractions are accepted everywhere a vector is, with the
    # result, or the hopfex error, of the vector of Scalars
    for vec in ((1, 0, 0, 0), (Fraction(2, 2), 0, 0, 0),
                (0, 2, Fraction(-1, 3), 1)):
        boxed = Element(h, vec).vec
        for take in takers:
            assert outcome(take, vec) == outcome(take, boxed)
    for vec in ((1, 0, 0, 0), (Fraction(2, 2), 0, 0, 0)):
        assert Element(h, vec) == h.element(vec) == one
        assert Element(h, vec).eps() == QQ.one() == h.counit_vec(vec)
        assert h.is_grouplike(vec) and h.hopf_order(vec) == 1
        assert h.grouplike_order(vec) == 1
        assert h.hopf_power(vec, 3) == unit
        assert h.antipode_vec(vec) == unit
        assert h.subcoalgebra_support(vec) == [0]
        assert MatrixOverH(h, [[vec]]).element(0, 0) == one
        assert h.algebra.mult(vec, vec) == h.power_vec(vec, 2) == unit
        assert h.format_element(vec) == "1"
        assert rref_rows(QQ, [vec]) == ([unit], [0])
    assert h.grouplike_order((0, 1, 0, 0)) == 2 == h.grouplike_order(g)
    half = (Fraction(1, 2), 0, Fraction(-3, 4), 0)
    assert Element(h, half).raw == ((0, Fraction(1, 2)), (2, Fraction(-3, 4)))
    assert h.element({"1": Fraction(1, 2), "x": Fraction(-3, 4),
                      "g": 0}) == Element(h, half)
    # an Element of another coalgebra is not read as this one's
    with pytest.raises(FieldMismatch):
        h.hopf_order(sweedler(QQ).basis_element(0))


@pytest.mark.parametrize("stem", [stem for stem, _ in golden_objects()])
def test_elements_match_the_boxed_reference(zoo, stem):
    # Element runs on raw pairs; the vec_* helpers, the dense product and
    # the Scalar loops of delta, eps and format are the reference
    h = zoo[stem]
    field = h.field
    rng = random.Random(f"elements {stem}")
    vecs = [fraction_vector(field, rng, h.dim) for _ in range(3)] + [
        zero_vec(field, h.dim), h.unit, unit_vec(field, h.dim,
                                                 rng.randrange(h.dim))]
    scalars = [3, -1, 0, Fraction(4, 11), fraction_scalar(field, rng)]
    if field.modulus:
        scalars.append(field.gen())
    for u in vecs:
        a = Element(h, u)
        assert a.vec == u and a.raw == read_vector(field, h.dim, u)
        assert a == Element.of_raw(h, dict(a.raw)) == h.element(a)
        assert hash(a) == hash(Element.of_raw(h, a.raw))
        assert a.is_zero() == vec_is_zero(u)
        assert (-a).vec == vec_scale(-field.one(), u)
        assert a.eps() == vec_dot(u, h.counit)
        assert a.delta() == reference_delta_vec(h, u)
        assert repr(a) == reference_format(h, u) == h.format_element(u)
        for c in scalars:
            s = c if isinstance(c, Scalar) else field.from_fraction(
                Fraction(c))
            assert (a * c).vec == vec_scale(s, u) == (c * a).vec
        power = h.unit
        for n in range(4):
            assert (a ** n).vec == power, (stem, n)
            power = reference_mult(h.algebra, power, u)
        for v in vecs:
            b = Element(h, v)
            assert (a + b).vec == vec_add(u, v)
            assert (a - b).vec == vec_sub(u, v)
            assert (a * b).vec == reference_mult(h.algebra, u, v)
            assert (a == b) == (u == v)
            assert (hash(a) == hash(b)) or u != v
            for e in (a + b, a - b, a * b):
                assert [i for i, _ in e.raw] == sorted({i for i, _ in e.raw})
                assert not any(field.ops.is_zero(x) for _, x in e.raw)


def counted_scalars(monkeypatch) -> list:
    """The values of the Scalars made from now on, in order."""
    made, init = [], Scalar.__init__

    def counted(self, field, val):
        made.append(val)
        init(self, field, val)

    monkeypatch.setattr(Scalar, "__init__", counted)
    return made


def test_raw_elements_and_idempotents_make_no_scalar(monkeypatch):
    # the coradical idempotents, the extension's z, g and h, the Hopf
    # orders and the integrals are held raw, and boxed only when read
    f3, q3, q4 = GF(3), FieldSpec(0, cyclotomic_order=3), \
        FieldSpec(0, cyclotomic_order=4)
    coradical = [
        taft(5, FieldSpec(0, cyclotomic_order=5)),
        group_algebra(cyclic(12), QQ), group_algebra(cyclic(12), GF(13)),
        tensor_product(sweedler(f3), group_algebra(cyclic(3), f3)),
        taft(3, GF(2, modulus=[1, 1, 1])),
        tensor_product(group_algebra(cyclic(2), QQ),
                       dual_group_algebra(symmetric(3), QQ))]
    # the benchmark runs the last one on a dense, re-based basis
    coradical.append(rebased_coalgebra(coradical[-1], 7))
    extensions = []
    for h, n in ((taft(3, q3), 2), (taft(4, q4), 3)):
        g = h.element(h.power_vec(h.basis_element(1).vec, n))
        extensions.append((h, g, h.one(),
                           h.basis_element(h.index_of(f"x^{n}")), n))
    taft16, kz12 = taft(4, q4), group_algebra(cyclic(12), QQ)
    orders = [(taft16, taft16.basis_element(1) + taft16.basis_element(2)),
              (taft16, taft16.basis_element(taft16.index_of("x"))),
              (kz12, kz12.basis_element(5).vec)]
    made = counted_scalars(monkeypatch)
    for h in coradical:
        h.coradical_idempotents()
    assert made == []
    for h, g, one, z, n in extensions:
        ext = extend_coalgebra(h, g, one, z, n)
        assert ext.designated_sum() == ext.z
    assert made == []
    for h, el in orders:
        h.hopf_order(el, 64)
    for h in (taft16, kz12):
        assert h.integral_trace().element == h.integral_dual_basis().element
    assert made == []
