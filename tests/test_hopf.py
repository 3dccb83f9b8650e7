"""Hopf layer: powers, exponents, the order classifier, integrals."""

import copy
import itertools
import random
from fractions import Fraction

import pytest

import hopfex.hopf
from hopfex import GF, QQ, Coalgebra, FieldSpec
from hopfex.algebra import FiniteAlgebra
from hopfex.cli import run_command
from hopfex.errors import (AxiomViolation, DivisionByZero, FieldMismatch,
                           HopfError, InvariantViolation, NotCosemisimple,
                           ShapeMismatch)
from hopfex.hopf import Element, ExponentReport, HopfAlgebra, default_cap
from hopfex.linalg import Mat, SubspaceBasis
from hopfex.poly import MinPolySearch, min_poly_of_powers, powers_mod
from hopfex.scalars import Scalar, box, read_vector
from hopfex.structfile import (StructureFile, emit_structure_file,
                               structure_from_object)
from hopfex.zoo import (cyclic, dual_group_algebra, group_algebra,
                        restricted_poly, sweedler, symmetric, taft,
                        tensor_product)

from golden_defs import golden_objects
from lifting_cases import (F9, LIFT_FIELDS, QZ5, basis_scales, counit_unit_map,
                           delta_vec, dense_table, fraction_scalar,
                           fraction_vector, has_denominators, hit_left,
                           hopf_case, hopf_power_map, identity_map,
                           is_canonical, mul_vec, reference_coalgebra_check,
                           rescaled_hopf, rescaled_vector, scalar_constants,
                           t2_add_term, t2_from_pair, tensor_mult, unit_vec,
                           vec_add, vec_dot, vec_scale, zero_vec)


def test_hopf_axioms_pass_on_zoo(zoo):
    for stem, obj in zoo.items():
        assert obj.check_hopf() == [], stem


def test_antipode_indices_out_of_range_are_rejected():
    # Sweedler with the term (3, 2) of S moved to an index outside 0..3:
    # a negative one must not wrap round to S(e_3), nor a large one raise
    # a bare IndexError
    h = sweedler(QQ)
    flat = {(i, m): c for i, col in h.antipode_raw.items()
            for m, c in col.items()}
    assert (3, 2) in flat
    for bad in ((-1, 2), (9, 2), (3, 4)):
        antipode = dict(flat)
        antipode[bad] = antipode.pop((3, 2))
        with pytest.raises(AxiomViolation, match="antipode index"):
            HopfAlgebra(QQ, h.names, boxed_comul(h), h.counit,
                        h.algebra.raw_constants(), h.unit, antipode)


def test_antipode_is_convolution_inverse(zoo):
    for stem, obj in zoo.items():
        s = obj.antipode_mat
        ue = counit_unit_map(obj)
        assert obj.convolution(s, identity_map(obj)) == ue, stem
        assert obj.convolution(identity_map(obj), s) == ue, stem


def test_involutory_flags(zoo):
    assert zoo["kZ6"].involutory()
    assert zoo["dual_kS3"].involutory()
    assert zoo["restricted3"].involutory()
    assert not zoo["sweedler"].involutory()
    assert not zoo["taft9"].involutory()


def test_hopf_power_low_cases(zoo):
    h = zoo["sweedler"]
    for i in range(h.dim):
        v = h.basis_element(i)
        assert h.hopf_power(v, 1) == v
        assert h.hopf_power(v, 0) == v.eps() * h.one()


def test_hopf_power_maps_compose_by_convolution(zoo):
    for stem in ("kS3", "sweedler", "taft9", "restricted3"):
        h = zoo[stem]
        maps = [hopf_power_map(h, n) for n in range(9)]
        for m in range(5):
            for n in range(5):
                assert h.convolution(maps[m], maps[n]) == maps[m + n], stem


def test_hopf_power_of_grouplike_is_ordinary_power(zoo):
    h = zoo["kS3"]
    for g in h.group_likes():
        for n in range(1, 7):
            assert h.hopf_power(g, n) == g ** n


def test_group_algebra_exponents():
    cases = [(cyclic(2), 2), (cyclic(6), 6), (symmetric(3), 6)]
    for grp, want in cases:
        h = group_algebra(grp, QQ)
        rep = h.exponent()
        assert rep.kind == "finite" and rep.n == want
        # directly: [want] is the counit-unit map, no smaller power is
        ue = counit_unit_map(h)
        assert hopf_power_map(h, want) == ue
        for n in range(1, want):
            assert hopf_power_map(h, n) != ue


def test_dual_group_algebra_exponent_matches_group(zoo):
    rep = zoo["dual_kS3"].exponent()
    assert rep.kind == "finite" and rep.n == 6


def test_tensor_product_exponent_is_lcm(zoo):
    rep = zoo["tensor_kZ2_kZ3"].exponent()
    assert rep.kind == "finite" and rep.n == 6


def test_restricted_poly_exponent_is_p():
    for p in (2, 3, 5):
        h = restricted_poly(p)
        rep = h.exponent()
        assert rep.kind == "finite" and rep.n == p
        x = h.basis_element(1)
        # the primitive generator has Hopf powers n*x, exactly
        for n in range(2 * p):
            assert h.hopf_power(x, n) == h.field.from_int(n) * x


def test_char_zero_infinite_order_classifier(zoo):
    for stem in ("sweedler", "taft9"):
        h = zoo[stem]
        rep = h.classify_exponent()
        assert rep.kind == "provably_infinite", stem
        assert rep.criterion
        w = h.element(rep.witness)
        ue = vec_scale(w.eps(), h.one().vec)
        acc = identity_map(h)
        for n in range(1, 201):
            assert acc.apply(w.vec) != ue, (stem, n)
            acc = h.convolution(acc, identity_map(h))


def test_plain_exponent_iteration_exceeds_cap(zoo):
    rep = zoo["sweedler"].exponent(cap=50)
    assert rep.kind == "exceeds_cap" and rep.cap == 50


def test_char_p_classifier_bounds():
    h = sweedler(GF(3))
    rep = h.classify_exponent()
    assert rep.kind == "bounded"
    assert rep.bound == 6  # lcm of group-like orders times p^(e+1) = 2*3
    assert rep.n is not None and rep.n <= 6
    assert hopf_power_map(h, rep.n) == counit_unit_map(h)

    t = taft(3, GF(7))
    rep = t.classify_exponent()
    assert rep.kind == "bounded"
    assert rep.bound == 21  # d = 3 group-like order, depth 2 < 7, so 3*7
    assert rep.n is not None and rep.n <= 21
    assert hopf_power_map(t, rep.n) == counit_unit_map(t)
    for n in range(1, rep.n):
        assert hopf_power_map(t, n) != counit_unit_map(t)


def test_exponent_outcome_stable_under_field_extension():
    h = sweedler(GF(3))
    big = GF(3, modulus=[1, 0, 1])  # t^2 + 1 is irreducible mod 3
    h2 = h.extend_scalars(big)
    assert h2.check_hopf() == []
    r1, r2 = h.classify_exponent(), h2.classify_exponent()
    assert (r1.kind, r1.n) == (r2.kind, r2.n)

    k = group_algebra(symmetric(3), QQ)
    k2 = k.extend_scalars(FieldSpec(0, cyclotomic_order=4))
    assert k.exponent().n == k2.exponent().n


def test_hopf_order_of_elements(zoo):
    h = zoo["sweedler"]
    g = h.basis_element(h.index_of("g"))
    x = h.basis_element(h.index_of("x"))
    assert h.hopf_order(g) == 2
    assert h.hopf_order(h.one()) == 1
    assert h.hopf_order(x, cap=100) is None
    assert h.grouplike_order(g) == 2
    assert zoo["taft9"].grouplike_order(
        zoo["taft9"].basis_element(1)) == 3


def reference_grouplike_order(h, vec, bound=1000):
    """The least n with vec^n = 1, from boxed powers, or None."""
    return next((n for n in range(1, bound + 1)
                 if h.power_vec(vec, n) == h.unit), None)


def test_grouplike_order_checks_its_input_before_any_product(zoo,
                                                             monkeypatch):
    # a vector that is not group-like is bad input: HopfError at once,
    # with no product formed
    h = zoo["sweedler"]
    products = []
    product = FiniteAlgebra._product

    def counted(self, *args):
        products.append(1)
        return product(self, *args)

    monkeypatch.setattr(FiniteAlgebra, "_product", counted)
    x, one = h.basis_element(h.index_of("x")), h.one()
    for vec in (x, one * 2, one + x, h.zero()):
        with pytest.raises(HopfError, match="not group-like"):
            h.grouplike_order(vec)
    assert products == []
    assert h.grouplike_order(one) == 1 and products == []


def test_grouplike_order_stops_after_dim_powers():
    # z is group-like with z^2 = z: no power is 1, so z has no inverse;
    # with the identity as antipode that contradicts the antipode
    z = (0, 1)
    with pytest.raises(HopfError, match="no inverse") as err:
        idempotent_monoid().grouplike_order(z)
    assert type(err.value) is HopfError
    with pytest.raises(InvariantViolation, match="has no power equal to 1"):
        idempotent_monoid({(0, 0): 1, (1, 1): 1}).grouplike_order(z)
    assert idempotent_monoid().grouplike_order((1, 0)) == 1


def test_grouplike_orders_of_the_goldens(zoo):
    # the order of every group-like of every golden is that of its boxed
    # powers, which reach 1 within dim steps
    seen = 0
    for stem, h in zoo.items():
        if not isinstance(h, HopfAlgebra):
            continue
        for g in h.group_likes():
            n = h.grouplike_order(g)
            assert n == reference_grouplike_order(h, g.vec) <= h.dim, stem
            seen += 1
    assert seen > len(zoo)


def test_integral_trace_equals_dual_basis_form(zoo):
    for stem, obj in zoo.items():
        a = obj.integral_trace()
        b = obj.integral_dual_basis()
        assert a.element == b.element, stem


def test_integral_dual_basis_matches_the_hit_reference(zoo):
    # Lambda = sum e_i* harpoon-> e_i, one hit_left per basis vector, on
    # the goldens and on Hopf algebras rescaled to carry denominators
    cases = list(zoo.items()) + [
        (name, rescaled_hopf(hopf_case(field), basis_scales(
            field, hopf_case(field).dim, 11))) for name, field in LIFT_FIELDS]
    for stem, h in cases:
        acc = zero_vec(h.field, h.dim)
        for i in range(h.dim):
            f = unit_vec(h.field, h.dim, i)
            acc = vec_add(acc, hit_left(h, f, f))
        got = h.integral_dual_basis().element.vec
        assert got == acc, stem
        assert all(is_canonical(h.field, c.val) for c in got), stem


def test_integral_left_invariance_when_involutory(zoo):
    for stem, obj in zoo.items():
        res = obj.integral_trace()
        assert res.asserted == obj.involutory(), stem
        if not obj.involutory():
            continue
        lam = res.element.vec
        for i in range(obj.dim):
            e = obj.basis_element(i)
            lhs = mul_vec(obj, e.vec, lam)
            assert lhs == vec_scale(e.eps(), lam), (stem, i)


def test_group_algebra_integral_is_group_sum():
    h = group_algebra(symmetric(3), QQ)
    lam = h.integral_trace().element
    total = h.zero()
    for i in range(h.dim):
        total = total + h.basis_element(i)
    # the trace form returns a scalar multiple of the full group sum
    coeff = lam.vec[0]
    assert not coeff.is_zero()
    assert lam == coeff * total


def test_cosemisimple_integral_decomposition(zoo):
    for stem in ("kZ2", "kZ6", "kS3", "dual_kS3", "tensor_kZ2_kZ3"):
        h = zoo[stem]
        dec = h.cosemisimple_integral_decomposition()
        rebuilt = h.one()
        for idx, r, trace in dec.terms:
            assert idx != dec.unit_component and r >= 1
            rebuilt = rebuilt + h.field.from_int(r) * trace
        assert rebuilt == dec.element, stem
        assert dec.element == h.integral_dual_basis().element, stem
    with pytest.raises(NotCosemisimple):
        zoo["sweedler"].cosemisimple_integral_decomposition()


def test_chevalley_property(zoo):
    # coradicals of these are spanned by group-likes closed under product
    assert zoo["sweedler"].chevalley_check()
    assert zoo["taft9"].chevalley_check()
    assert zoo["kS3"].chevalley_check()


def test_power_vec_is_associative_powering(zoo):
    h = zoo["taft9"]
    x = h.basis_element(h.index_of("x"))
    assert h.element(h.power_vec(x.vec, 3)).is_zero()  # x^3 = 0 in T_9
    g = h.basis_element(1)
    assert h.element(h.power_vec(g.vec, 3)) == h.one()


def test_negative_power_vec_raises(monkeypatch):
    # -1 >> 1 == -1: a loop on n >>= 1 never ends, so the square-and-multiply
    # is stopped after more products than any power below 2^32 needs
    h = sweedler(QQ)
    g = h.basis_element(h.index_of("g")).vec
    mult, calls = FiniteAlgebra.mult, []

    def bounded(self, u, v):
        calls.append(1)
        if len(calls) > 64:
            raise RuntimeError("power did not stop")
        return mult(self, u, v)

    monkeypatch.setattr(FiniteAlgebra, "mult", bounded)
    for n in (-1, -2, -7):
        with pytest.raises(ValueError, match="negative power"):
            h.power_vec(g, n)
    assert calls == []
    assert h.power_vec(g, 0) == h.unit
    assert h.power_vec(g, 2) == h.unit


# -- the exponent in k[id] = k[x]/(mu) against the loop on matrices ---------

def reference_exponent(h, cap: int) -> ExponentReport:
    """Iterate [n] as exact matrices until u o eps, a repeat, or the cap.

    One convolution per power: the exponent loop as it stood before it
    moved into k[x]/(mu), kept as the oracle for HopfAlgebra.exponent.
    """
    ueps = counit_unit_map(h)
    ident = identity_map(h)
    m = ident
    seen: dict = {}
    steps = [f"iterating convolution powers of id up to cap {cap}"]
    for n in range(1, cap + 1):
        if m == ueps:
            steps.append(f"power {n} equals the unit of convolution")
            return ExponentReport("finite", n=n, cap=cap, steps=steps)
        if m in seen:
            assert h.antipode_mat is None
            steps.append(f"power {n} repeats power {seen[m]} without "
                         "reaching the convolution unit; no exponent exists")
            return ExponentReport("exceeds_cap", cap=cap, steps=steps)
        if len(seen) < 4096:
            seen[m] = n
        m = h.convolution(m, ident)
    steps.append(f"no power up to {cap} equals the convolution unit")
    return ExponentReport("exceeds_cap", cap=cap, steps=steps)


def outcome(rep: ExponentReport):
    return rep.kind, rep.n, rep.cap, rep.steps


def idempotent_monoid(antipode=None):
    """The bialgebra k{1, z} with z^2 = z and Delta z = z (x) z; no
    antipode unless one is given."""
    return HopfAlgebra(QQ, ["1", "z"], {(0, 0, 0): 1, (1, 1, 1): 1}, [1, 1],
                       {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                        (1, 1, 1): 1}, [1, 0], antipode, name="monoid")


def nilpotent_monoid():
    """The bialgebra k{1, a, z} with a^2 = z absorbing and every basis
    element group-like: [3] = [2] != [1], so mu = x^2 (x - 1), a repeated
    factor with mu(0) = 0."""
    mul = {(0, j, j): 1 for j in range(3)}
    mul.update({(1, 0, 1): 1, (2, 0, 2): 1, (1, 1, 2): 1, (1, 2, 2): 1,
                (2, 1, 2): 1, (2, 2, 2): 1})
    return HopfAlgebra(QQ, ["1", "a", "z"], {(i, i, i): 1 for i in range(3)},
                       [1, 1, 1], mul, [1, 0, 0], name="nilmonoid")


# the goldens, and three of them on a basis with denominators
EXPONENT_CASES = [stem for stem, _ in golden_objects()] + [
    f"{stem} rescaled" for stem in ("sweedler", "taft9", "taft16")]


def exponent_case(zoo, case):
    stem, _, rescaled = case.partition(" ")
    h = zoo[stem]
    return rescaled_hopf(h, basis_scales(h.field, h.dim, 11)) if rescaled \
        else h


def test_exponent_matches_matrix_loop_on_goldens(zoo):
    for case in EXPONENT_CASES:
        h = exponent_case(zoo, case)
        for cap in (1, 2, 5, 32):
            assert str(h.exponent(cap)) == str(reference_exponent(h, cap)), \
                (case, cap)


REFERENCE_REPORTS: dict = {}


def cached_reference_exponent(case, h, cap):
    """reference_exponent(h, cap), iterated once per (case, cap): the
    matrix loop runs 1024 convolutions on taft16."""
    if (case, cap) not in REFERENCE_REPORTS:
        REFERENCE_REPORTS[case, cap] = reference_exponent(h, cap)
    return copy.deepcopy(REFERENCE_REPORTS[case, cap])


@pytest.mark.parametrize("case", EXPONENT_CASES)
def test_exponent_matches_matrix_loop_at_the_default_cap(zoo, case):
    h = exponent_case(zoo, case)
    cap = default_cap(h.dim)
    want = str(cached_reference_exponent(case, h, cap))
    assert str(h.exponent()) == want
    assert str(h.exponent(cap)) == want


def reference_reports(monkeypatch, case, argvs):
    """The CLI's (code, text) for each argv, on the input named by case,
    with HopfAlgebra.exponent replaced by the matrix loop."""
    def exponent(self, cap=None):
        return cached_reference_exponent(
            case, self, default_cap(self.dim) if cap is None else cap)

    with monkeypatch.context() as m:
        m.setattr(HopfAlgebra, "exponent", exponent)
        return [run_command(argv) for argv in argvs]


@pytest.mark.parametrize("case", EXPONENT_CASES + [
    "sweedler --field-extend=-1/2,0,1"])
def test_exponent_reports_match_the_matrix_loop_in_the_cli(
        zoo, case, golden_dir, tmp_path, monkeypatch):
    # exponent and theorem-check, text and --json, byte for byte
    stem, _, flag = case.partition(" ")
    if flag == "rescaled":
        path = tmp_path / f"{stem}.hopf"
        path.write_text(emit_structure_file(structure_from_object(
            exponent_case(zoo, case))))
    else:
        path = golden_dir / f"{stem}.hopf"
    extra = [flag] if flag.startswith("--") else []
    argvs = [[cmd, str(path), *extra, *json_flag]
             for cmd in ("exponent", "theorem-check")
             for json_flag in ([], ["--json"])]
    got = [run_command(argv) for argv in argvs]
    assert got == reference_reports(monkeypatch, case, argvs)
    assert all(code == 0 for code, _ in got)


class ResidueLoop(Exception):
    """Raised in place of the residue loop x^n mod mu."""


def refuse_residue_loop(monkeypatch):
    def refuse(field, mu):
        raise ResidueLoop

    monkeypatch.setattr(hopfex.hopf, "powers_mod", refuse)


@pytest.mark.parametrize("stem", ["sweedler", "taft9", "taft16"])
def test_a_repeated_factor_of_mu_skips_the_residue_loop(zoo, stem,
                                                        monkeypatch):
    # char 0, mu(0) != 0 and gcd(mu, mu') != 1: the reports are decided
    # from mu, with or without the loop
    for h in (zoo[stem], exponent_case(zoo, f"{stem} rescaled")):
        want = [str(h.exponent()), str(h.exponent(7)),
                str(h.classify_exponent())]
        assert "kind='exceeds_cap'" in want[0]
        with monkeypatch.context() as m:
            refuse_residue_loop(m)
            assert [str(h.exponent()), str(h.exponent(7)),
                    str(h.classify_exponent())] == want


@pytest.mark.parametrize("case", ["restricted2", "sweedler_f3",
                                  "tensor_kZ2_kZ3", "monoid", "nilmonoid"])
def test_the_residue_loop_runs_unless_mu_proves_the_cap(zoo, case,
                                                       monkeypatch):
    # char p (a repeated factor, even mu' = 0, and a finite exponent),
    # a squarefree mu, and mu(0) = 0 on bialgebras whose id is not
    # convolution-invertible
    h = {"monoid": idempotent_monoid, "nilmonoid": nilpotent_monoid}.get(
        case, lambda: zoo[case])()
    refuse_residue_loop(monkeypatch)
    with pytest.raises(ResidueLoop):
        h.exponent()


def test_exponent_reports_a_repeat_through_a_repeated_factor_of_x():
    # mu = x^2 (x - 1): x is no unit, and [3] repeats [2]; a repeated
    # factor alone does not prove the cap
    h = nilpotent_monoid()
    rep = h.exponent(10)
    assert rep.steps[-1].startswith("power 3 repeats power 2 ")
    assert str(rep) == str(reference_exponent(h, 10))


# deg mu = 7 for taft16 over Q(zeta_4): caps on both sides of it
@pytest.mark.parametrize("cap", [1, 3, 6, 7, 8, 256])
def test_exponent_matches_matrix_loop_on_taft16(zoo, cap):
    h = zoo["taft16"]
    assert outcome(h.exponent(cap)) == outcome(reference_exponent(h, cap))


def test_exponent_reports_a_repeat_on_a_bialgebra():
    h = idempotent_monoid()
    rep = h.exponent(10)
    assert rep.kind == "exceeds_cap"
    assert rep.steps[-1].startswith("power 2 repeats power 1 ")
    assert outcome(rep) == outcome(reference_exponent(h, 10))


def test_exponent_repeat_on_a_hopf_algebra_is_an_invariant_violation():
    # the identity is not an antipode: S(z) z != 1
    h = idempotent_monoid({(0, 0): 1, (1, 1): 1})
    with pytest.raises(InvariantViolation, match="repeated without reaching"):
        h.exponent(10)


def test_exponent_requires_the_unit_law():
    # z as the unit: (u o eps) * id sends 1 to z, so [1] != R([0])
    h = HopfAlgebra(QQ, ["1", "z"], {(0, 0, 0): 1, (1, 1, 1): 1}, [1, 1],
                    {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 1): 1},
                    [0, 1])
    with pytest.raises(InvariantViolation):
        h.exponent(10)


def test_taft16_exponent_needs_at_most_deg_mu_convolutions(zoo, monkeypatch):
    h = zoo["taft16"]
    calls = []
    real = HopfAlgebra.convolution

    def counted(self, f, g):
        calls.append(1)
        return real(self, f, g)

    monkeypatch.setattr(HopfAlgebra, "convolution", counted)
    assert h.exponent(256).kind == "exceeds_cap"
    assert len(calls) <= 7


def test_min_poly_of_powers_stops_at_the_first_dependency(zoo):
    h = zoo["taft9"]
    x = h.basis_element(h.index_of("x")).vec
    g = h.basis_element(1).vec
    taken = []

    def powers():
        p = h.unit
        while True:
            taken.append(p)
            yield dict(read_vector(h.field, h.dim, p))
            p = mul_vec(h, p, mul_vec(h, g, x))

    mu = min_poly_of_powers(h.field, powers())
    # (g x)^3 = q^3 g^3 x^3 = 0 and (g x)^2 != 0 in T_9: mu = t^3
    assert mu == [h.field.ops.zero] * 3 + [h.field.ops.one]
    assert len(taken) == len(mu)
    # running out of powers before a dependency gives None
    assert min_poly_of_powers(h.field, itertools.islice(powers(), 3)) is None


# -- Hopf orders on the subcoalgebra an element spans ------------------------

def reference_hopf_order(h, vec, cap):
    """Least n <= cap with h^[n] = eps(h) 1 by one full convolution per power.

    hopf_order as it stood before it moved onto the subcoalgebra that h
    spans, kept as its oracle.
    """
    target = vec_scale(h.counit_vec(vec), h.unit)
    ident = identity_map(h)
    m = ident
    for n in range(1, cap + 1):
        if m.apply(vec) == target:
            return n
        m = h.convolution(m, ident)
    return None


def power_maps(h, last):
    """[0], [1], ..., [last] as matrices, one convolution each past [1]."""
    ident = identity_map(h)
    maps = [counit_unit_map(h), ident]
    while len(maps) <= last:
        maps.append(h.convolution(maps[-1], ident))
    return maps


def sample_vectors(h, seed):
    """The basis vectors of h and three seeded integer combinations."""
    rng = random.Random(seed)
    vecs = [h.basis_element(i).vec for i in range(h.dim)]
    for _ in range(3):
        vecs.append(tuple(h.field.from_int(rng.randint(-2, 2))
                          for _ in range(h.dim)))
    return vecs


def test_hopf_order_matches_the_convolution_loop_on_goldens(zoo):
    for stem, h in zoo.items():
        maps = power_maps(h, 12)
        for vec in sample_vectors(h, stem):
            target = vec_scale(h.counit_vec(vec), h.unit)
            # the reference loop's answer, read off maps shared by all vectors
            first = next((n for n in range(1, 13)
                          if maps[n].apply(vec) == target), None)
            for cap in (1, 3, 12):
                want = first if first is not None and first <= cap else None
                assert h.hopf_order(vec, cap) == want, (stem, vec, cap)


def taft16_elements(h):
    """Elements of taft16 of Hopf order 4, 2 and none (index b*4 + a is
    g^a x^b): sum c_a g^a has the lcm of the orders of its g^a, and a
    term in g^b x leaves no Hopf order in characteristic 0."""
    def vec(terms):
        return tuple(h.field.from_int(terms.get(i, 0)) for i in range(h.dim))
    return [(vec({1: 2, 2: 3}), 4), (vec({0: 1, 2: 2}), 2),
            (vec({0: 3, 3: 1, 6: -2}), None)]


def test_hopf_order_on_taft16_elements(zoo):
    h = zoo["taft16"]
    for vec, order in taft16_elements(h):
        assert h.hopf_order(vec, 64) == order
        assert reference_hopf_order(h, vec, 64) == order


def count_convolutions(monkeypatch):
    calls = []
    real = HopfAlgebra.convolution

    def counted(self, f, g):
        calls.append(1)
        return real(self, f, g)

    monkeypatch.setattr(HopfAlgebra, "convolution", counted)
    return calls


def test_hopf_order_makes_no_full_convolution(zoo, monkeypatch):
    h = zoo["taft16"]
    calls = count_convolutions(monkeypatch)
    vec, order = taft16_elements(h)[2]
    assert h.hopf_order(vec, 64) is order is None
    assert calls == []


def test_hopf_order_of_zero_and_empty_caps(zoo, monkeypatch):
    h = zoo["taft9"]
    zero = h.zero().vec
    calls = count_convolutions(monkeypatch)
    assert h.hopf_order(zero, 5) == 1 == reference_hopf_order(h, zero, 5)
    for vec in (zero, h.one().vec):
        for cap in (0, -3):
            assert h.hopf_order(vec, cap) is None
            assert reference_hopf_order(h, vec, cap) is None
    assert calls == []


def test_hopf_order_rejects_a_vector_of_the_wrong_length(zoo):
    h = zoo["sweedler"]
    with pytest.raises(ShapeMismatch):
        h.hopf_order(h.one().vec[:-1], 5)
    with pytest.raises(ShapeMismatch):
        h.hopf_power(h.one().vec + h.one().vec, 2)
    # the length is checked before eps is read or a power is formed
    one = QQ.one()
    for vec in ((one,) * 3, (one,) * 5):
        for call in (h.hopf_order, h.counit_vec, h.is_grouplike):
            with pytest.raises(ShapeMismatch) as err:
                call(vec)
            assert str(err.value) == f"vector lengths 4 vs {len(vec)}"


def test_hopf_order_on_a_bialgebra_without_antipode():
    h = idempotent_monoid()
    one, z = h.basis_element(0).vec, h.basis_element(1).vec
    for vec in (one, z, vec_scale(QQ.from_int(2), one),
                tuple(a - b for a, b in zip(one, z)),
                tuple(a + b for a, b in zip(one, z))):
        for cap in (1, 3, 12):
            assert h.hopf_order(vec, cap) == \
                reference_hopf_order(h, vec, cap), (vec, cap)


def test_hopf_order_requires_the_unit_law_on_the_subcoalgebra():
    # z as the unit: (u o eps) * id sends 1 to z on C_S = span{1}
    h = HopfAlgebra(QQ, ["1", "z"], {(0, 0, 0): 1, (1, 1, 1): 1}, [1, 1],
                    {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 1): 1},
                    [0, 1])
    with pytest.raises(InvariantViolation):
        h.hopf_order(h.basis_element(0).vec, 10)
    with pytest.raises(InvariantViolation):
        h.hopf_power(h.basis_element(0).vec, 3)


def test_hopf_power_matches_the_power_maps(zoo):
    for stem, h in zoo.items():
        maps = power_maps(h, 6)
        for vec in sample_vectors(h, stem):
            for n, m in enumerate(maps):
                assert h.hopf_power(vec, n) == m.apply(vec), (stem, vec, n)


def test_subcoalgebra_support_spans_the_least_coordinate_subcoalgebra(zoo):
    for stem, h in zoo.items():
        for vec in sample_vectors(h, stem):
            support = h.subcoalgebra_support(vec)
            assert set(support) >= {i for i, c in enumerate(vec)
                                    if not c.is_zero()}
            for i in support:
                assert {m for jk in h.comul[i] for m in jk} <= set(support)
            space = SubspaceBasis(h.field, h.dim,
                                  [unit_vec(h.field, h.dim, i) for i in support])
            assert h.is_subcoalgebra(space), (stem, support)
    sw = zoo["sweedler"]
    x = sw.basis_element(sw.index_of("x")).vec
    # Delta x = x (x) 1 + g (x) x
    assert sw.subcoalgebra_support(x) == sorted(
        sw.index_of(n) for n in ("1", "g", "x"))


# -- the Hopf audit against its own loops ----------------------------------

def reference_t2_mul(h, a: dict, b: dict) -> dict:
    """Componentwise product on H (x) H read off the dense table of h."""
    table = dense_table(h.algebra)
    out: dict = {}
    for (j, k), c in a.items():
        for (j2, k2), c2 in b.items():
            for m, lv in enumerate(table[j][j2]):
                for m2, rv in enumerate(table[k][k2]):
                    if not (lv.is_zero() or rv.is_zero()):
                        t2_add_term(out, (m, m2), c * c2 * lv * rv)
    return out


def reference_check_hopf(h) -> list[str]:
    """check_hopf with its own unit, associativity and H (x) H loops.

    The audit as it stood before FiniteAlgebra.violations and
    tensor_mult took those loops over, on the Scalar coalgebra audit
    (reference_coalgebra_check); kept as the oracle for all three.
    """
    bad = reference_coalgebra_check(h)
    units = [unit_vec(h.field, h.dim, i) for i in range(h.dim)]
    for i, ei in enumerate(units):
        if mul_vec(h, h.unit, ei) != ei:
            bad.append(f"left unit law fails on {h.names[i]}")
        if mul_vec(h, ei, h.unit) != ei:
            bad.append(f"right unit law fails on {h.names[i]}")
    for i, ei in enumerate(units):
        for j, ej in enumerate(units):
            pij = mul_vec(h, ei, ej)
            for k, ek in enumerate(units):
                if mul_vec(h, pij, ek) != mul_vec(h, ei, mul_vec(h, ej, ek)):
                    bad.append("associativity fails at "
                               f"({h.names[i]},{h.names[j]},{h.names[k]})")
    if delta_vec(h, h.unit) != t2_from_pair(h.unit, h.unit):
        bad.append("comultiplication of 1 is not 1(x)1")
    if vec_dot(h.counit, h.unit) != h.field.one():
        bad.append("counit of 1 is not 1")
    for i, ei in enumerate(units):
        for j, ej in enumerate(units):
            prod = mul_vec(h, ei, ej)
            if delta_vec(h, prod) != reference_t2_mul(h, h.comul[i], h.comul[j]):
                bad.append("comultiplication is not multiplicative on "
                           f"({h.names[i]},{h.names[j]})")
            if vec_dot(h.counit, prod) != h.counit[i] * h.counit[j]:
                bad.append("counit is not multiplicative on "
                           f"({h.names[i]},{h.names[j]})")
    if h.antipode_mat is not None:
        for i in range(h.dim):
            left = right = zero_vec(h.field, h.dim)
            for (j, k), c in h.comul[i].items():
                sj, sk = h.antipode_mat.column(j), h.antipode_mat.column(k)
                left = vec_add(left, vec_scale(c, mul_vec(h, sj, units[k])))
                right = vec_add(right, vec_scale(c, mul_vec(h, units[j], sk)))
            want = vec_scale(h.counit[i], h.unit)
            if left != want:
                bad.append(f"antipode axiom m(S(x)id)Delta fails on {h.names[i]}")
            if right != want:
                bad.append(f"antipode axiom m(id(x)S)Delta fails on {h.names[i]}")
    return bad


def one_entry_mutation(h, kind: str, rng):
    """h with one entry of its mul, comul, antipode, unit or counit moved,
    rebuilt from its raw structure file."""
    sf = structure_from_object(h)
    n, ops = sf.dim, sf.field.ops
    parts = {"mul": sf.mul,
             "comul": {(i, j, k): c for i, d in enumerate(sf.comul)
                       for (j, k), c in d.items()},
             "antipode": {(i, m): c for i, col in sf.antipode.items()
                          for m, c in col.items()},
             "unit": dict(enumerate(sf.unit)),
             "counit": dict(enumerate(sf.counit))}
    arity = {"mul": 3, "comul": 3, "antipode": 2, "unit": 1, "counit": 1}[kind]
    key = tuple(rng.randrange(n) for _ in range(arity))
    key = key[0] if arity == 1 else key
    moved = parts[kind] = dict(parts[kind])
    moved[key] = ops.add(moved.get(key, ops.zero),
                         sf.field.raw(rng.choice([1, -1, 2])))
    comul, antipode = [{} for _ in range(n)], {i: {} for i in range(n)}
    for (i, j, k), c in parts["comul"].items():
        if not ops.is_zero(c):
            comul[i][(j, k)] = c
    for (i, m), c in parts["antipode"].items():
        if not ops.is_zero(c):
            antipode[i][m] = c
    return StructureFile(
        sf.field, sf.names, [parts["counit"][i] for i in range(n)], comul,
        {k: v for k, v in parts["mul"].items() if not ops.is_zero(v)},
        [parts["unit"][i] for i in range(n)], antipode,
        name=sf.name).to_object()


def test_check_hopf_matches_its_own_loops_on_mutated_goldens(zoo):
    # one mutation per golden, the kind taken in turn; taft16 alone
    # takes seconds through the reference's three products per triple
    rng = random.Random(8)
    kinds = itertools.cycle(["mul", "comul", "antipode", "unit", "counit"])
    for (stem, h), kind in zip(zoo.items(), kinds):
        bad = one_entry_mutation(h, kind, rng)
        got = bad.check_hopf()
        assert got, (stem, kind)  # the mutation is seen, not silently valid
        assert got == reference_check_hopf(bad), (stem, kind)
        if kind == "counit":  # the raw counit branch itself sees it
            assert any(line.startswith("counit is not multiplicative")
                       for line in got), stem


def test_tensor_mult_is_the_componentwise_product(zoo):
    rng = random.Random(9)
    for stem, h in zoo.items():
        for _ in range(3):
            a = h.comul[rng.randrange(h.dim)]
            b = h.comul[rng.randrange(h.dim)]
            assert tensor_mult(h.algebra, a, b) == \
                reference_t2_mul(h, a, b), stem


# -- the Hopf layer on raw values against its Scalar references -------------

def reference_convolution(h, f, g):
    """f * g by dense Scalar sums of products by unit vectors: the
    convolution as it stood before it ran on lifted sparse columns, kept
    as its oracle."""
    cols = []
    for i in range(h.dim):
        acc = zero_vec(h.field, h.dim)
        for (j, k), c in h.comul[i].items():
            acc = vec_add(acc, vec_scale(c, mul_vec(h, f.column(j),
                                                      g.column(k))))
        cols.append(acc)
    return Mat.from_columns(h.field, cols, h.dim)


class ReferenceMinPolySearch:
    """MinPolySearch on dense Scalar vectors, as it stood before it moved
    onto sparse raw rows; kept as its oracle."""

    def __init__(self, field):
        self.field = field
        self.echelon = []

    def add(self, vec):
        zero = self.field.zero()
        row = {j: c for j, c in enumerate(vec) if not c.is_zero()}
        comb = [zero] * len(self.echelon) + [self.field.one()]
        for pivot, erow, ecomb in self.echelon:
            c = row.get(pivot)
            if c is None:
                continue
            c = -c
            for j, x in erow.items():
                y = c * x
                if j in row:
                    y = row[j] + y
                if y.is_zero():
                    del row[j]
                else:
                    row[j] = y
            for k, x in enumerate(ecomb):
                if not x.is_zero():
                    comb[k] = comb[k] + c * x
        if not row:
            return comb
        pivot = min(row)
        inv = row[pivot].inverse()
        self.echelon.append((pivot, {j: inv * x for j, x in row.items()},
                             [inv * x for x in comb]))
        return None


def reference_powers_mod(field, mu):
    """powers_mod on Scalars, as it stood before it ran on raw values."""
    zero = field.zero()
    tail = [-c for c in mu[:-1]]
    r = (field.one(),) + (zero,) * (len(tail) - 1)
    while True:
        yield r
        top, shifted = r[-1], (zero,) + r[:-1]
        r = shifted if top.is_zero() else \
            tuple(a + top * c for a, c in zip(shifted, tail))


def raw_columns(m):
    """The columns of a Mat as {j: {row: raw value}} with no zeros."""
    return {j: dict(read_vector(m.field, m.nrows, col))
            for j, col in enumerate(m.columns())}


def raw_row(cols):
    """Sparse raw columns {i: {m: raw value}} as one row keyed by (i, m)."""
    return {(i, m): x for i, col in cols.items() for m, x in col.items()}


def dense_row(field, dim, cols):
    """The same columns as one dense vector of Scalars, column after
    column, the form the Scalar search took."""
    zero = field.ops.zero
    return box(field, [col.get(m, zero) for col in cols.values()
                       for m in range(dim)])


RAW_HOPF_CASES = [(name, lambda field=field: hopf_case(field))
                  for name, field in LIFT_FIELDS] + golden_objects()


def with_rescaling(make):
    """The Hopf algebra make() builds, its rescaling on e'_i = d_i e_i
    (lifting_cases.rescaled_hopf) and the scales d_i."""
    h = make()
    scales = basis_scales(h.field, h.dim, 11)
    hr = rescaled_hopf(h, scales)
    if h.field.char == 0:
        assert has_denominators(c for d in hr.comul for c in d.values())
    return h, hr, scales


raw_hopf_cases = pytest.mark.parametrize(
    "make", [make for _, make in RAW_HOPF_CASES],
    ids=[name for name, _ in RAW_HOPF_CASES])


@raw_hopf_cases
def test_id_powers_match_the_boxed_convolution_powers(make):
    for h in with_rescaling(make)[:2]:
        ident = identity_map(h)
        want = counit_unit_map(h)
        search = ReferenceMinPolySearch(h.field)
        mu = None
        for n, cols in enumerate(h._id_powers(range(h.dim))):
            assert cols == raw_columns(want), (h.name, n)
            assert all(is_canonical(h.field, x)
                       for col in cols.values() for x in col.values())
            last = mu is not None and n == len(mu)  # n = deg mu + 1
            # hopf_power_map(n) makes n - 1 convolutions from scratch
            if n <= 1 or last:
                assert hopf_power_map(h, n) == want, (h.name, n)
            if last:
                break
            if mu is None:
                mu = search.add(tuple(itertools.chain(*want.columns())))
            want = ident if n == 0 else reference_convolution(h, want, ident)
        # the public convolution, with denominators on both sides
        s = h.antipode_mat
        assert h.convolution(want, s) == reference_convolution(h, want, s)
        assert h.convolution(s, ident) == counit_unit_map(h) == \
            h.convolution(ident, s)


@raw_hopf_cases
def test_min_poly_search_and_powers_mod_match_the_scalar_references(make):
    for h in with_rescaling(make)[:2]:
        field = h.field
        rng = random.Random(5)
        x = dict(read_vector(field, h.dim,
                             fraction_vector(field, rng, h.dim)))
        # the powers of id under convolution, and of x in the algebra
        id_powers = itertools.islice(h._id_powers(range(h.dim)),
                                     h.dim ** 2 + 1)
        x_powers = itertools.accumulate(
            itertools.repeat(x, h.dim),
            lambda p, y: h.algebra._product(p.items(), y.items()),
            initial=dict(read_vector(field, h.dim, h.unit)))
        sequences = [id_powers, x_powers]  # consumed up to mu only
        for seq, keyed in zip(sequences, (True, False)):
            raw, ref = MinPolySearch(field), ReferenceMinPolySearch(field)
            for power in seq:
                if keyed:
                    got = raw.add(raw_row(power))
                    want = ref.add(dense_row(field, h.dim, power))
                else:
                    got = raw.add(power)
                    want = ref.add(box(field, h.algebra._dense(power)))
                assert (got is None) == (want is None), h.name
                if got is not None:
                    break
            assert got == [c.val for c in want], h.name
            assert all(is_canonical(field, c) for c in got)
            pairs = zip(powers_mod(field, got),
                        reference_powers_mod(field, want))
            for r, r_ref in itertools.islice(pairs, 3 * len(got) + 5):
                assert r == tuple(c.val for c in r_ref), h.name
                assert all(is_canonical(field, c) for c in r)


def without_witness(rep):
    """The report's fields that do not depend on the basis: all but the
    witness vector and the step that prints it."""
    return (rep.kind, rep.n, rep.cap, rep.bound, rep.criterion,
            [s for s in rep.steps if not s.startswith("witness ")])


@raw_hopf_cases
def test_exponent_reports_survive_rescaling(make):
    h, hr, scales = with_rescaling(make)
    assert hr.check_hopf() == []
    assert outcome(h.exponent(64)) == outcome(hr.exponent(64))
    assert without_witness(h.classify_exponent()) == \
        without_witness(hr.classify_exponent())
    vecs = sample_vectors(h, h.name)  # the basis, then 3 combinations
    for vec in vecs[:4] + vecs[-1:]:
        assert h.hopf_order(vec, 12) == \
            hr.hopf_order(rescaled_vector(vec, scales), 12), (h.name, vec)


@raw_hopf_cases
def test_involutory_matches_the_squared_antipode(make):
    for h in with_rescaling(make)[:2]:
        s = h.antipode_mat
        assert h.involutory() == (s @ s == Mat.identity(h.field, h.dim))


def test_involutory_on_rescaled_inputs():
    # Taft algebras are not involutory (S^2 is conjugation by g), the dual
    # of kS3 is
    for field, want in ((F9, False), (QQ, True)):
        h = hopf_case(field)
        hr = rescaled_hopf(h, basis_scales(field, h.dim, 11))
        assert h.involutory() is hr.involutory() is want


def count_scalar_arithmetic(monkeypatch):
    """Record every Scalar addition and multiplication from now on."""
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(self, other, name=name, real=getattr(Scalar, name)):
            calls.append(name)
            return real(self, other)
        monkeypatch.setattr(Scalar, name, counted)
    return calls


def test_hopf_power_path_does_no_scalar_arithmetic(zoo, monkeypatch):
    h = zoo["taft16"]
    calls = count_scalar_arithmetic(monkeypatch)
    assert h.exponent(256).kind == "exceeds_cap"
    for vec, order in taft16_elements(h):
        assert h.hopf_order(vec, 64) == order
    assert calls == []
    # the counter does see the Scalar convolution the kernel replaced
    reference_convolution(h, identity_map(h), identity_map(h))
    assert "__mul__" in calls and "__add__" in calls


def count_fractions(monkeypatch):
    """Record every Fraction made from now on."""
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in vars(Fraction):  # arithmetic skips __new__
        real_coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, n, d):
            made.append((n, d))
            return real_coprime(n, d)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted_coprime))
    return made


def test_char0_extension_arithmetic_makes_no_fraction(zoo, monkeypatch):
    # inv is left out: it runs the extended Euclid on Fractions, cached
    ops, rng = QZ5.ops, random.Random(41)
    vals = [fraction_scalar(QZ5, rng).val for _ in range(60)]
    assert has_denominators(Scalar(QZ5, v) for v in vals)
    h = zoo["taft16"]
    comul = [[(k, x.val) for k, x in d.items()] for d in h.comul]
    made = count_fractions(monkeypatch)
    for a, b in zip(vals, vals[1:]):
        for r in (ops.add(a, b), ops.sub(a, b), ops.neg(a), ops.mul(a, b)):
            ops.is_zero(r)
    for i, j in itertools.product(range(h.dim), repeat=2):
        h.algebra._tensor_product(comul[i], comul[j])
    powers = h._id_powers(range(h.dim))
    for _ in range(8):
        next(powers)
    assert made == []
    # the counter does see Fraction arithmetic
    Fraction(1, 3) + Fraction(1, 6)
    assert len(made) >= 2


# -- the raw tables and their boxed views -------------------------------------

STEMS = [stem for stem, _ in golden_objects()]


def raw_rebuild(obj):
    """obj built again through the raw entries, from its raw tables."""
    if not isinstance(obj, HopfAlgebra):
        return Coalgebra.of_raw(obj.field, obj.names, obj.comul_raw,
                                obj.counit_raw, name=obj.name)
    alg = FiniteAlgebra.of_raw(obj.field, obj.dim,
                               obj.algebra.raw_constants(),
                               obj.algebra.unit_raw)
    return HopfAlgebra.of_raw(obj.field, obj.names, obj.comul_raw,
                              obj.counit_raw, alg, obj.antipode_raw,
                              name=obj.name)


def boxed_comul(obj) -> dict:
    """obj's comultiplication as {(i, j, k): Scalar}, the form the public
    constructors take."""
    return {(i, j, k): c for i, d in enumerate(obj.comul)
            for (j, k), c in d.items()}


def public_rebuild(obj):
    """obj built again through the public constructor, from its boxed
    views."""
    mat = obj.antipode_mat
    antipode = None if mat is None else {
        (i, m): c for i, col in enumerate(mat.columns())
        for m, c in enumerate(col) if not c.is_zero()}
    return HopfAlgebra(obj.field, obj.names, boxed_comul(obj), obj.counit,
                       scalar_constants(obj.algebra), obj.unit, antipode,
                       name=obj.name)


def public_views(obj):
    """Everything a caller reads of obj's structure, boxed."""
    sf = structure_from_object(obj)
    return (obj.comul, obj.counit, obj.unit, obj.antipode_mat,
            scalar_constants(obj.algebra), emit_structure_file(sf))


@pytest.mark.parametrize("stem", STEMS + ["sweedler (x) kS3"])
def test_public_and_raw_constructors_give_the_same_views(stem, zoo):
    obj = zoo.get(stem) or tensor_product(zoo["sweedler"],
                                          group_algebra(symmetric(3), QQ))
    # the public constructor, given the boxed views, and of_raw, given
    # the raw tables directly or through the structure file, build the
    # same object
    public = public_rebuild(obj)
    for raw in (raw_rebuild(obj), structure_from_object(obj).to_object()):
        assert public_views(public) == public_views(obj) == public_views(raw)
        assert public.comul_raw == obj.comul_raw == raw.comul_raw
        assert public.counit_raw == obj.counit_raw == raw.counit_raw
        assert public.algebra.unit_raw == obj.algebra.unit_raw \
            == raw.algebra.unit_raw
        assert public.antipode_raw == obj.antipode_raw == raw.antipode_raw
        assert public.algebra.constants == raw.algebra.constants
    coalgebra = Coalgebra(obj.field, obj.names, boxed_comul(obj), obj.counit,
                          name=obj.name)
    assert coalgebra.comul == Coalgebra.of_raw(
        obj.field, obj.names, obj.comul_raw, obj.counit_raw).comul == obj.comul
    assert coalgebra.counit_raw == obj.counit_raw


def test_views_of_the_raw_tables_are_read_only(zoo):
    # an assignable view would silently diverge from the raw table that
    # the computations read
    h = zoo["sweedler"]
    comp = next(c for c in h.simple_subcoalgebras() if c.is_grouplike)
    g = h.group_likes()[0]
    for owner, name in ((h, "comul"), (h, "counit"), (h, "unit"),
                        (h.algebra, "unit"), (g, "vec"),
                        (h.coradical_idempotents(), "functionals")):
        view = getattr(owner, name)
        with pytest.raises(AttributeError):
            setattr(owner, name, view)
        assert getattr(owner, name) is view, name
    assert g.vec == box(h.field, h.algebra._dense(comp.grouplike_raw))
    assert h.is_grouplike(g.vec)


def test_grouplike_orders_make_no_scalar(zoo, monkeypatch):
    # classify_exponent on the pointed char-p goldens reads the order of
    # each group-like off its raw form, SimpleComponent.grouplike_raw
    made, inside, orders = [], [], []
    init, order = Scalar.__init__, HopfAlgebra._grouplike_order

    def counted(self, field, val):
        if inside:
            made.append(val)
        init(self, field, val)

    def watched(self, g, *args):
        inside.append(g)
        try:
            orders.append((self, g, order(self, g, *args)))
        finally:
            inside.pop()
        return orders[-1][2]

    pointed = [stem for stem, h in zoo.items()
               if h.field.char and h.is_pointed()]
    monkeypatch.setattr(Scalar, "__init__", counted)
    monkeypatch.setattr(HopfAlgebra, "_grouplike_order", watched)
    # nor are the group-likes boxed as Elements first
    monkeypatch.setattr(HopfAlgebra, "group_likes", None)
    kinds = [zoo[stem].classify_exponent().kind for stem in pointed]
    monkeypatch.undo()
    assert pointed and set(kinds) == {"bounded"} and made == []
    # each order is that of the boxed products, and the public
    # grouplike_order of the boxed group-like agrees
    assert len(orders) > len(pointed)
    for h, g, n in orders:
        vec = box(h.field, h.algebra._dense(g))
        powers = [h.power_vec(vec, k) for k in range(1, n + 1)]
        assert powers[-1] == h.unit and h.unit not in powers[:-1]
        assert h.grouplike_order(Element(h, vec)) == h.grouplike_order(vec) == n


def test_public_constructors_still_coerce_and_reject_their_input():
    f3, half = GF(3), Fraction(1, 2)
    # ints, Fractions and Scalars of the field are coerced once
    h = HopfAlgebra(QQ, ["1", "z"], {(0, 0, 0): 1, (1, 1, 1): QQ.one()},
                    [half, 1], {(0, 0, 0): 1, (0, 1, 1): half}, [1, 0],
                    {(0, 0): Fraction(2), (1, 1): 0})
    assert h.comul_raw == ({(0, 0): 1}, {(1, 1): 1})
    assert h.counit == (QQ.from_fraction(half), QQ.one())
    assert h.algebra.constants[0][1] == [(1, half)]
    assert h.antipode_raw == {0: {0: 2}, 1: {}}
    good = dict(field=QQ, names=["1"], comul={(0, 0, 0): 1}, counit=[1],
                mul={(0, 0, 0): 1}, unit=[1], antipode={(0, 0): 1})
    for bad, error in ((f3.one(), FieldMismatch), (1.0, TypeError)):
        for key in ("comul", "counit", "mul", "unit", "antipode"):
            args = dict(good)
            table = args[key]
            args[key] = [bad] if isinstance(table, list) else \
                dict.fromkeys(table, bad)
            with pytest.raises(error):
                HopfAlgebra(**args)
            if key in ("comul", "counit"):
                del args["mul"], args["unit"], args["antipode"]
                with pytest.raises(error):
                    Coalgebra(**args)
    with pytest.raises(FieldMismatch):
        FiniteAlgebra(QQ, 1, {(0, 0, 0): f3.one()}, (QQ.one(),))
    # FiniteAlgebra reads its table and unit as the other constructors do
    assert FiniteAlgebra(QQ, 1, {(0, 0, 0): 1}, (1,)).unit == (QQ.one(),)
    table = {(0, 0, 0): 1, (0, 1, 1): Fraction(2, 2), (1, 0, 1): 1,
             (1, 1, 1): half, (1, 1, 0): 0}
    read = FiniteAlgebra(QQ, 2, table, (Fraction(3, 3), 0))
    boxed = FiniteAlgebra(QQ, 2, {key: QQ.from_fraction(Fraction(c))
                                  for key, c in table.items()},
                          (QQ.one(), QQ.zero()))
    assert read.raw_constants() == boxed.raw_constants() == {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 1): half}
    assert read.unit_raw == boxed.unit_raw == (1, 0)
    for table, unit in (({(0, 0, 0): 1.0}, (1,)), ({(0, 0, 0): 1}, (1.0,))):
        with pytest.raises(TypeError, match="cannot coerce 1.0"):
            FiniteAlgebra(QQ, 1, table, unit)


def test_constructors_read_ints_and_fractions_without_scalars(monkeypatch):
    # int and Fraction entries are read with FieldSpec.raw, so the zoo
    # builders that pass ints (zoo-dump's kG and k^G) make no Scalar
    fields = [QQ, GF(5), F9, QZ5]
    made, init = [], Scalar.__init__

    def counted(self, field, val):
        made.append(val)
        init(self, field, val)

    monkeypatch.setattr(Scalar, "__init__", counted)
    built = [build(symmetric(3), field) for field in fields
             for build in (group_algebra, dual_group_algebra)]
    half = HopfAlgebra(QQ, ["1"], {(0, 0, 0): Fraction(2, 2)}, [1],
                       {(0, 0, 0): 1}, [Fraction(1)], {(0, 0): 1})
    monkeypatch.undo()
    assert made == [] and all(h.check_hopf() == [] for h in built + [half])
    assert half.counit_raw == (1,) and half.comul_raw == ({(0, 0): 1},)
    # the errors and their messages are those of the Scalar coercion
    f3 = GF(3)
    for bad, error, message in (
            (f3.one(), FieldMismatch, "scalar over F_3 used in a Q coalgebra"),
            (1.0, TypeError, "cannot coerce 1.0 to a scalar")):
        with pytest.raises(error, match=message):
            Coalgebra(QQ, ["1"], {(0, 0, 0): bad}, [1])
    with pytest.raises(DivisionByZero, match="denominator 3 is zero modulo 3"):
        Coalgebra(f3, ["1"], {(0, 0, 0): 1}, [Fraction(1, 3)])
    with pytest.raises(DivisionByZero, match="denominator 3 is zero modulo 3"):
        f3.from_fraction(Fraction(1, 3))
