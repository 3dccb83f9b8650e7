"""Exact scalar arithmetic: field axioms, parsing, roots of unity."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopfex import GF, QQ, FieldSpec
from hopfex.errors import (DivisionByZero, IncompatibleExtension, NoSuchRoot,
                           ReducibleModulus, ScalarParseError)
from hopfex.scalars import (MAX_EXTENSION_DEGREE, _pdivmod, _pgcdext,
                            _pinv_scalar, _pmul, _trim, cyclotomic_polynomial)

F4 = GF(2, modulus=[1, 1, 1])
Q_I = FieldSpec(0, cyclotomic_order=4)
Q_W = FieldSpec(0, cyclotomic_order=3)

FIELDS = [QQ, GF(2), GF(7), F4, Q_I, Q_W]


def elements(field):
    """Strategy producing exact scalars of `field`."""
    if field.char == 0:
        base = st.fractions(min_value=-40, max_value=40, max_denominator=12)
        lift = field.from_fraction
    else:
        base = st.integers(min_value=0, max_value=field.char - 1)
        lift = field.from_int
    if field.degree == 1:
        return base.map(lift)
    coords = st.lists(base, min_size=field.degree, max_size=field.degree)
    return coords.map(lambda cs: field.from_coeffs(list(cs)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
def test_field_axioms_sampled(field):
    @settings(max_examples=60, derandomize=True)
    @given(a=elements(field), b=elements(field), c=elements(field))
    def run(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + field.zero() == a
        assert a * field.one() == a
        assert a + (-a) == field.zero()
        if not a.is_zero():
            assert a * a.inverse() == field.one()
            assert (field.one() / a) * a == field.one()

    run()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
def test_parse_format_roundtrip(field):
    @settings(max_examples=60, derandomize=True)
    @given(a=elements(field))
    def run(a):
        assert field.parse(field.format(a)) == a

    run()


def test_rational_arithmetic_matches_fractions():
    a = QQ.from_fraction(Fraction(3, 7))
    b = QQ.from_fraction(Fraction(-5, 2))
    assert (a + b).val == Fraction(3, 7) + Fraction(-5, 2)
    assert (a * b).val == Fraction(-15, 14)
    assert (a / b).val == Fraction(3, 7) / Fraction(-5, 2)
    assert (a ** 3).val == Fraction(27, 343)


def test_prime_field_wraps_mod_p():
    f = GF(7)
    assert f.from_int(10) == f.from_int(3)
    assert f.from_int(3) + f.from_int(5) == f.from_int(1)
    assert f.from_int(3) * f.from_int(5) == f.from_int(1)
    assert f.from_int(3).inverse() == f.from_int(5)


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.one() / QQ.zero()
    with pytest.raises(DivisionByZero):
        GF(5).zero().inverse()


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 21):
        got = cyclotomic_polynomial(m)
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        want = [Fraction(int(c)) for c in reversed(want)]
        assert got == want


def test_cyclotomic_root_is_primitive():
    for m in (3, 4, 5, 8):
        f = FieldSpec(0, cyclotomic_order=m)
        z = f.gen()
        assert z ** m == f.one()
        for d in range(1, m):
            assert z ** d != f.one()


def test_primitive_root_of_unity_in_prime_field():
    # F_7^* is cyclic of order 6, so roots of each divisor order exist.
    f = GF(7)
    for n in (1, 2, 3, 6):
        r = f.primitive_root_of_unity(n)
        assert r ** n == f.one()
        for d in range(1, n):
            assert r ** d != f.one()
    with pytest.raises(NoSuchRoot):
        f.primitive_root_of_unity(5)


def test_primitive_root_in_quadratic_extension():
    # F_4^* has order 3.
    r = F4.primitive_root_of_unity(3)
    assert r ** 3 == F4.one()
    assert r != F4.one()


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        GF(2, modulus=[1, 0, 1])  # t^2 + 1 = (t + 1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        FieldSpec(0, modulus=[Fraction(-1), Fraction(0), Fraction(1)])


def test_extension_degree_cap():
    from hopfex.errors import FieldError
    with pytest.raises(FieldError):
        # irreducible but past the supported degree bound
        FieldSpec(0, cyclotomic_order=4 * (MAX_EXTENSION_DEGREE + 1))


def test_small_cyclotomic_orders_normalize_to_prime_field():
    assert FieldSpec(0, cyclotomic_order=1) == QQ
    assert FieldSpec(0, cyclotomic_order=2) == QQ


def test_convert_embeds_prime_field():
    a = QQ.from_fraction(Fraction(2, 3))
    b = Q_I.convert(a)
    assert b.field == Q_I
    assert b == Q_I.from_coeffs([Fraction(2, 3)])
    with pytest.raises(IncompatibleExtension):
        Q_I.convert(GF(3).one())
    with pytest.raises(IncompatibleExtension):
        Q_I.convert(Q_W.gen())


def test_parse_errors():
    with pytest.raises(ScalarParseError):
        QQ.parse("three")
    with pytest.raises(ScalarParseError):
        QQ.parse("1/0")
    with pytest.raises(ScalarParseError):
        Q_I.parse("[1,2,3]")  # too many coordinates for degree 2


def test_format_extension_scalars():
    z = Q_W.gen()
    assert Q_W.format(z) == "[0,1]"
    assert Q_W.format(Q_W.one()) == "1"
    assert Q_W.parse("[1/2,-1]") == Q_W.from_coeffs([Fraction(1, 2),
                                                     Fraction(-1)])


def reference_product(field, a, b):
    """Raw product in an extension by polynomial multiply and long division."""
    prod = _pmul(list(a), list(b), field.char)
    _, rem = _pdivmod(prod, list(field.modulus), field.char)
    return field._pad(rem)


@pytest.mark.parametrize("field", [F4, GF(3, modulus=[1, 0, 1])],
                         ids=lambda f: f.describe())
def test_reduction_table_product_matches_long_division_on_all_pairs(field):
    elements = list(itertools.product(range(field.char), repeat=field.degree))
    for a, b in itertools.product(elements, repeat=2):
        assert field.ops.mul(a, b) == reference_product(field, a, b), (a, b)
        assert (field.from_coeffs(list(a)) * field.from_coeffs(list(b))).val \
            == reference_product(field, a, b)


def test_reduction_table_product_matches_long_division_over_q_zeta5():
    field = FieldSpec(0, cyclotomic_order=5)
    rng = random.Random(5)

    def pick():
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     if rng.random() < 0.7 else Fraction(0)
                     for _ in range(field.degree))

    for _ in range(300):
        a, b = pick(), pick()
        got = field.ops.mul(a, b)
        assert got == reference_product(field, a, b), (a, b)
        assert all(type(c) is Fraction for c in got)


def reference_inverse(field, a):
    """Raw inverse in an extension by the extended Euclid, uncached."""
    p = field.char
    g, u, _ = _pgcdext(_trim(list(a)), list(field.modulus), p)
    c = _pinv_scalar(g[0], p)
    return field._pad([x * c % p if p else x * c for x in u])


def test_cached_extension_inverse_matches_the_extended_euclid():
    f9 = GF(3, modulus=[1, 0, 1])
    for a in itertools.product(range(3), repeat=2):
        if any(a):
            for _ in range(2):  # the second call is answered by the cache
                assert f9.ops.inv(a) == reference_inverse(f9, a), a
    qz5 = FieldSpec(0, cyclotomic_order=5)
    rng = random.Random(10)
    for _ in range(300):
        a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(qz5.degree))
        if any(a):
            got = qz5.ops.inv(a)
            assert got == reference_inverse(qz5, a), a
            assert all(type(c) is Fraction for c in got)
            assert qz5.ops.mul(a, got) == qz5.ops.one
    for field in (f9, qz5):
        with pytest.raises(DivisionByZero):
            field.zero().inverse()
