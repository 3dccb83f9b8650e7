"""Exact scalar arithmetic: field axioms, parsing, roots of unity."""

import itertools
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopfex import GF, QQ, FieldSpec
from hopfex.errors import (DivisionByZero, FieldError, FieldMismatch,
                           IncompatibleExtension, NoSuchRoot,
                           ReducibleModulus, ScalarParseError,
                           ShapeMismatch)
from hopfex import poly
from hopfex.scalars import (MAX_EXTENSION_DEGREE, Scalar, combination,
                            cyclotomic_polynomial, dot, lift_columns,
                            read_vector)

from lifting_cases import (F9, HALF_ROOT, LIFT_FIELDS, QZ5, RAW_FIELDS,
                           fraction_scalar, fraction_vector, is_canonical,
                           loop_extension_ops)

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


def test_cyclotomic_orders_past_the_cap_build_no_polynomial(monkeypatch):
    # phi(m) is known before any polynomial is built, so an order past the
    # cap fails at once, however many divisors it has (5040 has 60, and
    # 720720 has 240)
    import hopfex.scalars

    def unreachable(m):
        raise AssertionError(f"cyclotomic polynomial of order {m} built")

    monkeypatch.setattr(hopfex.scalars, "cyclotomic_polynomial", unreachable)
    for m in (51, 68, 513, 5040, 720720, 2 ** 89 - 1):
        with pytest.raises(FieldError, match=rf"extension degree phi\({m}\) "
                           "of .* exceeds the supported cap 16"):
            FieldSpec(0, cyclotomic_order=m)


def test_cyclotomic_orders_within_the_cap_match_the_totient():
    for m in range(1, 2 * MAX_EXTENSION_DEGREE ** 2 + 2):
        if sympy.totient(m) > MAX_EXTENSION_DEGREE:
            with pytest.raises(FieldError, match="exceeds the supported cap"):
                FieldSpec(0, cyclotomic_order=m)
        else:
            f = FieldSpec(0, cyclotomic_order=m)
            assert f.degree == (sympy.totient(m) if m > 2 else 1), m


def test_cyclotomic_order_must_be_an_int():
    # as the characteristic: a float, a str and a bool are not orders
    for m in (3.0, "5", True, Fraction(5)):
        with pytest.raises(FieldError,
                           match="cyclotomic order must be an int, got"):
            FieldSpec(0, cyclotomic_order=m)


def test_non_integer_characteristic_rejected():
    from hopfex.errors import FieldError
    for make in (lambda: GF(5.0),
                 lambda: FieldSpec(3.0, modulus=[1, 0, 1]),
                 lambda: FieldSpec(0.0, cyclotomic_order=3)):
        with pytest.raises(FieldError, match="characteristic must be"):
            make()


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


# Dense polynomials over the prime field, on lists constant term first with
# no trailing zeros: Fractions when p == 0, ints in [0, p) otherwise.  They
# are the reference for hopfex.poly and for the extension-field ops below.

def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _padd(a: list, b: list, p: int) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        s = x + y
        out.append(s % p if p else s)
    return _trim(out)


def _pneg(a: list, p: int) -> list:
    return [(-x) % p if p else -x for x in a]


def _psub(a: list, b: list, p: int) -> list:
    return _padd(a, _pneg(b, p), p)


def _pmul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    if p:
        out = [v % p for v in out]
    return _trim(out)


def _pinv_scalar(x, p: int):
    if p:
        return pow(x, p - 2, p)
    return Fraction(1) / x


def _pdivmod(a: list, b: list, p: int) -> tuple[list, list]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    binv = _pinv_scalar(b[-1], p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        c = a[-1] * binv
        if p:
            c %= p
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
            if p:
                a[k + i] %= p
        _trim(a)
    return _trim(q), a


def _pgcdext(a: list, b: list, p: int) -> tuple[list, list, list]:
    """Return (g, u, v) with u*a + v*b = g."""
    r0, r1 = list(a), list(b)
    one = 1 if p else Fraction(1)
    u0, u1 = [one], []
    v0, v1 = [], [one]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1, p), p)
        v0, v1 = v1, _psub(v0, _pmul(q, v1, p), p)
    return r0, u0, v0


def random_prime_poly(p, rng, deg):
    """A seeded trimmed polynomial of degree at most deg over the prime
    field, with denominators on Q; zero coefficients 30% of the time."""
    if p:
        cs = [rng.randrange(p) if rng.random() < 0.7 else 0
              for _ in range(deg + 1)]
    else:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              if rng.random() < 0.7 else Fraction(0) for _ in range(deg + 1)]
    return _trim(cs)


@pytest.mark.parametrize("p", [0, 2, 5, 7, 13])
def test_poly_arithmetic_matches_the_prime_field_reference(p):
    rng = random.Random(1409 + p)
    ops = FieldSpec(p).ops
    for _ in range(300):
        a = random_prime_poly(p, rng, rng.randrange(9))
        b = random_prime_poly(p, rng, rng.randrange(9))
        assert poly.add(ops, a, b) == _padd(a, b, p)
        assert poly.sub(ops, a, b) == _psub(a, b, p)
        assert poly.mul(ops, a, b) == _pmul(a, b, p)
        x = rng.randrange(p) if p else Fraction(rng.randint(-9, 9), 4)
        value = sum(c * x ** k for k, c in enumerate(a))
        assert poly.evaluate(ops, a, x) == (value % p if p else value)
        if not b:
            with pytest.raises(DivisionByZero):
                poly.divmod(ops, a, b)
            continue
        assert poly.divmod(ops, a, b) == _pdivmod(a, b, p)
        # untrimmed inputs give the same results
        assert poly.divmod(ops, a + [ops.zero], b + [ops.zero]) \
            == _pdivmod(a, b, p)
        g, u, v = poly.gcdext(ops, a, b)
        assert (g, u, v) == _pgcdext(a, b, p)
        assert _padd(_pmul(u, a, p), _pmul(v, b, p), p) == g


# The extension-field ops on coefficient tuples, by polynomial arithmetic
# and long division: Fractions on a char-0 extension, as its raw values
# were before they became integer tuples over one denominator, and ints
# mod p on F_p[t]/(m).  They stay here as the reference.

def reference_pad(field, coeffs):
    p = field.char
    return (tuple(x % p if p else x for x in coeffs)
            + (0,) * (field.degree - len(coeffs)))


def reference_add(field, a, b):
    return reference_pad(field, [x + y for x, y in zip(a, b)])


def reference_sub(field, a, b):
    return reference_pad(field, [x - y for x, y in zip(a, b)])


def reference_neg(field, a):
    return reference_pad(field, [-x for x in a])


def reference_is_zero(a):
    return not any(a)


def reference_product(field, a, b):
    prod = _pmul(list(a), list(b), field.char)
    _, rem = _pdivmod(prod, list(field.modulus), field.char)
    return reference_pad(field, rem)


def reference_inverse(field, a):
    """The inverse by the extended Euclid, uncached."""
    p = field.char
    g, u, _ = _pgcdext(_trim(list(a)), list(field.modulus), p)
    c = _pinv_scalar(g[0], p)
    return reference_pad(field, [x * c for x in u])


def coeffs_of(field, raw):
    """The coefficient tuple of a raw value of field."""
    return field.coefficients(Scalar(field, raw))


@pytest.mark.parametrize("field", [F4, GF(3, modulus=[1, 0, 1])],
                         ids=lambda f: f.describe())
def test_reduction_table_product_matches_long_division_on_all_pairs(field):
    elements = list(itertools.product(range(field.char), repeat=field.degree))
    for a, b in itertools.product(elements, repeat=2):
        assert field.ops.mul(a, b) == reference_product(field, a, b), (a, b)
        assert (field.from_coeffs(list(a)) * field.from_coeffs(list(b))).val \
            == reference_product(field, a, b)


def rational_coeffs(field, rng, num=9, den=6):
    """Seeded Fraction coefficients of an element of a char-0 extension,
    each zero 30% of the time."""
    return tuple(Fraction(rng.randint(-num, num), rng.randint(1, den))
                 if rng.random() < 0.7 else Fraction(0)
                 for _ in range(field.degree))


def test_reduction_table_product_matches_long_division_over_q_zeta5():
    field = QZ5
    rng = random.Random(5)
    for _ in range(300):
        a, b = rational_coeffs(field, rng), rational_coeffs(field, rng)
        got = field.ops.mul(field.from_coeffs(a).val, field.from_coeffs(b).val)
        assert coeffs_of(field, got) == reference_product(field, a, b), (a, b)
        assert is_canonical(field, got)


# the generated kernels against the loops, on every kind of extension:
# cyclotomic, a table denominator of 2, degree MAX_EXTENSION_DEGREE, and
# finite fields of degree 2 and 3
KERNEL_FIELDS = [Q_W, Q_I, QZ5, HALF_ROOT, FieldSpec(0, cyclotomic_order=17),
                 F4, F9, GF(5, modulus=[1, 1, 0, 1])]


def random_raw(field, rng):
    """A seeded canonical raw value of an extension field: zero one time
    in eight, each coefficient zero one time in four, numerators of
    either sign and some of 70 bits, over Q each coefficient over 1, 2, 3
    or 6."""
    if rng.random() < 0.125:
        return field.ops.zero
    coeffs = []
    for _ in range(field.degree):
        n = 0 if rng.random() < 0.25 else rng.choice(
            (rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)))
        if field.char:
            coeffs.append(n % field.char)
        else:
            coeffs.append(Fraction(n, rng.choice((1, 2, 3, 6))))
    return field._pad(coeffs)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.describe())
def test_generated_extension_kernels_match_the_loops(field):
    ops, ref = field.ops, loop_extension_ops(field)
    rng = random.Random(30)
    values = [ops.zero, ops.one] + [random_raw(field, rng) for _ in range(40)]
    dens = set()
    for a in values:
        got, want = ops.neg(a), ref["neg"](a)
        assert got == want and is_canonical(field, got), a
        for b in values:
            for name in ("add", "sub", "mul"):
                got = getattr(ops, name)(a, b)
                assert got == ref[name](a, b), (name, a, b)
                assert is_canonical(field, got), (name, got)
            if not field.char:
                dens.add("unequal" if a[-1] != b[-1] else
                         "equal, 1" if a[-1] == 1 else "equal, > 1")
    if not field.char:
        assert dens == {"unequal", "equal, 1", "equal, > 1"}


def test_fields_of_one_modulus_share_compiled_kernels():
    makers = [lambda: FieldSpec(0, cyclotomic_order=5),
              lambda: FieldSpec(0, modulus=[Fraction(-1, 2), 0, 1]),
              lambda: GF(3, modulus=[1, 0, 1])]
    kernels = []
    for make in makers:
        a, b = make(), make()
        assert a is not b
        kernels += [a.ops.add, a.ops.sub, a.ops.neg, a.ops.mul]
        assert all(f is g for f, g in zip(kernels[-4:], (
            b.ops.add, b.ops.sub, b.ops.neg, b.ops.mul)))
    # Q(zeta_4) by its order and by its modulus t^2 + 1 is one field
    assert FieldSpec(0, cyclotomic_order=4).ops.mul is \
        FieldSpec(0, modulus=[1, 0, 1]).ops.mul
    assert len(set(kernels)) == 4 * len(makers)


def test_cached_extension_inverse_matches_the_extended_euclid():
    f9 = GF(3, modulus=[1, 0, 1])
    for a in itertools.product(range(3), repeat=2):
        if any(a):
            for _ in range(2):  # the second call is answered by the cache
                assert f9.ops.inv(a) == reference_inverse(f9, a), a
    rng = random.Random(10)
    for _ in range(300):
        a = rational_coeffs(QZ5, rng, num=4, den=3)
        if any(a):
            raw = QZ5.from_coeffs(a).val
            got = QZ5.ops.inv(raw)
            assert coeffs_of(QZ5, got) == reference_inverse(QZ5, a), a
            assert is_canonical(QZ5, got)
            assert QZ5.ops.mul(raw, got) == QZ5.ops.one
    for field in (f9, QZ5):
        with pytest.raises(DivisionByZero):
            field.zero().inverse()


CHAR0_EXTENSIONS = [Q_W, Q_I, QZ5, HALF_ROOT]


@pytest.mark.parametrize("field", CHAR0_EXTENSIONS, ids=lambda f: f.describe())
def test_char0_extension_ops_match_the_fraction_reference(field):
    ops, rng = field.ops, random.Random(31)
    for _ in range(200):
        a, b = rational_coeffs(field, rng), rational_coeffs(field, rng)
        ra, rb = field.from_coeffs(a).val, field.from_coeffs(b).val
        got = {"add": ops.add(ra, rb), "sub": ops.sub(ra, rb),
               "neg": ops.neg(ra), "mul": ops.mul(ra, rb)}
        want = {"add": reference_add(field, a, b),
                "sub": reference_sub(field, a, b),
                "neg": reference_neg(field, a),
                "mul": reference_product(field, a, b)}
        if reference_is_zero(a):
            assert ops.is_zero(ra)
        else:
            assert not ops.is_zero(ra)
            got["inv"], want["inv"] = ops.inv(ra), reference_inverse(field, a)
        for name, raw in got.items():
            assert coeffs_of(field, raw) == want[name], (name, a, b)
            assert is_canonical(field, raw), (name, raw)
            assert ops.is_zero(raw) is reference_is_zero(want[name])


@pytest.mark.parametrize("field", CHAR0_EXTENSIONS, ids=lambda f: f.describe())
def test_char0_extension_values_are_integer_tuples_with_one_zero(field):
    ops, d = field.ops, field.degree
    assert ops.zero == (0,) * d + (1,)
    assert ops.one == (1,) + (0,) * (d - 1) + (1,)
    half = field.from_fraction(Fraction(1, 2)).val
    assert half == (1,) + (0,) * (d - 1) + (2,)
    # negative and cancelling denominators come back to the one canonical
    # form, and every way of reaching zero gives the one zero
    rng = random.Random(32)
    for _ in range(100):
        a = field.from_coeffs(rational_coeffs(field, rng)).val
        assert is_canonical(field, a)
        assert a[-1] > 0 and math.gcd(*a) == 1
        assert ops.sub(a, a) == ops.add(a, ops.neg(a)) == ops.zero
        assert ops.mul(a, ops.zero) == ops.zero
        twice = ops.add(a, a)
        assert ops.mul(twice, half) == a
        assert ops.sub(twice, a) == a
    for zero in (field.zero(), field.from_int(0), field.from_fraction(Fraction(0, 7)),
                 field.from_coeffs([0] * d), field.parse("[0,0]"),
                 field.from_int(3) - field.from_int(3)):
        assert zero.val == ops.zero and zero.is_zero()


@pytest.mark.parametrize("field", CHAR0_EXTENSIONS, ids=lambda f: f.describe())
def test_char0_extension_constructors_agree(field):
    for n in (-3, 0, 1, 7):
        same = [field.from_int(n), field.from_fraction(Fraction(n)),
                field.from_coeffs([n]), field.from_coeffs([Fraction(2 * n, 2), 0]),
                field.parse(str(n)), field.parse(f"[{n}]"), field.convert(QQ.from_int(n))]
        assert len(set(same)) == 1 and len({hash(x) for x in same}) == 1, same
    for fr in (Fraction(3, 4), Fraction(-5, 6)):
        same = [field.from_fraction(fr),
                field.from_coeffs([Fraction(fr.numerator * 3, fr.denominator * 3)]),
                field.parse(str(fr)), field.parse(f"[{fr.numerator * 2}/{fr.denominator * 2},0]"),
                field.convert(QQ.from_fraction(fr))]
        assert len(set(same)) == 1 and len({hash(x) for x in same}) == 1, same
    # t^d folds back through the modulus in from_coeffs
    top = field.from_coeffs([0] * field.degree + [1])
    assert top == field.gen() ** field.degree
    assert top == field.from_coeffs([-c for c in field.modulus[:-1]])
    assert hash(top) == hash(field.gen() ** field.degree)


def rational_samples(rng, n):
    """Seeded rationals: small and huge integers, integral Fractions,
    and fractions with small and huge numerators and denominators."""
    big = 2 ** 90
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(big),
           Fraction(1, big), Fraction(-big, big + 1)]
    while len(out) < n:
        kind = rng.randrange(4)
        if kind == 0:
            out.append(Fraction(rng.randint(-9, 9)))
        elif kind == 1:
            out.append(Fraction(rng.randint(-big, big)))
        elif kind == 2:
            out.append(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
        else:
            out.append(Fraction(rng.randint(-big, big), rng.randint(1, big)))
    return out


def test_rational_ops_match_fractions_and_stay_canonical():
    ops, rng = QQ.ops, random.Random(61)
    fracs = rational_samples(rng, 40)
    raws = [QQ.from_fraction(x).val for x in fracs]
    for x, a in zip(fracs, raws):
        assert a == x and is_canonical(QQ, a)
        assert QQ.parse(str(x)).val == a and is_canonical(QQ, QQ.parse(str(x)).val)
        if x.denominator == 1:
            assert QQ.from_int(x.numerator).val == a
        assert ops.neg(a) == -x and is_canonical(QQ, ops.neg(a))
        if x:
            assert ops.inv(a) == 1 / x and is_canonical(QQ, ops.inv(a))
        assert ops.is_zero(a) == (x == 0)
    for (x, a), (y, b) in itertools.product(zip(fracs, raws), repeat=2):
        for got, want in ((ops.add(a, b), x + y), (ops.sub(a, b), x - y),
                          (ops.mul(a, b), x * y)):
            assert got == want and is_canonical(QQ, got), (x, y)
    # integral results of Fraction arithmetic come back as ints
    half = QQ.from_fraction(Fraction(1, 2)).val
    assert type(ops.add(half, half)) is int and type(ops.mul(half, 2)) is int
    assert type(ops.sub(half, half)) is int and type(ops.inv(half)) is int
    assert ops.zero == 0 and ops.one == 1
    assert type(ops.zero) is int and type(ops.one) is int


def test_rational_lift_and_settle_match_fractions():
    ops, rng = QQ.ops, random.Random(67)
    for _ in range(30):
        fracs = rational_samples(rng, rng.randint(1, 8))
        raws = [QQ.from_fraction(x).val for x in fracs]
        pairs, scale = ops.lift_pairs(list(enumerate(raws)))
        lifted = [v for _, v in pairs]
        assert type(scale) is int and scale >= 1
        assert scale == math.lcm(*(x.denominator for x in fracs))
        assert all(type(v) is int for v in lifted)
        for x, v in zip(fracs, lifted):
            got = ops.settle(v, scale)
            assert got == x and is_canonical(QQ, got)
        acc = sum(lifted)
        got = ops.settle(acc, scale * 7)
        assert got == sum(fracs) / 7 and is_canonical(QQ, got)
    for acc, scale in ((0, 5), (12, 4), (-12, 4), (7, 1), (2 ** 95, 2 ** 5),
                       (3, 6), (-2 ** 95 - 1, 2 ** 5)):
        got = ops.settle(acc, scale)
        assert got == Fraction(acc, scale) and is_canonical(QQ, got)


@pytest.mark.parametrize("field", FIELDS + [F9, HALF_ROOT],
                         ids=lambda f: f.describe())
def test_lift_pairs_and_settle_all_match_lift_and_settle(field):
    ops, rng = field.ops, random.Random(71)

    def sample():
        if field.char:
            cs = [rng.randrange(field.char) for _ in range(field.degree)]
        else:
            cs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
                  for _ in range(field.degree)]
        if field.modulus:
            return field.from_coeffs(cs).val
        return field.from_fraction(cs[0]).val

    def reference_lift(vals):
        # on Q the numerators over the lcm of the denominators; elsewhere
        # the values themselves over 1
        if field.char or field.modulus:
            return vals, 1
        d = math.lcm(*(Fraction(v).denominator for v in vals))
        return [int(Fraction(v) * d) for v in vals], d

    rereadable = (list, tuple, type({}.items()))
    for _ in range(20):
        pairs = [(k, sample()) for k in range(rng.randint(0, 6))]
        lifted, scale = reference_lift([v for _, v in pairs])
        want = list(zip(range(len(pairs)), lifted))
        for form in (pairs, tuple(pairs), dict(pairs).items(), iter(pairs),
                     (p for p in pairs)):
            got, sc = ops.lift_pairs(form)
            assert sc == scale and list(got) == want and list(got) == want
            if scale == 1 and type(form) in rereadable:
                assert got is form  # no copy
        # unreduced sums of lifted products, and a zero entry
        acc = {k: ops.ladd(x, ops.lmul(x, x)) for k, x in want}
        acc[len(pairs)] = ops.lmul(lifted[0], ops.zero) if lifted else ops.zero
        for s2 in (scale, scale * scale):
            settled = {k: ops.settle(a, s2) for k, a in acc.items()}
            assert ops.settle_all(acc, s2) == {
                k: y for k, y in settled.items() if not ops.is_zero(y)}


# Every token Fraction accepted before integers got their fast path;
# each must still parse to Fraction(token).
ACCEPTED_TOKENS = ["0", "-0", "7", "-7", "007", "+3", " 2 ", "1_000", "0.5",
                   "-0.25", "1e3", "1.5e-3", ".5", "3.", "10/4", "-5/7",
                   "٣", str(2 ** 100), "-" + str(2 ** 100)]
REJECTED_TOKENS = ["", "-", "--3", "- 3", "²", "1/0", "x", "1.0/2", "0x10",
                   "1 2", "1e", "∞"]


def test_scalar_tokens_parse_as_before():
    f11, f9 = GF(11), GF(3, modulus=[1, 0, 1])
    for tok in ACCEPTED_TOKENS:
        want = Fraction(tok)
        got = QQ.parse(tok).val
        assert got == want and is_canonical(QQ, got), tok
        assert f11.parse(tok) == f11.from_fraction(want), tok
        assert Q_W.parse(tok) == Q_W.from_fraction(want), tok
        assert Q_W.parse(f"[{tok},1]") == Q_W.from_coeffs([want, 1]), tok
        if want.denominator % 3:
            assert f9.parse(f"[{tok}]") == f9.from_fraction(want), tok
    for tok in REJECTED_TOKENS:
        try:
            Fraction(tok.strip())
        except (ValueError, ZeroDivisionError) as exc:
            msg = f"cannot parse scalar {tok.strip()!r}: {exc}"
        else:
            raise AssertionError(f"Fraction accepts {tok!r}")
        with pytest.raises(ScalarParseError) as ei:
            QQ.parse(tok)
        assert str(ei.value) == msg


@pytest.mark.parametrize("field", [Q_W, QZ5, HALF_ROOT],
                         ids=lambda f: f.describe())
def test_char0_extension_inverses_hold_only_ints(field):
    ops, rng = field.ops, random.Random(71)
    vals = [field.from_coeffs(rational_coeffs(field, rng)).val
            for _ in range(40)]
    vals = [v for v in vals if not ops.is_zero(v)]
    for v in vals:
        inv = ops.inv(v)
        assert is_canonical(field, inv)
        assert all(type(c) is int for c in inv)
        assert ops.mul(v, inv) == ops.one
        hits = ops.inv.cache_info().hits
        assert ops.inv(v) is inv and ops.inv.cache_info().hits == hits + 1
    assert all(type(c) is int for c in cyclotomic_polynomial(12))
    assert all(is_canonical(QQ, c) for c in HALF_ROOT.modulus)


def test_raw_values_checks_the_field_of_a_one_shot_iterator():
    # read_vector, the one vector reader, reads a one-shot iterator once
    f7 = GF(7)
    assert read_vector(f7, 2, (f7.from_int(k) for k in (1, 9))) == \
        ((0, 1), (1, 2))
    assert read_vector(f7, 3, iter([0, f7.from_int(7), 8])) == ((2, 1),)
    mixed = (x for x in (f7.from_int(3), GF(5).from_int(3)))
    with pytest.raises(FieldMismatch):
        read_vector(f7, 2, mixed)
    with pytest.raises(FieldMismatch):
        read_vector(QQ, 2, iter([QQ.one(), f7.one()]))
    with pytest.raises(ShapeMismatch, match="vector lengths 3 vs 2"):
        read_vector(f7, 3, (x for x in (1, 2)))


def test_raw_values_are_read_from_ints_and_fractions_only():
    # a str or a float reaches no Fraction: text is read by parse_rational
    # alone, and a float is not an exact value
    for field in (QQ, GF(5), F4, Q_I):
        for bad in ("1e9999999", "1/2", 0.1, 0.5, 1.0, None):
            with pytest.raises(TypeError):
                field.raw(bad)
            with pytest.raises(TypeError):
                field.from_fraction(bad)
        assert field.raw(True) == field.raw(1)
        assert field.raw(Fraction(4, 2)) == field.raw(2)
    assert QQ.raw(Fraction(-3, 6)) == Fraction(-1, 2)
    assert GF(5).raw(Fraction(1, 2)) == 3


def test_modulus_coefficients_are_ints_or_fractions():
    for char, bad in ((5, 2.7), (5, "2"), (0, 0.5), (0, "1/2"),
                      (3, QQ.one()), (0, None)):
        with pytest.raises(FieldError, match="ints or Fractions"):
            FieldSpec(char, modulus=[bad, 0, 1])
    with pytest.raises(FieldError, match="ints or Fractions"):
        F4.from_coeffs([0.5, 1])
    # the int and Fraction forms still give the same field
    assert GF(5, modulus=[Fraction(4, 2), 0, 1]) == GF(5, modulus=[2, 0, 1])
    assert FieldSpec(0, modulus=[Fraction(-1, 2), 0, 1]) == HALF_ROOT


def test_text_is_read_only_by_parse_rational():
    # the messages of parse_raw, of a field modulus line and of
    # --field-extend, which read text through parse_rational
    from hopfex.cli import run_command
    from hopfex.structfile import parse_structure_file
    cases = [("x", "Invalid literal for Fraction: 'x'"),
             ("1e99999999", "numerator or denominator exceeds "
                            f"{sys.get_int_max_str_digits()} digits"),
             ("[1,2]", "coefficient list too long for a prime field")]
    for text, why in cases:
        with pytest.raises(ScalarParseError) as err:
            QQ.parse_raw(text)
        assert str(err.value) == f"cannot parse scalar {text!r}: {why}"
    with pytest.raises(ScalarParseError) as err:
        GF(3).parse_raw("1/3")
    assert str(err.value) == \
        "cannot parse scalar '1/3': denominator 3 is zero modulo 3"
    assert (QQ.parse_raw("0.5"), GF(5).parse_raw("1/2")) == (Fraction(1, 2), 3)
    head = "hopfex structure v1\nfield characteristic 5\nfield modulus "
    for coeffs in ("1/0 0 1", "1e99999999 0 1", "x 0 1"):
        with pytest.raises(ScalarParseError) as err:
            parse_structure_file(head + coeffs + "\ndim 1\n")
        assert str(err.value) == \
            "line 3: modulus coefficients must be fractions"
    golden = pathlib.Path(__file__).parent / "golden" / "sweedler.hopf"
    for spec, out in (
            ("1,0,x", "cannot parse modulus '1,0,x'"),
            ("1e99999999,0,1", "cannot parse modulus '1e99999999,0,1'"),
            ("1,0,1.5", "scalar extension failed: extension modulus must "
                        "be monic")):
        assert run_command(["exponent", str(golden),
                            f"--field-extend={spec}"]) == \
            (2, f"input error: {out}\n")


def boxed_combination(field, pairs, cols) -> dict:
    """sum c cols[k] over the (k, c) of pairs, on Scalars, as {m: raw
    value} with no zeros; a key absent from cols is a zero column."""
    acc: dict = {}
    for k, c in pairs:
        for m, x in cols.get(k, {}).items():
            acc[m] = acc.get(m, field.zero()) + Scalar(field, c) * Scalar(field, x)
    return {m: v.val for m, v in acc.items() if not v.is_zero()}


def boxed_dot(field, pairs, f: dict):
    """sum c f[k] over the (k, c) of pairs with k in f, on Scalars."""
    return sum((Scalar(field, c) * Scalar(field, f[k])
                for k, c in pairs if k in f), field.zero()).val


@pytest.mark.parametrize(
    "field", RAW_FIELDS + [f for _, f in LIFT_FIELDS if f not in RAW_FIELDS],
    ids=lambda f: f.describe())
def test_combination_and_dot_match_the_scalar_reference(field):
    # entries with denominators 2 to 7; keys 5 and 6 of the pairs have no
    # column and no value of f, and every third column is left out
    ops, rng = field.ops, random.Random(83)
    scales = set()
    for _ in range(30):
        cols = {k: dict(read_vector(field, 5, fraction_vector(field, rng, 5)))
                for k in range(5) if k % 3 != 2}
        f = dict(read_vector(field, 5, fraction_vector(field, rng, 5)))
        pairs = [(k, x) for k in range(7)
                 if not ops.is_zero(x := fraction_scalar(field, rng).val)]
        lifted, scale = lift_columns(ops, cols)
        fl, sf = ops.lift_pairs(list(f.items()))
        scales.update((scale, sf))
        want = boxed_combination(field, pairs, cols)
        want_dot = boxed_dot(field, pairs, f)
        for form in (list, tuple, lambda ps: dict(ps).items(), iter,
                     lambda ps: (p for p in ps)):
            got = combination(ops, form(pairs), lifted, scale)
            assert got == want
            assert all(is_canonical(field, x) for x in got.values())
            got = dot(ops, form(pairs), dict(fl), sf)
            assert got == want_dot and is_canonical(field, got)
    # the lift over a scale other than 1 is reached on Q
    assert (scales != {1}) == (field == QQ)
    # empty pairs, and pairs that meet no column or no value of f
    assert combination(ops, [], {0: [(0, ops.one)]}, 1) == {}
    assert combination(ops, iter([(9, ops.one)]), {0: [(0, ops.one)]}, 1) == {}
    assert dot(ops, [], {0: ops.one}, 1) == ops.zero
    assert dot(ops, iter([(9, ops.one)]), {0: ops.one}, 1) == ops.zero
