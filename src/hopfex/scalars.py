"""Exact scalar arithmetic over the fields the engine supports.

A field is described by a FieldSpec: characteristic 0 or a prime p,
optionally extended by a monic irreducible polynomial over the prime
field.  Char-0 extensions are usually cyclotomic and can be requested by
order; the modulus is then the cyclotomic polynomial, computed here by
iterated polynomial division.  That division, the irreducibility test,
the reduction in from_coeffs and the extended Euclid of the extension
inverses run on hopfex.poly with the prime field's FieldOps.

Scalars are immutable and hashable.  Each wraps one canonical raw value:

  * char 0, prime field -- int when the element is an integer, else a
                            fractions.Fraction with denominator > 1
  * char p, prime field -- int in [0, p)
  * F_p[t]/(m), degree d -- tuple of exactly d ints in [0, p), constant
                            term first
  * Q[t]/(m), degree d  -- tuple of d + 1 ints (n_0, ..., n_{d-1}, den):
                            the element sum n_i t^i / den, with den > 0
                            and gcd(n_0, ..., n_{d-1}, den) = 1, so zero
                            is (0, ..., 0, 1)

Two elements of one field are equal exactly when their raw values are.
FieldSpec._pad is the one place where extension raw values are made
from prime-field coefficients, and FieldSpec.coefficients the one place
where they are read back; no other module looks inside them.

Every FieldSpec owns one FieldOps table, built with the field: add, sub,
neg, mul, inv and is_zero on raw values.  An extension multiplies
coefficient lists and folds the terms of degree d .. 2d-2 back with a
precomputed table of t^k mod modulus; addition is coefficient-wise.  On a
char-0 extension all of this is integer arithmetic (an algebraic number
as an integer vector over one denominator, H. Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, section 4.2): the table
holds D t^k mod modulus, D the lcm of its denominators (1 on every
cyclotomic field), and each result divides out one multi-argument gcd.
Only the inverse, cached per value, runs the extended Euclid on
rationals.

Scalar's operators delegate to the table, and the hot loops (rref_rows,
FiniteAlgebra.mult) run on raw values directly: they unbox once with
raw_values and box once with box.  Boxing always goes through
Scalar(field, v), so counting Scalar.__init__ counts every Scalar made.

Sums of products are evaluated with delayed normalisation.  FieldOps.lift
turns raw values into integers over one common scale (numerators over
the lcm of the denominators on Q; the values themselves, scale 1, on
F_p), a kernel multiplies and adds those integers with no reduction,
and FieldOps.settle turns each nonzero output entry back into one
canonical raw value: one divmod on Q (and one gcd when the entry is
not an integer), one reduction mod p on F_p.  An
extension field lifts by the identity, so the same kernels run on its
own mul and add; on a char-0 extension those are already integer
operations with one gcd per result.

No floating point anywhere: a raw value over Q is never divided with
'/', which would turn two ints into a float.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from . import poly
from .errors import (
    DivisionByZero,
    FieldError,
    FieldMismatch,
    IncompatibleExtension,
    NoSuchRoot,
    ReducibleModulus,
    ScalarParseError,
    require,
)

MAX_EXTENSION_DEGREE = 16


def cyclotomic_polynomial(m: int) -> list[int]:
    """Monic cyclotomic polynomial of order m over the rationals,
    constant term first, computed by dividing x^m - 1 by the lower orders."""
    if m < 1:
        raise FieldError("cyclotomic order must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    rationals = FieldOps(0, None)
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly.divmod(rationals, num, cyclotomic_polynomial(d))
            require(not rem, "a cyclotomic polynomial divides x^m - 1")
    return num


def _is_irreducible(coeffs: list, p: int) -> bool:
    """Irreducibility of a monic polynomial over the prime field.

    Over F_p the candidate divisors up to half the degree are enumerated
    directly when that stays small; otherwise, and always over the
    rationals, the check is delegated to sympy.
    """
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if p and p ** (deg // 2 + 1) <= 4096:
        ops = FieldOps(p, None)
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                _, rem = poly.divmod(ops, coeffs, list(tail) + [1])
                if not rem:
                    return False
        return True
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))
    if p:
        f = sympy.Poly(expr, x, modulus=p)
    else:
        f = sympy.Poly(expr, x, domain="QQ")
    return bool(f.is_irreducible)


# ---------------------------------------------------------------------------
# raw-value arithmetic
# ---------------------------------------------------------------------------

_INV_CACHE_SIZE = 1024  # inverses remembered per extension field


# Q: a raw value is an int when the element is an integer and a Fraction
# with denominator > 1 otherwise.  int arithmetic is C-level; a Fraction
# result that happens to be integral is turned back into an int.

def _rational(x):
    """The canonical raw value over Q of an int, a Fraction, or anything
    Fraction accepts."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _add_rationals(a, b):
    c = a + b
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _sub_rationals(a, b):
    c = a - b
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _mul_rationals(a, b):
    c = a * b
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _invert_rational(a):
    n, d = a.numerator, a.denominator
    if n < 0:
        n, d = -n, -d
    return d if n == 1 else Fraction(d, n)


def _settle_rational(acc: int, scale: int):
    q, r = divmod(acc, scale)
    return Fraction(acc, scale) if r else q


def _lift_rationals(vals) -> tuple[list[int], int]:
    """Integer numerators of rationals over the lcm of their denominators."""
    vals = list(vals)
    dens = {v.denominator for v in vals if type(v) is not int}
    if not dens:
        return vals, 1
    d = math.lcm(*dens)
    return [v.numerator * (d // v.denominator) for v in vals], d


class FieldOps:
    """Arithmetic on the canonical raw values of one field.

    zero and one are raw values; add, sub and mul take two, neg, inv and
    is_zero one.  Every result is canonical again.  inv of zero is not
    checked here; Scalar.inverse raises DivisionByZero first.

    On Q the raw values are ints and Fractions (module docstring): two
    ints add, subtract and multiply as C-level ints, and a Fraction
    result with denominator 1 is returned as its numerator.  inv returns
    an int exactly when the value is +-1/n.

    lift and settle delay normalisation in sums of products.  lift(vals)
    returns (lifted, scale): on Q, integers over one common scale, the lcm
    of the denominators; on F_p, the values themselves with scale 1.
    Lifted values are multiplied with lmul and added with ladd; on Q and
    F_p these are plain integer operations, never reduced mod p, so a
    product of lifted values lies over the product of their scales.
    settle(acc, scale) returns the canonical raw value of acc over scale:
    on Q the int quotient when scale divides acc, else Fraction(acc,
    scale); acc % p on F_p.  A kernel settles once per
    output entry, so it normalises once per entry, not once per term.  An
    extension field lifts by the identity (scale 1), its lmul and ladd
    are its own mul and add, and settle returns acc.

    On a char-0 extension of degree d the raw values are integer tuples
    (n_0, ..., n_{d-1}, den) (module docstring).  add, sub and mul work
    on ints and divide out one gcd per result, skipped when the
    denominator is 1; is_zero is one tuple comparison with zero; inv runs
    the extended Euclid on Q's raw values, once per value (lru_cache).
    """

    __slots__ = ("zero", "one", "add", "sub", "neg", "mul", "inv", "is_zero",
                 "lift", "settle", "lmul", "ladd")

    def __init__(self, char: int, modulus: tuple | None):
        if modulus:
            self._extension(char, modulus)
            return
        if char:
            p = char
            self.zero, self.one = 0, 1
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.inv = lambda a: pow(a, p - 2, p)
            self.lift = lambda vals: (list(vals), 1)
            self.settle = lambda acc, scale: acc % p
        else:
            self.zero, self.one = 0, 1
            self.add, self.sub = _add_rationals, _sub_rationals
            self.neg, self.mul = operator.neg, _mul_rationals
            self.inv = _invert_rational
            self.lift = _lift_rationals
            self.settle = _settle_rational
        self.is_zero = operator.not_
        self.lmul, self.ladd = operator.mul, operator.add

    def _extension(self, p: int, modulus: tuple):
        d = len(modulus) - 1
        # t^k mod modulus for k = d .. 2d-2, prime-field coefficients
        top = [(-c) % p if p else -c for c in modulus[:d]]  # t^d
        rows, row = [], top
        for _ in range(d - 1):
            rows.append(row)
            lead = row[-1]
            row = [0] + row[:-1]
            if lead:
                row = [x + lead * y for x, y in zip(row, top)]
                if p:
                    row = [x % p for x in row]
        if not p:
            self._rational_extension(d, modulus, rows)
            return
        # red[k - d] holds the nonzero (i, c) of t^k mod modulus
        red = [[(i, c) for i, c in enumerate(r) if c] for r in rows]

        def mul(a, b):
            prod = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            prod[i + j] += x * y
            out = prod[:d]
            for k, terms in enumerate(red, d):
                c = prod[k]
                if c:
                    for i, y in terms:
                        out[i] += c * y
            return tuple([x % p for x in out])

        # a pass inverts few distinct values many times (pivots, leading
        # coefficients), so the extended Euclid runs once per value
        prime = FieldOps(p, None)

        @functools.lru_cache(maxsize=_INV_CACHE_SIZE)
        def inv(a):
            g, u, _ = poly.gcdext(prime, a, modulus)
            require(len(g) == 1, "modulus is irreducible, gcd must be a unit")
            c = pow(g[0], p - 2, p)
            return tuple([x * c % p for x in u]) + (0,) * (d - len(u))

        self.zero, self.one = (0,) * d, (1,) + (0,) * (d - 1)
        self.add = lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)])
        self.sub = lambda a, b: tuple([(x - y) % p for x, y in zip(a, b)])
        self.neg = lambda a: tuple([-x % p for x in a])
        self.mul = mul
        self.inv = inv
        self.is_zero = lambda a: not any(a)
        self._identity_lift()

    def _rational_extension(self, d: int, modulus: tuple, rows: list):
        """Q[t]/(modulus) on integer tuples (n_0, ..., n_{d-1}, den)."""
        # the reduction table over one denominator: D t^k mod modulus
        D = math.lcm(*(c.denominator for r in rows for c in r))
        red = [[(i, int(c * D)) for i, c in enumerate(r) if c] for r in rows]
        span = range(d)

        def canon(nums):
            # nums ends with a positive denominator; divide out the content
            if nums[-1] != 1:
                g = math.gcd(*nums)
                if g != 1:
                    return tuple([x // g for x in nums])
            return tuple(nums)

        def add(a, b):
            da, db = a[-1], b[-1]
            if da == db:
                nums = [x + y for x, y in zip(a, b)]
                nums[-1] = da
            else:
                nums = [x * db + y * da for x, y in zip(a, b)]
                nums[-1] = da * db
            return canon(nums)

        def sub(a, b):
            da, db = a[-1], b[-1]
            if da == db:
                nums = [x - y for x, y in zip(a, b)]
                nums[-1] = da
            else:
                nums = [x * db - y * da for x, y in zip(a, b)]
                nums[-1] = da * db
            return canon(nums)

        def neg(a):
            nums = [-x for x in a]
            nums[-1] = a[-1]
            return tuple(nums)

        def mul(a, b):
            prod = [0] * (2 * d - 1)
            for i in span:
                x = a[i]
                if x:
                    for j in span:
                        y = b[j]
                        if y:
                            prod[i + j] += x * y
            out = prod[:d] if D == 1 else [D * c for c in prod[:d]]
            for k, terms in enumerate(red, d):
                c = prod[k]
                if c:
                    for i, y in terms:
                        out[i] += c * y
            out.append(a[-1] * b[-1] * D)
            return canon(out)

        # the extended Euclid runs on Q's raw values, once per value
        rationals = FieldOps(0, None)

        @functools.lru_cache(maxsize=_INV_CACHE_SIZE)
        def inv(a):
            den = a[-1]
            g, u, _ = poly.gcdext(
                rationals, [_settle_rational(x, den) for x in a[:-1]], modulus)
            require(len(g) == 1, "modulus is irreducible, gcd must be a unit")
            c = rationals.inv(g[0])
            return _integer_tuple([rationals.mul(x, c) for x in u], d)

        self.zero, self.one = (0,) * d + (1,), (1,) + (0,) * (d - 1) + (1,)
        self.add, self.sub, self.neg, self.mul, self.inv = add, sub, neg, mul, inv
        self.is_zero = functools.partial(operator.eq, self.zero)
        self._identity_lift()

    def _identity_lift(self):
        # kernels run on this field's own mul and add
        self.lift = lambda vals: (list(vals), 1)
        self.settle = lambda acc, scale: acc
        self.lmul, self.ladd = self.mul, self.add


def _integer_tuple(coeffs, d: int) -> tuple:
    """The raw value (n_0, ..., n_{d-1}, den) of at most d rational
    coefficients, constant first: numerators over the lcm of the
    denominators, which leaves no common factor."""
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return tuple(nums) + (0,) * (d - len(nums)) + (den,)


def raw_values(field: "FieldSpec", vec) -> list:
    """The raw values of a sequence of Scalars of field.

    FieldMismatch when an entry belongs to another field.
    """
    vals = [x.val for x in vec]
    for x in vec:
        if x.field is not field and x.field != field:
            raise FieldMismatch(
                f"scalars from {field.describe()} and {x.field.describe()}")
    return vals


def nonzero_raw(field: "FieldSpec", vec) -> list:
    """(index, raw value) of the nonzero entries of a vector of Scalars."""
    is_zero = field.ops.is_zero
    return [(i, x) for i, x in enumerate(raw_values(field, vec))
            if not is_zero(x)]


def lift_pairs(ops: FieldOps, pairs) -> tuple[list, object]:
    """The (key, raw value) pairs with their values lifted, and the scale."""
    pairs = list(pairs)
    vals, scale = ops.lift([v for _, v in pairs])
    return [(k, x) for (k, _), x in zip(pairs, vals)], scale


def settle_all(ops: FieldOps, acc: dict, scale) -> dict:
    """{key: raw value} of the lifted entries of acc over scale, zeros
    dropped: one settle per entry."""
    settle, is_zero = ops.settle, ops.is_zero
    out = {}
    for k, a in acc.items():
        y = settle(a, scale)
        if not is_zero(y):
            out[k] = y
    return out


def lift_columns(ops: FieldOps, cols: dict) -> tuple[dict, object]:
    """The sparse raw columns {i: {m: raw value}} as {i: [(m, lifted)]},
    every value lifted over one scale, and the scale."""
    flat, scale = ops.lift([x for col in cols.values() for x in col.values()])
    it = iter(flat)
    return {i: [(m, next(it)) for m in col] for i, col in cols.items()}, scale


def combination(ops: FieldOps, coeffs, lifted, scale) -> dict:
    """sum of coeffs[k] lifted[k] as {m: raw value} with no zeros.

    coeffs are raw values, zero ones skipped; lifted[k] lists the (m,
    lifted value) of a vector, all over scale (lift_columns).  Each
    entry is settled once.
    """
    mul, add, is_zero = ops.lmul, ops.ladd, ops.is_zero
    cs, sc = lift_pairs(ops, [(k, c) for k, c in enumerate(coeffs)
                              if not is_zero(c)])
    acc: dict = {}
    for k, c in cs:
        for m, x in lifted[k]:
            y = mul(c, x)
            acc[m] = add(acc[m], y) if m in acc else y
    return settle_all(ops, acc, sc * scale)


def box(field: "FieldSpec", vals) -> tuple:
    """A tuple of Scalars of field from canonical raw values; the zeros
    share one Scalar."""
    is_zero = field.ops.is_zero
    zero = Scalar(field, field.ops.zero)
    return tuple([zero if is_zero(v) else Scalar(field, v) for v in vals])


# ---------------------------------------------------------------------------
# field specification
# ---------------------------------------------------------------------------

class FieldSpec:
    """An exact base field: Q, F_p, or a simple extension of either.

    modulus, when present, is the monic irreducible defining polynomial
    with constant term first.  cyclotomic_order is a char-0 convenience:
    the modulus is then the cyclotomic polynomial of that order and the
    generator t plays the primitive root of unity.  ops is the field's
    FieldOps table, built once here.
    """

    __slots__ = ("char", "modulus", "cyclotomic_order", "ops", "_hash")

    def __init__(self, char: int = 0, modulus=None, cyclotomic_order: int | None = None):
        if char < 0 or (char > 0 and not _is_prime(char)):
            raise FieldError(f"characteristic must be 0 or prime, got {char}")
        if cyclotomic_order is not None:
            if char != 0:
                raise FieldError("cyclotomic shorthand is for characteristic 0")
            if modulus is not None:
                raise FieldError("give either a modulus or a cyclotomic order, not both")
            if cyclotomic_order < 1:
                raise FieldError("cyclotomic order must be positive")
            if cyclotomic_order <= 2:
                # the root is rational; no extension needed
                cyclotomic_order = None
            else:
                modulus = cyclotomic_polynomial(cyclotomic_order)
        if modulus is not None:
            modulus = [_coerce_prime_coeff(c, char) for c in modulus]
            poly.trim(FieldOps(char, None), modulus)
            deg = len(modulus) - 1
            if deg < 1:
                raise FieldError("extension modulus must have positive degree")
            if deg > MAX_EXTENSION_DEGREE:
                raise FieldError(
                    f"extension degree {deg} exceeds the supported cap {MAX_EXTENSION_DEGREE}")
            if modulus[-1] != 1:
                raise FieldError("extension modulus must be monic")
            if cyclotomic_order is None and not _is_irreducible(modulus, char):
                raise ReducibleModulus("extension modulus is reducible")
            modulus = tuple(modulus)
        self.char = char
        self.modulus = modulus
        self.cyclotomic_order = cyclotomic_order
        self.ops = FieldOps(char, modulus)
        self._hash = hash((char, modulus))

    # -- basic protocol ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1 if self.modulus else 1

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.char == other.char
                and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.cyclotomic_order:
            return f"FieldSpec(char=0, cyclotomic_order={self.cyclotomic_order})"
        if self.modulus:
            return f"FieldSpec(char={self.char}, modulus={list(self.modulus)})"
        return f"FieldSpec(char={self.char})"

    def describe(self) -> str:
        if self.char == 0 and not self.modulus:
            return "Q"
        if self.char == 0 and self.cyclotomic_order:
            return f"Q(zeta_{self.cyclotomic_order})"
        if self.char == 0:
            return f"Q[t]/(modulus of degree {self.degree})"
        if not self.modulus:
            return f"F_{self.char}"
        return f"F_{self.char ** self.degree} = F_{self.char}[t]/(modulus of degree {self.degree})"

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        c = n % self.char if self.char else _rational(n)
        return Scalar(self, self._pad([c]) if self.modulus else c)

    def from_fraction(self, fr: Fraction) -> "Scalar":
        fr = _rational(fr)
        if self.char:
            den = fr.denominator % self.char
            if den == 0:
                raise DivisionByZero(
                    f"denominator {fr.denominator} is zero modulo {self.char}")
            val = fr.numerator * pow(den, self.char - 2, self.char) % self.char
            return self.from_int(val)
        if self.modulus:
            return Scalar(self, self._pad([fr]))
        return Scalar(self, fr)

    def from_coeffs(self, coeffs) -> "Scalar":
        """Element of an extension field from a coefficient list, constant first."""
        if not self.modulus:
            raise FieldError("coefficient lists only make sense in an extension field")
        cs = [_coerce_prime_coeff(c, self.char) for c in coeffs]
        if len(cs) > self.degree:
            cs = poly.divmod(FieldOps(self.char, None), cs, self.modulus)[1]
        return Scalar(self, self._pad(cs))

    def gen(self) -> "Scalar":
        """The residue of t, i.e. the extension generator."""
        if not self.modulus:
            raise FieldError("prime fields have no extension generator")
        return self.from_coeffs([0, 1])

    def _pad(self, coeffs: list) -> tuple:
        """The raw value of an extension element from at most degree
        prime-field coefficients, constant first: the one place where
        raw extension values are made from coefficients."""
        if self.char:
            return tuple(coeffs) + (0,) * (self.degree - len(coeffs))
        return _integer_tuple(coeffs, self.degree)

    def coefficients(self, s: "Scalar") -> tuple:
        """The prime-field coefficients of s, constant term first: degree
        of them, one on a prime field.  The one place where raw extension
        values are read back."""
        v = s.val
        if not self.modulus:
            return (v,)
        if self.char:
            return v
        den = v[-1]
        return tuple([_settle_rational(n, den) for n in v[:-1]])

    # -- scalar text format --------------------------------------------------

    def parse(self, text: str) -> "Scalar":
        """Parse 'a', 'a/b', an exact decimal such as '0.5' or '1e3', or a
        coefficient list '[c0,c1,...]' of those."""
        text = text.strip()
        try:
            if text.startswith("["):
                if not text.endswith("]"):
                    raise ValueError("unterminated coefficient list")
                body = text[1:-1].strip()
                parts = [p.strip() for p in body.split(",")] if body else []
                fracs = [_parse_rational(p) if p else 0 for p in parts]
                if not self.modulus:
                    if len(fracs) > 1 and any(fracs[1:]):
                        raise ValueError("coefficient list too long for a prime field")
                    return self.from_fraction(fracs[0] if fracs else 0)
                if len(fracs) > self.degree:
                    raise ValueError(
                        f"coefficient list longer than extension degree {self.degree}")
                if self.char:
                    coeffs = []
                    for fr in fracs:
                        den = fr.denominator % self.char
                        if den == 0:
                            raise ValueError("denominator vanishes modulo the characteristic")
                        coeffs.append(fr.numerator * pow(den, self.char - 2, self.char)
                                      % self.char)
                    return self.from_coeffs(coeffs)
                return self.from_coeffs(fracs)
            return self.from_fraction(_parse_rational(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarParseError(f"cannot parse scalar {text!r}: {exc}") from None

    def format(self, s: "Scalar") -> str:
        if s.field != self:
            raise FieldMismatch("formatting a scalar from another field")
        cs = self.coefficients(s)
        if any(cs[1:]):
            return "[" + ",".join(map(str, cs)) + "]"
        return str(cs[0])

    # -- roots of unity ------------------------------------------------------

    def primitive_root_of_unity(self, n: int) -> "Scalar":
        """A primitive n-th root of unity, deterministic, or NoSuchRoot."""
        if n < 1:
            raise FieldError("root order must be positive")
        if n == 1:
            return self.one()
        if self.char == 0:
            if n == 2:
                return self.from_int(-1)
            m = self.cyclotomic_order
            if m is not None:
                full = m if m % 2 == 0 else 2 * m
                if full % n == 0:
                    zeta = self.gen() if m % 2 == 0 else -self.gen()
                    return zeta ** (full // n)
                raise NoSuchRoot(f"{self.describe()} has no primitive {n}-th root of unity")
            if self.modulus:
                # best effort: powers of +-t, in case t is a root of unity
                for base in (self.gen(), -self.gen()):
                    acc = base
                    for order in range(1, 4 * self.degree ** 2 + 2):
                        if acc == self.one():
                            if order % n == 0:
                                return base ** (order // n)
                            break
                        acc = acc * base
            raise NoSuchRoot(f"{self.describe()} has no primitive {n}-th root of unity")
        group_order = self.char ** self.degree - 1
        if group_order % n:
            raise NoSuchRoot(f"{self.describe()} has no primitive {n}-th root of unity")
        for cand in self._nonzero_elements():
            order = _multiplicative_order(cand, group_order)
            if order % n == 0:
                return cand ** (order // n)
        raise NoSuchRoot(f"{self.describe()} has no primitive {n}-th root of unity")

    def _nonzero_elements(self):
        """Deterministic enumeration of the nonzero elements of a finite field."""
        if self.char == 0:
            raise FieldError("cannot enumerate an infinite field")
        if not self.modulus:
            for a in range(1, self.char):
                yield Scalar(self, a)
            return
        for tup in itertools.product(range(self.char), repeat=self.degree):
            if any(tup):
                yield Scalar(self, tuple(tup))

    # -- embeddings ----------------------------------------------------------

    def convert(self, s: "Scalar") -> "Scalar":
        """Embed a scalar of a (subfield) FieldSpec into this field."""
        if s.field == self:
            return s
        if s.field.char != self.char:
            raise IncompatibleExtension(
                f"cannot embed {s.field.describe()} into {self.describe()}: "
                "characteristics differ")
        if s.field.modulus is not None:
            raise IncompatibleExtension(
                f"cannot embed {s.field.describe()} into {self.describe()}: "
                "only prime fields embed automatically")
        if self.modulus is None:
            raise IncompatibleExtension(
                f"cannot embed {s.field.describe()} into {self.describe()}")
        return self.from_coeffs([s.val])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _coerce_prime_coeff(c, p: int):
    if isinstance(c, Scalar):
        raise FieldError("modulus coefficients must be plain numbers")
    if p:
        if isinstance(c, Fraction):
            if c.denominator % p == 0:
                raise DivisionByZero("coefficient denominator vanishes mod p")
            return c.numerator * pow(c.denominator % p, p - 2, p) % p
        return int(c) % p
    return _rational(c)


def _parse_rational(text: str):
    """The canonical raw value over Q of a rational literal: int() for
    the ASCII integers -?[0-9]+, Fraction's own syntax for the rest."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    return _rational(text)


def _multiplicative_order(s: "Scalar", bound: int) -> int:
    acc = s
    one = s.field.one()
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = acc * s
    raise FieldError("element order exceeded the group order; field data corrupt")


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """Immutable exact field element; arithmetic via operators."""

    __slots__ = ("field", "val")

    def __init__(self, field: FieldSpec, val):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- helpers -------------------------------------------------------------

    def _check(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    f"scalars from {self.field.describe()} and {other.field.describe()}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.field.ops.is_zero(self.val)

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        return Scalar(f, f.ops.add(self.val, o.val))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Scalar(f, f.ops.neg(self.val))

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        return Scalar(f, f.ops.sub(self.val, o.val))

    def __rsub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        return Scalar(f, f.ops.sub(o.val, self.val))

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        return Scalar(f, f.ops.mul(self.val, o.val))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        f = self.field
        if f.ops.is_zero(self.val):
            raise DivisionByZero(f"division by zero in {f.describe()}")
        return Scalar(f, f.ops.inv(self.val))

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        acc = self.field.one()
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._check(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.val == other.val)

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return f"Scalar({self.field.format(self)})"

    def __str__(self):
        return self.field.format(self)


QQ = FieldSpec(0)


def GF(p: int, modulus=None) -> FieldSpec:
    return FieldSpec(p, modulus=modulus)
