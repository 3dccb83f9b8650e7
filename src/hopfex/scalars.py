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
neg, mul, inv and is_zero on raw values.  An extension's add, sub, neg
and mul are straight-line Python functions, written out coefficient by
coefficient from the field's table of t^k mod modulus (k = d .. 2d-2) and
compiled once per table (_extension_kernels): a product is the product
of the coefficient lists with its terms of degree d .. 2d-2 folded back
through the table, a sum is coefficient-wise, and no loop, list or zip
runs per operation.  On a char-0 extension all of this is integer
arithmetic (an algebraic number as an integer vector over one
denominator, H. Cohen, A Course in Computational Algebraic Number
Theory, GTM 138, section 4.2): the table holds D t^k mod modulus, D the
lcm of its denominators (1 on every cyclotomic field), a result over
denominator 1 is returned as it is and any other divides out one
multi-argument gcd.  Over F_p each coefficient is reduced once.  Only
the inverse, cached per value, runs the extended Euclid on rationals.

Scalar's operators delegate to the table, and the hot loops run on raw
values directly.  A public value becomes raw in one place: FieldSpec.raw
reads a Scalar of the field, an int or a Fraction, and read_vector reads
a vector with it, checking its length, as the nonzero (index, raw value)
pairs every entry point takes; raw_table reads a structure table the
same way.  Boxing always goes through Scalar(field, v), so counting
Scalar.__init__ counts every Scalar made.

Sums of products are evaluated with delayed normalisation.
FieldOps.lift_pairs, the one lift, turns the values of (key, raw value)
pairs into integers over one common scale (numerators over the lcm of
the denominators on Q; the values themselves, scale 1, on F_p), a
kernel multiplies and adds those integers with no reduction, and
FieldOps.settle turns each nonzero output entry back into one canonical
raw value: one divmod on Q (and one gcd when the entry is not an
integer), one reduction mod p on F_p.  An extension field lifts by the
identity, so the same kernels run on its own generated mul and add; on
a char-0 extension those are already integer operations with at most
one gcd per result.  Every linear sum of lifted products runs through
combination, which returns a vector, or dot, which returns one value;
a cached lifted table is (lifted, scale), the order lift_pairs and
lift_columns return.

No floating point anywhere: a raw value over Q is never divided with
'/', which would turn two ints into a float.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
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
    ShapeMismatch,
    require,
    require_indices,
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
_KERNEL_CACHE_SIZE = 64  # extension fields whose compiled kernels are kept


# Q: a raw value is an int when the element is an integer and a Fraction
# with denominator > 1 otherwise.  int arithmetic is C-level; a Fraction
# result that happens to be integral is turned back into an int.

def _rational(x):
    """The canonical raw value over Q of an int or a Fraction; TypeError
    for anything else, as text is read by parse_rational alone."""
    if isinstance(x, int):
        return int(x)
    if not isinstance(x, Fraction):
        raise TypeError(f"expected an int or a Fraction, got {x!r}")
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


# pairs of these types are read more than once without a copy
_REREADABLE = (list, tuple, type({}.items()))


def _lift_rational_pairs(pairs) -> tuple:
    """(key, rational) pairs as (key, integer numerator) pairs over the
    lcm of the denominators; the pairs themselves, scale 1, when every
    value is an int."""
    if type(pairs) not in _REREADABLE:
        pairs = list(pairs)
    dens = {v.denominator for _, v in pairs if type(v) is not int}
    if not dens:
        return pairs, 1
    d = math.lcm(*dens)
    return [(k, v.numerator * (d // v.denominator)) for k, v in pairs], d


def _settle_rationals(acc: dict, scale: int) -> dict:
    """{key: raw value} of the integers of acc over scale, zeros dropped:
    one divmod per nonzero entry, none over scale 1."""
    if scale == 1:
        return {k: a for k, a in acc.items() if a}
    return {k: _settle_rational(a, scale) for k, a in acc.items() if a}


def _identity_pairs(pairs) -> tuple:
    """lift_pairs of a field whose lift is the identity: the pairs
    themselves, scale 1, with no copy unless they are a one-shot
    iterator, which a kernel could not read twice."""
    return (pairs if type(pairs) in _REREADABLE else list(pairs)), 1


class FieldOps:
    """Arithmetic on the canonical raw values of one field.

    zero and one are raw values; add, sub and mul take two, neg, inv and
    is_zero one.  Every result is canonical again.  inv of zero is not
    checked here; Scalar.inverse raises DivisionByZero first.

    On Q the raw values are ints and Fractions (module docstring): two
    ints add, subtract and multiply as C-level ints, and a Fraction
    result with denominator 1 is returned as its numerator.  inv returns
    an int exactly when the value is +-1/n.

    lift_pairs and settle delay normalisation in sums of products.
    lift_pairs(pairs) lifts the values of (key, raw value) pairs and
    returns (lifted pairs, scale): on Q, integers over one common scale,
    the lcm of the denominators; on F_p, the values themselves with scale
    1.  Lifted values are multiplied with lmul and added with ladd; on Q
    and F_p these are plain integer operations, never reduced mod p, so a
    product of lifted values lies over the product of their scales.
    settle(acc, scale) returns the canonical raw value of acc over scale:
    on Q the int quotient when scale divides acc, else Fraction(acc,
    scale); acc % p on F_p.  A kernel settles once per output entry, so
    it normalises once per entry, not once per term.  An extension field
    lifts by the identity (scale 1), its lmul and ladd are its own mul
    and add, and settle returns acc.

    settle_all(acc, scale) settles every entry of {key: lifted value} and
    drops the zeros.  Where the lift is the identity (F_p, every
    extension field, and Q when every value is an int) lift_pairs returns
    a list, a tuple or a dict's items as they are, with no copy, and any
    other iterable as a list.  settle_all is one comprehension: % p on
    F_p, a zero test only on an extension field, and on Q a divmod per
    entry only when the scale is not 1.

    On an extension field add, sub, neg and mul are the straight-line
    functions that _extension_kernels compiles from the reduction table,
    shared by every FieldSpec of the same field.  On a char-0 extension
    of degree d the raw values are integer tuples (n_0, ..., n_{d-1},
    den) (module docstring): add, sub and mul work on ints and divide out
    one gcd per result, skipped when the denominator is 1; is_zero is one
    tuple comparison with zero; inv runs the extended Euclid on Q's raw
    values, once per value (lru_cache).
    """

    __slots__ = ("zero", "one", "add", "sub", "neg", "mul", "inv", "is_zero",
                 "settle", "lmul", "ladd", "lift_pairs", "settle_all")

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
            self.settle = lambda acc, scale: acc % p
            self.lift_pairs = _identity_pairs
            self.settle_all = lambda acc, scale: {
                k: y for k, a in acc.items() if (y := a % p)}
        else:
            self.zero, self.one = 0, 1
            self.add, self.sub = _add_rationals, _sub_rationals
            self.neg, self.mul = operator.neg, _mul_rationals
            self.inv = _invert_rational
            self.settle = _settle_rational
            self.lift_pairs = _lift_rational_pairs
            self.settle_all = _settle_rationals
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
        if p:
            D, table = 1, tuple(tuple(r) for r in rows)
            self.zero, self.one = (0,) * d, (1,) + (0,) * (d - 1)
            self.is_zero = lambda a: not any(a)
        else:
            # the reduction table over one denominator: D t^k mod modulus
            D = math.lcm(*(c.denominator for r in rows for c in r))
            table = tuple(tuple(int(c * D) for c in r) for r in rows)
            self.zero, self.one = (0,) * d + (1,), (1,) + (0,) * (d - 1) + (1,)
            self.is_zero = functools.partial(operator.eq, self.zero)
        self.add, self.sub, self.neg, self.mul = _extension_kernels(p, d, table, D)
        # kernels run on this field's own mul and add
        zero = self.zero
        self.settle = lambda acc, scale: acc
        self.lift_pairs = _identity_pairs
        self.settle_all = lambda acc, scale: {
            k: a for k, a in acc.items() if a != zero}
        self.lmul, self.ladd = self.mul, self.add

        # a pass inverts few distinct values many times (pivots, leading
        # coefficients), so the extended Euclid, on the prime field's raw
        # values, runs once per value
        prime = FieldOps(p, None)

        @functools.lru_cache(maxsize=_INV_CACHE_SIZE)
        def inv(a):
            coeffs = a if p else [_settle_rational(x, a[-1]) for x in a[:-1]]
            g, u, _ = poly.gcdext(prime, coeffs, modulus)
            require(len(g) == 1, "modulus is irreducible, gcd must be a unit")
            c = prime.inv(g[0])
            u = [prime.mul(x, c) for x in u]
            return tuple(u) + (0,) * (d - len(u)) if p else _integer_tuple(u, d)

        self.inv = inv


@functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _extension_kernels(p: int, d: int, table: tuple, D: int) -> tuple:
    """add, sub, neg and mul on the raw values of an extension of degree d
    of F_p (p prime) or Q (p = 0), compiled once per table from
    straight-line source, so every FieldSpec of one field shares them.
    table[k - d] holds D t^k mod modulus for k = d .. 2d-2 (D = 1 over
    F_p).  The source is written from names and from p, d, D and the
    entries of table, which must be ints, so no input text reaches exec."""
    require(all(type(x) is int for x in (p, d, D, *itertools.chain(*table))),
            "extension kernels are written from ints only")
    namespace = {"gcd": math.gcd}
    exec(_kernel_source(p, d, table, D), namespace)
    return tuple(namespace[name] for name in ("add", "sub", "neg", "mul"))


def _kernel_source(p: int, d: int, table: tuple, D: int) -> str:
    """The source of _extension_kernels: every coefficient is written out,
    so no loop, list or zip runs per operation.

    Over F_p each result coefficient is reduced once, % p.  Over Q a raw
    value is (n_0, ..., n_{d-1}, den); a result over den = 1 is returned
    as it is, any other divides out one multi-argument gcd.  The integer
    formulas are those of the loop fold: the product of the coefficient
    lists, its terms of degree d .. 2d-2 folded back through table."""
    span = range(d)

    def tup(items):
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    def names(x):
        return [f"{x}{i}" for i in span] + ([] if p else [f"{x}d"])

    def unpack(x):
        return f"    {tup(names(x))[1:-1]} = {x}"

    def scaled(c, name):
        # + c * name, c a nonzero int; over F_p the residue nearest zero
        if p and 2 * c > p:
            c -= p
        sign, c = (" - ", -c) if c < 0 else (" + ", c)
        return sign + (name if c == 1 else f"{c}*{name}")

    # coefficient k of the product of the two coefficient lists
    conv = [" + ".join(f"a{i}*b{k - i}" for i in span if 0 <= k - i < d)
            for k in range(2 * d - 1)]
    folded = []
    for i in span:
        head = conv[i] if D == 1 else f"{D}*({conv[i]})"
        folded.append(head + "".join(scaled(row[i], f"c{k}")
                                     for k, row in enumerate(table, d) if row[i]))
    mul = ["def mul(a, b):", unpack("a"), unpack("b")]
    mul += [f"    c{k} = {conv[k]}" for k in range(d, 2 * d - 1)]
    lines = []
    if p:
        for name, op in (("add", "+"), ("sub", "-")):
            lines += [f"def {name}(a, b):", unpack("a"), unpack("b"),
                      "    return " + tup([f"(a{i} {op} b{i}) % {p}" for i in span])]
        lines += ["def neg(a):", unpack("a"),
                  "    return " + tup([f"-a{i} % {p}" for i in span])]
        lines += mul + ["    return " + tup([f"({f}) % {p}" for f in folded])]
        return "\n".join(lines) + "\n"

    n = [f"n{i}" for i in span]
    # the canonical raw value of (n_0, ..., n_{d-1}) over den > 1
    canon = [f"    g = gcd({', '.join(n)}, den)",
             "    if g == 1:",
             f"        return {tup(n + ['den'])}",
             "    return " + tup([f"{x} // g" for x in n + ["den"]])]
    for name, op in (("add", "+"), ("sub", "-")):
        lines += [f"def {name}(a, b):", unpack("a"), unpack("b"),
                  "    if ad == bd:"]
        lines += [f"        n{i} = a{i} {op} b{i}" for i in span]
        lines += ["        if ad == 1:",
                  f"            return {tup(n + ['1'])}",
                  "        den = ad",
                  "    else:"]
        lines += [f"        n{i} = a{i}*bd {op} b{i}*ad" for i in span]
        lines += ["        den = ad*bd"] + canon
    lines += ["def neg(a):", unpack("a"),
              "    return " + tup([f"-a{i}" for i in span] + ["ad"])]
    lines += mul + [f"    n{i} = {f}" for i, f in enumerate(folded)]
    lines += ["    den = ad*bd" + ("" if D == 1 else f"*{D}"),
              "    if den == 1:",
              f"        return {tup(n + ['1'])}"] + canon
    return "\n".join(lines) + "\n"


def _integer_tuple(coeffs, d: int) -> tuple:
    """The raw value (n_0, ..., n_{d-1}, den) of at most d rational
    coefficients, constant first: numerators over the lcm of the
    denominators, which leaves no common factor."""
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return tuple(nums) + (0,) * (d - len(nums)) + (den,)


def read_vector(field: "FieldSpec", n: int, vec) -> tuple:
    """The (index, raw value) pairs of the nonzero entries of the vector
    vec of length n, in increasing index, each entry read by
    FieldSpec.raw; ShapeMismatch for any other length.  The one reader
    of a public vector."""
    vec = tuple(vec)
    if len(vec) != n:
        raise ShapeMismatch(f"vector lengths {n} vs {len(vec)}")
    raw, is_zero = field.raw, field.ops.is_zero
    return tuple([(i, x) for i, c in enumerate(vec)
                  if not is_zero(x := raw(c))])


def raw_table(field: "FieldSpec", what: str, entries: dict, dim: int) -> dict:
    """{key: raw value} of the nonzero entries {key: value} of a structure
    table, each value read by FieldSpec.raw; AxiomViolation for an index
    of a key outside range(dim)."""
    require_indices(what, entries, dim)
    raw, is_zero = field.raw, field.ops.is_zero
    return {key: x for key, c in entries.items() if not is_zero(x := raw(c))}


def lift_columns(ops: FieldOps, cols: dict) -> tuple[dict, object]:
    """The sparse raw columns {i: {m: raw value}} as {i: [(m, lifted)]},
    every value lifted over one scale, and the scale."""
    pairs, scale = ops.lift_pairs([x for col in cols.values()
                                   for x in col.items()])
    it = iter(pairs)
    return {i: list(itertools.islice(it, len(col)))
            for i, col in cols.items()}, scale


def combination(ops: FieldOps, pairs, lifted, scale) -> dict:
    """sum of c lifted[k] over the (k, raw value c) pairs, as {m: raw
    value} with no zeros: the one kernel of a linear map on lifted
    columns.

    pairs are free of zeros, so a dense coefficient list, a polynomial's
    included, is passed through linalg.sparse_raw; lifted[k] lists the
    (m, lifted value) of a vector, all over scale (lift_columns), and a
    key absent from lifted is a zero column.  A lifted c equal to 1
    multiplies nothing (a basis vector's coefficient, on every field).
    Each entry is settled once.
    """
    mul, add, one = ops.lmul, ops.ladd, ops.one
    cs, sc = ops.lift_pairs(pairs)
    acc: dict = {}
    for k, c in cs:
        for m, x in lifted.get(k, ()):
            y = x if c == one else mul(c, x)
            acc[m] = add(acc[m], y) if m in acc else y
    return ops.settle_all(acc, sc * scale)


def dot(ops: FieldOps, pairs, lifted, scale):
    """sum of c lifted[k] over the (k, raw value c) pairs, free of zeros,
    as one raw value settled once: the one kernel of a linear functional.
    lifted maps keys to values lifted over scale; a key absent from it is
    a zero."""
    mul = ops.lmul
    cs, sc = ops.lift_pairs(pairs)
    terms = [mul(c, lifted[k]) for k, c in cs if k in lifted]
    if not terms:
        return ops.zero
    return ops.settle(functools.reduce(ops.ladd, terms), sc * scale)


def box(field: "FieldSpec", vals) -> tuple:
    """A tuple of Scalars of field from canonical raw values; the zeros
    are the field's one zero Scalar."""
    is_zero, zero = field.ops.is_zero, field.boxed_zero
    return tuple([zero if is_zero(v) else Scalar(field, v) for v in vals])


def box_sparse(field: "FieldSpec", n: int, pairs) -> tuple:
    """The vector of Scalars of length n with the nonzero (index, raw
    value) pairs set and the field's one zero Scalar elsewhere: the view
    of every sparse raw vector."""
    out = [field.boxed_zero] * n
    for i, x in pairs:
        out[i] = Scalar(field, x)
    return tuple(out)


# ---------------------------------------------------------------------------
# field specification
# ---------------------------------------------------------------------------

class FieldSpec:
    """An exact base field: Q, F_p, or a simple extension of either.

    modulus, when present, is the monic irreducible defining polynomial
    with constant term first.  cyclotomic_order is a char-0 convenience:
    the modulus is then the cyclotomic polynomial of that order and the
    generator t plays the primitive root of unity.  ops is the field's
    FieldOps table and boxed_zero the Scalar 0 that box shares, both
    built once here.
    """

    __slots__ = ("char", "modulus", "cyclotomic_order", "ops", "boxed_zero",
                 "_hash")

    def __init__(self, char: int = 0, modulus=None, cyclotomic_order: int | None = None):
        if type(char) is not int or char < 0 or (
                char > 0 and not _is_prime(char)):
            raise FieldError(f"characteristic must be 0 or prime, got {char}")
        if cyclotomic_order is not None:
            m = cyclotomic_order
            if type(m) is not int:
                raise FieldError(f"cyclotomic order must be an int, got {m!r}")
            if char != 0:
                raise FieldError("cyclotomic shorthand is for characteristic 0")
            if modulus is not None:
                raise FieldError("give either a modulus or a cyclotomic order, not both")
            if m < 1:
                raise FieldError("cyclotomic order must be positive")
            # phi(m) >= sqrt(m / 2), so a larger m is past the cap unfactored
            if m > 2 * MAX_EXTENSION_DEGREE ** 2 or _totient(m) > MAX_EXTENSION_DEGREE:
                raise FieldError(f"extension degree phi({m}) of Q(zeta_{m}) exceeds "
                                 f"the supported cap {MAX_EXTENSION_DEGREE}")
            if m <= 2:
                # the root is rational; no extension needed
                cyclotomic_order = None
            else:
                modulus = cyclotomic_polynomial(m)
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
        self.boxed_zero = Scalar(self, self.ops.zero)
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

    def raw(self, x):
        """The raw value of a Scalar of this field, an int or a Fraction,
        with no Scalar made: the one coercion of a public value.  An int
        or a Fraction is reduced mod p in characteristic p
        (DivisionByZero when the denominator is 0 mod p) and padded in an
        extension field.  FieldMismatch for a Scalar of another field,
        TypeError for anything else."""
        if isinstance(x, Scalar):
            if x.field is not self and x.field != self:
                raise FieldMismatch(f"scalar over {x.field.describe()} used "
                                    f"in a {self.describe()} coalgebra")
            return x.val
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {x!r} to a scalar")
        x, p = _rational(x), self.char
        if p:
            if type(x) is not int:
                den = x.denominator % p
                if den == 0:
                    raise DivisionByZero(
                        f"denominator {x.denominator} is zero modulo {p}")
                x = x.numerator * pow(den, p - 2, p)
            x %= p
        return self._pad([x]) if self.modulus else x

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, self.raw(n))

    def from_fraction(self, fr: Fraction) -> "Scalar":
        return Scalar(self, self.raw(fr))

    def from_coeffs(self, coeffs) -> "Scalar":
        """Element of an extension field from a coefficient list, constant first."""
        return Scalar(self, self.raw_from_coeffs(coeffs))

    def raw_from_coeffs(self, coeffs):
        """The raw value of the extension element with the coefficient
        list coeffs, constant first, reduced by the modulus."""
        if not self.modulus:
            raise FieldError("coefficient lists only make sense in an extension field")
        cs = [_coerce_prime_coeff(c, self.char) for c in coeffs]
        if len(cs) > self.degree:
            cs = poly.divmod(FieldOps(self.char, None), cs, self.modulus)[1]
        return self._pad(cs)

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
        of them, one on a prime field."""
        return self.raw_coefficients(s.val)

    def raw_coefficients(self, v) -> tuple:
        """coefficients of the raw value v: the one place where raw
        extension values are read back."""
        if not self.modulus:
            return (v,)
        if self.char:
            return v
        den = v[-1]
        return tuple([_settle_rational(n, den) for n in v[:-1]])

    # -- scalar text format --------------------------------------------------

    def parse(self, text: str) -> "Scalar":
        """parse_raw(text) as a Scalar."""
        return Scalar(self, self.parse_raw(text))

    def parse_raw(self, text: str):
        """The raw value of 'a', 'a/b', an exact decimal such as '0.5' or
        '1e3', or a coefficient list '[c0,c1,...]' of those;
        ScalarParseError for anything else, a denominator that vanishes in
        the field included."""
        text = text.strip()
        try:
            if not text.startswith("["):
                return self.raw(parse_rational(text))
            if not text.endswith("]"):
                raise ValueError("unterminated coefficient list")
            body = text[1:-1].strip()
            parts = [p.strip() for p in body.split(",")] if body else []
            fracs = [parse_rational(p) if p else 0 for p in parts]
            if not self.modulus:
                if len(fracs) > 1 and any(fracs[1:]):
                    raise ValueError("coefficient list too long for a prime field")
                return self.raw(fracs[0] if fracs else 0)
            if len(fracs) > self.degree:
                raise ValueError(
                    f"coefficient list longer than extension degree {self.degree}")
            if self.char and any(fr.denominator % self.char == 0 for fr in fracs):
                raise ValueError("denominator vanishes modulo the characteristic")
            return self.raw_from_coeffs(fracs)
        except (ValueError, ZeroDivisionError, DivisionByZero) as exc:
            raise ScalarParseError(f"cannot parse scalar {text!r}: {exc}") from None

    def format(self, s: "Scalar") -> str:
        if s.field != self:
            raise FieldMismatch("formatting a scalar from another field")
        return self.format_raw(s.val)

    def format_raw(self, v) -> str:
        """The text of the raw value v, as format writes its Scalar."""
        cs = self.raw_coefficients(v)
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
        for raw in self._nonzero_raw():
            cand = Scalar(self, raw)
            order = _multiplicative_order(cand, group_order)
            if order % n == 0:
                return cand ** (order // n)
        raise NoSuchRoot(f"{self.describe()} has no primitive {n}-th root of unity")

    def _nonzero_raw(self):
        """Deterministic enumeration of the raw nonzero elements of a finite
        field."""
        if self.char == 0:
            raise FieldError("cannot enumerate an infinite field")
        if not self.modulus:
            yield from range(1, self.char)
            return
        for tup in itertools.product(range(self.char), repeat=self.degree):
            if any(tup):
                yield tup

    # -- embeddings ----------------------------------------------------------

    def convert(self, s: "Scalar") -> "Scalar":
        """Embed a scalar of a (subfield) FieldSpec into this field."""
        return s if s.field == self else Scalar(self, self.embedding(s.field)(s.val))

    def embedding(self, small: "FieldSpec"):
        """The map of raw values of small into this field: the identity
        when small is this field, else small must be the prime field of
        this extension; IncompatibleExtension otherwise."""
        if small == self:
            return lambda v: v
        if small.char != self.char:
            raise IncompatibleExtension(
                f"cannot embed {small.describe()} into {self.describe()}: "
                "characteristics differ")
        if small.modulus is not None:
            raise IncompatibleExtension(
                f"cannot embed {small.describe()} into {self.describe()}: "
                "only prime fields embed automatically")
        if self.modulus is None:
            raise IncompatibleExtension(
                f"cannot embed {small.describe()} into {self.describe()}")
        return lambda v: self._pad([v])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _totient(m: int) -> int:
    """Euler's phi(m), by trial division."""
    out, d = m, 2
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    return out - out // m if m > 1 else out


def _coerce_prime_coeff(c, p: int):
    if not isinstance(c, (int, Fraction)):
        raise FieldError(f"modulus coefficients must be ints or Fractions, "
                         f"got {c!r}")
    if p:
        if isinstance(c, Fraction):
            if c.denominator % p == 0:
                raise DivisionByZero("coefficient denominator vanishes mod p")
            return c.numerator * pow(c.denominator % p, p - 2, p) % p
        return int(c) % p
    return _rational(c)


_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)(\d+(?:_\d+)*)?"
                       r"(?:\.(\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*")


def parse_rational(text: str):
    """The canonical raw value over Q of a rational literal: int() for
    the ASCII integers -?[0-9]+, Fraction's own syntax for the rest.
    ValueError, as int() raises it, when the numerator or denominator
    would exceed sys.get_int_max_str_digits() digits; an exponent is
    checked before its power of ten is formed."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    literal, limit = _EXPONENT.fullmatch(text), sys.get_int_max_str_digits()
    if literal and limit:
        whole, frac, exp = (g.replace("_", "") for g in literal.groups(""))
        exp = int(exp)
        if max(len((whole + frac).lstrip("0") or "0") + exp,
               len(frac) - exp + 1) > limit:
            raise ValueError(f"numerator or denominator exceeds {limit} digits")
    return _rational(Fraction(text))


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
