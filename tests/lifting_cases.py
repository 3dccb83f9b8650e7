"""Inputs with real denominators for the lifted kernels' reference tests.

The lifted kernels put every value over one common scale and normalise
once per output entry, so their inputs here carry denominators 2 to 7:
scalars made by from_fraction, and structure constants rescaled by such
scalars (an algebra, a coalgebra or a whole Hopf algebra on a basis
e'_i = d_i e_i).  The fields include a char-0 extension whose modulus is not
integral, two finite extensions and a prime field larger than any
denominator.
"""

import itertools
import math
import random
from fractions import Fraction

from hopfex import GF, QQ, Coalgebra, FieldSpec
from hopfex.algebra import FiniteAlgebra
from hopfex.hopf import HopfAlgebra
from hopfex.zoo import dual_group_algebra, sweedler, symmetric, taft

HALF_ROOT = FieldSpec(0, modulus=[Fraction(-1, 2), 0, 1])  # Q[t]/(t^2 - 1/2)
F4 = GF(2, modulus=[1, 1, 1])
F9 = GF(3, modulus=[1, 0, 1])
F13 = GF(13)
QZ5 = FieldSpec(0, cyclotomic_order=5)

# (test id, field)
LIFT_FIELDS = [("Q", QQ), ("Q_sqrt_half", HALF_ROOT), ("F_4", F4), ("F_9", F9),
               ("F_13", F13), ("Q_zeta5", QZ5)]


def hopf_case(field):
    """A small Hopf algebra over field, non-commutative or non-semisimple."""
    if field == QQ:
        return dual_group_algebra(symmetric(3), QQ)
    if field == HALF_ROOT:
        return sweedler(field)
    if field == F9:
        return taft(4, field)
    return taft(5 if field == QZ5 else 3, field)


def fraction(field, rng):
    """A nonzero from_fraction scalar with numerator and denominator in
    2 .. 7, neither divisible by the characteristic."""
    while True:
        a, b = rng.randint(2, 7), rng.randint(2, 7)
        if not field.char or (a % field.char and b % field.char):
            return field.from_fraction(Fraction(rng.choice((a, -a)), b))


def fraction_scalar(field, rng):
    """A seeded scalar of field built from fractions, zero about a
    quarter of the time; on an extension it also has a t-coefficient."""
    if rng.random() < 0.25:
        return field.zero()
    s = fraction(field, rng)
    if field.modulus and rng.random() < 0.7:
        s = s + fraction(field, rng) * field.gen()
    return s


def fraction_vector(field, rng, n):
    return tuple(fraction_scalar(field, rng) for _ in range(n))


def basis_scales(field, dim, seed):
    """Nonzero scalars d_0, ..., d_{dim-1} with denominators."""
    rng = random.Random(seed)
    out = []
    while len(out) < dim:
        d = fraction_scalar(field, rng)
        if not d.is_zero():
            out.append(d)
    return out


def rescaled_mul(table, unit, scales):
    """The multiplication terms (i, j, m) -> c and the unit of the table
    on the basis e'_i = d_i e_i: c'_ij^m = c_ij^m d_i d_j / d_m and
    1 = sum u_m / d_m e'_m."""
    inv = [d.inverse() for d in scales]
    terms = {(i, j, m): c * scales[i] * scales[j] * inv[m]
             for i, j in itertools.product(range(len(table)), repeat=2)
             for m, c in enumerate(table[i][j]) if not c.is_zero()}
    return terms, tuple(u * d for u, d in zip(unit, inv))


def rescaled_algebra(alg, scales):
    """alg on the basis e'_i = d_i e_i: c'_ij^m = c_ij^m d_i d_j / d_m."""
    terms, unit = rescaled_mul(alg.table, alg.unit, scales)
    return FiniteAlgebra.from_terms(alg.field, alg.dim, terms, unit)


def rescaled_comul(h, scales):
    """The comultiplication terms (i, j, k) -> c and the counit of h on
    e'_i = d_i e_i: Delta(e'_i) = sum c d_i / (d_j d_k) e'_j (x) e'_k and
    eps(e'_i) = d_i eps(e_i)."""
    inv = [d.inverse() for d in scales]
    comul = {(i, j, k): c * scales[i] * inv[j] * inv[k]
             for i in range(h.dim) for (j, k), c in h.comul[i].items()}
    return comul, [e * d for e, d in zip(h.counit, scales)]


def rescaled_coalgebra(h, scales):
    """h's coalgebra on e'_i = d_i e_i."""
    return Coalgebra(h.field, h.names, *rescaled_comul(h, scales))


def rescaled_hopf(h, scales):
    """The Hopf algebra h on e'_i = d_i e_i: mul, unit, comul and counit
    as rescaled_mul and rescaled_comul, and
    S(e'_i) = sum s_im d_i / d_m e'_m."""
    inv = [d.inverse() for d in scales]
    comul, counit = rescaled_comul(h, scales)
    mul, unit = rescaled_mul(h.mul_table, h.unit, scales)
    antipode = {(i, m): s * scales[i] * inv[m]
                for i, col in enumerate(h.antipode_mat.columns())
                for m, s in enumerate(col) if not s.is_zero()}
    return HopfAlgebra(h.field, h.names, comul, counit, mul, unit, antipode,
                       name=h.name)


def rescaled_vector(vec, scales):
    """The coordinates on e'_i = d_i e_i of the vector vec on e_i."""
    return tuple(v * d.inverse() for v, d in zip(vec, scales))


def has_denominators(values) -> bool:
    """Whether some rational coefficient among the Scalars is not an
    integer."""
    for s in values:
        if any(isinstance(c, Fraction) and c.denominator != 1
               for c in s.field.coefficients(s)):
            return True
    return False


def is_canonical(field, raw) -> bool:
    """Whether raw is a canonical raw value of field: on Q an int when it
    is an integer and otherwise a Fraction with denominator > 1 (never a
    bool, a float or a Fraction with denominator 1), an int in [0, p) on
    F_p, a tuple of degree such ints on F_p[t]/(m),
    and on a char-0 extension a tuple of degree + 1 ints
    (n_0, ..., n_{d-1}, den) with den > 0 and no common factor."""
    if field.modulus and field.char:
        return (type(raw) is tuple and len(raw) == field.degree
                and all(type(c) is int and 0 <= c < field.char for c in raw))
    if field.modulus:
        return (type(raw) is tuple and len(raw) == field.degree + 1
                and all(type(c) is int for c in raw)
                and raw[-1] > 0 and math.gcd(*raw) == 1)
    if field.char:
        return type(raw) is int and 0 <= raw < field.char
    return type(raw) is int or (type(raw) is Fraction
                                and raw.denominator > 1)
