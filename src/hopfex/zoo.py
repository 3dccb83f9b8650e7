"""Canonical Hopf algebra examples: group algebras, their duals, Taft
algebras, restricted polynomial algebras, and tensor products.

Builders return HopfAlgebra values by explicit structure constants.
The Taft builder multiplies in its own algebra, on raw values:
FiniteAlgebra._tensor_product for the comultiplication of a monomial,
FiniteAlgebra._product for its antipode, so no product rule is written
twice.  Nothing here is validated eagerly; the test suite runs
check_hopf on every builder output, cross-checks Taft
comultiplications against independently computed Gaussian binomial
coefficients, and compares taft(n) with a closed-form builder that
multiplies basis monomials by hand.
"""

from __future__ import annotations

import itertools
import re

from .algebra import FiniteAlgebra
from .errors import FieldMismatch, HopfError
from .hopf import HopfAlgebra
from .scalars import GF, QQ, FieldSpec, Scalar


# ---------------------------------------------------------------------------
# finite groups, concretely
# ---------------------------------------------------------------------------

class Group:
    """A finite group given by an element list and a multiplication map."""

    def __init__(self, elements: list, op, names: list[str], name: str):
        self.elements = list(elements)
        self.op = op
        self.names = list(names)
        self.name = name
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = next(
            e for e in self.elements
            if all(op(e, x) == x for x in self.elements))

    def __len__(self):
        return len(self.elements)

    def mul_index(self, i: int, j: int) -> int:
        return self.index[self.op(self.elements[i], self.elements[j])]

    def inverse_index(self, i: int) -> int:
        g = self.elements[i]
        for j, h in enumerate(self.elements):
            if self.op(g, h) == self.identity:
                return j
        raise HopfError("group element without inverse")


def cyclic(n: int) -> Group:
    if n < 1:
        raise HopfError(f"cyclic groups need n >= 1, got {n}")
    names = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return Group(list(range(n)), lambda a, b: (a + b) % n, names, f"Z{n}")


def symmetric(n: int) -> Group:
    elems = sorted(itertools.permutations(range(n)))
    names = []
    for p in elems:
        if p == tuple(range(n)):
            names.append("e")
        else:
            names.append("s" + "".join(str(i) for i in p))
    return Group(elems, lambda a, b: tuple(a[b[i]] for i in range(n)),
                 names, f"S{n}")


def group_algebra(g: Group, field: FieldSpec) -> HopfAlgebra:
    """kG: group-like basis, S(g) = g^(-1)."""
    n = len(g)
    comul = {(i, i, i): 1 for i in range(n)}
    counit = [1] * n
    mul = {(i, j, g.mul_index(i, j)): 1 for i in range(n) for j in range(n)}
    unit = [0] * n
    unit[g.index[g.identity]] = 1
    antipode = {(i, g.inverse_index(i)): 1 for i in range(n)}
    return HopfAlgebra(field, g.names, comul, counit, mul, unit, antipode,
                       name=f"k[{g.name}]")


def dual_group_algebra(g: Group, field: FieldSpec) -> HopfAlgebra:
    """k^G: pointwise products on delta functions, Delta from the group law."""
    n = len(g)
    names = [f"d{nm}" for nm in g.names]
    comul = {}
    for a in range(n):
        for b in range(n):
            comul[(g.mul_index(a, b), a, b)] = 1
    counit = [0] * n
    counit[g.index[g.identity]] = 1
    mul = {(i, i, i): 1 for i in range(n)}
    unit = [1] * n
    antipode = {(i, g.inverse_index(i)): 1 for i in range(n)}
    return HopfAlgebra(field, names, comul, counit, mul, unit, antipode,
                       name=f"k^{g.name}")


# ---------------------------------------------------------------------------
# Taft algebras
# ---------------------------------------------------------------------------

def taft(n: int, field: FieldSpec, q: Scalar | None = None) -> HopfAlgebra:
    """T_{n^2}(q): g^n = 1, x^n = 0, xg = q gx, Delta x = x(x)1 + g(x)x.

    Basis g^a x^b at index b*n + a.  The comultiplication of a general
    monomial is computed by multiplying Delta(g)^a Delta(x)^b inside
    H (x) H (FiniteAlgebra._tensor_product on the constants of the two
    generator rules).
    """
    if n < 2:
        raise HopfError("Taft algebras need n >= 2")
    if q is None:
        q = field.primitive_root_of_unity(n)
    ops, q_raw = field.ops, field.raw(q)
    one = ops.one
    # q^(b c) for every b, c < n, each power formed once
    qpow = [one]
    for _ in range((n - 1) ** 2):
        qpow.append(ops.mul(qpow[-1], q_raw))

    def idx(a: int, b: int) -> int:
        return b * n + a

    names = []
    for b in range(n):
        for a in range(n):
            if a == 0 and b == 0:
                names.append("1")
            else:
                ga = "" if a == 0 else ("g" if a == 1 else f"g^{a}")
                xb = "" if b == 0 else ("x" if b == 1 else f"x^{b}")
                names.append(ga + xb if not (ga and xb) else f"{ga}{xb}")
    dim = n * n
    # (g^a x^b)(g^c x^d) = q^(b c) g^(a+c) x^(b+d)
    mul = {(idx(a, b), idx(c, d), idx((a + c) % n, b + d)): qpow[b * c]
           for b, a, d, c in itertools.product(range(n), repeat=4)
           if b + d < n}
    alg = FiniteAlgebra.of_raw(field, dim, mul, [one] + [ops.zero] * (dim - 1))
    dx = [((idx(0, 1), idx(0, 0)), one), ((idx(1, 0), idx(0, 1)), one)]
    comul = [None] * dim
    for a in range(n):
        comul[a] = d = {(a, a): one}
        for b in range(1, n):
            comul[idx(a, b)] = d = alg._tensor_product(d.items(), dx)
    counit = [one if i < n else ops.zero for i in range(dim)]
    # S(g) = g^(n-1), S(x) = -g^(n-1) x, extended as an antialgebra map:
    # S(g^a x^b) = S(x)^b S(g)^a
    sg = [(idx(n - 1, 0), one)]
    sx = [(idx(n - 1, 1), ops.neg(one))]
    sg_pow, sx_pow = [{0: one}], [{0: one}]
    for _ in range(n - 1):
        sg_pow.append(alg._product(sg_pow[-1].items(), sg))
        sx_pow.append(alg._product(sx_pow[-1].items(), sx))
    antipode = {idx(a, b): alg._product(sx_pow[b].items(), sg_pow[a].items())
                for a in range(n) for b in range(n)}
    return HopfAlgebra.of_raw(field, names, comul, counit, alg, antipode,
                              name=f"T_{n * n}(q={q})")


def sweedler(field: FieldSpec) -> HopfAlgebra:
    """The 4-dimensional Taft algebra with q = -1."""
    h = taft(2, field, q=-field.one())
    h.name = "Sweedler H4"
    return h


def restricted_poly(p: int) -> HopfAlgebra:
    """k[x]/(x^p) over F_p with x primitive: Delta x = x(x)1 + 1(x)x."""
    field = GF(p)
    if not field.char:  # GF(0) is Q; GF rejects the other non-primes
        raise HopfError(f"restricted{p} needs a prime p")
    names = ["1"] + ["x" if m == 1 else f"x^{m}" for m in range(1, p)]
    binom = [[0] * (p + 1) for _ in range(p + 1)]
    for m in range(p + 1):
        binom[m][0] = 1
        for k in range(1, m + 1):
            binom[m][k] = binom[m - 1][k - 1] + (binom[m - 1][k] if k <= m - 1
                                                 else 0)
    comul = {}
    for m in range(p):
        for k in range(m + 1):
            c = binom[m][k] % p
            if c:
                comul[(m, k, m - k)] = c
    counit = [1] + [0] * (p - 1)
    mul = {}
    for a in range(p):
        for b in range(p):
            if a + b < p:
                mul[(a, b, a + b)] = 1
    unit = [1] + [0] * (p - 1)
    antipode = {(m, m): (-1) ** m for m in range(p)}
    return HopfAlgebra(field, names, comul, counit, mul, unit, antipode,
                       name=f"F{p}[x]/(x^{p})")


def tensor_product(a: HopfAlgebra, b: HopfAlgebra) -> HopfAlgebra:
    """A (x) B with componentwise product and tensor coalgebra structure."""
    if a.field != b.field:
        raise FieldMismatch("tensor factors over different fields")
    field, mul = a.field, a.field.ops.mul
    names = [f"{na}|{nb}" for na in a.names for nb in b.names]

    def idx(i: int, j: int) -> int:
        return i * b.dim + j

    comul = [{(idx(j, j2), idx(k, k2)): mul(c, c2)
              for (j, k), c in da.items() for (j2, k2), c2 in db.items()}
             for da in a.comul_raw for db in b.comul_raw]
    counit = [mul(x, y) for x in a.counit_raw for y in b.counit_raw]
    b_mul = b.algebra.raw_constants().items()
    products = {(idx(i, i2), idx(j, j2), idx(m, m2)): mul(c, c2)
                for (i, j, m), c in a.algebra.raw_constants().items()
                for (i2, j2, m2), c2 in b_mul}
    unit = [mul(x, y) for x in a.algebra.unit_raw for y in b.algebra.unit_raw]
    antipode = None
    if a.antipode_raw is not None and b.antipode_raw is not None:
        antipode = {idx(i, i2): {idx(m, m2): mul(c, c2)
                                 for m, c in sa.items() for m2, c2 in sb.items()}
                    for i, sa in a.antipode_raw.items()
                    for i2, sb in b.antipode_raw.items()}
    return HopfAlgebra.of_raw(
        field, names, comul, counit,
        FiniteAlgebra.of_raw(field, len(names), products, unit), antipode,
        name=f"{a.name} (x) {b.name}")


# ---------------------------------------------------------------------------
# named catalog for the command line
# ---------------------------------------------------------------------------

def build_named(name: str, field: FieldSpec | None = None) -> HopfAlgebra:
    """Construct a catalog example by name.

    Names: kZ<n>, kS3, dual-kZ<n>, dual-kS3, sweedler, taft<n>,
    restricted<p>.  When field is omitted each example picks its
    canonical one (rationals, smallest cyclotomic field containing the
    needed root of unity, or F_p).  A size that is not an integer
    raises HopfError, as does a size the example rejects.
    """
    if name.startswith("kZ"):
        return group_algebra(cyclic(_size(name, "kZ")), field or QQ)
    if name == "kS3":
        return group_algebra(symmetric(3), field or QQ)
    if name.startswith("dual-kZ"):
        return dual_group_algebra(cyclic(_size(name, "dual-kZ")), field or QQ)
    if name == "dual-kS3":
        return dual_group_algebra(symmetric(3), field or QQ)
    if name == "sweedler":
        return sweedler(field or QQ)
    if name.startswith("taft"):
        n = _size(name, "taft")
        return taft(n, field or FieldSpec(0, cyclotomic_order=n))
    if name.startswith("restricted"):
        p = _size(name, "restricted")
        if field is not None and field != GF(p):
            raise HopfError(f"restricted{p} is only defined over F_{p}")
        return restricted_poly(p)
    raise HopfError(f"unknown zoo example {name!r}")


def _size(name: str, prefix: str) -> int:
    """The integer written after prefix in the catalog name."""
    size = name[len(prefix):]
    if not re.fullmatch(r"-?[0-9]+", size):
        raise HopfError(f"zoo example {name!r} needs an integer size after "
                        f"{prefix!r}")
    return int(size)


ZOO_NAMES = ["kZ2", "kZ3", "kZ6", "kS3", "dual-kZ2", "dual-kZ3", "dual-kS3",
             "sweedler", "taft3", "taft4", "restricted3", "restricted5"]
