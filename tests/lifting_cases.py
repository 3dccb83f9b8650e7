"""Inputs with real denominators for the lifted kernels' reference tests.

The lifted kernels put every value over one common scale and normalise
once per output entry, so their inputs here carry denominators 2 to 7:
scalars made by from_fraction, and structure constants rescaled by such
scalars (an algebra, a coalgebra or a whole Hopf algebra on a basis
e'_i = d_i e_i).  The fields include a char-0 extension whose modulus is not
integral, two finite extensions and a prime field larger than any
denominator.

dense_table is the dense reference table that the Scalar reference
loops of the tests read, built from an algebra's sparse constants,
scalar_constants is those constants boxed, {(i, j, m): Scalar}, and
reference_coalgebra_check is Coalgebra.check as the Scalar loop it was
before it ran on raw values.  t2_from_pair, t2_flatten and
tensor_square_subspace are the Scalar tensor helpers that only the tests
use: u (x) v as a sparse tensor, its dense flattening, and V (x) W.
tensor_mult, identity_map, counit_unit_map, hopf_power_map, hit_left,
hit_right, component and bicomponent_decomposition_vec are the Scalar
readers of hopfex's
raw kernels that only the tests call.  vec_dot, t2_add_term, solve and
solve_columns are the Scalar dot product, the Scalar sparse-tensor
accumulator and the Mat solvers (each right-hand side reduced against
one linalg.Echelon of the matrix's columns) that the tests use as
references.  as_raw and as_boxed convert a vector between its Scalar
tuple and its sparse raw dict {m: raw value} at the call of a routine
that takes or returns the other form, and right_mult_mat is R_u as a Mat,
which only the tests read.  zero_vec, unit_vec, vec_add, vec_sub,
vec_scale and vec_is_zero are the Scalar-vector helpers that Element
replaced in hopfex, kept as the boxed reference of its arithmetic;
delta_vec and mul_vec are Delta and the product of vectors of Scalars
through Element, reference_mult the product as a loop over the dense
table, and reference_format the text of a vector of Scalars as
Coalgebra.format_element wrote it from the Scalars.  loop_extension_ops is the arithmetic of an
extension field as the coefficient loops it ran on before its kernels
were generated as straight-line code: the reference they are checked
against.  dense_rref_raw is the dense column-by-column elimination that
linalg.rref_sparse replaced, kept as its reference, and integer_row the
Fraction scaling of a rational row to integers that it starts from over
Q.  RAW_FIELDS is the field of each raw kind, two cyclotomic fields
among them.  unit_pool_split is
FiniteAlgebra.split_commutative as it ran before its pool started from
the basis idempotents: the refinement from the unit alone, the
reference of a differential test and what runs _eigen_pieces in
the tests of that routine.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from hopfex import GF, QQ, Coalgebra, Element, FieldSpec
from hopfex.algebra import FiniteAlgebra
from hopfex.hopf import HopfAlgebra
from hopfex.coalgebra import lift_functionals
from hopfex.errors import HopfError, NonSplitField, ShapeMismatch
from hopfex.linalg import Echelon, Mat, SubspaceBasis, dense_raw, sparse_raw
from hopfex.scalars import box, read_vector
from hopfex.zoo import dual_group_algebra, sweedler, symmetric, taft

HALF_ROOT = FieldSpec(0, modulus=[Fraction(-1, 2), 0, 1])  # Q[t]/(t^2 - 1/2)
F4 = GF(2, modulus=[1, 1, 1])
F9 = GF(3, modulus=[1, 0, 1])
F13 = GF(13)
QZ5 = FieldSpec(0, cyclotomic_order=5)
RAW_FIELDS = [QQ, GF(5), F4, FieldSpec(0, cyclotomic_order=3), QZ5]

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


def as_raw(obj, vec: tuple) -> dict:
    """The sparse raw vector {m: raw value} of a vector of Scalars over
    obj.field."""
    vec = tuple(vec)
    return dict(read_vector(obj.field, len(vec), vec))


def as_boxed(obj, vec) -> tuple:
    """The vector of obj.dim Scalars of a sparse raw vector {m: raw value}
    or its (m, raw value) pairs."""
    return box(obj.field, dense_raw(obj.field.ops, obj.dim, dict(vec).items()))


def zero_vec(field, n: int) -> tuple:
    return (field.boxed_zero,) * n


def unit_vec(field, n: int, i: int) -> tuple:
    z, o = field.boxed_zero, field.one()
    return tuple(o if j == i else z for j in range(n))


def vec_add(a: tuple, b: tuple) -> tuple:
    if len(a) != len(b):
        raise ShapeMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: tuple, b: tuple) -> tuple:
    if len(a) != len(b):
        raise ShapeMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a: tuple) -> tuple:
    return tuple(c * x for x in a)


def vec_is_zero(a: tuple) -> bool:
    return all(x.is_zero() for x in a)


def delta_vec(h, vec) -> dict:
    """Delta(vec) as {(j, k): Scalar}: Element.delta of the vector."""
    return Element(h, vec).delta()


def mul_vec(h, u, v) -> tuple:
    """u v as a vector of Scalars: Element.__mul__ of the vectors."""
    return (Element(h, u) * Element(h, v)).vec


def reference_mult(alg, u, v):
    """FiniteAlgebra.mult as a Scalar loop over every entry of the dense
    table."""
    table = dense_table(alg)
    out = list(zero_vec(alg.field, alg.dim))
    for i, ui in enumerate(u):
        if ui.is_zero():
            continue
        for j, vj in enumerate(v):
            if vj.is_zero():
                continue
            c = ui * vj
            for m, t in enumerate(table[i][j]):
                if not t.is_zero():
                    out[m] = out[m] + c * t
    return tuple(out)


def reference_format(h, vec) -> str:
    """The text of a vector of Scalars, as Coalgebra.format_element wrote
    it from the Scalars before it formatted raw values."""
    terms = []
    for i, c in enumerate(vec):
        if c.is_zero():
            continue
        s = str(c)
        if s == "1":
            terms.append(h.names[i])
        elif s == "-1":
            terms.append("-" + h.names[i])
        elif all(ch.isdigit() for ch in s.lstrip("-")):
            terms.append(f"{s}*{h.names[i]}")
        else:
            terms.append(f"({s})*{h.names[i]}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
    return out


def right_mult_mat(alg, u: tuple) -> Mat:
    """R_u, whose column j is e_j u, read off the products by basis vectors."""
    return alg._mult_mat(alg._basis_products(
        read_vector(alg.field, alg.dim, u), False))


def scalar_constants(alg) -> dict:
    """alg.raw_constants() boxed: FiniteAlgebra(field, dim, these, unit)
    is alg."""
    raw = alg.raw_constants()
    return dict(zip(raw, box(alg.field, raw.values())))


@functools.lru_cache(maxsize=8)
def dense_table(alg):
    """table[i][j], the coefficient tuple of e_i e_j as Scalars, for
    every i, j: the dense dim^3 reference built from the sparse
    constants (cached, as the reference loops read it per product)."""
    zero = alg.field.zero()
    table = [[[zero] * alg.dim for _ in range(alg.dim)]
             for _ in range(alg.dim)]
    for (i, j, m), c in scalar_constants(alg).items():
        table[i][j][m] = c
    return tuple(tuple(tuple(v) for v in row) for row in table)


def vec_dot(a: tuple, b: tuple):
    if len(a) != len(b):
        raise ShapeMismatch(f"vector lengths {len(a)} vs {len(b)}")
    acc = a[0].field.zero() if a else None
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def t2_add_term(acc: dict, key: tuple, val):
    """Add the Scalar val at key of a sparse tensor, keeping acc free of
    zeros; keys may be pairs or triples."""
    if key in acc:
        s = acc[key] + val
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s
    elif not val.is_zero():
        acc[key] = val


def solve(m: Mat, b: tuple) -> tuple:
    """One exact solution of m @ x = b (free variables zero), or NoSolution."""
    if len(b) != m.nrows:
        raise ShapeMismatch(f"rhs length {len(b)} vs {m.nrows} rows")
    return solve_columns(m, Mat.from_columns(m.field, [b], m.nrows)).column(0)


def solve_columns(m: Mat, rhs: Mat) -> Mat:
    """Solve m @ X = rhs: each column of rhs reduced against the Echelon
    of m's columns."""
    if rhs.nrows != m.nrows:
        raise ShapeMismatch(f"rhs with {rhs.nrows} rows vs {m.nrows} rows")
    field = m.field
    columns = Echelon(field)
    for c in m.columns():
        columns.add(dict(read_vector(field, m.nrows, c)))
    x = [[field.ops.zero] * rhs.ncols for _ in range(m.ncols)]
    for j, b in enumerate(rhs.columns()):
        b = dict(read_vector(field, m.nrows, b))
        for k, c in columns.coords(b).items():
            x[k][j] = c
    return Mat(field, [box(field, r) for r in x], rhs.ncols)


def t2_from_pair(u: tuple, v: tuple) -> dict:
    out = {}
    for j, x in enumerate(u):
        if x.is_zero():
            continue
        for k, y in enumerate(v):
            if not y.is_zero():
                t2_add_term(out, (j, k), x * y)
    return out


def t2_flatten(field, a: dict, dim: int) -> tuple:
    out = list(zero_vec(field, dim * dim))
    for (j, k), v in a.items():
        out[j * dim + k] = v
    return tuple(out)


def tensor_square_subspace(v, w):
    """The subspace V (x) W inside the flattened square of the ambient."""
    field = v.field
    dim = v.ambient
    rows = []
    for a in v.rows:
        for b in w.rows:
            rows.append(t2_flatten(field, t2_from_pair(a, b), dim))
    return SubspaceBasis(field, dim * w.ambient, rows)


def tensor_mult(alg, a: dict, b: dict) -> dict:
    """Sparse product on A (x) A of two {(j, k): Scalar} tensors, by the
    raw kernel FiniteAlgebra._tensor_product."""
    field = alg.field
    acc = alg._tensor_product([(k, field.raw(x)) for k, x in a.items()],
                              [(k, field.raw(x)) for k, x in b.items()])
    return dict(zip(acc, box(field, acc.values())))


def identity_map(h) -> Mat:
    return Mat.identity(h.field, h.dim)


def counit_unit_map(h) -> Mat:
    cols = [vec_scale(h.counit[i], h.unit) for i in range(h.dim)]
    return Mat.from_columns(h.field, cols, h.dim)


def hopf_power_map(h, n: int) -> Mat:
    """[n] = n-fold convolution power of the identity; [0] = u o eps."""
    if n < 0:
        raise HopfError("Hopf power maps are defined for n >= 0")
    if n == 0:
        return counit_unit_map(h)
    m = ident = identity_map(h)
    for _ in range(n - 1):
        m = h.convolution(m, ident)
    return m


def hit_left(c, f: tuple, h: tuple) -> tuple:
    """f harpoon-> h = sum h_(1) f(h_(2)): f eats the right tensor leg."""
    family = lift_functionals(c.field, [read_vector(c.field, c.dim, f)])
    return as_boxed(c, c._hit(read_vector(c.field, c.dim, h), family, 1)[0])


def hit_right(c, h: tuple, f: tuple) -> tuple:
    """h <-harpoon f = sum f(h_(1)) h_(2): f eats the left tensor leg."""
    family = lift_functionals(c.field, [read_vector(c.field, c.dim, f)])
    return as_boxed(c, c._hit(read_vector(c.field, c.dim, h), family, 0)[0])


def component(c, h: tuple, left: int, right: int) -> tuple:
    """Bicomponent ^C h ^D of c: left applies h <- e_C, right e_D -> h."""
    return as_boxed(c, c._component_raw(read_vector(c.field, c.dim, h),
                                        left, right))


def bicomponent_decomposition_vec(c, h: tuple) -> dict:
    """All nonzero ^C h ^D of c; their sum is h."""
    n = len(c.simple_subcoalgebras())
    out, total = {}, zero_vec(c.field, c.dim)
    for left, right in itertools.product(range(n), repeat=2):
        v = component(c, h, left=left, right=right)
        if not vec_is_zero(v):
            out[(left, right)] = v
            total = vec_add(total, v)
    assert total == tuple(h), "bicomponents failed to sum back"
    return out


def reference_coalgebra_check(c) -> list[str]:
    """Coalgebra.check as a loop over Scalars: (Delta (x) id) Delta(e_i)
    and (id (x) Delta) Delta(e_i) term by term, and the two counit laws
    as dense vectors."""
    bad = []
    for i in range(c.dim):
        d = c.comul[i]
        left: dict = {}
        right: dict = {}
        for (j, k), x in d.items():
            for (a, b), y in c.comul[j].items():
                t2_add_term(left, (a, b, k), x * y)
            for (a, b), y in c.comul[k].items():
                t2_add_term(right, (j, a, b), x * y)
        if left != right:
            bad.append(f"coassociativity fails on {c.names[i]}")
        lvec = list(zero_vec(c.field, c.dim))
        rvec = list(zero_vec(c.field, c.dim))
        for (j, k), x in d.items():
            lvec[k] = lvec[k] + x * c.counit[j]
            rvec[j] = rvec[j] + x * c.counit[k]
        e_i = unit_vec(c.field, c.dim, i)
        if tuple(lvec) != e_i:
            bad.append(f"left counit law fails on {c.names[i]}")
        if tuple(rvec) != e_i:
            bad.append(f"right counit law fails on {c.names[i]}")
    return bad


def rescaled_mul(alg, scales):
    """The multiplication terms (i, j, m) -> c and the unit of alg on the
    basis e'_i = d_i e_i: c'_ij^m = c_ij^m d_i d_j / d_m and
    1 = sum u_m / d_m e'_m."""
    inv = [d.inverse() for d in scales]
    terms = {(i, j, m): c * scales[i] * scales[j] * inv[m]
             for (i, j, m), c in scalar_constants(alg).items()}
    return terms, tuple(u * d for u, d in zip(alg.unit, inv))


def rescaled_algebra(alg, scales):
    """alg on the basis e'_i = d_i e_i: c'_ij^m = c_ij^m d_i d_j / d_m."""
    terms, unit = rescaled_mul(alg, scales)
    return FiniteAlgebra(alg.field, alg.dim, terms, unit)


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
    mul, unit = rescaled_mul(h.algebra, scales)
    antipode = {(i, m): s * scales[i] * inv[m]
                for i, col in enumerate(h.antipode_mat.columns())
                for m, s in enumerate(col) if not s.is_zero()}
    return HopfAlgebra(h.field, h.names, comul, counit, mul, unit, antipode,
                       name=h.name)


def rebased_coalgebra(h, seed):
    """h's coalgebra on f_i = e_i + sum_(a < i) p_ai e_a, with seeded
    integers p_ai in -2..2: an integer unitriangular change of basis, so
    a delta-function basis becomes a dense one and the minimal
    polynomials of products by basis vectors get several roots."""
    rng = random.Random(seed)
    n, field = h.dim, h.field
    p = [[int(a == i) if a >= i else rng.randint(-2, 2) for i in range(n)]
         for a in range(n)]
    # e_b = sum_j q_jb f_j for the unitriangular inverse q of p
    q = [[int(a == i) for i in range(n)] for a in range(n)]
    for i in range(n):
        for a in range(i - 1, -1, -1):
            q[a][i] = -sum(p[a][b] * q[b][i] for b in range(a + 1, i + 1))
    comul: dict = {}
    for i in range(n):
        for a in range(i + 1):
            for (b, c), val in h.comul[a].items():
                for j, k in itertools.product(range(b + 1), range(c + 1)):
                    w = p[a][i] * q[j][b] * q[k][c]
                    if w:
                        key = (i, j, k)
                        comul[key] = comul.get(key, field.zero()) + val * w
    counit = [sum((h.counit[a] * p[a][i] for a in range(i + 1)), field.zero())
              for i in range(n)]
    return Coalgebra(field, h.names, comul, counit)


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


def loop_extension_ops(field) -> dict:
    """{"add", "sub", "neg", "mul"} of an extension field's raw values as
    coefficient loops: the product of the coefficient lists folds its
    terms of degree d .. 2d-2 back with a table of t^k mod modulus, and a
    char-0 result divides out the gcd of its integers unless its
    denominator is 1."""
    p, modulus, d = field.char, field.modulus, field.degree
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
    # the table over one denominator: D t^k mod modulus (D = 1 over F_p)
    D = 1 if p else math.lcm(*(c.denominator for r in rows for c in r))
    red = [[(i, int(c * D)) for i, c in enumerate(r) if c] for r in rows]

    def fold(a, b):
        prod = [0] * (2 * d - 1)
        for i in range(d):
            if a[i]:
                for j in range(d):
                    if b[j]:
                        prod[i + j] += a[i] * b[j]
        out = [D * c for c in prod[:d]]
        for k, terms in enumerate(red, d):
            if prod[k]:
                for i, y in terms:
                    out[i] += prod[k] * y
        return out

    if p:
        return {"add": lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)]),
                "sub": lambda a, b: tuple([(x - y) % p for x, y in zip(a, b)]),
                "neg": lambda a: tuple([-x % p for x in a]),
                "mul": lambda a, b: tuple([x % p for x in fold(a, b)])}

    def canon(nums):
        if nums[-1] != 1:
            g = math.gcd(*nums)
            if g != 1:
                return tuple([x // g for x in nums])
        return tuple(nums)

    def add(a, b, sign=1):
        da, db = a[-1], b[-1]
        if da == db:
            nums = [x + sign * y for x, y in zip(a, b)]
            nums[-1] = da
        else:
            nums = [x * db + sign * y * da for x, y in zip(a, b)]
            nums[-1] = da * db
        return canon(nums)

    def neg(a):
        nums = [-x for x in a]
        nums[-1] = a[-1]
        return tuple(nums)

    return {"add": add, "sub": lambda a, b: add(a, b, -1), "neg": neg,
            "mul": lambda a, b: canon(fold(a, b) + [a[-1] * b[-1] * D])}


def integer_row(row) -> list[int]:
    """The rationals of row times the lcm of their denominators."""
    d = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(Fraction(x) * d) for x in row]


def dense_rref_raw(field, work: list[list]) -> list[int]:
    """Canonical RREF of dense raw rows, in place, as the column-by-column
    loop linalg ran before its elimination took sparse rows: the
    reference of linalg.rref_sparse.  Returns the pivot columns.

    Over Q it runs fraction-free on primitive integer rows: a row r is
    cleared at the pivot p of row s by r <- (p / g) r - (r_p / g) s with
    g = gcd(p, r_p), then divided by its content, and a kept row is
    divided by its pivot entry once per entry at the end.
    """
    ops = field.ops
    is_zero, mul, sub = ops.is_zero, ops.mul, ops.sub
    integral = not field.char and not field.modulus

    def cleared(r, p, c, terms):
        g = math.gcd(p, c)
        a, b = p // g, c // g
        if a != 1:
            r = [a * x for x in r]
        for j, y in terms:
            r[j] -= b * y
        g = math.gcd(*r)
        return [x // g for x in r] if g > 1 else r

    if integral:  # each row as a primitive integer row
        work[:] = [cleared(integer_row(r), 1, 0, ()) for r in work]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    row_idx = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row_idx, len(work))
                          if not is_zero(work[i][col])), None)
        if pivot_row is None:
            continue
        work[row_idx], work[pivot_row] = work[pivot_row], work[row_idx]
        prow = work[row_idx]
        # entries before col are zero in every row from row_idx on
        terms = [(j, prow[j]) for j in range(col, ncols)
                 if not is_zero(prow[j])]
        if not integral:
            inv = ops.inv(prow[col])
            terms = [(j, mul(inv, y)) for j, y in terms]
            for j, y in terms:
                prow[j] = y
        for i, r in enumerate(work):
            c = r[col]
            if i != row_idx and not is_zero(c):
                if integral:
                    work[i] = cleared(r, prow[col], c, terms)
                    continue
                for j, y in terms:
                    r[j] = sub(r[j], mul(c, y))
        pivots.append(col)
        row_idx += 1
        if row_idx == len(work):
            break
    del work[row_idx:]
    if integral:
        for r, col in zip(work, pivots):
            p = r[col]
            if p != 1:
                r[:] = [ops.settle(x, p) if x else 0 for x in r]
    return pivots


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


def unit_pool_split(alg) -> list[dict]:
    """split_commutative with its pool started at the unit alone: for
    each basis vector b in turn every piece e becomes alg._eigen_pieces(e,
    b), passes repeat while the one before split a piece, and the
    refinement stops at dim pieces; fewer at the end raise NonSplitField.
    Sorted as split_commutative sorts."""
    n = alg.dim
    pool = [dict(sparse_raw(alg.field.ops, alg.unit_raw))]
    changed = True
    while changed and len(pool) < n:
        changed = False
        for b in range(n):
            i = 0
            while i < len(pool) < n:
                parts = alg._eigen_pieces(pool[i], b)
                pool[i:i + 1] = parts
                i += len(parts)
                changed = changed or len(parts) > 1
            if len(pool) == n:
                break
    if len(pool) < n:
        raise NonSplitField("the refinement from the unit ended short")
    return sorted(pool, key=alg._dense)
