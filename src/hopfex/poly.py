"""Dense polynomials over one field, on raw values.

A polynomial is a list of raw values of one field (scalars.FieldOps),
constant term first; trim drops trailing zeros, and [] is zero.  The
arithmetic takes the field's FieldOps table, so the prime-field
polynomials of field construction (the prime field's FieldOps(char,
None)), the extension inverses and the minimal polynomials of the
algebra and Hopf layers all run on this one module.  The searches over
the powers of an element (MinPolySearch, min_poly_of_powers, powers_mod)
and the squarefree test (derivative, has_repeated_factor) take the
FieldSpec their callers hold; MinPolySearch finds the first
dependent power with linalg.Echelon, the one sparse solver.

char_poly reduces a square matrix to Hessenberg form by similarity
transformations and reads det(tI - m) off the Hessenberg recurrence:
O(d^3) field operations (H. Cohen, A Course in Computational Algebraic
Number Theory, GTM 138, algorithm 2.2.9).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .errors import DivisionByZero


def trim(ops, a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and ops.is_zero(a[-1]):
        a.pop()
    return a


def add(ops, a: list, b: list) -> list:
    return trim(ops, [ops.add(x, y) for x, y in
                      itertools.zip_longest(a, b, fillvalue=ops.zero)])


def sub(ops, a: list, b: list) -> list:
    return trim(ops, [ops.sub(x, y) for x, y in
                      itertools.zip_longest(a, b, fillvalue=ops.zero)])


def mul(ops, a: list, b: list) -> list:
    if not a or not b:
        return []
    fmul, fadd, is_zero = ops.mul, ops.add, ops.is_zero
    out = [ops.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not is_zero(x):
            for j, y in enumerate(b, i):
                out[j] = fadd(out[j], fmul(x, y))
    return trim(ops, out)


def divmod(ops, a: list, b: list) -> tuple[list, list]:
    """(q, r) with a = q b + r and deg r < deg b."""
    b = trim(ops, list(b))
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = trim(ops, list(a))
    inv = ops.inv(b[-1])
    q = [ops.zero] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = q[k] = ops.mul(r[-1], inv)
        for i, y in enumerate(b, k):
            r[i] = ops.sub(r[i], ops.mul(c, y))
        trim(ops, r)
    return q, r


def gcdext(ops, a: list, b: list) -> tuple[list, list, list]:
    """(g, u, v) with u a + v b = g, a gcd of a and b (not made monic)."""
    r0, r1 = trim(ops, list(a)), trim(ops, list(b))
    u0, u1 = [ops.one], []
    v0, v1 = [], [ops.one]
    while r1:
        q, r = divmod(ops, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(ops, u0, mul(ops, q, u1))
        v0, v1 = v1, sub(ops, v0, mul(ops, q, v1))
    return r0, u0, v0


def evaluate(ops, a: list, x):
    """a(x), by Horner's rule."""
    acc = ops.zero
    for c in reversed(a):
        acc = ops.add(ops.mul(acc, x), c)
    return acc


def powers_mod(field, mu: list) -> Iterator[tuple]:
    """x^0, x^1, x^2, ... mod the monic mu, forever.

    mu is a list of raw values, constant term first.  Each residue is a
    tuple of deg mu raw values; a step costs deg mu field products.
    """
    ops = field.ops
    mul, add, zero = ops.mul, ops.add, ops.zero
    tail = [ops.neg(c) for c in mu[:-1]]  # x^deg = sum tail[k] x^k mod mu
    r = (ops.one,) + (zero,) * (len(tail) - 1)
    while True:
        yield r
        top, shifted = r[-1], (zero,) + r[:-1]
        r = shifted if ops.is_zero(top) else \
            tuple([add(a, mul(top, c)) for a, c in zip(shifted, tail)])


def derivative(field, a: list) -> list:
    """a' = sum k c_k x^(k-1), each c_k times the field's image of k."""
    ops = field.ops
    out, k = [], ops.zero
    for c in a[1:]:
        k = ops.add(k, ops.one)
        out.append(ops.mul(k, c))
    return trim(ops, out)


def has_repeated_factor(field, mu: list) -> bool:
    """Is gcd(mu, mu') nonconstant?

    On a perfect field (every field here) that holds exactly when mu has
    a repeated irreducible factor, in any characteristic; over F_p it
    holds when mu' = 0, as for x^p - 1.
    """
    return len(gcdext(field.ops, mu, derivative(field, mu))[0]) > 1


class MinPolySearch:
    """min_poly_of_powers fed one power at a time, on raw values.

    A power is a sparse raw row {key: raw value} with no zeros; keys are
    any orderable labels of coordinates (an index m, or a pair (i, m) of
    a column and an entry).  The powers go into one linalg.Echelon:
    add(x^n), after x^0, ..., x^(n-1) were added, returns None while the
    powers stay independent, and the monic minimal polynomial as raw
    values (constant term first) at the first power that is a
    combination sum c_k x^k of the earlier ones, namely
    x^n - sum c_k x^k.
    """

    def __init__(self, field):
        from .linalg import Echelon  # linalg imports scalars, which imports poly

        self.ops = field.ops
        self.echelon = Echelon(field)

    def add(self, row: dict) -> list | None:
        comb = self.echelon.add(row)
        if comb is None:
            return None
        ops = self.ops
        n = self.echelon.count - 1
        return [ops.neg(comb[k]) if k in comb else ops.zero
                for k in range(n)] + [ops.one]


def min_poly_of_powers(field, powers: Iterable[dict]) -> list | None:
    """Monic minimal polynomial of x, as raw values (constant term first),
    from its powers x^0, x^1, ... as sparse raw rows, or None.

    powers is consumed lazily through MinPolySearch; nothing after the
    first dependent power is taken.  None when the powers run out first,
    all of them independent.
    """
    search = MinPolySearch(field)
    for row in powers:
        mu = search.add(row)
        if mu is not None:
            return mu
    return None


def char_poly(ops, m: list) -> list:
    """det(tI - m) for a d x d matrix m of raw values (a list of rows),
    as d + 1 raw values, constant term first.

    m is reduced to an upper Hessenberg matrix h by elementary similarity
    transformations; then with p_0 = 1 and p_k the characteristic
    polynomial of the leading k x k block of h,
    p_k = (t - h_kk) p_(k-1)
          - sum_(i < k) h_ik h_(i+1,i) ... h_(k,k-1) p_(i-1)  (1-based).
    """
    fmul, fadd, fsub, is_zero = ops.mul, ops.add, ops.sub, ops.is_zero
    h = [list(row) for row in m]
    n = len(h)
    for j in range(1, n - 1):
        # clear column j - 1 below the subdiagonal, pivoting on row j
        i = next((i for i in range(j, n) if not is_zero(h[i][j - 1])), None)
        if i is None:
            continue
        if i != j:
            h[i], h[j] = h[j], h[i]
            for row in h:
                row[i], row[j] = row[j], row[i]
        inv = ops.inv(h[j][j - 1])
        for i in range(j + 1, n):
            u = fmul(h[i][j - 1], inv)
            if is_zero(u):
                continue
            hi, hj = h[i], h[j]
            # row i -= u row j, then column j += u column i
            for k in range(j - 1, n):
                hi[k] = fsub(hi[k], fmul(u, hj[k]))
            for row in h:
                row[j] = fadd(row[j], fmul(u, row[i]))
    polys = [[ops.one]]
    for k in range(n):
        prev = polys[-1]
        p = [ops.zero] + prev  # t p_(k-1), then the terms below
        c = h[k][k]
        for a, y in enumerate(prev):
            p[a] = fsub(p[a], fmul(c, y))
        t = ops.one
        for i in range(k - 1, -1, -1):
            t = fmul(t, h[i + 1][i])
            if is_zero(t):
                break
            c = fmul(h[i][k], t)
            for a, y in enumerate(polys[i]):
                p[a] = fsub(p[a], fmul(c, y))
        polys.append(p)
    return polys[-1]
