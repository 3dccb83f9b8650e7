"""Exact linear algebra over a FieldSpec, on raw field values.

One routine does every canonical elimination, and one class every
solve.  rref_sparse reduces sparse raw rows {index: raw value} to the
canonical reduced row echelon form (pivots 1, pivot columns cleared,
pivot positions increasing, zero rows dropped), so two subspaces are
equal iff their canonical bases are equal entry by entry.  It takes the
rows one at a time, reduces each at the pivots kept so far, pivots it
at its least remaining index and clears that index from the kept rows,
and reads only nonzero entries.  SubspaceBasis construction (so perp,
sum, the radical chain, the filtration, the simples and the
bicomponents), rref_rows, the inversion of the basis of H* behind the
simple subcoalgebras and the factoring of the extension layer call it.
Over Q it eliminates fraction-free on primitive integer rows and
divides by the pivots once at the end, so it makes no Fraction per
step.  Echelon grows sparse raw rows {key: raw value} one at a time and
writes each new row over the rows added before it: the
minimal-polynomial search, the matrix units and pairing of a basic
multiplicative matrix and the H (x) H systems of the extension and the
primitive decomposition (keyed by pairs (a, b), never a dense dim^2
ambient) find solutions, coordinates and dependencies with it.

Once a SubspaceBasis is canonical, membership, coordinates and
hyperplane cuts read its pivots: v lies in the span exactly when its
entries at the pivots rebuild it, and cutting by a functional clears one
row against the others without leaving canonical form.  Membership takes
a sparse raw vector and reads only its nonzero entries.  The rebuild is
a sum of products on rows lifted once (FieldOps.lift_pairs), and the
cut's f . r a scalars.dot of each row with f, lifted once per cut.

Internal vectors are sparse raw dicts {index: raw value} (add_scaled,
sum_scaled), and a SubspaceBasis holds its canonical rows as sparse raw
pairs.  Mat objects (row major) of Scalars are the public, boxed form of
a matrix; a vector is an Element of a coalgebra (coalgebra.Element).
Sizes are desk scale (dimension a few dozen), so the classical O(n^3)
algorithms are used without blocking tricks.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import FieldMismatch, NoSolution, ShapeMismatch
from .scalars import (FieldSpec, Scalar, box_sparse, dot, lift_columns,
                      read_vector)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Mat:
    """Dense matrix over one field; rows is a list of equal-length tuples."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows, ncols: int | None = None):
        rows = [tuple(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise ShapeMismatch("ragged matrix rows")
        elif ncols is None:
            ncols = 0
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        return cls(field, [box_sparse(field, n, [(i, field.ops.one)])
                           for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: FieldSpec, cols, nrows: int | None = None) -> "Mat":
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return cls(field, [tuple(c[i] for c in cols) for i in range(nrows)], len(cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Mat":
        return Mat(self.field, [self.column(j) for j in range(self.ncols)], self.nrows)

    def __add__(self, other: "Mat") -> "Mat":
        self._like(other)
        rows = zip(self.rows, other.rows)
        return Mat(self.field, [tuple(map(operator.add, a, b))
                                for a, b in rows], self.ncols)

    def __sub__(self, other: "Mat") -> "Mat":
        self._like(other)
        rows = zip(self.rows, other.rows)
        return Mat(self.field, [tuple(map(operator.sub, a, b))
                                for a, b in rows], self.ncols)

    def scale(self, c: Scalar) -> "Mat":
        return Mat(self.field, [tuple(c * x for x in r) for r in self.rows],
                   self.ncols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"matmul {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        ocols, zero = other.columns(), self.field.zero()
        return Mat(self.field, [tuple(sum(map(operator.mul, r, c), zero)
                                      for c in ocols) for r in self.rows],
                   other.ncols)

    def apply(self, v: tuple) -> tuple:
        """Matrix times column vector."""
        if self.ncols != len(v):
            raise ShapeMismatch(f"apply {self.nrows}x{self.ncols} to length {len(v)}")
        zero = self.field.zero()
        return tuple(sum(map(operator.mul, r, v), zero) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ncols, tuple(self.rows)))

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    def trace(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ShapeMismatch("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def _like(self, other: "Mat"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Mat({self.nrows}x{self.ncols}: {body})"


# ---------------------------------------------------------------------------
# canonical row reduction
# ---------------------------------------------------------------------------

def rref_sparse(field: FieldSpec, ambient: int, rows) -> tuple[list, list]:
    """Canonical RREF of sparse raw rows {index: raw value} of k^ambient,
    zeros allowed; returns (rows, pivots).

    Each returned row is the (index, raw value) pairs of its nonzero
    entries in increasing index, led by a 1 at its pivot; the pivots
    strictly increase and each pivot column is cleared in every other
    row.  ShapeMismatch on an index outside range(ambient).  This is the
    one elimination routine.

    The rows are taken one at a time.  A row is reduced at the pivots of
    the rows kept so far, pivoted at its least remaining index, and then
    cleared from the kept rows; so the kept rows stay fully reduced, and
    only the nonzero entries of a row are ever read.  The canonical RREF
    of a span is unique, so the rows and pivots are those of the dense
    column-by-column loop.

    Over Q it runs fraction-free (after Bareiss, Math. Comp. 22 (1968)):
    every row is held as a primitive integer row (FieldOps.lift_pairs),
    a row r is cleared at the pivot p of a row s by r <- (s_p / g) r -
    (r_p / g) s with g = gcd(s_p, r_p) (_cleared), a new row is divided
    by its content once it is reduced and a kept row each time it is
    cleared, and a kept row is divided by its pivot entry once per entry
    at the end, so no Fraction is made per step.
    """
    ops = field.ops
    is_zero = ops.is_zero
    integral = not field.char and not field.modulus
    kept: dict = {}  # pivot -> row, zero at every other pivot
    for row in rows:
        if row and (min(row) < 0 or max(row) >= ambient):
            raise ShapeMismatch("vector index outside the ambient dimension")
        if integral:
            r = {j: x for j, x in row.items() if x}
            if not r:
                continue
            pairs, scale = ops.lift_pairs(r.items())
            r = _primitive(dict(pairs) if scale != 1 else r)
            for p in [p for p in r if p in kept]:
                r = _cleared(r, p, kept[p])
            if not r:
                continue
            r = _primitive(r)
            q = min(r)
            for p, s in kept.items():
                if q in s:
                    kept[p] = _primitive(_cleared(s, q, r))
        else:
            r = {j: x for j, x in row.items() if not is_zero(x)}
            for p in [p for p in r if p in kept]:
                add_scaled(ops, r, ops.neg(r[p]), kept[p])
            if not r:
                continue
            q = min(r)
            if r[q] != ops.one:
                inv = ops.inv(r[q])
                r = {j: ops.mul(inv, x) for j, x in r.items()}
            for s in kept.values():
                c = s.get(q)
                if c is not None:
                    add_scaled(ops, s, ops.neg(c), r)
        kept[q] = r
    pivots = sorted(kept)
    out = []
    settle = ops.settle
    for p in pivots:
        r = kept[p]
        d = r[p]
        if integral and d != 1:
            r = {j: settle(x, d) for j, x in r.items()}
        out.append(tuple(sorted(r.items())))
    return out, pivots


def _primitive(r: dict) -> dict:
    """The integer row {index: int}, no zeros, divided by its content."""
    g = math.gcd(*r.values())
    return {j: x // g for j, x in r.items()} if g > 1 else r


def _cleared(r: dict, p, s: dict) -> dict:
    """(s_p / g) r - (r_p / g) s, g = gcd(s_p, r_p), on integer rows
    {index: int} with no zeros: zero at p, and zeros dropped.  r is
    changed in place when s_p / g is 1."""
    sp, c = s[p], r[p]
    g = math.gcd(sp, c)
    a, b = sp // g, c // g
    if a != 1:
        r = {j: a * x for j, x in r.items()}
    get = r.get
    for j, y in s.items():
        x = get(j, 0) - b * y
        if x:
            r[j] = x
        else:
            del r[j]
    return r


def rref_rows(field: FieldSpec, rows) -> tuple[list[tuple], list[int]]:
    """Canonical RREF of a list of row vectors; returns (rows, pivot columns).

    Zero rows are dropped.  Each row is read once (read_vector) at the
    length of the first, reduced by rref_sparse and boxed once.
    """
    rows = [tuple(r) for r in rows]
    n = len(rows[0]) if rows else 0
    reduced, pivots = rref_sparse(
        field, n, [dict(read_vector(field, n, r)) for r in rows])
    return [box_sparse(field, n, r) for r in reduced], pivots


def kernel(m: Mat) -> "SubspaceBasis":
    """Canonical basis of the right null space {v : m @ v = 0}."""
    return SubspaceBasis(m.field, m.ncols, m.rows).perp()


# ---------------------------------------------------------------------------
# sparse solving and combinations
# ---------------------------------------------------------------------------

def add_scaled(ops, acc: dict, c, row: dict):
    """acc += c row on sparse raw dicts, in place, keeping acc free of
    zeros; c is a nonzero raw value."""
    mul, add, is_zero = ops.mul, ops.add, ops.is_zero
    for j, x in row.items():
        y = mul(c, x)
        if j in acc:
            y = add(acc[j], y)
            if is_zero(y):
                del acc[j]
                continue
        acc[j] = y


def sum_scaled(ops, terms) -> dict:
    """sum c v over the (raw value c, sparse raw vector v) of terms, as
    {key: raw value} with no zeros; v is a dict or its (key, raw value)
    pairs, and a zero c is skipped."""
    acc: dict = {}
    for c, v in terms:
        if not ops.is_zero(c):
            add_scaled(ops, acc, c, dict(v))
    return acc


def raw_pair(ops, u: list, v: list) -> dict:
    """u (x) v as {(a, b): raw value}, from the nonzero (index, raw value)
    pairs of u and v."""
    return {(a, b): ops.mul(x, y) for a, x in u for b, y in v}


def tensor_legs(t2: dict) -> tuple[dict, dict]:
    """(columns, rows) of the raw tensor t2 = {(a, b): raw value}:
    columns[b] = {a: t2[a, b]} and rows[a] = {b: t2[a, b]}."""
    columns: dict = {}
    rows: dict = {}
    for (a, b), x in t2.items():
        columns.setdefault(b, {})[a] = x
        rows.setdefault(a, {})[b] = x
    return columns, rows


def leg_coords(basis: "Echelon", t2: dict) -> list[dict]:
    """The raw tensor t2 = {(a, b): raw value} = sum c[k][b] v_k (x) e_b
    over the rows v_k of basis, as c: basis.count raw vectors {b: raw}.

    NoSolution when a first leg leaves the span of basis.
    """
    out = [{} for _ in range(basis.count)]
    for b, leg in tensor_legs(t2)[0].items():
        for k, x in basis.coords(leg).items():
            out[k][b] = x
    return out


class Echelon:
    """An incremental echelon of sparse raw rows.

    A row is a dict {key: raw value} with no zeros, keyed by orderable
    labels (an index, or a pair (a, b) of H (x) H); rows are numbered in
    the order they are added.  reduce(row) clears row at every pivot and
    returns (remainder, comb) with row = remainder + sum comb[k] (row k);
    the remainder is {} exactly when row lies in the span of the rows
    added so far.  A row that depends on the rows before it is not kept.
    Added in index order, the columns of a matrix keep exactly the pivot
    columns of its canonical RREF, so coords(b) solves m x = b with free
    variables zero.
    """

    __slots__ = ("ops", "rows", "count")

    def __init__(self, field: FieldSpec):
        self.ops = field.ops
        self.rows = []  # (pivot, {key: raw} with one at pivot, comb)
        self.count = 0

    def reduce(self, row: dict) -> tuple[dict, dict]:
        ops = self.ops
        row, comb = dict(row), {}
        for pivot, erow, ecomb in self.rows:
            c = row.get(pivot)
            if c is not None:
                add_scaled(ops, row, ops.neg(c), erow)
                add_scaled(ops, comb, c, ecomb)
        return row, comb

    def add(self, row: dict) -> dict | None:
        """comb of row when it depends on the rows before it; otherwise
        keep row, pivoted at its least remaining key, and return None."""
        remainder, comb = self.reduce(row)
        k = self.count
        self.count += 1
        if not remainder:
            return comb
        ops = self.ops
        pivot = min(remainder)
        inv = ops.inv(remainder[pivot])
        ecomb = {j: ops.neg(ops.mul(inv, c)) for j, c in comb.items()}
        ecomb[k] = inv
        self.rows.append((pivot, {j: ops.mul(inv, x)
                                  for j, x in remainder.items()}, ecomb))
        return None

    def coords(self, row: dict) -> dict:
        """comb of row, or NoSolution when row is not in the span."""
        remainder, comb = self.reduce(row)
        if remainder:
            raise NoSolution("inconsistent linear system")
        return comb


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def sparse_raw(ops, vals) -> tuple:
    """The (index, raw value) pairs of the nonzero entries of a raw vector."""
    return tuple([(i, x) for i, x in enumerate(vals) if not ops.is_zero(x)])


def dense_raw(ops, n: int, pairs) -> list:
    """The raw vector of length n with the (index, raw value) pairs set."""
    out = [ops.zero] * n
    for j, x in pairs:
        out[j] = x
    return out


class SubspaceBasis:
    """A subspace of k^n held as its canonical RREF basis: raw holds each
    row as the (index, raw value) pairs of its nonzero entries, in
    increasing index, and pivots the pivot column of each row.
    rref_sparse builds them, or cut carries them over; rows boxes them at its first
    read.  The entries off the pivots are lifted once, at the first
    membership test.
    """

    __slots__ = ("field", "ambient", "raw", "pivots", "_rows", "_lifted")

    def __init__(self, field: FieldSpec, ambient: int, vectors):
        """The span of vectors of length ambient, each read once
        (read_vector) and row-reduced."""
        self._hold(field, ambient, *rref_sparse(field, ambient, [
            dict(read_vector(field, ambient, v)) for v in vectors]))

    @classmethod
    def of_raw(cls, field: FieldSpec, ambient: int, rows) -> "SubspaceBasis":
        """The span of sparse raw rows {index: raw value}, zeros allowed;
        ShapeMismatch on an index outside range(ambient)."""
        return cls.__new__(cls)._hold(field, ambient,
                                      *rref_sparse(field, ambient, rows))

    def _hold(self, field, ambient, raw, pivots) -> "SubspaceBasis":
        self.field, self.ambient = field, ambient
        self.raw, self.pivots = tuple(raw), list(pivots)
        self._rows = self._lifted = None
        return self

    @classmethod
    def full(cls, field: FieldSpec, n: int) -> "SubspaceBasis":
        return cls.__new__(cls)._hold(
            field, n, [((i, field.ops.one),) for i in range(n)], range(n))

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "SubspaceBasis":
        return cls.__new__(cls)._hold(field, n, (), ())

    @property
    def rows(self) -> list[tuple]:
        """The canonical rows as tuples of Scalars, boxed at the first read."""
        if self._rows is None:
            self._rows = [box_sparse(self.field, self.ambient, r)
                          for r in self.raw]
        return self._rows

    @property
    def dim(self) -> int:
        return len(self.raw)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.field == other.field
                and self.ambient == other.ambient and self.raw == other.raw)

    def __hash__(self):
        return hash((self.ambient, self.raw))

    def contains_raw(self, vec: dict) -> bool:
        """Whether the sparse raw vector vec {index: raw value}, free of
        zeros, lies in the span; ShapeMismatch on an index outside
        range(ambient).

        Its entries at the pivots times the rows rebuild it at the pivots
        by construction.  At the other columns the rebuild minus vec is
        formed on lifted values (vec over one scale, the rows over
        another) from vec's nonzero entries and must settle to zero: over
        Q an integer cross-multiplication, which makes no Fraction unless
        an entry differs.
        """
        if vec and (min(vec) < 0 or max(vec) >= self.ambient):
            raise ShapeMismatch("vector index outside the ambient dimension")
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        rows, scale, index, minus = self._lifted_rows()
        vals, sc = ops.lift_pairs(vec.items())
        acc: dict = {}
        for j, x in vals:
            k = index.get(j)
            # x times row k at the pivot of row k, -x at any other column
            for m, y in (rows[k] if k is not None else [(j, minus)]):
                y = mul(x, y)
                acc[m] = add(acc[m], y) if m in acc else y
        settle, is_zero, scale = ops.settle, ops.is_zero, sc * scale
        return all(is_zero(settle(a, scale)) for a in acc.values())

    def _lifted_rows(self) -> tuple:
        """(rows, scale, index, minus): rows[k] lists the nonzero (j,
        lifted value) of row k off the pivots, index maps each pivot to
        its row, and minus is -1; all lifted over one scale."""
        if self._lifted is None:
            ops = self.field.ops
            index = {p: k for k, p in enumerate(self.pivots)}
            cols = {k: dict(r[1:]) for k, r in enumerate(self.raw)}
            cols[-1] = {0: ops.neg(ops.one)}
            rows, scale = lift_columns(ops, cols)
            (_, minus), = rows.pop(-1)
            self._lifted = (rows, scale, index, minus)
        return self._lifted

    def contains(self, other: "SubspaceBasis") -> bool:
        self._like(other)
        return all(self.contains_raw(dict(r)) for r in other.raw)

    def sum(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._like(other)
        return SubspaceBasis.of_raw(self.field, self.ambient,
                                    [dict(r) for r in self.raw + other.raw])

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        """self cut by every functional that kills other."""
        self._like(other)
        return functools.reduce(SubspaceBasis.cut, other.perp().raw, self)

    def cut(self, f) -> "SubspaceBasis":
        """{v in self : f . v = 0} for the functional with nonzero (index,
        raw value) pairs f, canonical, with no elimination; ShapeMismatch
        on an index outside range(ambient).

        Take the last row r_k with f . r_k != 0 and clear f from every
        earlier row with it, then drop r_k.  r_k is 0 before its pivot,
        which lies after every earlier pivot, and 0 at the other pivots,
        so each earlier row keeps its pivot and the rows stay canonical.
        Later rows already satisfy f . r = 0.  f is lifted once, and
        each f . r is one dot; the other raw rows are carried over
        unchanged.
        """
        ops = self.field.ops
        fl, sf = ops.lift_pairs(f)
        fl = dict(fl)
        if fl and (min(fl) < 0 or max(fl) >= self.ambient):
            raise ShapeMismatch("functional index outside the ambient dimension")
        vals = [dot(ops, r, fl, sf) for r in self.raw]
        k = next((i for i in reversed(range(self.dim))
                  if not ops.is_zero(vals[i])), None)
        if k is None:
            return self
        minus_inv, rk = ops.neg(ops.inv(vals[k])), dict(self.raw[k])
        out = list(self.raw[:k])
        for i, c in enumerate(vals[:k]):
            if not ops.is_zero(c):
                r = dict(out[i])
                add_scaled(ops, r, ops.mul(c, minus_inv), rk)
                out[i] = tuple(sorted(r.items()))
        return SubspaceBasis.__new__(SubspaceBasis)._hold(
            self.field, self.ambient, out + list(self.raw[k + 1:]),
            self.pivots[:k] + self.pivots[k + 1:])

    def perp(self) -> "SubspaceBasis":
        """Annihilator under the standard dot pairing of k^n with itself.

        For a subspace of H in basis coordinates this returns the
        functionals in dual-basis coordinates that kill it, and the
        construction is its own inverse: e_j - sum_k r_k[j] e_(p_k) for
        each column j off the pivots p_k of the rows r_k.
        """
        ops, n = self.field.ops, self.ambient
        if not self.raw:
            return SubspaceBasis.full(self.field, n)
        free = {j: {j: ops.one} for j in range(n) if j not in self.pivots}
        for r, p in zip(self.raw, self.pivots):
            for j, x in r[1:]:  # a canonical row starts at its pivot
                free[j][p] = ops.neg(x)
        return SubspaceBasis.of_raw(self.field, n, free.values())

    def require_in(self, field: FieldSpec, ambient: int) -> "SubspaceBasis":
        """self, once it is known to be a subspace of field^ambient:
        FieldMismatch for another field, ShapeMismatch for another
        ambient dimension."""
        if self.field != field:
            raise FieldMismatch(f"subspace over {self.field.describe()} used "
                                f"over {field.describe()}")
        if self.ambient != ambient:
            raise ShapeMismatch(f"subspace of k^{self.ambient} used in "
                                f"dimension {ambient}")
        return self

    def _like(self, other: "SubspaceBasis"):
        if self.field != other.field or self.ambient != other.ambient:
            raise ShapeMismatch("subspaces live in different ambient spaces")

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} of k^{self.ambient})"
