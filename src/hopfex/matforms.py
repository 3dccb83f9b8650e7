"""Matrices with entries in a coalgebra or Hopf algebra.

The box tensor of an r x s and an s x t matrix over H is the r x t matrix
over H (x) H whose (i,k) entry is sum_j a_ij (x) b_jk.  Composing with
multiplication turns it into the ordinary matrix product, which is what
makes multiplicative matrices (Delta entrywise = G box G, counit = I) the
coalgebra analogue of group-likes, and (C,D)-primitive matrices
(Delta W = C box W + W box D) the analogue of skew-primitives.

This module builds basic multiplicative matrices for split simple
subcoalgebras, decomposes degree-one bicomponent elements into primitive
matrices, takes Hopf powers of multiplicative matrices, and checks the
order bound for block upper triangular multiplicative matrices in
positive characteristic.

A matrix over H holds its entries once, as sparse raw vectors, and an
entry of the box tensor is a sparse raw tensor {index tuple: raw value};
products, laws and solves run on them (sum_scaled, _product, _delta_raw,
_eps_raw, linalg.Echelon).  An entry given as a vector is coerced once
(Coalgebra.element), an entry read as an Element or the elements of a
PrimitiveDecomposition are raw (Element.of_raw), and entries are boxed
only when the entries view is read.
"""

from __future__ import annotations

from .coalgebra import Coalgebra, Element, SimpleComponent
from .errors import (DiagonalOrderViolated, FieldMismatch,
                     InvariantViolation, MatrixFormError, NoSolution,
                     NotDegreeOne, NotInBicomponent, NotMultiplicative,
                     ShapeMismatch, require)
from .hopf import pointed_exponent_bound
from .linalg import (Echelon, Mat, SubspaceBasis, leg_coords,
                     raw_pair, sparse_raw, sum_scaled)
from .scalars import Scalar, box_sparse, combination


# ---------------------------------------------------------------------------
# matrices over H
# ---------------------------------------------------------------------------

class MatrixOverH:
    """Dense matrix whose entries are elements of one coalgebra.

    raw holds each entry once, as the (index, raw value) pairs of its
    nonzero coordinates in increasing index (the convention of
    SubspaceBasis.raw); equality and hashing read it, and every law,
    product and solve runs on it.  entries, and entry(i, j) on it, are
    the coordinate tuples of Scalars, boxed at the first read;
    element(i, j) wraps entry(i, j).  All arithmetic is exact.
    """

    __slots__ = ("parent", "nrows", "ncols", "raw", "_entries")

    def __init__(self, parent: Coalgebra, grid):
        """Entries are Elements of parent or coordinate vectors of int,
        Fraction or Scalar, each coerced once by parent.element."""
        self._hold(parent, ([parent.element(x).raw for x in row]
                            for row in grid))

    @classmethod
    def of_raw(cls, parent: Coalgebra, grid) -> "MatrixOverH":
        """The matrix of sparse raw entries, each a dict {index: raw value}
        or its (index, raw value) pairs, with no zeros."""
        return cls.__new__(cls)._hold(parent, [
            [tuple(sorted(dict(x).items())) for x in row] for row in grid])

    def _hold(self, parent, rows) -> "MatrixOverH":
        """Hold the rows of raw entries, checked for shape as they come."""
        held = []
        for row in rows:
            held.append(tuple(row))
            if len(held[-1]) != len(held[0]):
                raise ShapeMismatch("ragged matrix rows")
        if not held or not held[0]:
            raise ShapeMismatch("empty matrix over H")
        self.parent, self.raw, self._entries = parent, tuple(held), None
        self.nrows, self.ncols = len(held), len(held[0])
        return self

    @classmethod
    def identity(cls, parent, n: int) -> "MatrixOverH":
        algebra = getattr(parent, "algebra", None)
        if algebra is None:
            raise MatrixFormError("identity matrix needs a unit element on the parent")
        one = sparse_raw(parent.field.ops, algebra.unit_raw)
        return cls.of_raw(parent, [[one if i == j else () for j in range(n)]
                                   for i in range(n)])

    @property
    def entries(self) -> tuple:
        """The entries as coordinate tuples of Scalars, boxed at the first
        read."""
        if self._entries is None:
            field, dim = self.parent.field, self.parent.dim
            self._entries = tuple(tuple(box_sparse(field, dim, x) for x in row)
                                  for row in self.raw)
        return self._entries

    def entry(self, i: int, j: int) -> tuple:
        return self.entries[i][j]

    def element(self, i: int, j: int) -> Element:
        return Element.of_raw(self.parent, self.raw[i][j])

    def __add__(self, other: "MatrixOverH") -> "MatrixOverH":
        return self._plus(other, self.parent.field.ops.one)

    def __sub__(self, other: "MatrixOverH") -> "MatrixOverH":
        ops = self.parent.field.ops
        return self._plus(other, ops.neg(ops.one))

    def _plus(self, other: "MatrixOverH", c) -> "MatrixOverH":
        """self + c other, for a raw value c."""
        self._like(other)
        ops = self.parent.field.ops
        return MatrixOverH.of_raw(self.parent, [
            [sum_scaled(ops, [(ops.one, a), (c, b)]) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.raw, other.raw)])

    def scale(self, c) -> "MatrixOverH":
        ops = self.parent.field.ops
        c = self.parent.field.raw(c)
        return MatrixOverH.of_raw(self.parent, [
            [sum_scaled(ops, [(c, e)]) for e in row] for row in self.raw])

    def __matmul__(self, other: "MatrixOverH") -> "MatrixOverH":
        if other.parent is not self.parent:
            raise FieldMismatch("matrix product across different parents")
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"matmul {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        algebra = getattr(self.parent, "algebra", None)
        if algebra is None:
            raise MatrixFormError("matrix product needs an algebra structure")
        ops = self.parent.field.ops
        return MatrixOverH.of_raw(self.parent, [
            [sum_scaled(ops, [(ops.one, algebra._product(a, rb[k]))
                              for a, rb in zip(ra, other.raw) if a and rb[k]])
             for k in range(other.ncols)] for ra in self.raw])

    def power(self, n: int) -> "MatrixOverH":
        if self.nrows != self.ncols:
            raise ShapeMismatch("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        acc = MatrixOverH.identity(self.parent, self.nrows)
        base = self
        while n:
            if n & 1:
                acc = acc @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return acc

    # -- entrywise structure maps ------------------------------------------------

    def delta(self) -> "TensorMatrix":
        delta = self.parent._delta_raw
        return TensorMatrix(self.parent, 2,
                            [[delta(x) for x in row] for row in self.raw])

    def counit(self) -> Mat:
        field, eps = self.parent.field, self.parent._eps_raw
        return Mat(field, [tuple(Scalar(field, eps(x)) for x in row)
                           for row in self.raw])

    def antipode(self) -> "MatrixOverH":
        if getattr(self.parent, "antipode_raw", None) is None:
            raise MatrixFormError("entrywise antipode needs a Hopf algebra parent")
        ops, lifted = self.parent.field.ops, self.parent._lifted_antipode
        return MatrixOverH.of_raw(self.parent, [
            [combination(ops, x, *lifted) for x in row] for row in self.raw])

    def __eq__(self, other):
        return (isinstance(other, MatrixOverH) and other.parent is self.parent
                and other.raw == self.raw)

    def __hash__(self):
        return hash((id(self.parent), self.raw))

    def _like(self, other: "MatrixOverH"):
        if other.parent is not self.parent:
            raise FieldMismatch("matrices over different parents")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __repr__(self):
        fmt = self.parent._format_raw
        body = "; ".join(", ".join(fmt(x) for x in row) for row in self.raw)
        return f"MatrixOverH({self.nrows}x{self.ncols}: [{body}])"


class TensorMatrix:
    """Matrix whose entries live in a tensor power of the parent.

    raw holds each entry as a zero-free dict mapping basis index tuples
    of length depth to raw values; the _delta_raw dicts of the entries
    plug in directly at depth 2.
    """

    __slots__ = ("parent", "depth", "nrows", "ncols", "raw")

    def __init__(self, parent: Coalgebra, depth: int, grid):
        self.parent = parent
        self.depth = depth
        self.raw = tuple(tuple(dict(x) for x in row) for row in grid)
        self.nrows = len(self.raw)
        self.ncols = len(self.raw[0]) if self.raw else 0

    def __add__(self, other: "TensorMatrix") -> "TensorMatrix":
        if (other.parent is not self.parent or other.depth != self.depth
                or other.nrows != self.nrows or other.ncols != self.ncols):
            raise ShapeMismatch("tensor matrices do not match")
        ops = self.parent.field.ops
        return TensorMatrix(self.parent, self.depth, [
            [sum_scaled(ops, [(ops.one, a), (ops.one, b)])
             for a, b in zip(ra, rb)] for ra, rb in zip(self.raw, other.raw)])

    def __eq__(self, other):
        return (isinstance(other, TensorMatrix) and other.parent is self.parent
                and other.depth == self.depth and other.raw == self.raw)

    def __hash__(self):
        return hash((id(self.parent), self.depth,
                     tuple(tuple(frozenset(d.items()) for d in row)
                           for row in self.raw)))

    def __repr__(self):
        return f"TensorMatrix({self.nrows}x{self.ncols}, depth {self.depth})"


def _tensor_grid(m) -> tuple[int, tuple]:
    if isinstance(m, TensorMatrix):
        return m.depth, m.raw
    return 1, tuple(tuple({(i,): c for i, c in x} for x in row)
                    for row in m.raw)


def mtensor(a, b) -> TensorMatrix:
    """Box tensor: (a box b)_ik = sum_j a_ij (x) b_jk over H tensor H."""
    if a.parent is not b.parent:
        raise FieldMismatch("box tensor across different parents")
    da, ga = _tensor_grid(a)
    db, gb = _tensor_grid(b)
    if a.ncols != b.nrows:
        raise ShapeMismatch(
            f"box tensor {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    ops = a.parent.field.ops
    return TensorMatrix(a.parent, da + db, [
        [sum_scaled(ops, [(ca, {ka + kb: cb for kb, cb in gb[j][k].items()})
                          for j in range(a.ncols)
                          for ka, ca in ga[i][j].items()])
         for k in range(b.ncols)] for i in range(a.nrows)])


def is_multiplicative(g: MatrixOverH) -> bool:
    """Delta(G) = G box G entrywise and counit(G) = I, both exact."""
    if g.nrows != g.ncols:
        raise ShapeMismatch("multiplicative matrices are square")
    ops, eps = g.parent.field.ops, g.parent._eps_raw
    if any(eps(x) != (ops.one if i == j else ops.zero)
           for i, row in enumerate(g.raw) for j, x in enumerate(row)):
        return False
    return g.delta() == mtensor(g, g)


def is_primitive_matrix(w: MatrixOverH, c: MatrixOverH, d: MatrixOverH) -> bool:
    """Delta(W) = C box W + W box D entrywise, the two-sided primitivity law."""
    if c.nrows != c.ncols or d.nrows != d.ncols:
        raise ShapeMismatch("outer matrices must be square")
    if w.nrows != c.nrows or w.ncols != d.nrows:
        raise ShapeMismatch("primitive matrix shape does not match its frame")
    return w.delta() == mtensor(c, w) + mtensor(w, d)


def stack_triangular(c: MatrixOverH, w: MatrixOverH,
                     d: MatrixOverH) -> MatrixOverH:
    """The (r+s) x (r+s) block matrix [[C, W], [0, D]]."""
    return MatrixOverH.of_raw(c.parent,
                              [c.raw[i] + w.raw[i] for i in range(c.nrows)]
                              + [((),) * c.ncols + row for row in d.raw])


# ---------------------------------------------------------------------------
# basic multiplicative matrices
# ---------------------------------------------------------------------------

class BasicMultMatrix:
    """A multiplicative matrix whose entries form a basis of one simple."""

    __slots__ = ("simple", "matrix")

    def __init__(self, simple: SimpleComponent, matrix: MatrixOverH):
        self.simple = simple
        self.matrix = matrix

    def __repr__(self):
        r = self.matrix.nrows
        return f"BasicMultMatrix(simple #{self.simple.index}, {r}x{r})"


def _matrix_units(analysis, comp: SimpleComponent) -> list[list[dict]]:
    """Matrix units of the dual Wedderburn block, in quotient coordinates,
    as sparse raw vectors {index: raw value}.

    The block acts on its minimal left ideal Q*f; expressing that action
    in a fixed ideal basis is an isomorphism onto M_r, and the units are
    the preimages of the unit matrices: the coordinates of each unit
    vector over one Echelon of the flattened action matrices.
    """
    q = analysis.quotient.algebra
    field, ops = q.field, q.field.ops
    r = comp.matrix_size
    # Q*f is spanned by the e_i f, the columns of R_f
    ideal = SubspaceBasis.of_raw(field, q.dim, q._basis_products(
        comp.primitive_idempotent.items(), False))
    require(ideal.dim == r,
            "minimal left ideal dimension disagrees with block size")
    block = [b.items() for b in comp.block_rows]
    require(len(block) == r * r, "block basis size disagrees with matrix size")
    action = Echelon(field)
    for b in block:
        # b l_v has its coordinates over the ideal basis at the pivots
        col = {}
        for v, l in enumerate(ideal.raw):
            prod = q._product(b, l)
            if not ideal.contains_raw(prod):
                raise NoSolution("vector is not in the subspace")
            col.update((u * r + v, prod[p])
                       for u, p in enumerate(ideal.pivots) if p in prod)
        action.add(col)
    units = [[sum_scaled(ops, [(c, block[t]) for t, c in action.coords(
        {u * r + v: ops.one}).items()]) for v in range(r)] for u in range(r)]
    for u in range(r):
        for v in range(r):
            for up in range(r):
                for vp in range(r):
                    prod = q._product(units[u][v].items(),
                                      units[up][vp].items())
                    want = units[u][vp] if v == up else {}
                    require(prod == want, "matrix unit relations fail")
    total = sum_scaled(ops, [(ops.one, units[k][k]) for k in range(r)])
    require(total == comp.central_idempotent,
            "matrix units do not sum to the central idempotent")
    return units


def basic_multiplicative_matrix(h: Coalgebra,
                                simple: SimpleComponent) -> BasicMultMatrix:
    """Basis c_ij of the simple with Delta(c_ij) = sum_k c_ik (x) c_kj.

    Pulls matrix units back through the dual Wedderburn block and
    dualizes them against the simple; the orientation of the index pair
    is fixed by demanding the multiplicative identity, which is checked
    exactly.  Results are cached per simple on the analysis object.
    """
    analysis = h.analysis()
    cache = getattr(analysis, "_basic_cache", None)
    if cache is None:
        cache = {}
        analysis._basic_cache = cache
    if simple.index in cache:
        return cache[simple.index]
    comp = analysis.simples()[simple.index]
    field, ops = h.field, h.field.ops
    r = comp.matrix_size
    # unit uv pairs with row c_t of the simple as sum_j c_tj unit_uv[j],
    # the unit written at the section columns of H*: column t of the
    # pairing sums c_tj {uv: unit_uv[j]}
    section, at = analysis.quotient.section_cols, {}
    units = [u for row in _matrix_units(analysis, comp) for u in row]
    for uv, unit in enumerate(units):
        for k, x in unit.items():
            at.setdefault(section[k], {})[uv] = x
    crows = comp.subspace.raw
    pairing = Echelon(field)
    for c in crows:
        pairing.add(sum_scaled(ops, [(x, at[j]) for j, x in c if j in at]))
    entries = {(a, b): sum_scaled(ops, [
        (c, crows[t]) for t, c in pairing.coords({a * r + b: ops.one}).items()])
        for a in range(r) for b in range(r)}
    matrix = None
    for transpose in (False, True):
        cand = MatrixOverH.of_raw(h, [[entries[(j, i) if transpose else (i, j)]
                                       for j in range(r)] for i in range(r)])
        if is_multiplicative(cand):
            matrix = cand
            break
    require(matrix is not None, "no dualization orientation is multiplicative")
    require(SubspaceBasis.of_raw(field, h.dim, [
        dict(x) for row in matrix.raw for x in row]).dim == r * r,
            "basic matrix entries are not a basis of the simple")
    if comp.is_grouplike:
        require(dict(matrix.raw[0][0]) == comp.grouplike_raw,
                "group-like simple must recover its group-like")
    result = BasicMultMatrix(comp, matrix)
    cache[simple.index] = result
    return result


# ---------------------------------------------------------------------------
# primitive matrix decomposition
# ---------------------------------------------------------------------------

class PrimitiveDecomposition:
    """Output of the decomposition of w into (C, D)-primitive matrices.

    matrices[ip][jp] is the r x s primitive matrix W^(ip, jp); summing the
    (i, j) entries of W^(i, j) recovers w minus the remainder, and the
    remainder lies in the simple C (zero unless C = D).
    """

    __slots__ = ("source", "cmatrix", "dmatrix", "matrices", "remainder")

    def __init__(self, source, cmatrix, dmatrix, matrices, remainder):
        self.source = source
        self.cmatrix = cmatrix
        self.dmatrix = dmatrix
        self.matrices = matrices
        self.remainder = remainder

    def matrix(self, ip: int, jp: int) -> MatrixOverH:
        return self.matrices[ip][jp]

    def __repr__(self):
        r = len(self.matrices)
        s = len(self.matrices[0])
        return f"PrimitiveDecomposition({r * s} matrices of shape {r}x{s})"


def primitive_decompose(w, cbasic: BasicMultMatrix,
                        dbasic: BasicMultMatrix) -> PrimitiveDecomposition:
    """Split a degree-one bicomponent element into primitive matrices.

    Follows the constructive existence proof: expand Delta(w) against the
    C basis on the left and the D basis on the right, push the counit
    correction into the remainder when C = D, then read each primitive
    matrix off the second expansion.  Every claimed identity is checked
    with require().
    """
    h = cbasic.matrix.parent
    if dbasic.matrix.parent is not h:
        raise FieldMismatch("basic matrices from different coalgebras")
    field = h.field
    ops = field.ops
    wraw = dict(h.element(w).raw)
    analysis = h.analysis()
    filt = analysis.filtration
    h1 = filt[1] if len(filt) > 1 else filt[0]
    if not h1.contains_raw(wraw):
        raise NotDegreeOne("element lies outside filtration degree one")
    ci, di = cbasic.simple.index, dbasic.simple.index
    if h._component_raw(wraw.items(), left=ci, right=di) != wraw:
        raise NotInBicomponent(
            f"element is not fixed by the ({ci}, {di}) bicomponent projection")
    same = ci == di
    if same and cbasic.matrix != dbasic.matrix:
        raise MatrixFormError(
            "decomposition over one simple must reuse one basic matrix")
    r, s = cbasic.matrix.nrows, dbasic.matrix.nrows
    cm, dm = cbasic.matrix.raw, dbasic.matrix.raw

    braw = h.bicomponent_subspace(ci, di, within=h1).raw
    nb = len(braw)

    cpos = [(ip, i) for ip in range(r) for i in range(r)]
    dpos = [(j, jp) for j in range(s) for jp in range(s)]
    # Delta(w) over the sparse columns c_(i'i) (x) b_t, then b_t (x) d_(jj')
    system = Echelon(field)
    for ip, i in cpos:
        for b in braw:
            system.add(raw_pair(ops, cm[ip][i], b))
    for j, jp in dpos:
        for b in braw:
            system.add(raw_pair(ops, b, dm[j][jp]))
    comb = system.coords(h._delta_raw(wraw.items()))
    parts = [sum_scaled(ops, [(comb.get(k * nb + t, ops.zero), b)
                              for t, b in enumerate(braw)])
             for k in range(r * r + s * s)]
    x, y = dict(zip(cpos, parts)), dict(zip(dpos, parts[r * r:]))

    def eps(v: dict):
        return h._eps_raw(v.items())

    one, minus_one = ops.one, ops.neg(ops.one)
    remainder: dict = {}
    if same:
        # counit correction: push sum eps(x_i^(i') + y_(i')^(i)) c_(i'i)
        # into the remainder, then recenter every term inside ker eps
        remainder = sum_scaled(ops, [
            (ops.add(eps(x[(ip, i)]), eps(y[(ip, i)])), cm[ip][i])
            for ip, i in cpos])
        x, y = ({(ip, i): sum_scaled(ops, [(one, x[(ip, i)])] + [
                    (ops.neg(eps(x[(ip, k)])), cm[i][k]) for k in range(r)])
                 for ip, i in cpos},
                {(j, jp): sum_scaled(ops, [(one, y[(j, jp)])] + [
                    (ops.neg(eps(y[(l, jp)])), dm[l][j]) for l in range(s)])
                 for j, jp in dpos})
    wprime = sum_scaled(ops, [(one, wraw), (minus_one, remainder)])

    for v in list(x.values()) + list(y.values()):
        require(ops.is_zero(eps(v)), "expansion term with nonzero counit")
    recon = sum_scaled(ops, [
        (one, raw_pair(ops, cm[ip][i], x[(ip, i)].items())) for ip, i in cpos]
        + [(one, raw_pair(ops, y[(j, jp)].items(), dm[j][jp]))
           for j, jp in dpos])
    require(recon == h._delta_raw(wprime.items()),
            "expansion does not reconstruct Delta")
    require(sum_scaled(ops, [(one, x[(i, i)]) for i in range(r)]) == wprime,
            "diagonal expansion terms do not sum back")

    # the second legs of Delta(x) - sum_k c_ik (x) x_k over the entries of D
    dbasis = Echelon(field)
    for j, jp in dpos:
        dbasis.add(dict(dm[j][jp]))
    grids = [[[[None] * s for _ in range(r)] for _ in range(s)] for _ in range(r)]
    for ip in range(r):
        for i in range(r):
            t2 = sum_scaled(ops, [(one, h._delta_raw(x[(ip, i)].items()))] + [
                (minus_one, raw_pair(ops, cm[i][k], x[(ip, k)].items()))
                for k in range(r)])
            try:
                per_entry = leg_coords(dbasis, {(k, a): c for (a, k), c
                                                in t2.items()})
            except NoSolution:
                raise InvariantViolation(
                    "second tensor leg escapes the target simple") from None
            for j in range(s):
                for jp in range(s):
                    grids[ip][jp][i][j] = per_entry[j * s + jp]
    matrices = []
    for ip in range(r):
        row = []
        for jp in range(s):
            wm = MatrixOverH.of_raw(h, grids[ip][jp])
            require(is_primitive_matrix(wm, cbasic.matrix, dbasic.matrix),
                    "decomposition output is not primitive")
            row.append(wm)
        matrices.append(tuple(row))
    matrices = tuple(matrices)

    back = sum_scaled(ops, [(one, remainder)] + [
        (one, matrices[i][j].raw[i][j]) for i in range(r) for j in range(s)])
    require(back == wraw, "primitive matrices do not sum back to w")
    return PrimitiveDecomposition(Element.of_raw(h, wraw), cbasic, dbasic,
                                  matrices, Element.of_raw(h, remainder))


# ---------------------------------------------------------------------------
# Hopf powers of multiplicative matrices, block order bound
# ---------------------------------------------------------------------------

def matrix_hopf_power(g: MatrixOverH, n: int) -> MatrixOverH:
    """Entrywise n-th Hopf power of a multiplicative matrix = its n-th power."""
    if not is_multiplicative(g):
        raise NotMultiplicative("Hopf powers of matrices need a multiplicative matrix")
    return g.power(n)


def antipode_inverse_check(g: MatrixOverH) -> bool:
    """S(G) is the two-sided matrix inverse of a multiplicative G."""
    if not is_multiplicative(g):
        raise NotMultiplicative("antipode inversion needs a multiplicative matrix")
    sg = g.antipode()
    ident = MatrixOverH.identity(g.parent, g.nrows)
    return sg @ g == ident and g @ sg == ident


class BlockOrderReport:
    __slots__ = ("bound", "holds", "block_sizes", "d", "p")

    def __init__(self, bound, holds, block_sizes, d, p):
        self.bound = bound
        self.holds = holds
        self.block_sizes = block_sizes
        self.d = d
        self.p = p

    def __repr__(self):
        return f"BlockOrderReport(bound={self.bound}, holds={self.holds})"


def block_order_bound_check(z: MatrixOverH, d: int, p: int,
                            block_sizes=None) -> BlockOrderReport:
    """Order bound for an upper block triangular multiplicative matrix.

    With n super-diagonal block rows, diagonal blocks of order dividing d,
    and characteristic p, the matrix order divides d * p^(floor(log_p n)+1);
    the bound is verified by an exact matrix power.
    """
    if not is_multiplicative(z):
        raise NotMultiplicative("order bound needs a multiplicative matrix")
    parent = z.parent
    if parent.field.char != p:
        raise MatrixFormError(
            f"stated characteristic {p} but the field has characteristic "
            f"{parent.field.char}")
    if p <= 1:
        raise MatrixFormError("order bound needs positive characteristic")
    if d < 1:
        raise MatrixFormError(f"diagonal order must be at least 1, got {d}")
    sizes = list(block_sizes) if block_sizes is not None else [1] * z.nrows
    if sum(sizes) != z.nrows or any(b <= 0 for b in sizes):
        raise ShapeMismatch("block sizes do not partition the matrix")
    starts = [0]
    for b in sizes:
        starts.append(starts[-1] + b)
    for bi in range(len(sizes)):
        for bj in range(bi):
            for i in range(starts[bi], starts[bi + 1]):
                for j in range(starts[bj], starts[bj + 1]):
                    if z.raw[i][j]:
                        raise MatrixFormError(
                            "matrix is not upper block triangular")
    for bi in range(len(sizes)):
        block = MatrixOverH.of_raw(parent, [
            z.raw[i][starts[bi]:starts[bi + 1]]
            for i in range(starts[bi], starts[bi + 1])])
        if block.power(d) != MatrixOverH.identity(parent, sizes[bi]):
            raise DiagonalOrderViolated(
                f"diagonal block {bi} does not have order dividing {d}")
    bound = pointed_exponent_bound(d, p, len(sizes) - 1)
    holds = z.power(bound) == MatrixOverH.identity(parent, z.nrows)
    return BlockOrderReport(bound, holds, tuple(sizes), d, p)
