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
"""

from __future__ import annotations

from .coalgebra import Coalgebra, Element, SimpleComponent, as_scalar
from .errors import (DiagonalOrderViolated, FieldMismatch,
                     InvariantViolation, MatrixFormError, NoSolution,
                     NotDegreeOne, NotInBicomponent, NotMultiplicative,
                     ShapeMismatch, require)
from .hopf import pointed_exponent_bound
from .linalg import (Echelon, Mat, SubspaceBasis, add_scaled, combine,
                     leg_coords, raw_pair, solve_columns, t2_add_term,
                     unit_vec, vec_add, vec_dot, vec_is_zero, vec_scale,
                     vec_sub, zero_vec)
from .scalars import box, nonzero_raw


# ---------------------------------------------------------------------------
# matrices over H
# ---------------------------------------------------------------------------

class MatrixOverH:
    """Dense matrix whose entries are elements of one coalgebra.

    Entries are stored as coordinate tuples; entry(i, j) returns the raw
    vector and element(i, j) wraps it.  All arithmetic is exact.
    """

    __slots__ = ("parent", "nrows", "ncols", "entries")

    def __init__(self, parent: Coalgebra, grid):
        rows = []
        width = None
        for row in grid:
            conv = []
            for x in row:
                if isinstance(x, Element):
                    if x.parent is not parent:
                        raise FieldMismatch("matrix entry from a different coalgebra")
                    conv.append(x.vec)
                else:
                    v = tuple(as_scalar(parent.field, c) for c in x)
                    if len(v) != parent.dim:
                        raise ShapeMismatch("entry vector length differs from dim")
                    conv.append(v)
            if width is None:
                width = len(conv)
            elif len(conv) != width:
                raise ShapeMismatch("ragged matrix rows")
            rows.append(tuple(conv))
        if not rows or width == 0:
            raise ShapeMismatch("empty matrix over H")
        self.parent = parent
        self.entries = tuple(rows)
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def identity(cls, parent, n: int) -> "MatrixOverH":
        one = getattr(parent, "unit", None)
        if one is None:
            raise MatrixFormError("identity matrix needs a unit element on the parent")
        z = zero_vec(parent.field, parent.dim)
        return cls(parent, [[one if i == j else z for j in range(n)]
                            for i in range(n)])

    def entry(self, i: int, j: int) -> tuple:
        return self.entries[i][j]

    def element(self, i: int, j: int) -> Element:
        return Element(self.parent, self.entries[i][j])

    def __add__(self, other: "MatrixOverH") -> "MatrixOverH":
        self._like(other)
        return MatrixOverH(self.parent,
                           [[vec_add(a, b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "MatrixOverH") -> "MatrixOverH":
        self._like(other)
        return MatrixOverH(self.parent,
                           [[vec_sub(a, b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def scale(self, c) -> "MatrixOverH":
        c = as_scalar(self.parent.field, c)
        return MatrixOverH(self.parent,
                           [[vec_scale(c, x) for x in row] for row in self.entries])

    def __matmul__(self, other: "MatrixOverH") -> "MatrixOverH":
        if other.parent is not self.parent:
            raise FieldMismatch("matrix product across different parents")
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"matmul {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        mul = getattr(self.parent, "mul_vec", None)
        if mul is None:
            raise MatrixFormError("matrix product needs an algebra structure")
        out = []
        for i in range(self.nrows):
            row = []
            for k in range(other.ncols):
                acc = zero_vec(self.parent.field, self.parent.dim)
                for j in range(self.ncols):
                    a, b = self.entries[i][j], other.entries[j][k]
                    if not (vec_is_zero(a) or vec_is_zero(b)):
                        acc = vec_add(acc, mul(a, b))
                row.append(acc)
            out.append(row)
        return MatrixOverH(self.parent, out)

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
        grid = [[dict(self.parent.delta_vec(x)) for x in row] for row in self.entries]
        return TensorMatrix(self.parent, 2, grid)

    def counit(self) -> Mat:
        return Mat(self.parent.field,
                   [tuple(self.parent.counit_vec(x) for x in row)
                    for row in self.entries])

    def antipode(self) -> "MatrixOverH":
        s = getattr(self.parent, "antipode_vec", None)
        if s is None or getattr(self.parent, "antipode_raw", None) is None:
            raise MatrixFormError("entrywise antipode needs a Hopf algebra parent")
        return MatrixOverH(self.parent,
                           [[s(x) for x in row] for row in self.entries])

    def __eq__(self, other):
        return (isinstance(other, MatrixOverH) and other.parent is self.parent
                and other.entries == self.entries)

    def __hash__(self):
        return hash((id(self.parent), self.entries))

    def _like(self, other: "MatrixOverH"):
        if other.parent is not self.parent:
            raise FieldMismatch("matrices over different parents")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __repr__(self):
        fmt = self.parent.format_element
        body = "; ".join(", ".join(fmt(x) for x in row) for row in self.entries)
        return f"MatrixOverH({self.nrows}x{self.ncols}: [{body}])"


class TensorMatrix:
    """Matrix whose entries live in a tensor power of the parent.

    Entries are zero-free dicts mapping basis index tuples of length
    `depth` to scalars; Element.delta() dicts plug in directly at depth 2.
    """

    __slots__ = ("parent", "depth", "nrows", "ncols", "entries")

    def __init__(self, parent: Coalgebra, depth: int, grid):
        self.parent = parent
        self.depth = depth
        self.entries = tuple(tuple(dict(x) for x in row) for row in grid)
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0

    def __add__(self, other: "TensorMatrix") -> "TensorMatrix":
        if (other.parent is not self.parent or other.depth != self.depth
                or other.nrows != self.nrows or other.ncols != self.ncols):
            raise ShapeMismatch("tensor matrices do not match")
        grid = []
        for ra, rb in zip(self.entries, other.entries):
            row = []
            for a, b in zip(ra, rb):
                acc = dict(a)
                for key, val in b.items():
                    t2_add_term(acc, key, val)
                row.append(acc)
            grid.append(row)
        return TensorMatrix(self.parent, self.depth, grid)

    def __eq__(self, other):
        return (isinstance(other, TensorMatrix) and other.parent is self.parent
                and other.depth == self.depth and other.entries == self.entries)

    def __hash__(self):
        return hash((id(self.parent), self.depth,
                     tuple(tuple(frozenset(d.items()) for d in row)
                           for row in self.entries)))

    def __repr__(self):
        return f"TensorMatrix({self.nrows}x{self.ncols}, depth {self.depth})"


def _tensor_grid(m) -> tuple[int, tuple]:
    if isinstance(m, TensorMatrix):
        return m.depth, m.entries
    grid = tuple(tuple({(i,): c for i, c in enumerate(x) if not c.is_zero()}
                       for x in row) for row in m.entries)
    return 1, grid


def mtensor(a, b) -> TensorMatrix:
    """Box tensor: (a box b)_ik = sum_j a_ij (x) b_jk over H tensor H."""
    if a.parent is not b.parent:
        raise FieldMismatch("box tensor across different parents")
    da, ga = _tensor_grid(a)
    db, gb = _tensor_grid(b)
    if a.ncols != b.nrows:
        raise ShapeMismatch(
            f"box tensor {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    grid = []
    for i in range(a.nrows):
        row = []
        for k in range(b.ncols):
            acc: dict = {}
            for j in range(a.ncols):
                for ka, ca in ga[i][j].items():
                    for kb, cb in gb[j][k].items():
                        t2_add_term(acc, ka + kb, ca * cb)
            row.append(acc)
        grid.append(row)
    return TensorMatrix(a.parent, da + db, grid)


def is_multiplicative(g: MatrixOverH) -> bool:
    """Delta(G) = G box G entrywise and counit(G) = I, both exact."""
    if g.nrows != g.ncols:
        raise ShapeMismatch("multiplicative matrices are square")
    if g.counit() != Mat.identity(g.parent.field, g.nrows):
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
    parent = c.parent
    z = zero_vec(parent.field, parent.dim)
    grid = []
    for i in range(c.nrows):
        grid.append(list(c.entries[i]) + list(w.entries[i]))
    for j in range(d.nrows):
        grid.append([z] * c.ncols + list(d.entries[j]))
    return MatrixOverH(parent, grid)


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


def _matrix_units(analysis, comp: SimpleComponent) -> list[list[tuple]]:
    """Matrix units of the dual Wedderburn block, in quotient coordinates.

    The block acts on its minimal left ideal Q*f; expressing that action
    in a fixed ideal basis is an isomorphism onto M_r, and the units are
    the preimages of the unit matrices.
    """
    q = analysis.quotient.algebra
    field = q.field
    r = comp.matrix_size
    # Q*f is spanned by the e_i f, the columns of R_f
    ideal = SubspaceBasis.of_raw(field, q.dim, q._basis_products(
        nonzero_raw(field, comp.primitive_idempotent), False))
    require(ideal.dim == r,
            "minimal left ideal dimension disagrees with block size")
    block = comp.block_rows
    require(len(block) == r * r, "block basis size disagrees with matrix size")
    action_cols = []
    for b in block:
        m = Mat.from_columns(field, [ideal.coords_of(q.mult(b, l))
                                     for l in ideal.rows], r)
        action_cols.append(tuple(m.rows[u][v] for u in range(r) for v in range(r)))
    p = Mat.from_columns(field, action_cols, r * r)
    coeffs = solve_columns(p, Mat.identity(field, r * r))
    units = [[combine(field, coeffs.column(u * r + v), block)
              for v in range(r)] for u in range(r)]
    for u in range(r):
        for v in range(r):
            for up in range(r):
                for vp in range(r):
                    prod = q.mult(units[u][v], units[up][vp])
                    want = units[u][vp] if v == up else zero_vec(field, q.dim)
                    require(prod == tuple(want), "matrix unit relations fail")
    total = zero_vec(field, q.dim)
    for k in range(r):
        total = vec_add(total, units[k][k])
    require(tuple(total) == tuple(comp.central_idempotent),
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
    field = h.field
    r = comp.matrix_size
    units = _matrix_units(analysis, comp)
    lifted = [[analysis.quotient.lift(units[u][v]) for v in range(r)]
              for u in range(r)]
    crows = comp.subspace.rows
    pairing = Mat(field, [tuple(vec_dot(lifted[u][v], c) for c in crows)
                          for u in range(r) for v in range(r)])
    matrix = None
    for transpose in (False, True):
        cols = []
        for i in range(r):
            for j in range(r):
                a, b = (j, i) if transpose else (i, j)
                cols.append(unit_vec(field, r * r, a * r + b))
        coeffs = solve_columns(pairing, Mat.from_columns(field, cols, r * r))
        cand = MatrixOverH(h, [[combine(field, coeffs.column(i * r + j), crows)
                                for j in range(r)] for i in range(r)])
        if is_multiplicative(cand):
            matrix = cand
            break
    require(matrix is not None, "no dualization orientation is multiplicative")
    flat = [matrix.entry(i, j) for i in range(r) for j in range(r)]
    require(SubspaceBasis(field, h.dim, flat).dim == r * r,
            "basic matrix entries are not a basis of the simple")
    if comp.is_grouplike:
        require(matrix.entry(0, 0) == comp.grouplike,
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
    dim = h.dim
    wvec = w.vec if isinstance(w, Element) else tuple(as_scalar(field, c) for c in w)
    analysis = h.analysis()
    filt = analysis.filtration
    h1 = filt[1] if len(filt) > 1 else filt[0]
    if not h1.contains_vector(wvec):
        raise NotDegreeOne("element lies outside filtration degree one")
    ci, di = cbasic.simple.index, dbasic.simple.index
    if h.component(wvec, left=ci, right=di) != wvec:
        raise NotInBicomponent(
            f"element is not fixed by the ({ci}, {di}) bicomponent projection")
    same = ci == di
    if same and cbasic.matrix != dbasic.matrix:
        raise MatrixFormError(
            "decomposition over one simple must reuse one basic matrix")
    r, s = cbasic.matrix.nrows, dbasic.matrix.nrows
    cm, dm = cbasic.matrix, dbasic.matrix

    bico = h.bicomponent_subspace(ci, di, within=h1)
    braw = bico.raw
    nb = len(braw)
    ops = field.ops

    cpos = [(ip, i) for ip in range(r) for i in range(r)]
    dpos = [(j, jp) for j in range(s) for jp in range(s)]
    # Delta(w) over the sparse columns c_(i'i) (x) b_t, then b_t (x) d_(jj')
    system = Echelon(field)
    for key in cpos:
        c = nonzero_raw(field, cm.entry(*key))
        for b in braw:
            system.add(raw_pair(ops, c, b))
    for key in dpos:
        d = nonzero_raw(field, dm.entry(*key))
        for b in braw:
            system.add(raw_pair(ops, b, d))
    comb = system.coords(h._delta_raw(nonzero_raw(field, wvec)))
    sol = box(field, [comb.get(k, ops.zero) for k in range(system.count)])
    parts = [combine(field, sol[k * nb:(k + 1) * nb], bico.rows) if nb
             else zero_vec(field, dim) for k in range(r * r + s * s)]
    x, y = dict(zip(cpos, parts)), dict(zip(dpos, parts[r * r:]))

    remainder = zero_vec(field, dim)
    one, eps = field.one(), h.counit_vec
    if same:
        # counit correction: push sum eps(x_i^(i') + y_(i')^(i)) c_(i'i)
        # into the remainder, then recenter every term inside ker eps
        remainder = combine(field, [eps(x[k]) + eps(y[k]) for k in cpos],
                            [cm.entry(*k) for k in cpos])
        x, y = ({(ip, i): combine(field,
                                  [one] + [-eps(x[(ip, k)]) for k in range(r)],
                                  [x[(ip, i)]] + [cm.entry(i, k)
                                                  for k in range(r)])
                 for ip, i in cpos},
                {(j, jp): combine(field,
                                  [one] + [-eps(y[(l, jp)]) for l in range(s)],
                                  [y[(j, jp)]] + [dm.entry(l, j)
                                                  for l in range(s)])
                 for j, jp in dpos})
    wprime = vec_sub(wvec, remainder)

    for v in list(x.values()) + list(y.values()):
        require(eps(v).is_zero(), "expansion term with nonzero counit")
    recon: dict = {}
    for u, v in ([(cm.entry(*k), x[k]) for k in cpos]
                 + [(y[k], dm.entry(*k)) for k in dpos]):
        add_scaled(ops, recon, ops.one, raw_pair(ops, nonzero_raw(field, u),
                                                 nonzero_raw(field, v)))
    require(recon == h._delta_raw(nonzero_raw(field, wprime)),
            "expansion does not reconstruct Delta")
    require(combine(field, [one] * r, [x[(i, i)] for i in range(r)])
            == tuple(wprime), "diagonal expansion terms do not sum back")

    # the second legs of Delta(x) - sum_k c_ik (x) x_k over the entries of D
    dbasis = Echelon.of_vectors(field, [dm.entry(*k) for k in dpos])
    minus_one = ops.neg(ops.one)
    grids = [[[[None] * s for _ in range(r)] for _ in range(s)] for _ in range(r)]
    for ip in range(r):
        for i in range(r):
            t2 = h._delta_raw(nonzero_raw(field, x[(ip, i)]))
            for k in range(r):
                add_scaled(ops, t2, minus_one, raw_pair(
                    ops, nonzero_raw(field, cm.entry(i, k)),
                    nonzero_raw(field, x[(ip, k)])))
            try:
                per_entry = leg_coords(dbasis, {(k, a): c for (a, k), c
                                                in t2.items()})
            except NoSolution:
                raise InvariantViolation(
                    "second tensor leg escapes the target simple") from None
            for j in range(s):
                for jp in range(s):
                    grids[ip][jp][i][j] = h._box(per_entry[j * s + jp])
    matrices = []
    for ip in range(r):
        row = []
        for jp in range(s):
            wm = MatrixOverH(h, grids[ip][jp])
            require(is_primitive_matrix(wm, cm, dm),
                    "decomposition output is not primitive")
            row.append(wm)
        matrices.append(tuple(row))
    matrices = tuple(matrices)

    back = remainder
    for i in range(r):
        for j in range(s):
            back = vec_add(back, matrices[i][j].entry(i, j))
    require(tuple(back) == tuple(wvec),
            "primitive matrices do not sum back to w")
    return PrimitiveDecomposition(Element(h, wvec), cbasic, dbasic,
                                  matrices, Element(h, remainder))


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
                    if not vec_is_zero(z.entry(i, j)):
                        raise MatrixFormError(
                            "matrix is not upper block triangular")
    for bi in range(len(sizes)):
        block = MatrixOverH(parent,
                            [z.entries[i][starts[bi]:starts[bi + 1]]
                             for i in range(starts[bi], starts[bi + 1])])
        if block.power(d) != MatrixOverH.identity(parent, sizes[bi]):
            raise DiagonalOrderViolated(
                f"diagonal block {bi} does not have order dividing {d}")
    bound = pointed_exponent_bound(d, p, len(sizes) - 1)
    holds = z.power(bound) == MatrixOverH.identity(parent, z.nrows)
    return BlockOrderReport(bound, holds, tuple(sizes), d, p)
