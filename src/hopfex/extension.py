"""Extending a pointed coalgebra so an element becomes a matrix corner.

Every element z of a bicomponent ^gH_n^h of a pointed coalgebra H sits in
the top-right corner of a multiplicative upper-triangular matrix over a
finite extension of H.  This module builds such extensions exactly:

* ``graded_positive_part`` normalises z against the group-like direction
  and tests membership in the positive part of ^gH_n^h.
* ``delta_expansion`` writes the reduced comultiplication of z as a sum
  of positive tensors x (x) y, split by intermediate group-like and by
  filtration degree of the first leg, at minimal tensor rank per block.
* ``extend_coalgebra`` produces the extension together with the witness
  matrices: one glued witness per pair of recursive sub-witnesses, plus,
  when the glued corners do not reproduce the middle of z exactly, one
  closing witness that absorbs the defect.

The construction recurses on expansion terms, reusing the extension of a
repeated sub-element, and glues sub-witnesses along their shared
group-like.  Interior cells of a glued matrix are solved inside the
current coalgebra whenever possible; corner cells always adjoin a fresh
basis vector carrying the corner's two-cocycle, and the leftover
skew-primitive residue is folded into the first designated entry so the
designated corners sum back to z.

Inside, a vector is a sparse dict {index: raw value} and a tensor of
H (x) H a dict {(a, b): raw value}, both free of zeros, so nothing is
padded when the coalgebra grows and an amalgam only remaps indices.
Elements come in and go out raw: their raw pairs are read as these
dicts, graded_positive_part and delta_expansion wrap what their raw
routines return with Element.of_raw, _Grower.adjoin hands the raw tables
to Coalgebra.of_raw, and extend_coalgebra hands the witness grids to
MatrixOverH.of_raw, sums their corners on raw values and wraps z, g, h.
Only DeltaExpansion.middle() boxes, when it is read.  Simples are found
(find_simple_containing), and subspaces read and cut by the counit, on
raw vectors.  Bicomponents, of
z in graded_positive_part, of each leg of a middle tensor in
_middle_block and of a filtration level in _flag_basis, are read off
the bicomponent table that each coalgebra, base or grown, builds once;
the flag bases are row-reduced as sparse rows (linalg.rref_sparse).
"""

from __future__ import annotations

from .coalgebra import Coalgebra, Element, coalgebra_amalgam
from .errors import InvariantViolation, NoSolution, NotInComponent, require
from .linalg import (Echelon, add_scaled, leg_coords, raw_pair, rref_sparse,
                     sparse_raw, sum_scaled, tensor_legs)
from .matforms import MatrixOverH, is_multiplicative
from .scalars import box, combination, lift_columns


def _reduced_delta(coalg: Coalgebra, g: dict, v: dict, h: dict) -> dict:
    """delta(v) - g (x) v - v (x) h, raw."""
    ops = coalg.field.ops
    minus_one = ops.neg(ops.one)
    out = coalg._delta_raw(v.items())
    add_scaled(ops, out, minus_one, raw_pair(ops, g.items(), v.items()))
    add_scaled(ops, out, minus_one, raw_pair(ops, v.items(), h.items()))
    return out


def _raw_vectors(z: Element, g: Element, h: Element):
    """(parent, g, h, z) with the elements as raw vectors."""
    coalg = z.parent
    if g.parent is not coalg or h.parent is not coalg:
        raise NotInComponent("z, g, h must live in one coalgebra")
    return (coalg, *(dict(e.raw) for e in (g, h, z)))


# ---------------------------------------------------------------------------
# membership and normalisation
# ---------------------------------------------------------------------------

def graded_positive_part(z: Element, g: Element, h: Element, n: int):
    """Normalise z against its group-like direction and test membership.

    Returns (ok, w) where w = z - eps(z) g when g and h span the same
    simple and w = z otherwise, and ok records whether w lies in the
    positive part of ^gH_n^h, i.e. in the intersection of the degree-n
    filtration level with the (g, h) bicomponent and the counit kernel.
    Raises NotInComponent when g or h is not group-like in the parent
    of z, or when the three elements live in different coalgebras.
    """
    coalg, g, h, z = _raw_vectors(z, g, h)
    ok, w = _positive_part(coalg, g, h, z, n)
    return ok, Element.of_raw(coalg, w)


def _positive_part(coalg: Coalgebra, g: dict, h: dict, z: dict, n: int):
    """graded_positive_part on raw vectors."""
    if not (coalg._grouplike_raw(g.items()) and coalg._grouplike_raw(h.items())):
        raise NotInComponent("flanking elements must be group-like")
    ops = coalg.field.ops
    w = dict(z)
    # distinct group-likes span distinct simples
    eps = coalg._eps_raw(z.items()) if g == h else ops.zero
    if not ops.is_zero(eps):
        add_scaled(ops, w, ops.neg(eps), g)
    if n < 0:
        return (not w, w)
    ana = coalg.analysis()
    level = ana.filtration[min(n, ana.depth)]
    ok = level.contains_raw(w)
    if ok:
        ok = coalg._component_raw(
            w.items(), ana.find_simple_containing(g),
            ana.find_simple_containing(h)) == w
    if ok:
        require(ops.is_zero(coalg._eps_raw(w.items())),
                "positive part of a bicomponent has a nonzero counit")
    return (ok, w)


# ---------------------------------------------------------------------------
# expansion of the reduced comultiplication
# ---------------------------------------------------------------------------

class DeltaExpansion:
    """The reduced comultiplication of z split by group-like and degree.

    terms is a tuple of (degree, serial, k, x, y) with k group-like,
    x in the positive part of ^gH_degree^k, y in the positive part of
    ^kH_{n-degree}^h, and

        delta(z) = g (x) z + sum over terms of x (x) y + z (x) h

    after normalising z to its positive part.  Each (degree, k) block is
    factored at minimal tensor rank; serial counts the factors inside
    one block starting from 1.
    """

    __slots__ = ("z", "g", "h", "n", "terms", "_middle")

    def __init__(self, z: Element, g: Element, h: Element, n: int, terms,
                 middle: dict):
        self.z = z
        self.g = g
        self.h = h
        self.n = n
        self.terms = tuple(terms)
        self._middle = middle

    def middle(self) -> dict:
        """Sparse tensor equal to the sum of x (x) y over all terms."""
        return dict(zip(self._middle,
                        box(self.z.parent.field, self._middle.values())))

    def __repr__(self):
        return (f"<DeltaExpansion degree={self.n} "
                f"terms={len(self.terms)}>")


def _flag_basis(coalg: Coalgebra, left: int, right: int, maxdeg: int):
    """Degree-tagged basis of the positive part of a bicomponent.

    Returns a list of (raw vector, degree) whose prefix through degree d
    spans the positive part of ^gH_d^h; the tag is the first filtration
    level in which the vector appears.
    """
    ana = coalg.analysis()
    out = []
    span = Echelon(coalg.field)
    eps = sparse_raw(coalg.field.ops, coalg.counit_raw)
    for d in range(1, maxdeg + 1):
        level = ana.filtration[min(d, ana.depth)]
        comp = coalg.bicomponent_subspace(left, right, within=level)
        for row in comp.cut(eps).raw:
            vec = dict(row)
            if span.add(vec) is None:
                out.append((vec, d))
        if d >= ana.depth:
            break
    return out


def _middle_block(coalg: Coalgebra, middle: dict, gi: int, ki: int, hi: int):
    """Project a raw middle tensor onto ^gH^k (x) ^kH^h, leg by leg."""
    ops = coalg.field.ops
    lcache: dict = {}
    rcache: dict = {}
    out: dict = {}
    for (a, b), c in middle.items():
        if a not in lcache:
            lcache[a] = sorted(coalg._component_raw([(a, ops.one)], gi, ki).items())
        if b not in rcache:
            rcache[b] = sorted(coalg._component_raw([(b, ops.one)], ki, hi).items())
        if lcache[a] and rcache[b]:
            add_scaled(ops, out, c, raw_pair(ops, lcache[a], rcache[b]))
    return out


def _factor_middle(coalg: Coalgebra, middle: dict, gi: int, hi: int, n: int):
    """Factor a raw middle tensor through group-like channels at minimal rank.

    Returns a sorted list of (degree, serial, k, x, y) raw vectors with
    sum of x (x) y equal to middle, x of exact first-leg degree and y in
    the complementary filtration level.  Requires a pointed coalgebra.
    """
    if not middle:
        return []
    if not coalg.is_pointed():
        raise NotInComponent("expansion requires a pointed coalgebra")
    ana = coalg.analysis()
    field, ops = coalg.field, coalg.field.ops
    entries = []
    recovered: dict = {}
    for s in ana.simples():
        ki = s.index
        block = _middle_block(coalg, middle, gi, ki, hi)
        if not block:
            continue
        lefts = _flag_basis(coalg, gi, ki, n - 1)
        rights = _flag_basis(coalg, ki, hi, n - 1)
        require(lefts and rights, "nonzero block over an empty bicomponent")
        # block = sum over a, b of lam[a][b] lefts[a] (x) rights[b]
        pairs = Echelon(field)
        for u, _ in lefts:
            for v, _ in rights:
                pairs.add(raw_pair(ops, u.items(), v.items()))
        try:
            comb = pairs.coords(block)
        except NoSolution:
            raise InvariantViolation(
                "middle leaves the expected bicomponents") from None
        # lam[a] = {b: lam[a][b]}, the nonzero coefficients
        lam = [{} for _ in lefts]
        for k, c in comb.items():
            a, b = divmod(k, len(rights))
            lam[a][b] = c
        # staircase: no coefficient pairs a degree with more than n minus it
        for (_, da), row in zip(lefts, lam):
            require(all(da + rights[b][1] <= n for b in row),
                    "expansion coefficient violates the degree bound")
        kel = dict(s.grouplike_raw)
        ys = lift_columns(ops, {b: v for b, (v, _) in enumerate(rights)})
        for d in sorted({da for _, da in lefts}):
            sel = [a for a, (_, da) in enumerate(lefts) if da == d]
            xs = lift_columns(ops, {t: lefts[a][0] for t, a in enumerate(sel)})
            reduced, piv = rref_sparse(field, len(rights),
                                       [lam[a] for a in sel])
            for t, (p, prow) in enumerate(zip(piv, reduced)):
                xv = combination(ops, [(k, lam[a][p]) for k, a in
                                       enumerate(sel) if p in lam[a]], *xs)
                yv = combination(ops, prow, *ys)
                entries.append((d, ki, t + 1, kel, xv, yv))
                add_scaled(ops, recovered, ops.one,
                           raw_pair(ops, xv.items(), yv.items()))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    require(recovered == middle, "expansion does not reconstruct the middle")
    return [(d, serial, kel, x, y) for d, _, serial, kel, x, y in entries]


def delta_expansion(z: Element, g: Element, h: Element, n: int) -> DeltaExpansion:
    """Expand delta(z) - g (x) z - z (x) h through group-like channels.

    z must lie in ^gH_n^h up to its group-like direction and the parent
    must be pointed; raises NotInComponent otherwise.  Degree-one (and
    empty) middles give an expansion with no terms.
    """
    coalg, graw, hraw, zraw = _raw_vectors(z, g, h)
    w, middle, terms = _expand(coalg, graw, hraw, zraw, n)

    def el(v):
        return Element.of_raw(coalg, v)

    return DeltaExpansion(el(w), g, h, n, [
        (d, serial, el(k), el(x), el(y)) for d, serial, k, x, y in terms],
        middle)


def _expand(coalg: Coalgebra, g: dict, h: dict, z: dict, n: int):
    """delta_expansion on raw vectors: (w, middle, terms)."""
    ok, w = _positive_part(coalg, g, h, z, n)
    if not ok:
        raise NotInComponent(
            f"element is not in the degree-{n} part of the bicomponent")
    middle = _reduced_delta(coalg, g, w, h)
    if n <= 1 or not w:
        require(not middle, "low-degree element with a nonzero middle")
        return w, middle, []
    ana = coalg.analysis()
    return w, middle, _factor_middle(
        coalg, middle, ana.find_simple_containing(g),
        ana.find_simple_containing(h), n)


# ---------------------------------------------------------------------------
# growing a coalgebra one vector at a time
# ---------------------------------------------------------------------------

def _is_two_cocycle(coalg: Coalgebra, s: dict, sigma: dict, tau: dict) -> bool:
    """Whether (delta (x) id)s + s (x) tau equals sigma (x) s + (id (x) delta)s."""
    ops = coalg.field.ops
    columns, rows = tensor_legs(s)
    left = {(p, q, b): x for b, col in columns.items()
            for (p, q), x in coalg._delta_raw(col.items()).items()}
    right = {(a, p, q): x for a, row in rows.items()
             for (p, q), x in coalg._delta_raw(row.items()).items()}
    add_scaled(ops, left, ops.one, {(a, b, m): ops.mul(c, t)
                                    for (a, b), c in s.items()
                                    for m, t in tau.items()})
    add_scaled(ops, right, ops.one, {(m, a, b): ops.mul(t, c)
                                     for m, t in sigma.items()
                                     for (a, b), c in s.items()})
    return left == right


class _Grower:
    """A coalgebra under construction, extended one basis vector at a time."""

    __slots__ = ("coalg", "_serial")

    def __init__(self, coalg: Coalgebra):
        self.coalg = coalg
        self._serial: dict = {}

    def fresh(self, prefix: str) -> str:
        k = self._serial.get(prefix, 0) + 1
        self._serial[prefix] = k
        return f"{prefix}{k}"

    def adjoin(self, label: str, sigma: dict, middle: dict, tau: dict) -> int:
        """Adjoin u with delta(u) = sigma (x) u + middle + u (x) tau.

        sigma, tau, middle live over the current coalgebra; middle must
        be a matched two-cocycle with counit-free legs, which makes the
        grown coalgebra coassociative and counital.  Returns the index
        of the new basis vector.
        """
        coalg = self.coalg
        ops = coalg.field.ops
        d = coalg.dim
        require(_is_two_cocycle(coalg, middle, sigma, tau),
                "adjoined middle is not a two-cocycle")
        require(all(ops.is_zero(coalg._eps_raw(leg.items()))
                    for legs in tensor_legs(middle) for leg in legs.values()),
                "adjoined middle has counit-visible legs")
        new = ([((a, d), c) for a, c in sorted(sigma.items())]
               + [((d, b), c) for b, c in sorted(tau.items())]
               + list(middle.items()))
        names = list(coalg.names)
        lab = label
        while lab in names:
            lab += "'"
        self.coalg = Coalgebra.of_raw(
            coalg.field, names + [lab],
            coalg.comul_raw + ({k: c for k, c in new if not ops.is_zero(c)},),
            coalg.counit_raw + (ops.zero,), name=coalg.name)
        return d


def _solve_skew(coalg: Coalgebra, sigma: dict, tau: dict, mid: dict):
    """Solve delta(r) = sigma (x) r + mid + r (x) tau inside coalg, or None.

    The unknown r = sum r_e e has the sparse columns
    delta(e) - sigma (x) e - e (x) tau in H (x) H, keyed by pairs; mid is
    reduced against their Echelon.  r is returned as a raw vector.
    """
    ops = coalg.field.ops
    minus_one = ops.neg(ops.one)
    system = Echelon(coalg.field)
    for e in range(coalg.dim):
        col = coalg._delta_raw([(e, ops.one)])
        add_scaled(ops, col, minus_one, {(a, e): c for a, c in sigma.items()})
        add_scaled(ops, col, minus_one, {(e, b): c for b, c in tau.items()})
        system.add(col)
    try:
        r = system.coords(mid)
    except NoSolution:
        return None
    require(ops.is_zero(coalg._eps_raw(r.items())),
            "skew-primitive solution has a nonzero counit")
    return r


# ---------------------------------------------------------------------------
# gluing witnesses along a shared group-like
# ---------------------------------------------------------------------------

def _ladder_middle(ops, grid, u: int, v: int) -> dict:
    out: dict = {}
    for w in range(u + 1, v):
        add_scaled(ops, out, ops.one,
                   raw_pair(ops, grid[u][w].items(), grid[w][v].items()))
    return out


def _glue(gr: _Grower, agrid, bgrid, g: dict, h: dict):
    """Glue two witness grids at their shared group-like corner.

    agrid ends where bgrid begins: the bottom-right entry of agrid
    equals the top-left entry of bgrid.  The glued grid keeps agrid in
    the top-left and bgrid in the bottom-right; rectangle cells in
    between are filled in ascending anti-diagonal order, each either
    solved inside the current coalgebra or adjoined as a fresh vector
    carrying the cell's two-cocycle.  The top-right corner always
    adjoins.  Returns (grid, corner index, corner middle).  Cells are
    raw vectors, replaced but never changed in place.
    """
    ops = gr.coalg.field.ops
    p, q = len(agrid), len(bgrid)
    m = p + q - 1
    require(agrid[p - 1][p - 1] == bgrid[0][0],
            "glued grids disagree on the shared group-like")
    grid = [[{}] * m for _ in range(m)]
    for u, row in enumerate(agrid):
        grid[u][:p] = row
    for u, row in enumerate(bgrid):
        grid[p - 1 + u][p - 1:] = row
    cells = [(u, v) for u in range(p - 1) for v in range(p, m)]
    cells.sort(key=lambda uv: (uv[1] - uv[0], uv[0]))
    for u, v in cells:
        if u == 0 and v == m - 1:
            continue
        mid = _ladder_middle(ops, grid, u, v)
        sigma, tau = grid[u][u], grid[v][v]
        cell = _solve_skew(gr.coalg, sigma, tau, mid)
        if cell is None:
            cell = {gr.adjoin(gr.fresh("u"), sigma, mid, tau): ops.one}
        grid[u][v] = cell
    mid = _ladder_middle(ops, grid, 0, m - 1)
    idx = gr.adjoin(gr.fresh("z"), g, mid, h)
    grid[0][m - 1] = {idx: ops.one}
    return grid, idx, mid


# ---------------------------------------------------------------------------
# the closing witness: coefficient matrix of a left coideal
# ---------------------------------------------------------------------------

def _coideal_witness(gr: _Grower, corner_idx: int, g: dict, h: dict, n: int):
    """Witness matrix for an adjoined corner, from its left coideal.

    The span of g, the corner, and every first tensor leg reachable from
    the corner by repeated expansion is a left coideal V with
    delta(V) inside V (x) K; the coefficient matrix of delta on a
    degree-ordered basis of V is multiplicative, upper-triangular, has
    group-likes on the diagonal, and carries the corner in its top-right
    entry.
    """
    coalg = gr.coalg
    field = coalg.field
    ana = coalg.analysis()
    require(coalg._grouplike_raw(g.items()), "coideal corner g is not group-like")
    gi = ana.find_simple_containing(g)
    corner = {corner_idx: field.ops.one}
    members = []
    span = Echelon(field)
    span.add(g)
    span.add(corner)
    queue = [(corner, h, n)]
    serial = 0
    while queue:
        vec, rvec, deg = queue.pop(0)
        mid = _reduced_delta(coalg, g, vec, rvec)
        if not mid:
            continue
        require(coalg._grouplike_raw(rvec.items()),
                "coideal flank is not group-like")
        ri = ana.find_simple_containing(rvec)
        for d, _, kel, x, _y in _factor_middle(coalg, mid, gi, ri, deg):
            if span.add(x) is not None:
                continue
            members.append((x, d, serial))
            serial += 1
            queue.append((x, kel, d))
    members.sort(key=lambda t: (t[1], t[2]))
    fam = [g] + [v for v, _, _ in members] + [corner]
    size = len(fam)
    basis = Echelon(field)
    for v in fam:
        basis.add(v)
    # delta(f_u) = sum over w of f_w (x) grid[w][u]
    try:
        columns = [leg_coords(basis, coalg._delta_raw(f.items())) for f in fam]
    except NoSolution:
        raise InvariantViolation("closure family is not a left coideal") from None
    grid = [list(row) for row in zip(*columns)]
    for u in range(size):
        for w in range(u + 1, size):
            require(not grid[w][u], "coideal matrix not triangular")
        require(coalg._grouplike_raw(grid[u][u].items()),
                "coideal diagonal entry is not group-like")
    require(grid[0][size - 1] == corner, "coideal corner entry moved")
    require(grid[0][0] == g and grid[size - 1][size - 1] == h,
            "coideal matrix has the wrong flanks")
    return grid


# ---------------------------------------------------------------------------
# the recursive construction
# ---------------------------------------------------------------------------

class _Ext:
    """One level of the recursion: a result coalgebra and witness grids."""

    __slots__ = ("result", "grids")

    def __init__(self, result: Coalgebra, grids):
        self.result = result
        self.grids = grids


def _extend(base: Coalgebra, g: dict, h: dict, w: dict, n: int,
            memo: dict) -> _Ext:
    """Build witnesses for w over extensions of the fixed base.

    Every recursion level works over the original base: sub-extensions
    of the expansion legs are built first, amalgamated along the base,
    and then one glued witness is produced per pair of sub-witnesses.
    The skew-primitive residue of w against the adjoined corners is
    folded into the first designated entry, so the top-right entries of
    the returned grids sum to w.
    """
    key = tuple(tuple(sorted(v.items())) for v in (g, h, w)) + (n,)
    if key in memo:
        return memo[key]
    ops = base.field.ops
    minus_one = ops.neg(ops.one)
    _, middle, terms = _expand(base, g, h, w, n)
    if not terms:
        # skew-primitive: a single witness with the element in the corner
        order = n + 1
        grid = [[{}] * order for _ in range(order)]
        for u in range(order - 1):
            grid[u][u] = g
        grid[order - 1][order - 1] = h
        grid[0][order - 1] = w
        ext = _Ext(base, [grid])
        memo[key] = ext
        return ext

    subpairs = [(_extend(base, g, k, x, deg, memo),
                 _extend(base, k, h, y, n - deg, memo))
                for deg, _serial, k, x, y in terms]
    distinct = []
    for ex, ey in subpairs:
        for e in (ex, ey):
            if e.result is not base and all(e is not d for d in distinct):
                distinct.append(e)
    if distinct:
        amal = coalgebra_amalgam(base, [e.result for e in distinct])
        offsets = {}
        off = base.dim
        for e in distinct:
            offsets[id(e)] = off
            off += e.result.dim - base.dim
        require(off == amal.dim, "amalgam dimension mismatch")
    else:
        amal = base
        offsets = {}

    def embed(e: _Ext, grid):
        shift = offsets.get(id(e), base.dim) - base.dim
        return [[{i if i < base.dim else i + shift: c for i, c in cell.items()}
                 for cell in row] for row in grid]

    gr = _Grower(amal)
    total_mid: dict = {}
    grids = []
    corner_idxs = []
    for ex, ey in subpairs:
        for agrid in ex.grids:
            ea = embed(ex, agrid)
            for bgrid in ey.grids:
                grid, idx, mid = _glue(gr, ea, embed(ey, bgrid), g, h)
                grids.append(grid)
                corner_idxs.append(idx)
                add_scaled(ops, total_mid, ops.one, mid)
    closing = dict(middle)
    add_scaled(ops, closing, minus_one, total_mid)
    if closing:
        # the glued corners overshoot the middle of w; adjoin one
        # closing vector whose middle cancels the defect exactly
        zc_idx = gr.adjoin(gr.fresh("zc"), g, closing, h)
        grids.append(_coideal_witness(gr, zc_idx, g, h, n))
        corner_idxs.append(zc_idx)
    result = gr.coalg
    rho = dict(w)
    for idx in corner_idxs:
        add_scaled(ops, rho, minus_one, {idx: ops.one})
    require(not _reduced_delta(result, g, rho, h),
            "residue is not skew-primitive")
    first = grids[0]
    corner = dict(first[0][-1])
    add_scaled(ops, corner, ops.one, rho)
    first[0][-1] = corner
    total: dict = {}
    for grid in grids:
        add_scaled(ops, total, ops.one, grid[0][-1])
    require(total == w, "designated entries do not sum to the element")
    ext = _Ext(result, grids)
    memo[key] = ext
    return ext


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

class ExtendedCoalgebra:
    """A coalgebra extension exhibiting an element as matrix corners.

    Attributes:
        base: the starting coalgebra, the leading block of result.
        result: the extension; it passes check() and has the same
            coradical as base.
        new_basis: names of the adjoined basis vectors, in order.
        witnesses: multiplicative upper-triangular matrices over result
            with g top-left and h bottom-right; their top-right entries
            are the designated entries.
        z, g, h: the input data transported into result; z is the
            positive part of the original element.
        n: the filtration degree.

    The designated entries sum to z inside result.
    """

    __slots__ = ("base", "result", "new_basis", "witnesses", "z", "g", "h",
                 "n")

    def __init__(self, base, result, new_basis, witnesses, z, g, h, n):
        self.base = base
        self.result = result
        self.new_basis = tuple(new_basis)
        self.witnesses = tuple(witnesses)
        self.z = z
        self.g = g
        self.h = h
        self.n = n

    def designated_entries(self) -> list:
        """The top-right entry of each witness, as elements of result."""
        return [w.element(0, w.ncols - 1) for w in self.witnesses]

    def designated_sum(self) -> Element:
        return sum(self.designated_entries(), self.result.zero())

    def __repr__(self):
        return (f"<ExtendedCoalgebra {self.base.dim}->{self.result.dim} "
                f"witnesses={len(self.witnesses)}>")


def extend_coalgebra(coalg: Coalgebra, g: Element, h: Element, z: Element,
                     n: int) -> ExtendedCoalgebra:
    """Extend coalg so z appears as the designated corners of witnesses.

    z must lie in ^gH_n^h up to its group-like direction, with g, h
    group-like and n at least 1.  The result contains coalg as its
    leading block, is a valid coalgebra with the same coradical, and
    carries one multiplicative upper-triangular witness per expansion
    path (plus at most one closing witness); the witnesses have g in the
    top-left, h in the bottom-right, group-likes on the diagonal, and
    top-right entries summing to the positive part of z.

    Raises NotInComponent when the membership test fails.
    """
    if n < 1:
        raise NotInComponent("degree must be at least 1")
    parent, g, h, z = _raw_vectors(z, g, h)
    ok, w = _positive_part(parent, g, h, z, n)
    if not ok:
        raise NotInComponent(
            f"element is not in the degree-{n} part of the bicomponent")
    memo: dict = {}
    ext = _extend(coalg, g, h, w, n, memo)
    result = ext.result
    result.require_valid()
    old = coalg.coradical()
    new = result.coradical()
    require(new.dim == old.dim, "extension changed the coradical")
    for row in old.raw:
        require(new.contains_raw(dict(row)),
                "extension changed the coradical")
    # the base must sit inside the result unchanged
    require(result.names[:coalg.dim] == coalg.names,
            "extension renamed the base")
    for i in range(coalg.dim):
        require(result.comul_raw[i] == coalg.comul_raw[i]
                and result.counit_raw[i] == coalg.counit_raw[i],
                "extension changed the base")
    witnesses = []
    for grid in ext.grids:
        mat = MatrixOverH.of_raw(result, grid)
        require(is_multiplicative(mat), "witness is not multiplicative")
        size = len(grid)
        for u in range(size):
            require(not any(grid[u][:u]), "witness is not upper-triangular")
            require(result._grouplike_raw(grid[u][u].items()),
                    "witness diagonal is not group-like")
        require(grid[0][0] == g and grid[size - 1][size - 1] == h,
                "witness has the wrong flanks")
        witnesses.append(mat)
    # designated_sum() == z, read on the raw top-right entries
    ops = result.field.ops
    require(sum_scaled(ops, [(ops.one, grid[0][-1]) for grid in ext.grids])
            == w, "designated entries do not sum to z")
    return ExtendedCoalgebra(
        base=coalg,
        result=result,
        new_basis=result.names[coalg.dim:],
        witnesses=witnesses,
        z=Element.of_raw(result, w),
        g=Element.of_raw(result, g),
        h=Element.of_raw(result, h),
        n=n,
    )
