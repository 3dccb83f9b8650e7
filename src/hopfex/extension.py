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
"""

from __future__ import annotations

from .coalgebra import Coalgebra, Element, coalgebra_amalgam
from .errors import InvariantViolation, NoSolution, NotInComponent, require
from .linalg import (
    Echelon,
    add_scaled,
    combine,
    leg_coords,
    raw_pair,
    rref_rows,
    t2_add,
    t2_add_term,
    t2_from_pair,
    t2_scale,
    t2_sub,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vec,
)
from .matforms import MatrixOverH, is_multiplicative
from .scalars import box, nonzero_raw, raw_values


# ---------------------------------------------------------------------------
# membership and normalisation
# ---------------------------------------------------------------------------

def _pad(field, vec: tuple, dim: int) -> tuple:
    if len(vec) == dim:
        return vec
    return tuple(vec) + tuple(zero_vec(field, dim - len(vec)))


def graded_positive_part(z: Element, g: Element, h: Element, n: int):
    """Normalise z against its group-like direction and test membership.

    Returns (ok, w) where w = z - eps(z) g when g and h span the same
    simple and w = z otherwise, and ok records whether w lies in the
    positive part of ^gH_n^h, i.e. in the intersection of the degree-n
    filtration level with the (g, h) bicomponent and the counit kernel.
    Raises NotInComponent when g or h is not group-like in the parent
    of z, or when the three elements live in different coalgebras.
    """
    coalg = z.parent
    if g.parent is not coalg or h.parent is not coalg:
        raise NotInComponent("z, g, h must live in one coalgebra")
    if not (coalg.is_grouplike(g.vec) and coalg.is_grouplike(h.vec)):
        raise NotInComponent("flanking elements must be group-like")
    # distinct group-likes span distinct simples
    w = z - g * z.eps() if g.vec == h.vec else z
    if n < 0:
        return (w.is_zero(), w)
    ana = coalg.analysis()
    level = ana.filtration[min(n, ana.depth)]
    ok = level.contains_vector(w.vec)
    if ok:
        ok = coalg.component(w.vec, left=ana.find_simple_containing(g.vec),
                             right=ana.find_simple_containing(h.vec)) == w.vec
    if ok:
        require(coalg.counit_vec(w.vec).is_zero(),
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

    __slots__ = ("z", "g", "h", "n", "terms")

    def __init__(self, z: Element, g: Element, h: Element, n: int, terms):
        self.z = z
        self.g = g
        self.h = h
        self.n = n
        self.terms = tuple(terms)

    def middle(self) -> dict:
        """Sparse tensor equal to the sum of x (x) y over all terms."""
        out: dict = {}
        for _, _, _, x, y in self.terms:
            out = t2_add(out, t2_from_pair(x.vec, y.vec))
        return out

    def __repr__(self):
        return (f"<DeltaExpansion degree={self.n} "
                f"terms={len(self.terms)}>")


def _flag_basis(coalg: Coalgebra, left: int, right: int, maxdeg: int):
    """Degree-tagged basis of the positive part of a bicomponent.

    Returns a list of (vec, degree) whose prefix through degree d spans
    the positive part of ^gH_d^h; the tag is the first filtration level
    in which the vector appears.
    """
    ana = coalg.analysis()
    field = coalg.field
    out = []
    span = Echelon(field)
    for d in range(1, maxdeg + 1):
        level = ana.filtration[min(d, ana.depth)]
        comp = coalg.bicomponent_subspace(left, right, within=level)
        comp = comp.cut(coalg.counit)
        for row in comp.rows:
            if span.add(dict(nonzero_raw(field, row))) is None:
                out.append((row, d))
        if d >= ana.depth:
            break
    return out


def _middle_block(coalg: Coalgebra, middle: dict, gi: int, ki: int, hi: int):
    """Project a raw middle tensor onto ^gH^k (x) ^kH^h, leg by leg."""
    field = coalg.field
    dim = coalg.dim
    lcache: dict = {}
    rcache: dict = {}
    out: dict = {}
    for (a, b), c in middle.items():
        if a not in lcache:
            lcache[a] = nonzero_raw(field, coalg.component(
                unit_vec(field, dim, a), left=gi, right=ki))
        if b not in rcache:
            rcache[b] = nonzero_raw(field, coalg.component(
                unit_vec(field, dim, b), left=ki, right=hi))
        if lcache[a] and rcache[b]:
            add_scaled(field.ops, out, c,
                       raw_pair(field.ops, lcache[a], rcache[b]))
    return out


def _factor_middle(coalg: Coalgebra, middle: dict, gi: int, hi: int, n: int):
    """Factor a middle tensor through group-like channels at minimal rank.

    Returns a sorted list of (degree, serial, k, x, y) Elements with
    sum of x (x) y equal to middle, x of exact first-leg degree and y in
    the complementary filtration level.  Requires a pointed coalgebra.
    """
    if not middle:
        return []
    if not coalg.is_pointed():
        raise NotInComponent("expansion requires a pointed coalgebra")
    ana = coalg.analysis()
    field, ops = coalg.field, coalg.field.ops
    raw_middle = dict(zip(middle, raw_values(field, middle.values())))
    entries = []
    recovered: dict = {}
    for s in ana.simples():
        ki = s.index
        block = _middle_block(coalg, raw_middle, gi, ki, hi)
        if not block:
            continue
        lefts = _flag_basis(coalg, gi, ki, n - 1)
        rights = _flag_basis(coalg, ki, hi, n - 1)
        require(lefts and rights, "nonzero block over an empty bicomponent")
        # block = sum over a, b of lam[a][b] lefts[a] (x) rights[b]
        rraw = [nonzero_raw(field, v) for v, _ in rights]
        pairs = Echelon(field)
        for u, _ in lefts:
            u = nonzero_raw(field, u)
            for v in rraw:
                pairs.add(raw_pair(ops, u, v))
        try:
            comb = pairs.coords(block)
        except NoSolution:
            raise InvariantViolation(
                "middle leaves the expected bicomponents") from None
        lam = [[comb.get(a * len(rights) + b, ops.zero)
                for b in range(len(rights))] for a in range(len(lefts))]
        # staircase: no coefficient pairs a degree with more than n minus it
        for a, (_, da) in enumerate(lefts):
            for b, (_, db) in enumerate(rights):
                if da + db > n:
                    require(ops.is_zero(lam[a][b]),
                            "expansion coefficient violates the degree bound")
        kel = Element(coalg, s.grouplike)
        for d in sorted({da for _, da in lefts}):
            sel = [a for a, (_, da) in enumerate(lefts) if da == d]
            lam_rows = [box(field, lam[a]) for a in sel]
            reduced, piv = rref_rows(field, lam_rows)
            for t, prow in enumerate(reduced):
                xv = combine(field, [row[piv[t]] for row in lam_rows],
                             [lefts[a][0] for a in sel])
                yv = combine(field, prow, [v for v, _ in rights])
                entries.append((d, ki, t + 1, kel,
                                Element(coalg, xv), Element(coalg, yv)))
                recovered = t2_add(recovered, t2_from_pair(xv, yv))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    require(recovered == middle, "expansion does not reconstruct the middle")
    return [(d, serial, kel, x, y) for d, _, serial, kel, x, y in entries]


def delta_expansion(z: Element, g: Element, h: Element, n: int) -> DeltaExpansion:
    """Expand delta(z) - g (x) z - z (x) h through group-like channels.

    z must lie in ^gH_n^h up to its group-like direction and the parent
    must be pointed; raises NotInComponent otherwise.  Degree-one (and
    empty) middles give an expansion with no terms.
    """
    coalg = z.parent
    ok, w = graded_positive_part(z, g, h, n)
    if not ok:
        raise NotInComponent(
            f"element is not in the degree-{n} part of the bicomponent")
    middle = t2_sub(coalg.delta_vec(w.vec),
                    t2_add(t2_from_pair(g.vec, w.vec),
                           t2_from_pair(w.vec, h.vec)))
    if n <= 1 or w.is_zero():
        require(not middle, "low-degree element with a nonzero middle")
        return DeltaExpansion(w, g, h, n, ())
    ana = coalg.analysis()
    terms = _factor_middle(coalg, middle, ana.find_simple_containing(g.vec),
                           ana.find_simple_containing(h.vec), n)
    return DeltaExpansion(w, g, h, n, terms)


# ---------------------------------------------------------------------------
# growing a coalgebra one vector at a time
# ---------------------------------------------------------------------------

def _is_two_cocycle(coalg: Coalgebra, s: dict, sigma: tuple, tau: tuple) -> bool:
    """Whether (delta (x) id)s + s (x) tau equals sigma (x) s + (id (x) delta)s."""
    t3: dict = {}
    for (a, b), c in s.items():
        for (p, q), v in coalg.comul[a].items():
            t2_add_term(t3, (p, q, b), c * v)
        for (p, q), v in coalg.comul[b].items():
            t2_add_term(t3, (a, p, q), -(c * v))
        for m, v in enumerate(tau):
            if not v.is_zero():
                t2_add_term(t3, (a, b, m), c * v)
        for m, v in enumerate(sigma):
            if not v.is_zero():
                t2_add_term(t3, (m, a, b), -(c * v))
    return not t3


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

    def pad(self, vec: tuple) -> tuple:
        return _pad(self.coalg.field, vec, self.coalg.dim)

    def adjoin(self, label: str, sigma: tuple, middle: dict, tau: tuple) -> int:
        """Adjoin u with delta(u) = sigma (x) u + middle + u (x) tau.

        sigma, tau, middle live over the current coalgebra; middle must
        be a matched two-cocycle with counit-free legs, which makes the
        grown coalgebra coassociative and counital.  Returns the index
        of the new basis vector.
        """
        coalg = self.coalg
        field = coalg.field
        d = coalg.dim
        sigma = self.pad(sigma)
        tau = self.pad(tau)
        require(_is_two_cocycle(coalg, middle, sigma, tau),
                "adjoined middle is not a two-cocycle")
        left_eps = zero_vec(field, d)
        right_eps = zero_vec(field, d)
        for (a, b), c in middle.items():
            ea, eb = coalg.counit[a], coalg.counit[b]
            if not ea.is_zero():
                left_eps = vec_add(left_eps, tuple(
                    (c * ea) if j == b else field.zero() for j in range(d)))
            if not eb.is_zero():
                right_eps = vec_add(right_eps, tuple(
                    (c * eb) if j == a else field.zero() for j in range(d)))
        require(vec_is_zero(left_eps) and vec_is_zero(right_eps),
                "adjoined middle has counit-visible legs")
        comul = {}
        for i in range(d):
            for (j, k), c in coalg.comul[i].items():
                comul[(i, j, k)] = c
        for a, c in enumerate(sigma):
            if not c.is_zero():
                comul[(d, a, d)] = c
        for b, c in enumerate(tau):
            if not c.is_zero():
                comul[(d, d, b)] = c
        for (a, b), c in middle.items():
            comul[(d, a, b)] = c
        names = list(coalg.names)
        lab = label
        while lab in names:
            lab += "'"
        self.coalg = Coalgebra(field, names + [lab], comul,
                               list(coalg.counit) + [0], name=coalg.name)
        return d


def _solve_skew(coalg: Coalgebra, sigma: tuple, tau: tuple, mid: dict):
    """Solve delta(r) = sigma (x) r + mid + r (x) tau inside coalg, or None.

    The unknown r = sum r_e e has the sparse columns
    delta(e) - sigma (x) e - e (x) tau in H (x) H, keyed by pairs; mid is
    reduced against their Echelon.
    """
    field = coalg.field
    ops = field.ops
    minus_one = ops.neg(ops.one)
    sig, ta = nonzero_raw(field, sigma), nonzero_raw(field, tau)
    system = Echelon(field)
    for e in range(coalg.dim):
        col = coalg._delta_raw([(e, ops.one)])
        add_scaled(ops, col, minus_one, {(a, e): c for a, c in sig})
        add_scaled(ops, col, minus_one, {(e, b): c for b, c in ta})
        system.add(col)
    try:
        comb = system.coords(dict(zip(mid, raw_values(field, mid.values()))))
    except NoSolution:
        return None
    r = box(field, [comb.get(e, ops.zero) for e in range(coalg.dim)])
    require(coalg.counit_vec(r).is_zero(),
            "skew-primitive solution has a nonzero counit")
    return r


# ---------------------------------------------------------------------------
# gluing witnesses along a shared group-like
# ---------------------------------------------------------------------------

def _ladder_middle(gr: _Grower, grid, u: int, v: int) -> dict:
    out: dict = {}
    for w in range(u + 1, v):
        out = t2_add(out, t2_from_pair(gr.pad(grid[u][w]), gr.pad(grid[w][v])))
    return out


def _glue(gr: _Grower, agrid, bgrid, gvec: tuple, hvec: tuple):
    """Glue two witness grids at their shared group-like corner.

    agrid ends where bgrid begins: the bottom-right entry of agrid
    equals the top-left entry of bgrid.  The glued grid keeps agrid in
    the top-left and bgrid in the bottom-right; rectangle cells in
    between are filled in ascending anti-diagonal order, each either
    solved inside the current coalgebra or adjoined as a fresh vector
    carrying the cell's two-cocycle.  The top-right corner always
    adjoins.  Returns (grid, corner index, corner middle).
    """
    field = gr.coalg.field
    p, q = len(agrid), len(bgrid)
    m = p + q - 1
    require(gr.pad(agrid[p - 1][p - 1]) == gr.pad(bgrid[0][0]),
            "glued grids disagree on the shared group-like")
    grid = [[None] * m for _ in range(m)]
    for u in range(p):
        for v in range(p):
            grid[u][v] = agrid[u][v]
    for u in range(q):
        for v in range(q):
            grid[p - 1 + u][p - 1 + v] = bgrid[u][v]
    zero = zero_vec(field, gr.coalg.dim)
    for u in range(m):
        for v in range(m):
            if grid[u][v] is None:
                grid[u][v] = zero
    cells = [(u, v) for u in range(p - 1) for v in range(p, m)]
    cells.sort(key=lambda uv: (uv[1] - uv[0], uv[0]))
    for u, v in cells:
        if u == 0 and v == m - 1:
            continue
        mid = _ladder_middle(gr, grid, u, v)
        sigma = gr.pad(grid[u][u])
        tau = gr.pad(grid[v][v])
        cell = _solve_skew(gr.coalg, sigma, tau, mid)
        if cell is None:
            idx = gr.adjoin(gr.fresh("u"), sigma, mid, tau)
            cell = unit_vec(field, gr.coalg.dim, idx)
        grid[u][v] = cell
    mid = _ladder_middle(gr, grid, 0, m - 1)
    idx = gr.adjoin(gr.fresh("z"), gr.pad(gvec), mid, gr.pad(hvec))
    grid[0][m - 1] = unit_vec(field, gr.coalg.dim, idx)
    return grid, idx, mid


# ---------------------------------------------------------------------------
# the closing witness: coefficient matrix of a left coideal
# ---------------------------------------------------------------------------

def _coideal_witness(gr: _Grower, corner_idx: int, gvec: tuple, hvec: tuple,
                     n: int):
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
    dim = coalg.dim
    gpad = _pad(field, gvec, dim)
    hpad = _pad(field, hvec, dim)
    ana = coalg.analysis()
    require(coalg.is_grouplike(gpad), "coideal corner g is not group-like")
    gi = ana.find_simple_containing(gpad)
    corner = unit_vec(field, dim, corner_idx)
    members = []
    span = Echelon.of_vectors(field, [gpad, corner])
    queue = [(corner, hpad, n)]
    serial = 0
    while queue:
        vec, rvec, deg = queue.pop(0)
        mid = t2_sub(coalg.delta_vec(vec),
                     t2_add(t2_from_pair(gpad, vec), t2_from_pair(vec, rvec)))
        if not mid:
            continue
        require(coalg.is_grouplike(rvec), "coideal flank is not group-like")
        ri = ana.find_simple_containing(rvec)
        for d, _, kel, x, _y in _factor_middle(coalg, mid, gi, ri, deg):
            if span.add(dict(nonzero_raw(field, x.vec))) is not None:
                continue
            members.append((x.vec, d, serial))
            serial += 1
            queue.append((x.vec, kel.vec, d))
    members.sort(key=lambda t: (t[1], t[2]))
    fam = [gpad] + [v for v, _, _ in members] + [corner]
    size = len(fam)
    basis = Echelon.of_vectors(field, fam)
    grid = [[None] * size for _ in range(size)]
    for u, fu in enumerate(fam):
        # delta(f_u) = sum over w, b of coeffs[w][b] f_w (x) e_b
        try:
            coeffs = leg_coords(basis, coalg._delta_raw(nonzero_raw(field, fu)),
                                dim)
        except NoSolution:
            raise InvariantViolation(
                "closure family is not a left coideal") from None
        for w in range(size):
            grid[w][u] = box(field, coeffs[w])
    for u in range(size):
        for w in range(u + 1, size):
            require(vec_is_zero(grid[w][u]), "coideal matrix not triangular")
        require(coalg.is_grouplike(grid[u][u]),
                "coideal diagonal entry is not group-like")
    require(grid[0][size - 1] == corner, "coideal corner entry moved")
    require(grid[0][0] == gpad and grid[size - 1][size - 1] == hpad,
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


def _remap_vec(field, vec: tuple, base_dim: int, offset: int,
               new_dim: int) -> tuple:
    out = list(zero_vec(field, new_dim))
    for i, c in enumerate(vec):
        if not c.is_zero():
            out[i if i < base_dim else offset + (i - base_dim)] = c
    return tuple(out)


def _extend(base: Coalgebra, gvec: tuple, hvec: tuple, wvec: tuple, n: int,
            memo: dict) -> _Ext:
    """Build witnesses for wvec over extensions of the fixed base.

    Every recursion level works over the original base: sub-extensions
    of the expansion legs are built first, amalgamated along the base,
    and then one glued witness is produced per pair of sub-witnesses.
    The skew-primitive residue of wvec against the adjoined corners is
    folded into the first designated entry, so the top-right entries of
    the returned grids sum to wvec.
    """
    key = (gvec, hvec, wvec, n)
    if key in memo:
        return memo[key]
    field = base.field
    g_el = Element(base, gvec)
    h_el = Element(base, hvec)
    exp = delta_expansion(Element(base, wvec), g_el, h_el, n)
    if not exp.terms:
        # skew-primitive: a single witness with the element in the corner
        order = n + 1
        zero = zero_vec(field, base.dim)
        grid = [[zero] * order for _ in range(order)]
        for u in range(order - 1):
            grid[u][u] = gvec
        grid[order - 1][order - 1] = hvec
        grid[0][order - 1] = wvec
        ext = _Ext(base, [grid])
        memo[key] = ext
        return ext

    subpairs = []
    for deg, _serial, kel, x, y in exp.terms:
        ex = _extend(base, gvec, kel.vec, x.vec, deg, memo)
        ey = _extend(base, kel.vec, hvec, y.vec, n - deg, memo)
        subpairs.append((ex, ey))
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
        off = offsets.get(id(e), base.dim)
        return [[_remap_vec(field, c, base.dim, off, amal.dim) for c in row]
                for row in grid]

    gr = _Grower(amal)
    total_mid: dict = {}
    grids = []
    corner_idxs = []
    for ex, ey in subpairs:
        for agrid in ex.grids:
            ea = embed(ex, agrid)
            for bgrid in ey.grids:
                eb = embed(ey, bgrid)
                grid, idx, mid = _glue(gr, ea, eb, gvec, hvec)
                grids.append(grid)
                corner_idxs.append(idx)
                total_mid = t2_add(total_mid, mid)
    gamma = t2_sub(total_mid, exp.middle())
    if gamma:
        # the glued corners overshoot the middle of wvec; adjoin one
        # closing vector whose middle cancels the defect exactly
        neg = t2_scale(field.from_int(-1), gamma)
        zc_idx = gr.adjoin(gr.fresh("zc"), gr.pad(gvec), neg, gr.pad(hvec))
        grids.append(_coideal_witness(gr, zc_idx, gvec, hvec, n))
        corner_idxs.append(zc_idx)
    result = gr.coalg
    rho = _pad(field, wvec, result.dim)
    for idx in corner_idxs:
        rho = vec_sub(rho, unit_vec(field, result.dim, idx))
    gpad = _pad(field, gvec, result.dim)
    hpad = _pad(field, hvec, result.dim)
    leftover = t2_sub(result.delta_vec(rho),
                      t2_add(t2_from_pair(gpad, rho), t2_from_pair(rho, hpad)))
    require(not leftover, "residue is not skew-primitive")
    first = grids[0]
    first[0][len(first) - 1] = vec_add(gr.pad(first[0][len(first) - 1]), rho)
    total = zero_vec(field, result.dim)
    for grid in grids:
        total = vec_add(total, gr.pad(grid[0][len(grid) - 1]))
    require(total == _pad(field, wvec, result.dim),
            "designated entries do not sum to the element")
    grids = [[[gr.pad(c) for c in row] for row in grid] for grid in grids]
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
        total = self.result.zero()
        for e in self.designated_entries():
            total = total + e
        return total

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
    ok, w = graded_positive_part(z, g, h, n)
    if not ok:
        raise NotInComponent(
            f"element is not in the degree-{n} part of the bicomponent")
    memo: dict = {}
    ext = _extend(coalg, g.vec, h.vec, w.vec, n, memo)
    result = ext.result
    result.require_valid()
    field = result.field
    old = coalg.coradical()
    new = result.coradical()
    require(new.dim == old.dim, "extension changed the coradical")
    for row in old.rows:
        require(new.contains_vector(_pad(field, row, result.dim)),
                "extension changed the coradical")
    # the base must sit inside the result unchanged
    require(result.names[:coalg.dim] == coalg.names,
            "extension renamed the base")
    for i in range(coalg.dim):
        require(result.comul[i] == coalg.comul[i]
                and result.counit[i] == coalg.counit[i],
                "extension changed the base")
    gpad = _pad(field, g.vec, result.dim)
    hpad = _pad(field, h.vec, result.dim)
    witnesses = []
    for grid in ext.grids:
        mat = MatrixOverH(result, grid)
        require(is_multiplicative(mat), "witness is not multiplicative")
        size = mat.nrows
        for u in range(size):
            for v in range(u):
                require(vec_is_zero(mat.entry(u, v)),
                        "witness is not upper-triangular")
            require(result.is_grouplike(mat.entry(u, u)),
                    "witness diagonal is not group-like")
        require(mat.entry(0, 0) == gpad and mat.entry(size - 1, size - 1)
                == hpad, "witness has the wrong flanks")
        witnesses.append(mat)
    out = ExtendedCoalgebra(
        base=coalg,
        result=result,
        new_basis=result.names[coalg.dim:],
        witnesses=witnesses,
        z=Element(result, _pad(field, w.vec, result.dim)),
        g=Element(result, gpad),
        h=Element(result, hpad),
        n=n,
    )
    require(out.designated_sum() == out.z,
            "designated entries do not sum to z")
    return out
