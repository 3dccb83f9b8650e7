"""Finite-dimensional coalgebras presented by structure constants.

A coalgebra here is a based vector space with comultiplication given
sparsely, Delta(e_i) = sum mu[i][(j,k)] e_j (x) e_k, and a counit
vector.  Everything downstream of the definition is derived from the
dual algebra: the Jacobson radical J of H* gives the coradical
filtration H_m = (J^(m+1))^perp, the Wedderburn blocks of H*/J give
the simple subcoalgebras, and lifting their central idempotents
through J gives the orthonormal coradical idempotent family {e_C},
which in turn powers the hit-action calculus and the bicomponent
decompositions.

The blocks come from splitting H*/J deterministically.  The primitive
idempotents of its centre (FiniteAlgebra.split_commutative) are the
block idempotents z; when H*/J is commutative (every pointed coalgebra;
FiniteAlgebra.is_commutative compares its constants, and no centre is
computed) it is split directly, and each z spans a 1-dimensional block.
Otherwise the block of z is z(H*/J), read off the columns of L_z, as z
is central.  In each larger block a primitive idempotent f
(FiniteAlgebra.primitive_idempotent_in) gives the matrix size r as the
dimension of the left ideal (H*/J)f, and r^2 = dim z(H*/J) proves the
block is M_r(k).  NonSplitField is raised when a block is proved not
split over the base field, and when the refinement of the centre ends
short of dim Z pieces: a proof over Q and finite fields, and resting on
field_roots' candidate roots over a char-0 extension.
SplittingSearchExhausted is raised when the bounded search inside a
block finds nothing, which proves nothing.

The splitting hands its results on as sparse raw vectors {m: raw value}
(FiniteAlgebra's form): the block idempotents, the primitive idempotents
and the block rows of each SimpleComponent, and the lifted coradical
idempotents, which IdempotentFamily holds raw and boxes as its
functionals only when they are read.  An Element, too, holds raw pairs
and is boxed only when its vec is read.

The rows of J and the lifted rows of every block form a basis of H*;
it is inverted once, and the simple subcoalgebra C_t of block t is the
span of the dual vectors of its rows, the perp of J and the other
blocks.  Each C_t is proved a subcoalgebra on raw values, and the C_t
are proved to sum to the coradical by one elimination.  The coradical
idempotents are lifted in turn, and each one is proved orthogonal to
the sum of those before it, two products each: by induction the family
is pairwise orthogonal.

Tensors in H (x) H are sparse dicts {(j, k): value} with no zeros, of
Scalars in the comul view and Element.delta and of raw values elsewhere:
comul_raw holds the table.  Delta, eps and the bicomponents are linear
maps on lifted tables, each built once: _delta_raw is a
scalars.combination of the lifted columns of Delta, and _eps_raw a
scalars.dot with the lifted counit.  The hit actions read functionals
lifted once (lift_functionals) and hit with all of them in one pass over
Delta.  A coalgebra is immutable, so it builds one bicomponent table, at
the first bicomponent asked of it: the (l, r) component of every basis
vector, from one left hit per basis vector and one right hit per nonzero
left component, with the coradical idempotents lifted once
(IdempotentFamily.lifted).  _component_raw, and through it
bicomponent_subspace and the extension layer, is then one combination
of the (l, r) columns of that table.
"""

from __future__ import annotations

import functools

from .algebra import FiniteAlgebra
from .errors import (
    AxiomViolation,
    FieldMismatch,
    IncompatibleBase,
    NonSplitField,
    UnknownSimple,
    require,
    require_indices,
)
from .linalg import (
    SubspaceBasis,
    add_scaled,
    raw_pair,
    rref_sparse,
    sparse_raw,
    sum_scaled,
    tensor_legs,
)
from .scalars import (FieldSpec, Scalar, box, box_sparse, combination, dot,
                      lift_columns, raw_table, read_vector)


def lift_functionals(field: FieldSpec, functionals) -> tuple:
    """(index, scales) for functionals f_0, f_1, ..., each given by the
    (k, raw value) pairs of its nonzero entries and lifted once over one
    scale (FieldOps.lift_pairs): index[k] lists the (l, lifted f_l(e_k))
    of the nonzero f_l(e_k), and scales[l] is the scale of f_l."""
    index: dict = {}
    scales = []
    for l, f in enumerate(functionals):
        lifted, scale = field.ops.lift_pairs(f)
        scales.append(scale)
        for k, x in lifted:
            index.setdefault(k, []).append((l, x))
    return index, scales


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Element:
    """A coalgebra element: its coordinates bound to its parent.

    raw holds the (index, raw value) pairs of the nonzero coordinates in
    increasing index (the convention of SubspaceBasis.raw); equality,
    hashing, arithmetic, delta, eps and repr run on it, and vec is the
    coefficient vector of Scalars, boxed at the first read.
    Element(parent, vec) reads a coefficient vector with the one vector
    reader, read_vector: ShapeMismatch unless it has length dim, and each
    coordinate read by FieldSpec.raw (a Scalar of the field, an int or a
    Fraction).  of_raw takes raw pairs.  * between elements needs a
    parent with a product (bi- or Hopf algebras).
    """

    __slots__ = ("parent", "raw", "_vec")

    def __init__(self, parent: "Coalgebra", vec):
        self._hold(parent, read_vector(parent.field, parent.dim, vec))

    @classmethod
    def of_raw(cls, parent: "Coalgebra", vec) -> "Element":
        """The element with the nonzero coordinates vec, a dict {index: raw
        value} or its (index, raw value) pairs, with no zeros."""
        return cls.__new__(cls)._hold(parent, tuple(sorted(dict(vec).items())))

    def _hold(self, parent, raw) -> "Element":
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "_vec", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    @property
    def vec(self) -> tuple:
        """The coefficient vector of Scalars, boxed at the first read."""
        if self._vec is None:
            object.__setattr__(self, "_vec", box_sparse(
                self.parent.field, self.parent.dim, self.raw))
        return self._vec

    def delta(self) -> dict:
        """Delta of the element as a sparse tensor {(j, k): Scalar}."""
        acc = self.parent._delta_raw(self.raw)
        return dict(zip(acc, box(self.parent.field, acc.values())))

    def eps(self) -> Scalar:
        return Scalar(self.parent.field, self.parent._eps_raw(self.raw))

    def __add__(self, other: "Element") -> "Element":
        self._like(other)
        ops = self.parent.field.ops
        return Element.of_raw(self.parent, sum_scaled(
            ops, [(ops.one, self.raw), (ops.one, other.raw)]))

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        ops = self.parent.field.ops
        return self._scaled(ops.neg(ops.one))

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self._scaled(self.parent.field.raw(other))
        self._like(other)
        return Element.of_raw(self.parent, self._algebra()._product(
            self.raw, other.raw))

    __rmul__ = __mul__

    def _scaled(self, c) -> "Element":
        """c self, for a raw value c."""
        return Element.of_raw(self.parent, sum_scaled(self.parent.field.ops,
                                                      [(c, self.raw)]))

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise TypeError("power needs an algebra product and n >= 0")
        return Element.of_raw(self.parent, self._algebra()._power(self.raw, n))

    def _algebra(self):
        """The algebra of the parent; TypeError when it has no product."""
        algebra = getattr(self.parent, "algebra", None)
        if algebra is None:
            raise TypeError("parent coalgebra has no product")
        return algebra

    def is_zero(self) -> bool:
        return not self.raw

    def __eq__(self, other):
        return (isinstance(other, Element) and other.parent is self.parent
                and other.raw == self.raw)

    def __hash__(self):
        return hash((id(self.parent), self.raw))

    def _like(self, other: "Element"):
        if other.parent is not self.parent:
            raise FieldMismatch("elements of different coalgebras")

    def __repr__(self):
        return self.parent._format_raw(self.raw)


# ---------------------------------------------------------------------------
# the coalgebra
# ---------------------------------------------------------------------------

class Coalgebra:
    """Coalgebra by structure constants over an exact field.

    comul maps (i, j, k) -> scalar with Delta(e_i) = sum e_j (x) e_k
    weighted by that scalar; counit lists eps(e_i).  comul_raw[i] holds
    Delta(e_i) as {(j, k): raw value} with no zeros, counit_raw the raw
    eps(e_i); comul and counit are their boxed views.  Instances are
    immutable after construction; derived data (dual algebra, coradical
    analysis) is computed once and cached.
    """

    def __init__(self, field: FieldSpec, names, comul, counit, name: str = ""):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise AxiomViolation("basis names must be distinct")
        if len(counit) != len(names):
            raise AxiomViolation("counit length differs from dimension")
        counit = tuple([field.raw(c) for c in counit])
        table = [{} for _ in names]
        for (i, j, k), c in raw_table(field, "comultiplication", comul,
                                      len(names)).items():
            table[i][(j, k)] = c
        self._hold(field, names, table, counit, name)

    @classmethod
    def of_raw(cls, field: FieldSpec, names, comul, counit,
               name: str = "") -> "Coalgebra":
        """The coalgebra with Delta(e_i) = comul[i], {(j, k): raw value}
        with no zeros, and the counit vector of raw values; the caller
        guarantees distinct names, indices in range and lengths dim."""
        return cls.__new__(cls)._hold(field, tuple(names), comul, counit, name)

    def _hold(self, field, names, comul, counit, name) -> "Coalgebra":
        self.field, self.names, self.dim = field, names, len(names)
        self.name = name or "coalgebra"
        self.comul_raw, self.counit_raw = tuple(comul), tuple(counit)
        self._comul = self._counit = self._dual = self._analysis = None
        return self

    @property
    def comul(self) -> tuple:
        """Delta(e_i) as {(j, k): Scalar} for each i, boxed at first read."""
        if self._comul is None:
            vals = iter(box(self.field, [c for d in self.comul_raw
                                         for c in d.values()]))
            self._comul = tuple({key: next(vals) for key in d}
                                for d in self.comul_raw)
        return self._comul

    @property
    def counit(self) -> tuple:
        """eps(e_i) for each i as a Scalar, boxed at first read."""
        if self._counit is None:
            self._counit = box(self.field, self.counit_raw)
        return self._counit

    # -- basics -------------------------------------------------------------

    def basis_element(self, i: int) -> Element:
        require_indices("basis element", [(i,)], self.dim)
        return Element.of_raw(self, [(i, self.field.ops.one)])

    def element(self, coeffs) -> Element:
        """Element from a coefficient vector (Element's one coercion) or a
        {basis name: coeff} dict; an Element of this coalgebra is returned
        as it is, and one of another is a FieldMismatch."""
        if isinstance(coeffs, Element):
            if coeffs.parent is not self:
                raise FieldMismatch("element of a different coalgebra")
            return coeffs
        if isinstance(coeffs, dict):
            vec = [0] * self.dim
            for name, c in coeffs.items():
                vec[self.index_of(name)] = c
            coeffs = vec
        return Element(self, coeffs)

    def zero(self) -> Element:
        return Element.of_raw(self, ())

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AxiomViolation(f"no basis vector named {name!r}") from None

    def format_element(self, vec) -> str:
        """The text of a coefficient vector (read_vector)."""
        return self._format_raw(read_vector(self.field, self.dim, vec))

    def _format_raw(self, pairs) -> str:
        """The text of the vector with the nonzero (index, raw value)
        pairs, in increasing index."""
        terms = []
        for i, c in pairs:
            s = self.field.format_raw(c)
            if s == "1":
                terms.append(self.names[i])
            elif s == "-1":
                terms.append("-" + self.names[i])
            elif all(ch.isdigit() for ch in s.lstrip("-")):
                terms.append(f"{s}*{self.names[i]}")
            else:
                terms.append(f"({s})*{self.names[i]}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return out

    @functools.cached_property
    def _lifted_comul(self) -> tuple:
        """(lifted, scale): lifted[i] lists the ((j, k), c) of Delta(e_i),
        every c lifted over the one scale."""
        return lift_columns(self.field.ops, dict(enumerate(self.comul_raw)))

    def _delta_raw(self, pairs) -> dict:
        """Delta of the vector with nonzero (index, raw value) pairs, as
        {(j, k): raw value} with no zeros."""
        return combination(self.field.ops, pairs, *self._lifted_comul)

    @functools.cached_property
    def _lifted_counit(self) -> tuple:
        """(lifted, scale): {i: eps(e_i)} over the nonzero eps(e_i),
        lifted over one scale."""
        ops = self.field.ops
        lifted, scale = ops.lift_pairs(sparse_raw(ops, self.counit_raw))
        return dict(lifted), scale

    def _eps_raw(self, pairs):
        """eps of the vector with nonzero (index, raw value) pairs, as a
        raw value."""
        return dot(self.field.ops, pairs, *self._lifted_counit)

    def subcoalgebra_support(self, vec) -> list[int]:
        """The least S containing supp(vec) with every (j, k) of Delta(e_i),
        i in S, in S x S; sorted.  span{e_i : i in S} is then the least
        subcoalgebra spanned by basis vectors that contains vec, an
        Element or a vector.
        """
        todo = [i for i, _ in self.element(vec).raw]
        support = set(todo)
        while todo:
            for j, k in self.comul_raw[todo.pop()]:
                for m in (j, k):
                    if m not in support:
                        support.add(m)
                        todo.append(m)
        return sorted(support)

    def is_grouplike(self, vec) -> bool:
        """Whether eps(vec) = 1 and Delta(vec) = vec (x) vec, for an
        Element or a vector."""
        return self._grouplike_raw(self.element(vec).raw)

    def _grouplike_raw(self, pairs) -> bool:
        """is_grouplike of the vector with nonzero (index, raw value) pairs."""
        ops = self.field.ops
        pairs = list(pairs)
        return self._eps_raw(pairs) == ops.one and \
            self._delta_raw(pairs) == raw_pair(ops, pairs, pairs)

    def counit_vec(self, vec) -> Scalar:
        """eps(vec) for an Element or a vector."""
        return self.element(vec).eps()

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name!r} dim={self.dim} "
                f"over {self.field.describe()}>")

    # -- axioms ---------------------------------------------------------------

    def check(self) -> list[str]:
        """Exact axiom audit on raw values; returns human-readable violations.

        (Delta (x) id) Delta(e_i) is the Delta of each column of the array
        T of Delta(e_i) = sum T[j][k] e_j (x) e_k, (id (x) Delta) Delta(e_i)
        that of each row; the counit laws apply eps to the same legs.
        """
        ops = self.field.ops
        bad = []
        for i in range(self.dim):
            columns, rows = tensor_legs(self._delta_raw([(i, ops.one)]))
            left = {(a, b, k): x for k, col in columns.items()
                    for (a, b), x in self._delta_raw(col.items()).items()}
            right = {(j, a, b): x for j, row in rows.items()
                     for (a, b), x in self._delta_raw(row.items()).items()}
            if left != right:
                bad.append(f"coassociativity fails on {self.names[i]}")
            for side, legs in (("left", columns), ("right", rows)):
                eps = {k: self._eps_raw(leg.items()) for k, leg in legs.items()}
                if {k: x for k, x in eps.items()
                        if not ops.is_zero(x)} != {i: ops.one}:
                    bad.append(f"{side} counit law fails on {self.names[i]}")
        return bad

    def require_valid(self):
        bad = self.check()
        if bad:
            raise AxiomViolation("; ".join(bad))

    def extend_scalars(self, bigger: FieldSpec) -> "Coalgebra":
        """The same structure constants read in an extension field.

        A HopfAlgebra (or bialgebra) stays one: one embedding of raw
        values (FieldSpec.embedding) is applied to every table of its
        structure file.
        """
        from .structfile import StructureFile, structure_from_object

        sf, emb = structure_from_object(self), bigger.embedding(self.field)

        def embedded(entries: dict) -> dict:
            return {key: emb(c) for key, c in entries.items()}

        return StructureFile(
            bigger, sf.names, map(emb, sf.counit), map(embedded, sf.comul),
            sf.mul and embedded(sf.mul), sf.unit and map(emb, sf.unit),
            sf.antipode and {i: embedded(col)
                             for i, col in sf.antipode.items()},
            name=f"{self.name} (x) {bigger.describe()}").to_object()

    def is_subcoalgebra(self, v: SubspaceBasis) -> bool:
        """Whether Delta maps v into v (x) v, read one leg at a time; a v
        over another field or ambient dimension is a FieldMismatch or
        ShapeMismatch.

        Write Delta(x), for a basis row x of V, as the dim x dim array T
        with Delta(x) = sum T[j][k] e_j (x) e_k.  Delta(x) lies in V (x) H
        exactly when every column of T lies in V, and these are tested
        first.  Then T = sum_k v_k (x) T[p_k, .] over the canonical rows
        v_k of V and their pivots p_k: column c of T is the combination
        of the v_k with coefficients its entries T[p_k, c] at the pivots,
        as v_k is 1 at p_k and every other row is 0 there.  The v_k are
        independent, so T lies in V (x) V exactly when the d = dim V rows
        T[p_k, .] lie in V, and only those are tested: at most dim + d
        pivot reads of sparse raw vectors per row instead of 2 dim, with
        the same verdict, and never an elimination in the dim^2 ambient
        of H (x) H.
        """
        v.require_in(self.field, self.dim)
        for row in v.raw:
            columns, rows = tensor_legs(self._delta_raw(row))
            if not all(v.contains_raw(leg) for leg in columns.values()):
                return False
            if not all(v.contains_raw(rows[p]) for p in v.pivots if p in rows):
                return False
        return True

    # -- the dual algebra and coradical analysis -------------------------------

    def dual_algebra(self) -> FiniteAlgebra:
        """H* with (f.g)(c) = sum f(c_(1)) g(c_(2)), on the dual basis."""
        if self._dual is None:
            self._dual = FiniteAlgebra.of_raw(
                self.field, self.dim,
                {(j, k, i): c for i, d in enumerate(self.comul_raw)
                 for (j, k), c in d.items()},
                self.counit_raw)
        return self._dual

    def analysis(self) -> "CoradicalAnalysis":
        if self._analysis is None:
            self._analysis = CoradicalAnalysis(self)
        return self._analysis

    def coradical_filtration(self) -> list[SubspaceBasis]:
        return self.analysis().filtration

    def coradical(self) -> SubspaceBasis:
        return self.analysis().filtration[0]

    def is_cosemisimple(self) -> bool:
        return self.coradical().dim == self.dim

    def simple_subcoalgebras(self) -> list["SimpleComponent"]:
        return self.analysis().simples()

    def coradical_idempotents(self) -> "IdempotentFamily":
        return self.analysis().idempotents()

    def is_pointed(self) -> bool:
        return all(c.dim == 1 for c in self.simple_subcoalgebras())

    def group_likes(self) -> list[Element]:
        return [Element.of_raw(self, c.grouplike_raw)
                for c in self.simple_subcoalgebras() if c.is_grouplike]

    # -- hit actions ------------------------------------------------------------

    def _hit(self, pairs, family: tuple, leg: int) -> list[dict]:
        """sum c_i f(e_(leg)) e_(other leg) over the terms of Delta(e_i),
        for the nonzero (i, raw c_i) of a vector and each functional f of
        family, as one {m: raw value} with no zeros per functional, in
        one pass over Delta.  family is (index, scales) as
        lift_functionals gives it; the vector is lifted once and each
        entry is settled once."""
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        table, scale = self._lifted_comul
        index, scales = family
        coeffs, hs = ops.lift_pairs(pairs)
        accs = [{} for _ in scales]
        for i, c in coeffs:
            for key, t in table[i]:
                fs = index.get(key[leg])
                if fs is not None:
                    ct, m = mul(c, t), key[1 - leg]
                    for l, x in fs:
                        y, acc = mul(ct, x), accs[l]
                        acc[m] = add(acc[m], y) if m in acc else y
        hs = hs * scale
        return [ops.settle_all(acc, hs * s) if acc else acc
                for acc, s in zip(accs, scales)]

    @functools.cached_property
    def _bicomponents(self) -> tuple:
        """(table, scale, n): table maps (l, r), for two of the n
        coradical idempotents e_l and e_r, to {i: the (m, lifted value)
        pairs of e_r -> (e_i <- e_l)} over the basis vectors e_i where
        that bicomponent is nonzero, all over one scale; a pair (l, r)
        with no nonzero column is left out.

        One sweep over Delta with every idempotent at once: one left hit
        per basis vector, then one right hit per nonzero left component.
        A coalgebra is immutable, so the table is built once.
        """
        ops = self.field.ops
        family = self.coradical_idempotents().lifted
        one = ops.one
        cols: dict = {}
        for i in range(self.dim):
            for l, left in enumerate(self._hit([(i, one)], family, 0)):
                if left:
                    for r, v in enumerate(self._hit(left.items(), family, 1)):
                        if v:
                            cols[i, l, r] = v
        lifted, scale = lift_columns(ops, cols)
        table: dict = {}
        for (i, l, r), col in lifted.items():
            table.setdefault((l, r), {})[i] = col
        return table, scale, len(family[1])

    def _component_raw(self, pairs, left: int, right: int) -> dict:
        """e_right -> (v <- e_left) for the vector v with nonzero (index,
        raw value) pairs, as {m: raw value} with no zeros: one combination
        of the (left, right) columns of the bicomponent table."""
        table, scale, n = self._bicomponents
        for side in (left, right):
            if not 0 <= side < n:
                raise UnknownSimple(f"no simple subcoalgebra with index {side}")
        return combination(self.field.ops, pairs, table.get((left, right), {}),
                           scale)

    def bicomponent_subspace(self, left: int, right: int,
                             within: SubspaceBasis | None = None) -> SubspaceBasis:
        v = SubspaceBasis.full(self.field, self.dim) if within is None \
            else within.require_in(self.field, self.dim)
        return SubspaceBasis.of_raw(self.field, self.dim, [
            self._component_raw(row, left, right) for row in v.raw])


# ---------------------------------------------------------------------------
# coradical analysis
# ---------------------------------------------------------------------------

class SimpleComponent:
    """One simple subcoalgebra, with its dual Wedderburn block data.

    grouplike_raw is the normalised group-like {j: raw value}, or None.
    The block data is raw, in the coordinates of the quotient H*/J:
    central_idempotent and primitive_idempotent are sparse raw vectors
    {m: raw value} with no zeros, and block_rows lists the block's basis
    in that form.
    """

    __slots__ = ("index", "subspace", "dim", "matrix_size", "is_grouplike",
                 "grouplike_raw", "central_idempotent", "primitive_idempotent",
                 "block_rows")

    def __init__(self, index, subspace, matrix_size, grouplike,
                 central_idempotent, primitive_idempotent, block_rows):
        self.index = index
        self.subspace = subspace
        self.dim = subspace.dim
        self.matrix_size = matrix_size
        self.is_grouplike = grouplike is not None
        self.grouplike_raw = grouplike
        self.central_idempotent = central_idempotent
        self.primitive_idempotent = primitive_idempotent
        self.block_rows = block_rows

    def __repr__(self):
        kind = "group-like" if self.is_grouplike else f"{self.matrix_size}x{self.matrix_size}"
        return f"<SimpleComponent #{self.index} dim={self.dim} {kind}>"


class IdempotentFamily:
    """Orthonormal coradical idempotents {e_C} in H*, one per simple.

    raw holds each functional as the (index, raw value) pairs of its
    nonzero entries in increasing index; functionals, and functional(i)
    on it, are the vectors of Scalars, boxed at the first read.
    Invariants (checked by CoradicalAnalysis.idempotents): e_C e_D =
    delta e_C, the sum is the counit, and each e_C restricts on the
    coradical as the projection onto its simple.
    """

    def __init__(self, coalgebra: Coalgebra, raw):
        self.coalgebra = coalgebra
        self.raw = tuple(tuple(sorted(dict(f).items())) for f in raw)
        self._functionals = None

    def __len__(self):
        return len(self.raw)

    @property
    def functionals(self) -> tuple:
        """The functionals as vectors of Scalars, boxed at the first read."""
        if self._functionals is None:
            c = self.coalgebra
            self._functionals = tuple(box_sparse(c.field, c.dim, f)
                                      for f in self.raw)
        return self._functionals

    def functional(self, i: int) -> tuple:
        if not 0 <= i < len(self.raw):
            raise UnknownSimple(f"no simple subcoalgebra with index {i}")
        return self.functionals[i]

    @functools.cached_property
    def lifted(self) -> tuple:
        """The functionals as lift_functionals gives them, lifted once."""
        return lift_functionals(self.coalgebra.field, self.raw)

    def __iter__(self):
        return iter(self.functionals)


class CoradicalAnalysis:
    """Cached derived structure: radical, filtration, simples, idempotents."""

    def __init__(self, coalgebra: Coalgebra):
        self.coalgebra = coalgebra
        self.dual = coalgebra.dual_algebra()
        self.radical = self.dual.radical()
        jpowers = self.dual.radical_powers()
        # H_m = (J^(m+1))^perp; the chain is strictly increasing and the
        # last term (annihilator of the vanishing power) is all of H.
        self.filtration = [jp.perp() for jp in jpowers]
        self.quotient = self.dual.quotient(self.radical)
        self._simples: list[SimpleComponent] | None = None
        self._idempotents: IdempotentFamily | None = None

    @property
    def depth(self) -> int:
        return len(self.filtration) - 1

    # -- simple subcoalgebras ---------------------------------------------------

    def simples(self) -> list[SimpleComponent]:
        if self._simples is None:
            self._simples = self._compute_simples()
        return self._simples

    def _compute_simples(self) -> list[SimpleComponent]:
        H = self.coalgebra
        field, ops = H.field, H.field.ops
        q = self.quotient.algebra
        if q.is_commutative():
            # H*/J is commutative: it splits directly, and each primitive
            # idempotent z spans a 1-dimensional block, canonical row z
            # over its leading entry
            embedded, blocks = q.split_commutative(), []
            for z in embedded:
                inv = ops.inv(z[min(z)])
                blocks.append([{m: ops.mul(inv, x) for m, x in z.items()}])
        else:
            zmap = q.subalgebra_on(q.center())
            embedded = [zmap.embed(e) for e in zmap.algebra.split_commutative()]
            blocks = [list(map(dict, q.corner_basis(z, central=True)))
                      for z in embedded]
        duals = self._dual_vectors([[self.quotient.lift(b) for b in block]
                                    for block in blocks])
        raw = []
        for t, z in enumerate(embedded):
            bdim = len(blocks[t])
            if bdim == 1:
                f, r = z, 1
            else:
                f = q.primitive_idempotent_in(z)
                # Qf is spanned by the e_i f, the columns of R_f
                r = SubspaceBasis.of_raw(field, q.dim, q._basis_products(
                    f.items(), False)).dim
                if r * r != bdim:
                    raise NonSplitField(
                        f"simple block of dimension {bdim} has minimal left "
                        f"ideals of dimension {r}; the block is a division "
                        "algebra over the base field, extend the field")
            sub = SubspaceBasis.of_raw(field, H.dim, duals[t])
            require(H.is_subcoalgebra(sub), "perp pullback not a subcoalgebra")
            grouplike = None
            if bdim == 1:
                v = sub.raw[0]
                ev = H._eps_raw(v)
                require(not ops.is_zero(ev), "counit vanishes on a simple")
                inv = ops.inv(ev)
                g = {j: ops.mul(inv, x) for j, x in v}
                require(H._grouplike_raw(g.items()),
                        "normalised 1-dim simple is not group-like")
                grouplike = g
            raw.append((sub, r, grouplike, z, f, blocks[t]))
        zero = field.format_raw(ops.zero)
        raw.sort(key=lambda item: (item[0].dim, tuple(
            text.get(j, zero) for text in (
                {j: field.format_raw(x) for j, x in row} for row in item[0].raw)
            for j in range(H.dim))))
        comps = [SimpleComponent(i, sub, r, g, z, f, rows)
                 for i, (sub, r, g, z, f, rows) in enumerate(raw)]
        total = SubspaceBasis.of_raw(field, H.dim, [
            dict(row) for c in comps for row in c.subspace.raw])
        require(total == self.filtration[0], "simples do not sum to the coradical")
        return comps

    def _dual_vectors(self, blocks: list[list[dict]]) -> list[list[dict]]:
        """For each block of sparse raw rows {m: raw value} of H*, the
        vectors of H dual to its rows in the basis M = [rows of J; rows of
        every block] of H*, as sparse raw vectors.

        C_t, the span of the duals of block t, is the perp of J and the
        other blocks, so one inversion of M gives every simple
        subcoalgebra.  The sparse [M | I] is row-reduced to [I | M^-1]
        (rref_sparse), and the dual of row k of M is column k of M^-1; an
        M that is not a basis means the blocks and J do not fill H*.
        """
        field, n = self.coalgebra.field, self.coalgebra.dim
        one = field.ops.one
        rows = [dict(r) for r in self.radical.raw] + [
            row for block in blocks for row in block]
        require(len(rows) == n, "block/subcoalgebra dimension mismatch")
        inverse, pivots = rref_sparse(field, 2 * n, [
            {**row, n + k: one} for k, row in enumerate(rows)])
        require(pivots == list(range(n)),
                "block/subcoalgebra dimension mismatch")
        duals: dict = {}  # k -> column k of M^-1, {j: raw value}
        for j, r in enumerate(inverse):
            for m, x in r:
                if m >= n:
                    duals.setdefault(m - n, {})[j] = x
        out, k = [], self.radical.dim
        for block in blocks:
            out.append([duals.get(t, {}) for t in range(k, k + len(block))])
            k += len(block)
        return out

    def find_simple_containing(self, vec: dict) -> int:
        """The simple holding the sparse raw vector {index: raw value}."""
        for c in self.simples():
            if c.subspace.contains_raw(vec):
                return c.index
        raise UnknownSimple("vector lies in no single simple subcoalgebra")

    # -- coradical idempotents ---------------------------------------------------

    def idempotents(self) -> IdempotentFamily:
        if self._idempotents is None:
            comps = self.simples()
            a = self.dual
            field, ops = a.field, a.field.ops
            unit = dict(sparse_raw(ops, a.unit_raw))
            minus_one = ops.neg(ops.one)
            total: dict = {}
            funcs = []
            for comp in comps:
                lifted = self.quotient.lift(comp.central_idempotent).items()
                mask = dict(unit)
                add_scaled(ops, mask, minus_one, total)
                x = a._product(a._product(mask.items(), lifted).items(),
                               mask.items())
                f = a.lift_idempotent(x)
                # f F = F f = 0 for the sum F of the earlier idempotents:
                # then f g = f F g = 0 and g f = g F f = 0 for each earlier
                # g, so by induction the family is pairwise orthogonal
                if funcs:
                    require(not a._product(f.items(), total.items())
                            and not a._product(total.items(), f.items()),
                            "coradical idempotents are not orthogonal")
                funcs.append(f)
                add_scaled(ops, total, ops.one, f)
            require(total == unit, "idempotents do not sum to the counit")
            # f_i restricts to the counit on simple i and to 0 on the
            # others: the f_i(row) of every i are one combination per row
            # of the columns {i: f_i(e_j)}, lifted once
            cols: dict = {}
            for i, f in enumerate(funcs):
                for j, x in f.items():
                    cols.setdefault(j, {})[i] = x
            lifted, scale = lift_columns(ops, cols)
            for comp in comps:
                for row in comp.subspace.raw:
                    eps = self.coalgebra._eps_raw(row)
                    want = {} if ops.is_zero(eps) else {comp.index: eps}
                    require(combination(ops, row, lifted, scale) == want,
                            "restriction property fails")
            self._idempotents = IdempotentFamily(self.coalgebra, funcs)
        return self._idempotents


# ---------------------------------------------------------------------------
# amalgamated direct sums
# ---------------------------------------------------------------------------

def coalgebra_amalgam(base: Coalgebra, extensions) -> Coalgebra:
    """Glue coalgebras sharing `base` as leading block over their sum.

    Each extension must reproduce base's structure constants on its
    first dim(base) basis vectors; the result is base plus the disjoint
    extra summands, with comultiplications unchanged.
    """
    db = base.dim
    for ext in extensions:
        if ext.field != base.field:
            raise IncompatibleBase("amalgam over different fields")
        if ext.dim < db:
            raise IncompatibleBase("extension smaller than the base")
        for i in range(db):
            if ext.comul_raw[i] != base.comul_raw[i] \
                    or ext.counit_raw[i] != base.counit_raw[i]:
                raise IncompatibleBase(
                    f"extension disagrees with the base on basis vector {i}")
    names = list(base.names)
    comul = list(base.comul_raw)
    counit = list(base.counit_raw)
    offset = db
    taken = set(names)
    for t, ext in enumerate(extensions, start=1):
        extra = ext.dim - db

        def remap(idx: int) -> int:
            return idx if idx < db else offset + (idx - db)

        for m in range(db, ext.dim):
            nm = ext.names[m]
            if nm in taken:
                nm = f"{nm}.{t}"
            k2 = 2
            while nm in taken:
                nm = f"{ext.names[m]}.{t}.{k2}"
                k2 += 1
            taken.add(nm)
            names.append(nm)
            counit.append(ext.counit_raw[m])
            comul.append({(remap(j), remap(k)): c
                          for (j, k), c in ext.comul_raw[m].items()})
        offset += extra
    out = Coalgebra.of_raw(base.field, names, comul, counit,
                           name=f"amalgam({base.name})")
    out.require_valid()
    return out
