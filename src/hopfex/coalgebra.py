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
block idempotents z.  In each block a primitive idempotent f
(FiniteAlgebra.primitive_idempotent_in) gives the matrix size r as the
dimension of the left ideal (H*/J)f, and r^2 = dim z(H*/J) proves the
block is M_r(k).  NonSplitField is raised when the centre or a block is
proved not split over the base field; SplittingSearchExhausted when the
bounded search inside a block finds nothing, which proves nothing.

Tensors in H (x) H are the sparse dicts of linalg (t2_add_term and
its siblings).  delta_vec multiplies and adds on the comultiplication
table lifted once (FieldOps.lift) and settles once per tensor entry.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .algebra import FiniteAlgebra
from .errors import (
    AxiomViolation,
    FieldMismatch,
    IncompatibleBase,
    NonSplitField,
    ShapeMismatch,
    UnknownSimple,
    require,
)
from .linalg import (
    SubspaceBasis,
    t2_add_term,
    t2_flatten,
    t2_from_pair,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .scalars import (FieldSpec, Scalar, box, lift_pairs, nonzero_raw,
                      raw_values, settle_all)


def as_scalar(field: FieldSpec, v) -> Scalar:
    if isinstance(v, Scalar):
        if v.field != field:
            raise FieldMismatch(f"scalar over {v.field.describe()} used in a "
                                f"{field.describe()} coalgebra")
        return v
    if isinstance(v, int):
        return field.from_int(v)
    if isinstance(v, Fraction):
        return field.from_fraction(v)
    raise TypeError(f"cannot coerce {v!r} to a scalar")


# ---------------------------------------------------------------------------
# sparse tensors in H (x) H
# ---------------------------------------------------------------------------

def tensor_square_subspace(v: SubspaceBasis, w: SubspaceBasis) -> SubspaceBasis:
    """The subspace V (x) W inside the flattened square of the ambient."""
    field = v.field
    dim = v.ambient
    rows = []
    for a in v.rows:
        for b in w.rows:
            rows.append(t2_flatten(field, t2_from_pair(a, b), dim))
    return SubspaceBasis(field, dim * w.ambient, rows)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Element:
    """A coalgebra element: a coefficient vector bound to its parent.

    Addition, subtraction and scalar multiples always work; * between
    elements delegates to the parent when it carries a product (bi- or
    Hopf algebras).
    """

    __slots__ = ("parent", "vec")

    def __init__(self, parent: "Coalgebra", vec):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "vec", tuple(vec))

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    def delta(self) -> dict:
        return self.parent.delta_vec(self.vec)

    def eps(self) -> Scalar:
        return self.parent.counit_vec(self.vec)

    def __add__(self, other: "Element") -> "Element":
        self._like(other)
        return Element(self.parent, vec_add(self.vec, other.vec))

    def __sub__(self, other: "Element") -> "Element":
        self._like(other)
        return Element(self.parent, vec_sub(self.vec, other.vec))

    def __neg__(self) -> "Element":
        return Element(self.parent, vec_scale(-self.parent.field.one(), self.vec))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._like(other)
            mul = getattr(self.parent, "mul_vec", None)
            if mul is None:
                raise TypeError("parent coalgebra has no product")
            return Element(self.parent, mul(self.vec, other.vec))
        return Element(self.parent,
                       vec_scale(as_scalar(self.parent.field, other), self.vec))

    def __rmul__(self, other):
        return Element(self.parent,
                       vec_scale(as_scalar(self.parent.field, other), self.vec))

    def __pow__(self, n: int) -> "Element":
        mul = getattr(self.parent, "mul_vec", None)
        if mul is None or n < 0:
            raise TypeError("power needs an algebra product and n >= 0")
        out = getattr(self.parent, "unit")
        acc = Element(self.parent, out)
        for _ in range(n):
            acc = acc * self
        return acc

    def is_zero(self) -> bool:
        return vec_is_zero(self.vec)

    def __eq__(self, other):
        return (isinstance(other, Element) and other.parent is self.parent
                and other.vec == self.vec)

    def __hash__(self):
        return hash((id(self.parent), self.vec))

    def _like(self, other: "Element"):
        if other.parent is not self.parent:
            raise FieldMismatch("elements of different coalgebras")

    def __repr__(self):
        return self.parent.format_element(self.vec)


# ---------------------------------------------------------------------------
# the coalgebra
# ---------------------------------------------------------------------------

class Coalgebra:
    """Coalgebra by structure constants over an exact field.

    comul maps (i, j, k) -> scalar with Delta(e_i) = sum e_j (x) e_k
    weighted by that scalar; counit lists eps(e_i).  Instances are
    immutable after construction; derived data (dual algebra, coradical
    analysis) is computed once and cached.
    """

    def __init__(self, field: FieldSpec, names, comul, counit, name: str = ""):
        self.field = field
        self.names = tuple(str(n) for n in names)
        self.dim = len(self.names)
        self.name = name or "coalgebra"
        if len(set(self.names)) != self.dim:
            raise AxiomViolation("basis names must be distinct")
        if len(counit) != self.dim:
            raise AxiomViolation("counit length differs from dimension")
        self.counit = tuple(as_scalar(field, c) for c in counit)
        table: list[dict] = [dict() for _ in range(self.dim)]
        for (i, j, k), val in comul.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim and 0 <= k < self.dim):
                raise AxiomViolation(f"comultiplication index ({i},{j},{k}) "
                                     f"out of range for dimension {self.dim}")
            s = as_scalar(field, val)
            if not s.is_zero():
                t2_add_term(table[i], (j, k), s)
        self.comul = tuple(table)
        self._dual = None
        self._analysis = None

    # -- basics -------------------------------------------------------------

    def basis_element(self, i: int) -> Element:
        return Element(self, unit_vec(self.field, self.dim, i))

    def element(self, coeffs) -> Element:
        """Element from a coefficient list or a {basis name: coeff} dict."""
        if isinstance(coeffs, dict):
            vec = list(zero_vec(self.field, self.dim))
            for name, c in coeffs.items():
                vec[self.index_of(name)] = as_scalar(self.field, c)
            return Element(self, vec)
        return Element(self, [as_scalar(self.field, c) for c in coeffs])

    def zero(self) -> Element:
        return Element(self, zero_vec(self.field, self.dim))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AxiomViolation(f"no basis vector named {name!r}") from None

    def format_element(self, vec) -> str:
        terms = []
        for i, c in enumerate(vec):
            if c.is_zero():
                continue
            s = str(c)
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
        """(scale, lifted): lifted[i] lists the ((j, k), c) of Delta(e_i),
        every c lifted over the one scale."""
        field = self.field
        entries = [list(d.items()) for d in self.comul]
        flat, scale = field.ops.lift(
            raw_values(field, [c for e in entries for _, c in e]))
        it = iter(flat)
        return scale, [[(key, next(it)) for key, _ in e] for e in entries]

    def delta_vec(self, vec) -> dict:
        """Delta(vec) as a sparse tensor {(j, k): Scalar} with no zeros."""
        field = self.field
        acc = self._delta_raw(nonzero_raw(field, vec))
        return dict(zip(acc, box(field, acc.values())))

    def _delta_raw(self, pairs) -> dict:
        """Delta of the vector with nonzero (index, raw value) pairs, as
        {(j, k): raw value} with no zeros, settled once per entry."""
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        scale, table = self._lifted_comul
        coeffs, sc = lift_pairs(ops, pairs)
        acc: dict = {}
        for i, c in coeffs:
            for key, t in table[i]:
                y = mul(c, t)
                acc[key] = add(acc[key], y) if key in acc else y
        return settle_all(ops, acc, sc * scale)

    @functools.cached_property
    def _lifted_counit(self) -> tuple:
        """(scale, lifted): the counit's values lifted over one scale."""
        flat, scale = self.field.ops.lift(raw_values(self.field, self.counit))
        return scale, flat

    def _counit_raw(self, pairs):
        """eps of the vector with nonzero (index, raw value) pairs, as a
        raw value: lifted multiply-adds, settled once."""
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        scale, eps = self._lifted_counit
        coeffs, sc = lift_pairs(ops, pairs)
        terms = [mul(c, eps[i]) for i, c in coeffs]
        if not terms:
            return ops.zero
        return ops.settle(functools.reduce(add, terms), sc * scale)

    def subcoalgebra_support(self, vec) -> list[int]:
        """The least S containing supp(vec) with every (j, k) of Delta(e_i),
        i in S, in S x S; sorted.  span{e_i : i in S} is then the least
        subcoalgebra spanned by basis vectors that contains vec.
        """
        todo = [i for i, c in enumerate(vec) if not c.is_zero()]
        support = set(todo)
        while todo:
            for j, k in self.comul[todo.pop()]:
                for m in (j, k):
                    if m not in support:
                        support.add(m)
                        todo.append(m)
        return sorted(support)

    def is_grouplike(self, vec) -> bool:
        """Whether eps(vec) = 1 and Delta(vec) = vec (x) vec."""
        return self.counit_vec(vec) == self.field.one() and \
            self.delta_vec(vec) == t2_from_pair(vec, vec)

    def counit_vec(self, vec) -> Scalar:
        """eps(vec), from the nonzero entries of vec against the counit."""
        if len(vec) != self.dim:
            raise ShapeMismatch(f"vector lengths {self.dim} vs {len(vec)}")
        field = self.field
        return box(field, [self._counit_raw(nonzero_raw(field, vec))])[0]

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name!r} dim={self.dim} "
                f"over {self.field.describe()}>")

    # -- axioms ---------------------------------------------------------------

    def check(self) -> list[str]:
        """Exact axiom audit; returns human-readable violations."""
        bad = []
        for i in range(self.dim):
            d = self.comul[i]
            left: dict = {}
            right: dict = {}
            for (j, k), c in d.items():
                for (a, b), c2 in self.comul[j].items():
                    t2_add_term(left, (a, b, k), c * c2)
                for (a, b), c2 in self.comul[k].items():
                    t2_add_term(right, (j, a, b), c * c2)
            if left != right:
                bad.append(f"coassociativity fails on {self.names[i]}")
            lvec = list(zero_vec(self.field, self.dim))
            rvec = list(zero_vec(self.field, self.dim))
            for (j, k), c in d.items():
                lvec[k] = lvec[k] + c * self.counit[j]
                rvec[j] = rvec[j] + c * self.counit[k]
            e_i = unit_vec(self.field, self.dim, i)
            if tuple(lvec) != e_i:
                bad.append(f"left counit law fails on {self.names[i]}")
            if tuple(rvec) != e_i:
                bad.append(f"right counit law fails on {self.names[i]}")
        return bad

    def require_valid(self):
        bad = self.check()
        if bad:
            raise AxiomViolation("; ".join(bad))

    def extend_scalars(self, bigger: FieldSpec) -> "Coalgebra":
        """The same structure constants read in an extension field.

        A HopfAlgebra (or bialgebra) stays one: every table of its
        structure file is converted.
        """
        from .structfile import StructureFile, structure_from_object

        sf = structure_from_object(self)
        conv = bigger.convert

        def converted(entries):
            return None if entries is None else {
                key: conv(c) for key, c in entries.items()}

        return StructureFile(
            bigger, sf.names, [conv(c) for c in sf.counit],
            converted(sf.comul), converted(sf.mul),
            None if sf.unit is None else [conv(c) for c in sf.unit],
            converted(sf.antipode),
            name=f"{self.name} (x) {bigger.describe()}").to_object()

    def is_subcoalgebra(self, v: SubspaceBasis) -> bool:
        """Whether Delta maps v into v (x) v, read one leg at a time.

        Write Delta(x) as the dim x dim array T with Delta(x) =
        sum T[j][k] e_j (x) e_k.  Delta(x) lies in V (x) H exactly when
        every column of T lies in V, and in H (x) V exactly when every
        row does; V (x) V is the intersection of the two.  So each test
        is a pivot read of a dim-long vector, never an elimination in
        the dim^2 ambient of H (x) H.
        """
        zero = self.field.zero()
        for row in v.rows:
            rows: dict = {}
            cols: dict = {}
            for (j, k), c in self.delta_vec(row).items():
                rows.setdefault(j, [zero] * self.dim)[k] = c
                cols.setdefault(k, [zero] * self.dim)[j] = c
            for leg in itertools.chain(rows.values(), cols.values()):
                if not v.contains_vector(tuple(leg)):
                    return False
        return True

    # -- the dual algebra and coradical analysis -------------------------------

    def dual_algebra(self) -> FiniteAlgebra:
        """H* with (f.g)(c) = sum f(c_(1)) g(c_(2)), on the dual basis."""
        if self._dual is None:
            self._dual = FiniteAlgebra.from_terms(
                self.field, self.dim,
                {(j, k, i): c for i in range(self.dim)
                 for (j, k), c in self.comul[i].items()},
                self.counit)
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
        return [Element(self, c.grouplike) for c in self.simple_subcoalgebras()
                if c.is_grouplike]

    # -- hit actions ------------------------------------------------------------

    def hit_left(self, f: tuple, h: tuple) -> tuple:
        """f harpoon-> h = sum h_(1) f(h_(2)): f eats the right tensor leg."""
        return self._box(self._hit(nonzero_raw(self.field, h), f, 1))

    def hit_right(self, h: tuple, f: tuple) -> tuple:
        """h <-harpoon f = sum f(h_(1)) h_(2): f eats the left tensor leg."""
        return self._box(self._hit(nonzero_raw(self.field, h), f, 0))

    def _hit(self, pairs, f: tuple, leg: int) -> dict:
        """sum c_i f(e_(leg)) e_(other leg) over the terms of Delta(e_i),
        for the nonzero (i, raw c_i) of a vector, as {m: raw value} with
        no zeros.  Only the entries of f that a term reaches are read;
        the values are lifted once and each entry is settled once."""
        field = self.field
        ops = field.ops
        mul, add = ops.lmul, ops.ladd
        scale, table = self._lifted_comul
        coeffs, hs = lift_pairs(ops, pairs)
        reached = sorted({key[leg] for i, _ in coeffs for key, _ in table[i]})
        fl, fs = lift_pairs(ops, [
            (k, x) for k, x in zip(reached, raw_values(field, [f[k] for k in reached]))
            if not ops.is_zero(x)])
        fl = dict(fl)
        acc: dict = {}
        for i, c in coeffs:
            for key, t in table[i]:
                x = fl.get(key[leg])
                if x is not None:
                    y = mul(mul(c, t), x)
                    m = key[1 - leg]
                    acc[m] = add(acc[m], y) if m in acc else y
        return settle_all(ops, acc, hs * scale * fs)

    def _box(self, sparse: dict) -> tuple:
        """The vector of Scalars of the raw entries {m: value}."""
        zero = self.field.ops.zero
        return box(self.field, [sparse.get(m, zero) for m in range(self.dim)])

    def component(self, h: tuple, left: int | None = None,
                  right: int | None = None) -> tuple:
        """Bicomponent ^C h ^D: left index applies h <- e_C, right e_D -> h."""
        return self._box(self._component_raw(nonzero_raw(self.field, h),
                                             left, right))

    def _component_raw(self, pairs, left: int | None = None,
                       right: int | None = None) -> dict:
        """component of the vector with nonzero (index, raw value) pairs,
        as {m: raw value} with no zeros."""
        fam = self.coradical_idempotents()
        v = dict(pairs)
        if left is not None:
            v = self._hit(v.items(), fam.functional(left), 0)
        if right is not None:
            v = self._hit(v.items(), fam.functional(right), 1)
        return v

    def bicomponent_decomposition_vec(self, h: tuple) -> dict:
        """All nonzero ^C h ^D; their sum is h."""
        n = len(self.simple_subcoalgebras())
        out = {}
        total = zero_vec(self.field, self.dim)
        for c in range(n):
            for d in range(n):
                v = self.component(h, left=c, right=d)
                if not vec_is_zero(v):
                    out[(c, d)] = v
                    total = vec_add(total, v)
        require(total == tuple(h), "bicomponents failed to sum back")
        return out

    def bicomponent_subspace(self, left: int, right: int,
                             within: SubspaceBasis | None = None) -> SubspaceBasis:
        v = within if within is not None else SubspaceBasis.full(self.field, self.dim)
        rows = [self.component(row, left=left, right=right) for row in v.rows]
        return SubspaceBasis(self.field, self.dim, rows)


# ---------------------------------------------------------------------------
# coradical analysis
# ---------------------------------------------------------------------------

class SimpleComponent:
    """One simple subcoalgebra, with its dual Wedderburn block data."""

    __slots__ = ("index", "subspace", "dim", "matrix_size", "is_grouplike",
                 "grouplike", "central_idempotent", "primitive_idempotent",
                 "block_rows")

    def __init__(self, index, subspace, matrix_size, grouplike,
                 central_idempotent, primitive_idempotent, block_rows):
        self.index = index
        self.subspace = subspace
        self.dim = subspace.dim
        self.matrix_size = matrix_size
        self.is_grouplike = grouplike is not None
        self.grouplike = grouplike
        self.central_idempotent = central_idempotent
        self.primitive_idempotent = primitive_idempotent
        self.block_rows = block_rows

    def __repr__(self):
        kind = "group-like" if self.is_grouplike else f"{self.matrix_size}x{self.matrix_size}"
        return f"<SimpleComponent #{self.index} dim={self.dim} {kind}>"


class IdempotentFamily:
    """Orthonormal coradical idempotents {e_C} in H*, one per simple.

    Invariants (checked at construction): e_C e_D = delta e_C, the sum
    is the counit, and each e_C restricts on the coradical as the
    projection onto its simple.
    """

    def __init__(self, coalgebra: Coalgebra, functionals: list[tuple]):
        self.coalgebra = coalgebra
        self.functionals = tuple(tuple(f) for f in functionals)

    def __len__(self):
        return len(self.functionals)

    def functional(self, i: int) -> tuple:
        if not 0 <= i < len(self.functionals):
            raise UnknownSimple(f"no simple subcoalgebra with index {i}")
        return self.functionals[i]

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
        field = H.field
        q = self.quotient.algebra
        zrows = q.center().rows
        zmap = q.subalgebra_on(list(zrows), q.unit)
        embedded = [zmap.embed(e) for e in zmap.algebra.split_commutative()]
        blocks = [q.corner_basis(z) for z in embedded]
        lifted = [[self.quotient.lift(b) for b in block] for block in blocks]
        raw = []
        for t, z in enumerate(embedded):
            bdim = len(blocks[t])
            if bdim == 1:
                f, r = z, 1
            else:
                f = q.primitive_idempotent_in(z)
                # Qf is spanned by the e_i f, the columns of R_f
                r = SubspaceBasis(field, q.dim,
                                  q.right_mult_mat(f).columns()).dim
                if r * r != bdim:
                    raise NonSplitField(
                        f"simple block of dimension {bdim} has minimal left "
                        f"ideals of dimension {r}; the block is a division "
                        "algebra over the base field, extend the field")
            ann_rows = list(self.radical.rows)
            for s, other in enumerate(lifted):
                if s != t:
                    ann_rows.extend(other)
            sub = SubspaceBasis(field, H.dim, ann_rows).perp()
            require(sub.dim == bdim, "block/subcoalgebra dimension mismatch")
            require(H.is_subcoalgebra(sub), "perp pullback not a subcoalgebra")
            grouplike = None
            if bdim == 1:
                v = sub.rows[0]
                ev = H.counit_vec(v)
                require(not ev.is_zero(), "counit vanishes on a simple")
                g = vec_scale(ev.inverse(), v)
                require(H.is_grouplike(g),
                        "normalised 1-dim simple is not group-like")
                grouplike = g
            raw.append((sub, r, grouplike, z, f, blocks[t]))
        raw.sort(key=lambda item: (item[0].dim,
                                   tuple(str(x) for row in item[0].rows
                                         for x in row)))
        comps = [SimpleComponent(i, sub, r, g, z, f, rows)
                 for i, (sub, r, g, z, f, rows) in enumerate(raw)]
        total = SubspaceBasis.zero(field, H.dim)
        for c in comps:
            total = total.sum(c.subspace)
        require(total == self.filtration[0], "simples do not sum to the coradical")
        return comps

    def find_simple_containing(self, vec: tuple) -> int:
        for c in self.simples():
            if c.subspace.contains_vector(vec):
                return c.index
        raise UnknownSimple("vector lies in no single simple subcoalgebra")

    # -- coradical idempotents ---------------------------------------------------

    def idempotents(self) -> IdempotentFamily:
        if self._idempotents is None:
            comps = self.simples()
            a = self.dual
            total = zero_vec(a.field, a.dim)
            funcs = []
            for comp in comps:
                lifted = self.quotient.lift(comp.central_idempotent)
                mask = vec_sub(a.unit, total)
                f = a.lift_idempotent(a.mult(a.mult(mask, lifted), mask))
                funcs.append(f)
                total = vec_add(total, f)
            require(tuple(total) == a.unit, "idempotents do not sum to the counit")
            for f, g in itertools.combinations(funcs, 2):
                require(vec_is_zero(a.mult(f, g)) and vec_is_zero(a.mult(g, f)),
                        "coradical idempotents are not orthogonal")
            # f_i restricts to the counit on simple i and to 0 on the others
            ops = a.field.ops
            rows = [(comp.index, nonzero_raw(a.field, row))
                    for comp in comps for row in comp.subspace.rows]
            for i, f in enumerate(funcs):
                fraw = raw_values(a.field, f)
                for index, row in rows:
                    got = functools.reduce(ops.add, [ops.mul(fraw[j], x)
                                                     for j, x in row])
                    want = self.coalgebra._counit_raw(row) if index == i \
                        else ops.zero
                    require(got == want, "restriction property fails")
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
            if ext.comul[i] != base.comul[i] or ext.counit[i] != base.counit[i]:
                raise IncompatibleBase(
                    f"extension disagrees with the base on basis vector {i}")
    names = list(base.names)
    comul: dict = {}
    counit = list(base.counit)
    for i in range(db):
        for (j, k), c in base.comul[i].items():
            comul[(i, j, k)] = c
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
            counit.append(ext.counit[m])
            for (j, k), c in ext.comul[m].items():
                comul[(remap(m), remap(j), remap(k))] = c
        offset += extra
    out = Coalgebra(base.field, names, comul, counit,
                    name=f"amalgam({base.name})")
    out.require_valid()
    return out
