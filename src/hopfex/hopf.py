"""Bialgebras and Hopf algebras on top of structure-constant coalgebras.

The convolution algebra of linear endomorphisms drives everything:
Hopf powers [n] are convolution powers of the identity map, the
exponent is the least n with [n] = (unit) o (counit), and the two
classification routes implemented in classify_exponent decide
infiniteness (char 0, Chevalley coradical) or a finite bound
(char p, pointed) without unbounded iteration.

Convolution powers of id are iterated in one place, _id_powers, on a
subcoalgebra C_S = span{e_i : i in S}, S a set of basis indices that
holds every j, k with e_j (x) e_k in Delta(e_i) for i in S.  Then
Delta(C_S) lies in C_S (x) C_S, so (f * id)(e_i) needs f only on C_S, and
right convolution by id restricts to a linear map R_S on maps C_S -> H
with R_S([n]|_S) = [n + 1]|_S for all n >= 0 (for n = 0 by the unit and
counit laws, which _id_powers checks on C_S).  So x -> [1]|_S identifies
k[x]/(mu_S) with the algebra R_S generates, mu_S the minimal polynomial
of [1]|_S, and the map x^n mod mu_S -> [n]|_S is injective: [n]|_S is
x^n mod mu_S, a vector of deg mu_S scalars.  mu_S is found from [0]|_S,
[1]|_S, ... by min_poly_of_powers, at the cost of deg mu_S - 1 steps of
|S| columns each.  Two searches use it:

  * exponent takes S = all indices, so C_S = H and mu_S = mu, the
    minimal polynomial of id in k[id] = k[x]/(mu).  [n] = u o eps or
    [n] = [k] holds exactly when the same holds for the residues.  When
    the first cap + 1 powers are independent, no [n] with n <= cap
    equals u o eps or an earlier power, and the search stops there.
  * hopf_order and hopf_power take the least S that holds supp(h)
    (Coalgebra.subcoalgebra_support), the subcoalgebra h spans.  Then
    h^[n] = [n](h) = sum_k r[k] h^[k] for r = x^n mod mu_S, so h^[0],
    h^[1], ... cost one step each until mu_S is found (hopf_order tests
    each h^[n] before [n] joins the search, so a low order stops
    early), then a handful of scalar products each.

Nothing here needs an antipode.

Integrals of the dual are computed twice on purpose: once through
traces of left multiplications on H*, once through the dual-basis hit
formula.  The two must agree exactly; tests rely on the redundancy.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field

from .algebra import FiniteAlgebra, MinPolySearch, min_poly_of_powers
from .coalgebra import Coalgebra, Element, SimpleComponent, as_scalar
from .errors import (
    AxiomViolation,
    HopfError,
    InputError,
    NotCosemisimple,
    ShapeMismatch,
    WitnessNotFound,
    require,
)
from .linalg import (
    Mat,
    t2_from_pair,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .scalars import FieldSpec


def pointed_exponent_bound(d: int, p: int, n: int) -> int:
    """d * p^(floor(log_p n) + 1), or d when n = 0.

    The exponent bound of a pointed Hopf algebra in characteristic p
    with group-like exponent d and coradical filtration depth n, and the
    order bound of an upper block-triangular multiplicative matrix with
    n + 1 diagonal blocks of order dividing d.
    """
    if n == 0:
        return d
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return d * p ** (e + 1)


def powers_mod(field: FieldSpec, mu: list) -> Iterator[tuple]:
    """x^0, x^1, x^2, ... mod the monic mu (constant term first), forever.

    Each residue is a tuple of deg mu coefficients; a step costs deg mu
    scalar products.
    """
    zero = field.zero()
    tail = [-c for c in mu[:-1]]  # x^deg = sum tail[k] x^k mod mu
    r = (field.one(),) + (zero,) * (len(tail) - 1)
    while True:
        yield r
        top, shifted = r[-1], (zero,) + r[:-1]
        r = shifted if top.is_zero() else \
            tuple(a + top * c for a, c in zip(shifted, tail))


def _combination(field: FieldSpec, dim: int, coeffs, vecs) -> tuple:
    """sum c v over the pairs of coeffs and vecs; zero terms are skipped."""
    acc = list(zero_vec(field, dim))
    for c, v in zip(coeffs, vecs):
        if c.is_zero():
            continue
        for m, x in enumerate(v):
            if not x.is_zero():
                acc[m] = acc[m] + c * x
    return tuple(acc)


def _flatten(cols: dict, support) -> tuple:
    """The columns cols[i], i in support, as one coordinate vector."""
    return tuple(itertools.chain.from_iterable(cols[i] for i in support))


def default_cap(dim: int) -> int:
    """Iteration cap for exponent searches: max(4*dim^2, 256).

    The HOPFEX_CAP environment variable overrides it globally.  It must
    be a positive integer; any other value raises InputError.
    """
    env = os.environ.get("HOPFEX_CAP")
    if env is None:
        return max(4 * dim * dim, 256)
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InputError(f"HOPFEX_CAP must be a positive integer, got {env!r}")
    return cap


@dataclass
class ExponentReport:
    """Outcome of an exponent computation or classification.

    kind is one of "finite", "exceeds_cap", "provably_infinite",
    "bounded"; n is the exact exponent when known, bound the proven
    upper bound for the "bounded" kind, witness an element vector whose
    Hopf powers never return to eps(w)*1 for the "provably_infinite"
    kind.  steps collects a human-readable decision log.
    """

    kind: str
    n: int | None = None
    cap: int | None = None
    bound: int | None = None
    witness: tuple | None = None
    criterion: str = ""
    steps: list = dataclass_field(default_factory=list)

    def describe(self) -> str:
        lines = []
        if self.kind == "finite":
            lines.append(f"exponent = {self.n}")
        elif self.kind == "exceeds_cap":
            lines.append(f"exponent exceeds cap {self.cap}")
        elif self.kind == "provably_infinite":
            lines.append("exponent = infinity (proved)")
        elif self.kind == "bounded":
            lines.append(f"exponent = {self.n} (proved bound {self.bound})")
        if self.criterion:
            lines.append(f"criterion: {self.criterion}")
        for s in self.steps:
            lines.append(f"  {s}")
        return "\n".join(lines)


@dataclass
class IntegralResult:
    """An integral of the dual, with the left-integral assertion flag.

    asserted is True when S^2 = id held and h*Lambda = eps(h)*Lambda was
    verified for every basis element; otherwise the element is returned
    unasserted.
    """

    element: Element
    asserted: bool


@dataclass
class CosemisimpleIntegral:
    """Lambda_0 written as 1 + sum of r_D * (trace of a basic matrix)."""

    element: Element
    unit_component: int
    terms: list  # (simple index, r_D, trace Element)


class HopfAlgebra(Coalgebra):
    """A bialgebra, optionally with antipode, by structure constants.

    mul maps (i, j, m) -> scalar with e_i e_j = sum c e_m; unit is the
    coefficient vector of 1; antipode, when present, maps (i, m) ->
    scalar with S(e_i) = sum c e_m.
    """

    def __init__(self, field: FieldSpec, names, comul, counit, mul, unit,
                 antipode=None, name: str = ""):
        super().__init__(field, names, comul, counit, name=name)
        for i, j, m in mul:
            if not (0 <= i < self.dim and 0 <= j < self.dim
                    and 0 <= m < self.dim):
                raise AxiomViolation(f"multiplication index ({i},{j},{m}) "
                                     f"out of range for dimension {self.dim}")
        self.unit = tuple(as_scalar(field, c) for c in unit)
        if len(self.unit) != self.dim:
            raise AxiomViolation("unit vector length differs from dimension")
        self._alg = FiniteAlgebra.from_terms(
            field, self.dim,
            {key: as_scalar(field, val) for key, val in mul.items()},
            self.unit)
        self.mul_table = self._alg.table
        if antipode is None:
            self.antipode_mat = None
        else:
            cols = [list(zero_vec(field, self.dim)) for _ in range(self.dim)]
            for (i, m), val in antipode.items():
                cols[i][m] = cols[i][m] + as_scalar(field, val)
            self.antipode_mat = Mat.from_columns(
                field, [tuple(c) for c in cols], self.dim)
        self._integral_cache = None

    # -- products ----------------------------------------------------------

    def mul_vec(self, u: tuple, v: tuple) -> tuple:
        return self._alg.mult(u, v)

    def power_vec(self, u: tuple, n: int) -> tuple:
        return self._alg.power(u, n)

    def antipode_vec(self, v: tuple) -> tuple:
        if self.antipode_mat is None:
            raise HopfError("no antipode on this bialgebra")
        return self.antipode_mat.apply(v)

    def one(self) -> Element:
        return Element(self, self.unit)

    # -- axioms ---------------------------------------------------------------

    def check_hopf(self) -> list[str]:
        """Exact audit of bialgebra (and antipode) axioms; returns violations."""
        bad = self.check() + self._alg.violations(self.names)
        one = self.field.one()
        units = [unit_vec(self.field, self.dim, i) for i in range(self.dim)]
        if self.delta_vec(self.unit) != t2_from_pair(self.unit, self.unit):
            bad.append("comultiplication of 1 is not 1(x)1")
        if self.counit_vec(self.unit) != one:
            bad.append("counit of 1 is not 1")
        for i, j in itertools.product(range(self.dim), repeat=2):
            prod = self.mul_table[i][j]
            if self.delta_vec(prod) != \
                    self._alg.tensor_mult(self.comul[i], self.comul[j]):
                bad.append("comultiplication is not multiplicative on "
                           f"({self.names[i]},{self.names[j]})")
            if self.counit_vec(prod) != self.counit[i] * self.counit[j]:
                bad.append("counit is not multiplicative on "
                           f"({self.names[i]},{self.names[j]})")
        if self.antipode_mat is not None:
            for i in range(self.dim):
                left = zero_vec(self.field, self.dim)
                right = zero_vec(self.field, self.dim)
                for (j, k), c in self.comul[i].items():
                    sj = self.antipode_mat.column(j)
                    sk = self.antipode_mat.column(k)
                    left = vec_add(left, vec_scale(c, self.mul_vec(sj, units[k])))
                    right = vec_add(right, vec_scale(c, self.mul_vec(units[j], sk)))
                want = vec_scale(self.counit[i], self.unit)
                if left != want:
                    bad.append(f"antipode axiom m(S(x)id)Delta fails on {self.names[i]}")
                if right != want:
                    bad.append(f"antipode axiom m(id(x)S)Delta fails on {self.names[i]}")
        return bad

    def involutory(self) -> bool:
        if self.antipode_mat is None:
            return False
        return self.antipode_mat @ self.antipode_mat == \
            Mat.identity(self.field, self.dim)

    # -- convolution and Hopf powers ---------------------------------------------

    def identity_map(self) -> Mat:
        return Mat.identity(self.field, self.dim)

    def counit_unit_map(self) -> Mat:
        cols = [vec_scale(self.counit[i], self.unit) for i in range(self.dim)]
        return Mat.from_columns(self.field, cols, self.dim)

    def convolution(self, f: Mat, g: Mat) -> Mat:
        cols = self._convolve(f.column, g.column, range(self.dim))
        return Mat.from_columns(self.field, cols, self.dim)

    def _convolve(self, f, g, indices) -> list[tuple]:
        """(f * g)(e_i) for i in indices; f(j), g(k) are f(e_j), g(e_k)."""
        cols = []
        for i in indices:
            acc = zero_vec(self.field, self.dim)
            for (j, k), c in self.comul[i].items():
                acc = vec_add(acc, vec_scale(c, self.mul_vec(f(j), g(k))))
            cols.append(acc)
        return cols

    def hopf_power_map(self, n: int) -> Mat:
        """[n] = n-fold convolution power of the identity; [0] = u o eps."""
        if n < 0:
            raise HopfError("Hopf power maps are defined for n >= 0")
        if n == 0:
            return self.counit_unit_map()
        ident = self.identity_map()
        m = ident
        for _ in range(n - 1):
            m = self.convolution(m, ident)
        return m

    def hopf_power(self, h, n: int):
        """h^[n]; accepts an Element or a coefficient vector.

        Computed on the subcoalgebra h spans (module docstring), not
        through hopf_power_map(n).
        """
        if n < 0:
            raise HopfError("Hopf power maps are defined for n >= 0")
        if isinstance(h, Element):
            return Element(self, self.hopf_power(h.vec, n))
        return next(itertools.islice(self._hopf_powers(tuple(h)), n, None))

    def hopf_order(self, h, cap: int | None = None) -> int | None:
        """Least n >= 1 with h^[n] = eps(h)*1, or None past the cap.

        Makes no full convolution: h^[1], h^[2], ... come from the
        subcoalgebra h spans, then from x^n mod mu_S (module docstring).
        """
        vec = h.vec if isinstance(h, Element) else tuple(h)
        cap = default_cap(self.dim) if cap is None else cap
        target = vec_scale(self.counit_vec(vec), self.unit)
        powers = itertools.islice(self._hopf_powers(vec), 1, None)
        return next((n for n, p in zip(range(1, cap + 1), powers)
                     if p == target), None)

    def _hopf_powers(self, vec: tuple) -> Iterator[tuple]:
        """h^[0], h^[1], h^[2], ... for h = vec, lazily and forever.

        The powers [n] restricted to the subcoalgebra C_S that h spans
        (module docstring) are iterated until their minimal polynomial
        mu_S is known, each h^[n] being yielded before [n] is tested for
        dependence; from then on h^[n] is read off x^n mod mu_S.
        """
        if len(vec) != self.dim:
            raise ShapeMismatch(f"element of length {len(vec)} in dimension "
                                f"{self.dim}")
        support = self.subcoalgebra_support(vec)
        if not support:  # h = 0, and so is every h^[n]
            yield from itertools.repeat(zero_vec(self.field, self.dim))
        coeffs = [vec[i] for i in support]
        search = MinPolySearch(self.field)
        values = []  # h^[0], h^[1], ..., h^[deg mu_S]
        for cols in self._id_powers(support):
            values.append(_combination(self.field, self.dim, coeffs,
                                       [cols[i] for i in support]))
            yield values[-1]
            mu = search.add(_flatten(cols, support))
            if mu is not None:
                break
        for r in itertools.islice(powers_mod(self.field, mu),
                                  len(values), None):
            yield _combination(self.field, self.dim, r, values)

    def _id_powers(self, support) -> Iterator[dict]:
        """[0], [1], [2], ... restricted to C_S for S = support, forever.

        S must be closed under the support of Delta (module docstring).
        Each power is a dict from i in S to the column [n](e_i).  The
        unit law (u o eps) * id = id on C_S is checked first.
        """
        units = {i: unit_vec(self.field, self.dim, i) for i in support}
        ueps = {i: vec_scale(self.counit[i], self.unit) for i in support}
        ident = units.__getitem__
        require(self._convolve(ueps.__getitem__, ident, support)
                == [units[i] for i in support],
                "(u o eps) * id is not id: the unit or counit law fails")
        yield ueps
        cols = units
        while True:
            yield cols
            cols = dict(zip(support, self._convolve(
                cols.__getitem__, ident, support)))

    def exponent(self, cap: int | None = None) -> ExponentReport:
        """Iterate [n] for n <= cap until u o eps, a repeat, or the cap.

        The powers are residues x^n mod mu in k[x]/(mu) = k[id] (module
        docstring), so a step costs deg mu scalar products, not a
        convolution.  mu is found from [0], ..., [cap] at most, taken from
        _id_powers on all indices; if those are independent, no power up
        to the cap is u o eps or a repeat.
        Otherwise the loop, its checks, their order and its first 4096
        remembered powers are those of iterating [n] as matrices, so the
        report is the same.
        """
        cap = default_cap(self.dim) if cap is None else cap
        steps = [f"iterating convolution powers of id up to cap {cap}"]
        support = range(self.dim)
        flat = (_flatten(cols, support) for cols in self._id_powers(support))
        mu = min_poly_of_powers(self.field, itertools.islice(flat, cap + 1))
        if mu is None:
            steps.append(f"no power up to {cap} equals the convolution unit")
            return ExponentReport("exceeds_cap", cap=cap, steps=steps)
        residues = powers_mod(self.field, mu)
        one = next(residues)
        seen: dict = {}
        for n, r in zip(range(1, cap + 1), residues):
            if r == one:
                steps.append(f"power {n} equals the unit of convolution")
                return ExponentReport("finite", n=n, cap=cap, steps=steps)
            if r in seen:
                # a cycle that avoids u o eps: impossible when id is
                # convolution-invertible (antipode present)
                require(self.antipode_mat is None,
                        "convolution powers of id repeated without reaching "
                        "u o eps on a Hopf algebra")
                steps.append(f"power {n} repeats power {seen[r]} without "
                             "reaching the convolution unit; no exponent exists")
                return ExponentReport("exceeds_cap", cap=cap, steps=steps)
            if len(seen) < 4096:
                seen[r] = n
        steps.append(f"no power up to {cap} equals the convolution unit")
        return ExponentReport("exceeds_cap", cap=cap, steps=steps)

    # -- integrals -------------------------------------------------------------

    def integral_trace(self) -> IntegralResult:
        """Integral of the dual via traces of left multiplications on H*."""
        return self._integral_result(self.dual_algebra().left_traces())

    def integral_dual_basis(self) -> IntegralResult:
        """The same integral via Lambda = sum e_i* harpoon-> e_i."""
        acc = zero_vec(self.field, self.dim)
        for i in range(self.dim):
            f = unit_vec(self.field, self.dim, i)
            acc = vec_add(acc, self.hit_left(f, f))
        return self._integral_result(acc)

    def _integral_result(self, vec: tuple) -> IntegralResult:
        asserted = False
        if self.involutory():
            # e_i vec is column i of R_vec
            cols = self._alg.right_mult_mat(vec).columns()
            for i, lhs in enumerate(cols):
                require(lhs == vec_scale(self.counit[i], vec),
                        "left integral property fails on an involutory Hopf "
                        "algebra")
            asserted = True
        return IntegralResult(Element(self, vec), asserted)

    def cosemisimple_integral_decomposition(self) -> CosemisimpleIntegral:
        """Lambda_0 = 1 + sum over non-unit simples of r_D * tr(basic matrix)."""
        if not self.is_cosemisimple():
            raise NotCosemisimple(
                "integral decomposition needs H equal to its coradical")
        from .matforms import basic_multiplicative_matrix
        comps = self.simple_subcoalgebras()
        unit_comp = self.analysis().find_simple_containing(self.unit)
        total = tuple(self.unit)
        terms = []
        for comp in comps:
            if comp.index == unit_comp:
                continue
            basic = basic_multiplicative_matrix(self, comp)
            tr = zero_vec(self.field, self.dim)
            for i in range(comp.matrix_size):
                tr = vec_add(tr, basic.matrix.entry(i, i))
            r = self.field.from_int(comp.matrix_size)
            total = vec_add(total, vec_scale(r, tr))
            terms.append((comp.index, comp.matrix_size, Element(self, tr)))
        want = self.integral_dual_basis().element.vec
        require(total == want, "trace decomposition disagrees with the integral")
        return CosemisimpleIntegral(Element(self, total), unit_comp, terms)

    # -- structure tests ----------------------------------------------------------

    def chevalley_check(self) -> bool:
        """Is the coradical closed under product (and antipode, if any)?"""
        h0 = self.coradical()
        for u in h0.rows:
            for v in h0.rows:
                if not h0.contains_vector(self.mul_vec(u, v)):
                    return False
        if self.antipode_mat is not None:
            for u in h0.rows:
                if not h0.contains_vector(self.antipode_vec(u)):
                    return False
        return True

    def grouplike_order(self, g, bound: int = 100000) -> int:
        vec = g.vec if isinstance(g, Element) else tuple(g)
        acc = vec
        for n in range(1, bound + 1):
            if acc == self.unit:
                return n
            acc = self.mul_vec(acc, vec)
        raise HopfError("group-like order exceeds sanity bound")

    def nontrivial_h1_witness(self) -> Element:
        """A nonzero element of some (^C H_1 ^1)+ for non-cosemisimple H."""
        if self.is_cosemisimple():
            raise WitnessNotFound("cosemisimple: H_1 carries no witness")
        filt = self.coradical_filtration()
        h1 = filt[1]
        ana = self.analysis()
        unit_idx = ana.find_simple_containing(self.unit)
        for comp in self.simple_subcoalgebras():
            v = self.bicomponent_subspace(comp.index, unit_idx, within=h1)
            plus = v.cut(self.counit)
            if plus.dim:
                return Element(self, plus.rows[0])
        raise WitnessNotFound(
            "no nonzero (^C H_1 ^1)+ component; input violates the "
            "non-cosemisimple hypothesis")

    # -- the decision procedure ---------------------------------------------------

    def classify_exponent(self, cap: int | None = None) -> ExponentReport:
        """Decide the exponent by structure before falling back to iteration.

        char 0 + non-cosemisimple + Chevalley coradical: provably
        infinite, with a witness whose Hopf powers never return to
        eps(w)*1.  char p + pointed: the exponent is bounded by
        d*p^(floor(log_p n)+1) with d the exponent of the group-like
        group and n the coradical filtration depth (just d when n = 0),
        and the exact value is found by iteration inside the bound.
        Everything else is capped iteration.
        """
        cap = default_cap(self.dim) if cap is None else cap
        steps = []
        p = self.field.char
        cosem = self.is_cosemisimple()
        if p == 0 and not cosem and self.antipode_mat is not None \
                and self.chevalley_check():
            w = self.nontrivial_h1_witness()
            steps.append("characteristic 0, not cosemisimple, coradical is "
                         "a Hopf subalgebra")
            steps.append(f"witness {w!r} lies in a (^C H_1 ^1)+ component")
            return ExponentReport(
                "provably_infinite", cap=cap, witness=w.vec,
                criterion="non-cosemisimple with Hopf-subalgebra coradical "
                          "in characteristic 0: the witness has infinite "
                          "Hopf order, so no convolution power of id is "
                          "u o eps", steps=steps)
        if p > 0 and self.antipode_mat is not None and self.is_pointed():
            d = 1
            for g in self.group_likes():
                o = self.grouplike_order(g)
                d = d * o // math.gcd(d, o)
            n = len(self.coradical_filtration()) - 1
            bound = pointed_exponent_bound(d, p, n)
            steps.append(f"characteristic {p}, pointed; group-like group "
                         f"exponent d = {d}, filtration depth n = {n}")
            steps.append(f"exponent bounded by {bound}")
            inner = self.exponent(bound)
            require(inner.kind == "finite",
                    "iteration missed the proven char-p pointed bound")
            steps.extend(inner.steps[1:])
            return ExponentReport("bounded", n=inner.n, cap=cap, bound=bound,
                                  criterion="pointed in characteristic p: "
                                            "exponent bounded by d*p^(floor("
                                            "log_p n)+1)", steps=steps)
        if cosem:
            steps.append("cosemisimple: no structural bound used, iterating")
        else:
            steps.append("no decision route applies, iterating to the cap")
        inner = self.exponent(cap)
        inner.steps = steps + inner.steps
        return inner


__all__ = [
    "CosemisimpleIntegral",
    "Element",
    "ExponentReport",
    "HopfAlgebra",
    "IntegralResult",
    "SimpleComponent",
    "default_cap",
]
