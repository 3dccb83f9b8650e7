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
[1]|_S, ... by poly.min_poly_of_powers, at the cost of deg mu_S - 1
steps of |S| columns each.  Two searches use it:

  * exponent takes S = all indices, so C_S = H and mu_S = mu, the
    minimal polynomial of id in k[id] = k[x]/(mu).  [n] = u o eps or
    [n] = [k] holds exactly when the same holds for the residues.  When
    the first cap + 1 powers are independent, no [n] with n <= cap
    equals u o eps or an earlier power, and the search stops there.
    In characteristic 0 it also stops at mu when mu(0) != 0 and mu has
    a repeated factor: mu then divides no squarefree x^n - 1, so no
    power is u o eps and none repeats (exponent docstring).
  * hopf_order and hopf_power take the least S that holds supp(h)
    (Coalgebra.subcoalgebra_support), the subcoalgebra h spans.  Then
    h^[n] = [n](h) = sum_k r[k] h^[k] for r = x^n mod mu_S, so h^[0],
    h^[1], ... cost one step each until mu_S is found (hopf_order tests
    each h^[n] before [n] joins the search, so a low order stops
    early), then a handful of scalar products each.

Nothing here needs an antipode.

All of this runs on raw field values (scalars.FieldOps), not Scalars.
A column [n](e_i) is a sparse {m: raw value}; _convolve reads the
comultiplication and the structure constants lifted once and settles
each output entry once, and g = id is the column {k: 1}, so no unit
vectors are built.  The search eliminates rows keyed by (column, entry),
mu and the residues x^n mod mu (poly.powers_mod) are tuples of raw
values, and the exponent loop remembers residues by those tuples.
An element is read as its raw pairs (Coalgebra.element coerces a vector
once) and returned by Element.of_raw; values are boxed only where a
public method returns a vector of Scalars.

Integrals of the dual are computed twice on purpose: once through
traces of left multiplications on H*, once through the dual-basis hit
formula.  The two must agree exactly; tests rely on the redundancy.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field

from .algebra import FiniteAlgebra
from .coalgebra import Coalgebra, Element, SimpleComponent
from .errors import (
    HopfError,
    InputError,
    NotCosemisimple,
    WitnessNotFound,
    require,
)
from .linalg import Mat, sparse_raw, sum_scaled
from .poly import (MinPolySearch, has_repeated_factor, min_poly_of_powers,
                   powers_mod)
from .scalars import (FieldSpec, box_sparse, combination, lift_columns,
                      raw_table, read_vector)


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


def _flatten(cols: dict) -> dict:
    """The sparse raw columns {i: {m: raw value}} as one row keyed by
    (i, m), the form MinPolySearch eliminates."""
    return {(i, m): x for i, col in cols.items() for m, x in col.items()}


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
    upper bound for the "bounded" kind, witness an Element whose Hopf
    powers never return to eps(w)*1 for the "provably_infinite" kind.
    steps collects a human-readable decision log.
    """

    kind: str
    n: int | None = None
    cap: int | None = None
    bound: int | None = None
    witness: Element | None = None
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
    scalar with S(e_i) = sum c e_m.  algebra is the FiniteAlgebra of mul
    and unit, held raw (constants, unit_raw); unit reads algebra.unit.
    antipode_raw holds S as the columns {i: {m: raw value}} with no
    zeros, one per i, or None; antipode_mat is its boxed view.
    """

    def __init__(self, field: FieldSpec, names, comul, counit, mul, unit,
                 antipode=None, name: str = ""):
        super().__init__(field, names, comul, counit, name=name)
        algebra = FiniteAlgebra(field, self.dim, mul, unit)
        cols = None
        if antipode is not None:
            cols = {i: {} for i in range(self.dim)}
            for (i, m), c in raw_table(field, "antipode", antipode,
                                       self.dim).items():
                cols[i][m] = c
        self._hold_product(algebra, cols)

    @classmethod
    def of_raw(cls, field: FieldSpec, names, comul, counit,
               algebra: FiniteAlgebra, antipode=None,
               name: str = "") -> "HopfAlgebra":
        """Coalgebra.of_raw with the product of algebra, a FiniteAlgebra of
        the same dimension, and antipode as antipode_raw holds it."""
        return super().of_raw(field, names, comul, counit,
                              name)._hold_product(algebra, antipode)

    def _hold_product(self, algebra, antipode) -> "HopfAlgebra":
        self.algebra = algebra
        self.antipode_raw, self._antipode_mat = antipode, None
        return self

    @property
    def unit(self) -> tuple:
        """The unit as a vector of Scalars: the view algebra.unit."""
        return self.algebra.unit

    @property
    def antipode_mat(self) -> Mat | None:
        """S as a Mat of Scalars, boxed at first read; None if no antipode."""
        if self.antipode_raw is not None and self._antipode_mat is None:
            self._antipode_mat = self.algebra._mult_mat(
                [self.antipode_raw[i] for i in range(self.dim)])
        return self._antipode_mat

    # -- products ----------------------------------------------------------

    def power_vec(self, u: tuple, n: int) -> tuple:
        return self.algebra.power(u, n)

    def antipode_vec(self, v) -> tuple:
        """S(v) for an Element or a vector, as a vector of Scalars."""
        if self.antipode_raw is None:
            raise HopfError("no antipode on this bialgebra")
        return box_sparse(self.field, self.dim, combination(
            self.field.ops, self.element(v).raw,
            *self._lifted_antipode).items())

    @functools.cached_property
    def _lifted_antipode(self) -> tuple:
        """(cols, scale): the columns of S lifted over one scale."""
        return lift_columns(self.field.ops, self.antipode_raw)

    def one(self) -> Element:
        return Element.of_raw(self, sparse_raw(self.field.ops,
                                               self.algebra.unit_raw))

    # -- axioms ---------------------------------------------------------------

    def check_hopf(self) -> list[str]:
        """Exact audit of bialgebra (and antipode) axioms; returns violations.

        Runs on raw values: Delta(e_i e_j) against Delta(e_i) Delta(e_j)
        as sparse tensors, eps(e_i e_j) off the nonzero terms of e_i e_j,
        and the antipode axioms from the products by basis vectors:
        S(e_j) e_k is column k of L_{S(e_j)}, e_j S(e_k) column j of
        R_{S(e_k)}.
        """
        bad = self.check() + self.algebra.violations(self.names)
        field, dim = self.field, self.dim
        ops = field.ops
        unit = sparse_raw(ops, self.algebra.unit_raw)
        if self._delta_raw(unit) != {(j, k): ops.mul(x, y)
                                     for j, x in unit for k, y in unit}:
            bad.append("comultiplication of 1 is not 1(x)1")
        if self._eps_raw(unit) != ops.one:
            bad.append("counit of 1 is not 1")
        eps = self.counit_raw
        comul = [list(d.items()) for d in self.comul_raw]
        for i, j in itertools.product(range(dim), repeat=2):
            prod = self.algebra.constants[i][j]
            if self._delta_raw(prod) != \
                    self.algebra._tensor_product(comul[i], comul[j]):
                bad.append("comultiplication is not multiplicative on "
                           f"({self.names[i]},{self.names[j]})")
            if self._eps_raw(prod) != ops.mul(eps[i], eps[j]):
                bad.append("counit is not multiplicative on "
                           f"({self.names[i]},{self.names[j]})")
        if self.antipode_raw is not None:
            antipode = self.antipode_raw
            left = [self.algebra._basis_products(antipode[j].items())
                    for j in range(dim)]
            right = [self.algebra._basis_products(antipode[k].items(), False)
                     for k in range(dim)]
            for i in range(dim):
                want = self._unit_times(eps[i])
                # the sum of c prods[j, k] over the terms c e_j (x) e_k
                for axiom, prods in (
                        ("m(S(x)id)Delta", {(j, k): left[j][k]
                                            for (j, k), _ in comul[i]}),
                        ("m(id(x)S)Delta", {(j, k): right[k][j]
                                            for (j, k), _ in comul[i]})):
                    if combination(ops, comul[i],
                                   *lift_columns(ops, prods)) != want:
                        bad.append(f"antipode axiom {axiom} fails on "
                                   f"{self.names[i]}")
        return bad

    def involutory(self) -> bool:
        """Whether S o S = id: S(S(e_i)) is one combination of the lifted
        columns of S, with the entries of column i."""
        if self.antipode_raw is None:
            return False
        ops = self.field.ops
        return all(combination(ops, col.items(), *self._lifted_antipode)
                   == {i: ops.one} for i, col in self.antipode_raw.items())

    def _columns(self, m: Mat) -> dict:
        """The columns of m as {j: {row: raw value}} with no zeros."""
        field, dim = self.field, self.dim
        return {j: dict(read_vector(field, dim, col))
                for j, col in enumerate(m.columns())}

    def _unit_times(self, c, pairs=None) -> dict:
        """c v for a raw value c, as {m: raw value} with no zeros: v is 1,
        or the vector with the nonzero (index, raw value) pairs given."""
        ops = self.field.ops
        if ops.is_zero(c):
            return {}
        if pairs is None:
            pairs = sparse_raw(ops, self.algebra.unit_raw)
        return {m: ops.mul(c, u) for m, u in pairs}

    # -- convolution and Hopf powers ---------------------------------------------

    def convolution(self, f: Mat, g: Mat) -> Mat:
        cols = self._convolve(self._columns(f), self._columns(g),
                              range(self.dim))
        return self.algebra._mult_mat([cols[i] for i in range(self.dim)])

    def _convolve(self, f: dict, g: dict, indices) -> dict:
        """(f * g)(e_i) for i in indices, as {i: {m: raw value}}.

        f[j] and g[k] are f(e_j) and g(e_k) as {m: raw value}, given for
        every j, k that Delta(e_i) meets.  (f * g)(e_i) is the sum of
        c f(e_j)[m'] g(e_k)[k'] c_{m'k'}^m over the terms c e_j (x) e_k of
        Delta(e_i): one pass per column over the comultiplication, the
        columns of f and g and the structure constants, all lifted once,
        and one settle per output entry.
        """
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        terms, denom = self.algebra.terms
        comul, sc = self._lifted_comul
        f, sf = lift_columns(ops, f)
        g, sg = lift_columns(ops, g)
        scale = sc * sf * sg * denom
        out = {}
        for i in indices:
            acc: dict = {}
            for (j, k), c in comul[i]:
                right = g[k]
                for m1, x in f[j]:
                    cx, row = mul(c, x), terms[m1]
                    for k1, y in right:
                        tk = row[k1]
                        if tk:
                            cxy = mul(cx, y)
                            for m, t in tk:
                                z = mul(cxy, t)
                                acc[m] = add(acc[m], z) if m in acc else z
            out[i] = ops.settle_all(acc, scale)
        return out

    def hopf_power(self, h, n: int):
        """h^[n]; accepts an Element or a coefficient vector.

        Computed on the subcoalgebra h spans (module docstring), not
        through the map [n] by n - 1 convolutions.
        """
        if n < 0:
            raise HopfError("Hopf power maps are defined for n >= 0")
        powers = self._hopf_powers(self.element(h).raw)
        power = next(itertools.islice(powers, n, None))
        if isinstance(h, Element):
            return Element.of_raw(self, power)
        return box_sparse(self.field, self.dim, power.items())

    def hopf_order(self, h, cap: int | None = None) -> int | None:
        """Least n >= 1 with h^[n] = eps(h)*1, or None past the cap.

        Makes no full convolution: h^[1], h^[2], ... come from the
        subcoalgebra h spans, then from x^n mod mu_S (module docstring).
        """
        pairs = self.element(h).raw
        cap = default_cap(self.dim) if cap is None else cap
        target = self._unit_times(self._eps_raw(pairs))
        powers = itertools.islice(self._hopf_powers(pairs), 1, None)
        return next((n for n, p in zip(range(1, cap + 1), powers)
                     if p == target), None)

    def _hopf_powers(self, pairs) -> Iterator[dict]:
        """h^[0], h^[1], h^[2], ... for the h with the nonzero (index, raw
        value) pairs, lazily and forever, each as {m: raw value} with no
        zeros.

        The powers [n] restricted to the subcoalgebra C_S that h spans
        (module docstring) are iterated until their minimal polynomial
        mu_S is known, each h^[n] being yielded before [n] is tested for
        dependence; from then on h^[n] is read off x^n mod mu_S.
        """
        field = self.field
        ops = field.ops
        support = self.subcoalgebra_support(Element.of_raw(self, pairs))
        if not support:  # h = 0, and so is every h^[n]
            yield from itertools.repeat({})
        search = MinPolySearch(field)
        values = []  # h^[0], h^[1], ..., h^[deg mu_S]
        for cols in self._id_powers(support):
            values.append(combination(ops, pairs, *lift_columns(ops, cols)))
            yield values[-1]
            mu = search.add(_flatten(cols))
            if mu is not None:
                break
        lifted, scale = lift_columns(ops, dict(enumerate(values)))
        for r in itertools.islice(powers_mod(field, mu), len(values), None):
            yield combination(ops, sparse_raw(ops, r), lifted, scale)

    def _id_powers(self, support) -> Iterator[dict]:
        """[0], [1], [2], ... restricted to C_S for S = support, forever.

        S must be closed under the support of Delta (module docstring).
        Each power is a dict from i in S to the column [n](e_i) as
        {m: raw value} with no zeros.  The unit law (u o eps) * id = id
        on C_S is checked first.
        """
        one, eps = self.field.ops.one, self.counit_raw
        ident = {i: {i: one} for i in support}
        ueps = {i: self._unit_times(eps[i]) for i in support}
        require(self._convolve(ueps, ident, support) == ident,
                "(u o eps) * id is not id: the unit or counit law fails")
        yield ueps
        cols = ident
        while True:
            yield cols
            cols = self._convolve(cols, ident, support)

    def exponent(self, cap: int | None = None) -> ExponentReport:
        """Iterate [n] for n <= cap until u o eps, a repeat, or the cap.

        The powers are residues x^n mod mu in k[x]/(mu) = k[id] (module
        docstring), so a step costs deg mu field products on raw values,
        not a convolution.  mu is found from [0], ..., [cap] at most,
        taken from _id_powers on all indices; if those are independent,
        no power up to the cap is u o eps or a repeat.
        In characteristic 0, mu(0) != 0 and a repeated factor of mu
        (poly.has_repeated_factor) decide the search without the loop:
        x^n - 1 is squarefree in characteristic 0, so mu divides none
        of them and no residue x^n mod mu equals 1; mu(0) != 0 makes x
        a unit of k[x]/(mu), so a repeat x^n = x^m with m < n would give
        x^(n-m) = 1.  The loop would reach the cap with no event, and
        the same report is returned at once.  This is the case of every
        non-cosemisimple Hopf algebra with the Chevalley property in
        characteristic 0, whose exponent is infinite.
        Otherwise the loop, its checks, their order and its first 4096
        remembered powers are those of iterating [n] as matrices, so the
        report is the same.
        """
        cap = default_cap(self.dim) if cap is None else cap
        steps = [f"iterating convolution powers of id up to cap {cap}"]
        field = self.field
        flat = map(_flatten, self._id_powers(range(self.dim)))
        mu = min_poly_of_powers(field, itertools.islice(flat, cap + 1))
        if mu is None or (field.char == 0 and not field.ops.is_zero(mu[0])
                          and has_repeated_factor(field, mu)):
            steps.append(f"no power up to {cap} equals the convolution unit")
            return ExponentReport("exceeds_cap", cap=cap, steps=steps)
        residues = powers_mod(field, mu)
        one = next(residues)
        seen: dict = {}
        for n, r in zip(range(1, cap + 1), residues):
            if r == one:
                steps.append(f"power {n} equals the unit of convolution")
                return ExponentReport("finite", n=n, cap=cap, steps=steps)
            if r in seen:
                # a cycle that avoids u o eps: impossible when id is
                # convolution-invertible (antipode present)
                require(self.antipode_raw is None,
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
        return self._integral_result(self.dual_algebra()._traces())

    def integral_dual_basis(self) -> IntegralResult:
        """The same integral via Lambda = sum e_i* harpoon-> e_i: the sum,
        over the terms c e_j (x) e_k of every Delta(e_i) with k = i, of
        c e_j, in one pass over comul_raw."""
        ops = self.field.ops
        acc: dict = {}
        for i, d in enumerate(self.comul_raw):
            for (j, k), c in d.items():
                if k == i:
                    acc[j] = ops.add(acc[j], c) if j in acc else c
        # a sum may cancel to zero, and an Element holds no zeros
        return self._integral_result({j: c for j, c in acc.items()
                                      if not ops.is_zero(c)})

    def _integral_result(self, raw: dict) -> IntegralResult:
        """The result for the integral {m: raw value} with no zeros."""
        element = Element.of_raw(self, raw)
        asserted = False
        if self.involutory():
            # e_i Lambda is column i of R_Lambda
            pairs = element.raw
            for i, lhs in enumerate(self.algebra._basis_products(pairs, False)):
                require(lhs == self._unit_times(self.counit_raw[i], pairs),
                        "left integral property fails on an involutory Hopf "
                        "algebra")
            asserted = True
        return IntegralResult(element, asserted)

    def cosemisimple_integral_decomposition(self) -> CosemisimpleIntegral:
        """Lambda_0 = 1 + sum over non-unit simples of r_D * tr(basic matrix)."""
        if not self.is_cosemisimple():
            raise NotCosemisimple(
                "integral decomposition needs H equal to its coradical")
        from .matforms import basic_multiplicative_matrix
        comps = self.simple_subcoalgebras()
        ops = self.field.ops
        unit = dict(sparse_raw(ops, self.algebra.unit_raw))
        unit_comp = self.analysis().find_simple_containing(unit)
        total = [(ops.one, unit)]
        terms = []
        for comp in comps:
            if comp.index == unit_comp:
                continue
            raw = basic_multiplicative_matrix(self, comp).matrix.raw
            tr = sum_scaled(ops, [(ops.one, raw[i][i])
                                  for i in range(comp.matrix_size)])
            total.append((self.field.raw(comp.matrix_size), tr))
            terms.append((comp.index, comp.matrix_size,
                          Element.of_raw(self, tr)))
        want = self.integral_dual_basis().element
        require(sum_scaled(ops, total) == dict(want.raw),
                "trace decomposition disagrees with the integral")
        return CosemisimpleIntegral(want, unit_comp, terms)

    # -- structure tests ----------------------------------------------------------

    def chevalley_check(self) -> bool:
        """Is the coradical closed under product (and antipode, if any)?"""
        h0 = self.coradical()
        if not all(h0.contains_raw(self.algebra._product(u, v))
                   for u in h0.raw for v in h0.raw):
            return False
        ops = self.field.ops
        return self.antipode_raw is None or all(h0.contains_raw(combination(
            ops, u, *self._lifted_antipode)) for u in h0.raw)

    def grouplike_order(self, g) -> int:
        """The multiplicative order of a group-like Element or vector;
        HopfError when it is not group-like."""
        pairs = self.element(g).raw
        if not self._grouplike_raw(pairs):
            raise HopfError("not group-like")
        return self._grouplike_order(dict(pairs))

    def _grouplike_order(self, g: dict) -> int:
        """The multiplicative order of the group-like {j: raw value} g.

        Its powers are group-like, and distinct group-likes are linearly
        independent, so among g, ..., g^(dim+1) two agree; if g is
        invertible, 1 is then among g, ..., g^dim.  Past dim powers g has
        no inverse: HopfError on a bialgebra without antipode, and
        InvariantViolation when the antipode should give one.
        """
        pairs = list(g.items())
        unit = dict(sparse_raw(self.field.ops, self.algebra.unit_raw))
        acc = dict(g)
        for n in range(1, self.dim + 1):
            if acc == unit:
                return n
            acc = self.algebra._product(acc.items(), pairs)
        require(self.antipode_raw is None,
                "a group-like of a Hopf algebra has no power equal to 1")
        raise HopfError("group-like has no inverse: none of its first "
                        f"{self.dim} powers is 1")

    def nontrivial_h1_witness(self) -> Element:
        """A nonzero element of some (^C H_1 ^1)+ for non-cosemisimple H."""
        if self.is_cosemisimple():
            raise WitnessNotFound("cosemisimple: H_1 carries no witness")
        filt = self.coradical_filtration()
        h1 = filt[1]
        unit = sparse_raw(self.field.ops, self.algebra.unit_raw)
        unit_idx = self.analysis().find_simple_containing(dict(unit))
        for comp in self.simple_subcoalgebras():
            v = self.bicomponent_subspace(comp.index, unit_idx, within=h1)
            plus = v.cut(sparse_raw(self.field.ops, self.counit_raw))
            if plus.dim:
                return Element.of_raw(self, plus.raw[0])
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
        Everything else is capped iteration (exponent), which in char 0
        stops at the minimal polynomial mu of id when mu(0) != 0 and mu
        has a repeated factor, with the report the loop would give.
        """
        cap = default_cap(self.dim) if cap is None else cap
        steps = []
        p = self.field.char
        cosem = self.is_cosemisimple()
        if p == 0 and not cosem and self.antipode_raw is not None \
                and self.chevalley_check():
            w = self.nontrivial_h1_witness()
            steps.append("characteristic 0, not cosemisimple, coradical is "
                         "a Hopf subalgebra")
            steps.append(f"witness {w!r} lies in a (^C H_1 ^1)+ component")
            return ExponentReport(
                "provably_infinite", cap=cap, witness=w,
                criterion="non-cosemisimple with Hopf-subalgebra coradical "
                          "in characteristic 0: the witness has infinite "
                          "Hopf order, so no convolution power of id is "
                          "u o eps", steps=steps)
        if p > 0 and self.antipode_raw is not None and self.is_pointed():
            d = 1
            for comp in self.simple_subcoalgebras():
                if comp.is_grouplike:
                    o = self._grouplike_order(comp.grouplike_raw)
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
