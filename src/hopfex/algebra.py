"""Finite-dimensional associative algebras by structure constants.

This is the workhorse behind coradical analysis: the dual of a
coalgebra is such an algebra, and everything downstream (radical,
semisimple quotient, central idempotents, matrix units of simple
blocks) happens here.

The Jacobson radical is computed exactly, split by characteristic:

  * char 0: Dickson's criterion, the kernel of the trace form
    (x, y) -> Tr(L_x L_y) of the left regular representation;
  * char p: the chain of Cohen/Ivanyos/Wales, replacing the trace by
    characteristic-polynomial coefficients c_{p^i} of the regular
    representation.  Each step is a p^i-semilinear condition; it is
    solved as a linear system in the Frobenius-twisted coordinates and
    pulled back through the inverse Frobenius (our char-p fields are
    finite, hence perfect).

The trace is linear, so the trace form comes straight from the
structure constants: Tr L_{e_i e_j} = sum_m c_ij^m tau_m with
tau_m = Tr L_{e_m} = sum_k c_mk^k, in O(n^3).  It is the whole char-0
criterion and the first level (c_1 = -Tr) of the char-p chain.  Every
level I of the chain is proved a right ideal (I * A inside I) and then
tested by its chain of powers.  The first nilpotent level is the
radical: a nilpotent right ideal lies in J, and J lies in every level.
So the chain stops there, and its powers [J, J^2, ..., 0] are the
proof.  Only a level that is not nilpotent leads to the next one,
where L_x for x in I maps the algebra into I and c_q is read from the
d x d restriction of L_x to I (d = dim I), through its characteristic
polynomial (poly.char_poly, by Hessenberg reduction).

Products by basis vectors are not formed as products with unit vectors
here.  u e_j and e_j u are the columns of L_u and R_u, which one pass
over the nonzero entries of u and the nonzero structure constants
(FiniteAlgebra.terms) yields; the multiplication matrices, the
right-ideal test of each level and the centre (rows c_kj^m - c_jk^m)
read them off directly.  The corner eAe is (eA)e: the columns of L_e are
row-reduced to a basis of eA, and only those rows are multiplied by e.

An algebra holds only its nonzero structure constants, for each (i, j)
the (m, raw c_ij^m) in increasing m, and the same lifted
(FieldOps.lift_pairs): over Q as integers over one denominator D.  Every
product kernel (_product, _basis_products, _tensor_product, the trace
form) is then a run of integer multiply-adds, normalised once per nonzero
output entry by FieldOps.settle, instead of one gcd-normalised Fraction
per term.

Splitting the semisimple quotient is deterministic.  The centre is
split in one refinement pass over its basis (split_commutative): the
pool of orthogonal idempotents starts from the basis vectors that are
already orthogonal idempotents, and each piece e is replaced by the
eigen-components of x = e b in eA, one CRT idempotent per root of the
minimal polynomial of x that field_roots finds, and one piece for the
factors with no root found.  n orthogonal idempotents of an
n-dimensional commutative algebra are primitive, so the pass stops at
dim A pieces with no primitivity test.  If a pass over the whole basis
splits nothing and fewer pieces remain, some piece e has eA not split:
were eA = k^m with m >= 2, some e b would not be a multiple of e, and
its minimal polynomial would have deg distinct roots in k.  So
NonSplitField is raised; over Q and finite fields field_roots is
exhaustive and this is a proof, over a char-0 extension it rests on
field_roots' candidates.  A simple block M_r(k) is split by a bounded
search over its corner basis, their pairwise sums, differences and
products (primitive_idempotent_in); a search that runs out proves
nothing and raises SplittingSearchExhausted.

The splitting runs on sparse raw vectors {m: raw value} with no zeros,
the form _product multiplies: split_commutative, split_idempotent,
primitive_idempotent_in, lift_idempotent, QuotientMap.lift and
SubalgebraMap.embed take and return them, and corner_basis returns the
SubspaceBasis.raw rows of the corner.  Values become Scalars only where
a public method returns them: mult, power, unit, left_traces and
left_mult_mat.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import poly
from .errors import (
    AxiomViolation,
    LinAlgError,
    NonSplitField,
    NoSolution,
    SplittingSearchExhausted,
    require,
)
from .linalg import (Echelon, Mat, SubspaceBasis, add_scaled, dense_raw,
                     sparse_raw, sum_scaled)
from .poly import MinPolySearch, char_poly
from .scalars import (FieldSpec, box, box_sparse, combination,
                      lift_columns, raw_table, read_vector)

# Newton steps of lift_idempotent: each squares the nilpotent error
LIFT_ITERATIONS = 64

# ---------------------------------------------------------------------------
# root hunting in the base field
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, increasing, by trial division up
    to sqrt(|n|)."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def field_roots(field: FieldSpec, coeffs: list) -> list:
    """All roots in the base field of a nonzero polynomial, exactly.

    The coefficients (constant term first) and the roots are raw values.
    Finite fields are searched exhaustively.  Over the rationals the
    rational root theorem is applied to the lowest nonzero coefficient
    and the leading one.  Over a char-0 extension the candidates are the
    rational-root candidates of a polynomial with rational coefficients
    together with +-(powers of the extension generator), which covers
    the root-of-unity spectra that arise from group-like actions; other
    irrational roots are out of scope and simply not reported.
    """
    ops = field.ops
    coeffs = poly.trim(ops, list(coeffs))
    if not coeffs:
        raise LinAlgError("root search on the zero polynomial")
    if field.char:
        candidates = itertools.chain([ops.zero], field._nonzero_raw())
        return [x for x in candidates
                if ops.is_zero(poly.evaluate(ops, coeffs, x))]

    candidates, last = [ops.zero], []
    parts = [field.raw_coefficients(c) for c in coeffs]
    if not any(any(cs[1:]) for cs in parts):
        den = math.lcm(*(cs[0].denominator for cs in parts))
        ints = [int(cs[0] * den) for cs in parts]
        low = next(c for c in ints if c)
        rational = [field.raw(Fraction(s * p_, q_))
                    for p_ in _divisors(low) for q_ in _divisors(ints[-1])
                    for s in (1, -1)]
        # when 0 is a root these come last, after the roots of unity, so
        # the roots the other candidates find keep the order in which
        # split_idempotent tries them
        if ints[0]:
            candidates.extend(rational)
        else:
            last = rational
    one = ops.one
    if field.modulus:
        t, acc = field.gen().val, one
        for _ in range(2 * field.degree + 2):
            acc = ops.mul(acc, t)
            candidates.extend([acc, ops.neg(acc)])
    candidates.extend([one, ops.neg(one)] + last)

    roots, seen = [], set()
    for x in candidates:
        if x not in seen:
            seen.add(x)
            if ops.is_zero(poly.evaluate(ops, coeffs, x)):
                roots.append(x)
    return roots


# ---------------------------------------------------------------------------
# the algebra class
# ---------------------------------------------------------------------------

class FiniteAlgebra:
    """Unital associative algebra by sparse structure constants.

    constants maps (i, j, m) -> Scalar c with e_i e_j = sum c e_m; an index
    outside range(dim) is an AxiomViolation.  unit is the coefficient
    vector of 1; unit_raw holds its raw values, and unit is a read-only
    view boxed at the first read.  self.constants[i][j] lists the nonzero
    (m, raw c) of e_i e_j in increasing m, and terms is (lifted, D), the
    same lists with every c lifted over one denominator D
    (FieldOps.lift_pairs), built at the first product.  Products walk them
    as multiply-adds on lifted values and settle once per nonzero output
    entry, so their cost follows the nonzero constants, not dim^3 per
    pair.  check=True raises
    LinAlgError on the first of violations().
    """

    def __init__(self, field: FieldSpec, dim: int, constants: dict,
                 unit: tuple, check: bool = False):
        table = raw_table(field, "multiplication", constants, dim)
        self._hold(field, dim, table.items(), [field.raw(c) for c in unit])
        if check:
            bad = self.violations()
            if bad:
                raise LinAlgError(bad[0])

    @classmethod
    def of_raw(cls, field: FieldSpec, dim: int, constants: dict,
               unit: tuple) -> "FiniteAlgebra":
        """The algebra of the raw constants {(i, j, m): raw c}, indices in
        range(dim) and zeros allowed, with the unit vector of raw values."""
        return cls.__new__(cls)._hold(field, dim, constants.items(), unit)

    def _hold(self, field, dim, items, unit) -> "FiniteAlgebra":
        """Hold the ((i, j, m), raw c) items as constants, zeros dropped."""
        if len(unit) != dim:
            raise AxiomViolation("unit vector length differs from dimension")
        self.field, self.dim, self.unit_raw = field, dim, tuple(unit)
        self._unit = None
        is_zero, products = field.ops.is_zero, {}
        for (i, j, m), c in sorted(items):
            if not is_zero(c):
                products.setdefault((i, j), []).append((m, c))
        self.constants = [[products.get((i, j), ()) for j in range(dim)]
                          for i in range(dim)]
        self._radical_powers: list[SubspaceBasis] | None = None
        return self

    @property
    def unit(self) -> tuple:
        """The unit as a vector of Scalars, boxed at the first read."""
        if self._unit is None:
            self._unit = box(self.field, self.unit_raw)
        return self._unit

    def raw_constants(self) -> dict:
        """The nonzero constants as {(i, j, m): raw c}, in (i, j, m) order;
        FiniteAlgebra.of_raw(field, dim, these, unit_raw) is this algebra."""
        return {(i, j, m): c for i, row in enumerate(self.constants)
                for j, tij in enumerate(row) for m, c in tij}

    def violations(self, names=None) -> list[str]:
        """Unit-law failures, then associativity failures, one line each.

        Basis element i is called names[i], or i when names is None.
        The unit law reads L_1 and R_1 off terms.  For each j, (e_i e_j) e_k
        is column k of L_{e_i e_j} and e_i (e_j e_k) is column i of
        R_{e_j e_k}, so 2 dim products by basis vectors cover every i, k.
        """
        field, dim = self.field, self.dim
        names = [str(i) for i in range(dim)] if names is None else names
        unit = sparse_raw(field.ops, self.unit_raw)
        one = field.ops.one
        bad = []
        # 1 e_i and e_i 1 are column i of L_1 and of R_1
        for i, (left, right) in enumerate(zip(
                self._basis_products(unit), self._basis_products(unit, False))):
            if left != {i: one}:
                bad.append(f"left unit law fails on {names[i]}")
            if right != {i: one}:
                bad.append(f"right unit law fails on {names[i]}")
        failed = []
        for j, row in enumerate(self.constants):
            left = [self._basis_products(r[j]) for r in self.constants]
            right = [self._basis_products(t, False) for t in row]
            failed.extend((i, j, k)
                          for i, k in itertools.product(range(dim), repeat=2)
                          if left[i][k] != right[k][i])
        bad.extend(f"associativity fails at ({names[i]},{names[j]},{names[k]})"
                   for i, j, k in sorted(failed))
        return bad

    # -- products ----------------------------------------------------------

    @functools.cached_property
    def terms(self) -> tuple:
        """(lifted, D): the constants with every c lifted over the one
        denominator D.  With D = 1 the lift is the identity, and lifted
        is constants itself."""
        pairs, denom = self.field.ops.lift_pairs(
            [t for row in self.constants for tij in row for t in tij])
        if denom == 1:
            return self.constants, 1
        it = iter(pairs)
        return [[list(itertools.islice(it, len(tij))) for tij in row]
                for row in self.constants], denom

    def _product(self, u, v) -> dict:
        """u v as {m: raw value} with no zeros, from the nonzero (index,
        raw value) pairs u and v of two vectors: multiply-adds on lifted
        values, settled once per output entry."""
        ops = self.field.ops
        u, su = ops.lift_pairs(u)
        v, sv = ops.lift_pairs(v)
        return ops.settle_all(self._lifted_product(u, v),
                          su * sv * self.terms[1])

    def _lifted_product(self, u, v) -> dict:
        """u v for lifted (index, value) pairs u and v, as {m: lifted
        value} over their scales times the denominator of terms."""
        mul, add = self.field.ops.lmul, self.field.ops.ladd
        terms = self.terms[0]
        acc: dict = {}
        for i, x in u:
            row = terms[i]
            for j, y in v:
                tij = row[j]
                if tij:
                    xy = mul(x, y)
                    for m, t in tij:
                        c = mul(xy, t)
                        acc[m] = add(acc[m], c) if m in acc else c
        return acc

    def _basis_products(self, u, left: bool = True) -> list[dict]:
        """u e_j (left) or e_j u, for every j, as {m: raw value} with no
        zeros: the columns of L_u (or R_u), from one pass over the nonzero
        (index, raw value) pairs u and the terms they meet, settled once
        per output entry; a column no term touched is returned empty as
        it is."""
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        terms, denom = self.terms
        u, su = ops.lift_pairs(u)
        cols: list[dict] = [{} for _ in range(self.dim)]
        for i, c in u:
            # u_i e_i e_j, or e_j u_i e_i, for every j
            row = terms[i] if left else [r[i] for r in terms]
            for col, tij in zip(cols, row):
                for m, t in tij:
                    y = mul(c, t)
                    col[m] = add(col[m], y) if m in col else y
        scale = su * denom
        return [ops.settle_all(col, scale) if col else col for col in cols]

    def _dense(self, sparse: dict) -> list:
        """The raw vector with the entries of {m: raw value} sparse."""
        return dense_raw(self.field.ops, self.dim, sparse.items())

    def mult(self, u: tuple, v: tuple) -> tuple:
        """u v, from the nonzero entries of u and v (read_vector) and terms,
        on raw values."""
        field, dim = self.field, self.dim
        return box_sparse(field, dim, self._product(
            read_vector(field, dim, u), read_vector(field, dim, v)).items())

    def _tensor_product(self, a, b) -> dict:
        """(x(x)y)(x'(x)y') = xx'(x)yy' on the ((j, k), raw value) pairs a
        and b of two tensors, as {(m, m'): raw value} with no zeros: from
        the lifted terms of e_j e_j' and e_k e_k', settled once per entry."""
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        terms, denom = self.terms
        a, sa = ops.lift_pairs(a)
        b, sb = ops.lift_pairs(b)
        acc: dict = {}
        for (j, k), c in a:
            for (j2, k2), c2 in b:
                c12, right = mul(c, c2), terms[k][k2]
                for m, t in terms[j][j2]:
                    ct = mul(c12, t)
                    for m2, t2 in right:
                        y = mul(ct, t2)
                        key = (m, m2)
                        acc[key] = add(acc[key], y) if key in acc else y
        return ops.settle_all(acc, sa * sb * denom * denom)

    def left_mult_mat(self, u: tuple) -> Mat:
        return self._mult_mat(self._basis_products(
            read_vector(self.field, self.dim, u)))

    def _mult_mat(self, cols: list[dict]) -> Mat:
        zero = self.field.ops.zero
        return Mat(self.field,
                   [box(self.field, [c.get(m, zero) for c in cols])
                    for m in range(self.dim)], self.dim)

    def power(self, u: tuple, n: int) -> tuple:
        field, dim = self.field, self.dim
        return box_sparse(field, dim, self._power(
            read_vector(field, dim, u), n).items())

    def _power(self, u, n: int) -> dict:
        """u^n by squaring, for the nonzero (index, raw value) pairs u, as
        {m: raw value} with no zeros."""
        if n < 0:
            raise ValueError("negative power")
        acc = sparse_raw(self.field.ops, self.unit_raw)
        while n:
            if n & 1:
                acc = self._product(acc, u).items()
            u = self._product(u, u).items()
            n >>= 1
        return dict(acc)

    # -- radical ---------------------------------------------------------------

    def _lifted_traces(self) -> dict:
        """{m: tau_m} for the tau_m = sum_k c_mk^k that may be nonzero,
        lifted over the denominator D of terms."""
        add = self.field.ops.ladd
        taus: dict = {}
        for m, row in enumerate(self.terms[0]):
            for k, tmk in enumerate(row):
                for idx, t in tmk:
                    if idx == k:
                        taus[m] = add(taus[m], t) if m in taus else t
        return taus

    def left_traces(self) -> tuple:
        """tau_m = Tr L_{e_m} = sum_k c_mk^k for every basis element e_m,
        the view of _traces."""
        return box_sparse(self.field, self.dim, self._traces().items())

    def _traces(self) -> dict:
        """The nonzero tau_m as {m: raw value}."""
        return self.field.ops.settle_all(self._lifted_traces(), self.terms[1])

    def _trace_form(self) -> list[dict]:
        """Gram matrix Tr L_{e_i e_j} = sum_m c_ij^m tau_m, in O(n^3), as
        sparse raw rows {j: raw value}: lifted multiply-adds over D^2
        settled once per entry."""
        ops = self.field.ops
        mul, add = ops.lmul, ops.ladd
        terms, denom = self.terms
        taus = self._lifted_traces()
        rows = []
        for row in terms:
            acc: dict = {}
            for j, tij in enumerate(row):
                for m, t in tij:
                    if m in taus:
                        y = mul(t, taus[m])
                        acc[j] = add(acc[j], y) if j in acc else y
            rows.append(ops.settle_all(acc, denom * denom))
        return rows

    def radical(self) -> SubspaceBasis:
        """The Jacobson radical J in canonical form, proved nilpotent.

        Levels of the chain, from the trace-form kernel on, are proved
        right ideals and tested by ideal_powers; the first nilpotent one
        is J.  Its chain [J, J^2, ..., 0] is the proof, and radical_powers
        hands it on.
        """
        if self._radical_powers is None:
            p = self.field.char
            level = SubspaceBasis.of_raw(self.field, self.dim,
                                         self._trace_form()).perp()
            q = 1
            while True:
                self._require_right_ideal(level)
                try:
                    self._radical_powers = self.ideal_powers(level)
                    break
                except LinAlgError:
                    pass  # not nilpotent, so not J: go one level down
                # In char 0 the trace-form kernel is J itself; in char p,
                # c_q vanishes on a d-dimensional level once q > d.
                q *= p
                if not 0 < q <= level.dim:
                    raise LinAlgError("the radical chain ended at a level "
                                      "that is not nilpotent; algebra data "
                                      "corrupt")
                level = self._next_level(level, q)
        return self._radical_powers[0]

    def radical_powers(self) -> list[SubspaceBasis]:
        """[J, J^2, ..., 0] for the Jacobson radical J."""
        self.radical()
        return list(self._radical_powers)

    def _next_level(self, level: SubspaceBasis, q: int) -> SubspaceBasis:
        """Level q of the char-p chain below the right ideal I = level.

        For x in I the map L_x sends A into I and det(t - L_x) =
        t^(n-d) det(t - L_x|I), so c_q comes from the d x d restriction,
        read at I's pivot columns.  char_poly is given the columns of the
        restriction as its rows, as a matrix and its transpose have the
        same characteristic polynomial.
        """
        field, ops = self.field, self.field.ops
        basis, pivots, d = level.raw, level.pivots, level.dim
        # condition: c_q((x y)-regular matrix) = 0 for all y in the span,
        # q-semilinear in x, linear after the Frobenius twist.
        cond = []
        for y in basis:
            row = []
            for a in basis:
                x = self._product(a, y).items()
                cols = [self._product(x, b) for b in basis]
                restriction = [[col.get(j, ops.zero) for j in pivots]
                               for col in cols]
                row.append(char_poly(ops, restriction)[d - q])
            cond.append(dict(enumerate(row)))
        # pull the twisted coordinates back through the inverse Frobenius
        ker = SubspaceBasis.of_raw(field, d, cond).perp()
        lifted = lift_columns(ops, dict(enumerate(map(dict, basis))))
        return SubspaceBasis.of_raw(field, self.dim, [combination(
            ops, [(k, _frobenius_root(field, c, q)) for k, c in r],
            *lifted) for r in ker.raw])

    def _require_right_ideal(self, level: SubspaceBasis):
        """Prove level * A is inside level, or LinAlgError.

        Each b e_k is column k of L_b, on sparse raw values, read by the
        level's membership test.  contains_raw accepts a zero column, but
        skipping those (450 of 500 in the radical chain of taft25 over
        Q(zeta_5)) halves the time of these checks there.
        """
        for b in level.raw:
            for col in self._basis_products(b):
                if col and not level.contains_raw(col):
                    raise LinAlgError("a level of the radical chain is not a "
                                      "right ideal; algebra data corrupt")

    def ideal_powers(self, ideal: SubspaceBasis) -> list[SubspaceBasis]:
        """[I, I^2, ...] until the zero ideal (which is included).

        The powers of a right ideal are nested, so a nonzero power no
        smaller than the one before it is that power again and the chain
        never reaches zero: LinAlgError.
        """
        field, ops = self.field, self.field.ops
        gens, sg = lift_columns(ops, dict(enumerate(map(dict, ideal.raw))))
        last, sl = gens, sg
        out = [ideal]
        while out[-1].dim:
            # the rows of I and of the last power are lifted once; each
            # product u v is settled once, and only the nonzero ones are
            # eliminated, once per power
            scale = sl * sg * self.terms[1]
            nxt = SubspaceBasis.of_raw(field, self.dim, [
                p for u in last.values() for v in gens.values()
                if (p := ops.settle_all(self._lifted_product(u, v), scale))])
            if nxt.dim >= out[-1].dim:
                raise LinAlgError("ideal is not nilpotent; algebra data corrupt")
            out.append(nxt)
            last, sl = lift_columns(ops, dict(enumerate(map(dict, nxt.raw))))
        return out

    # -- quotients and subalgebras ----------------------------------------------

    def quotient(self, ideal: SubspaceBasis) -> "QuotientMap":
        return QuotientMap(self, ideal)

    def subalgebra_on(self, basis: SubspaceBasis) -> "SubalgebraMap":
        return SubalgebraMap(self, basis)

    def center(self) -> SubspaceBasis:
        """{z : z e_j = e_j z for every j}, the kernel of the rows (j, m)
        with entry c_kj^m - c_jk^m at k, read off the lifted terms."""
        ops, dim = self.field.ops, self.dim
        mul, add = ops.lmul, ops.ladd
        terms, denom = self.terms
        minus_one = ops.neg(ops.one)  # the lift is the identity on it
        rows: dict = {}
        for j, k in itertools.product(range(dim), repeat=2):
            for m, c in terms[k][j]:
                row = rows.setdefault((j, m), {})
                row[k] = add(row[k], c) if k in row else c
            for m, c in terms[j][k]:
                row = rows.setdefault((j, m), {})
                c = mul(minus_one, c)
                row[k] = add(row[k], c) if k in row else c
        settled = (ops.settle_all(r, denom) for r in rows.values())
        return SubspaceBasis.of_raw(self.field, dim,
                                    [r for r in settled if r]).perp()

    # -- idempotents ------------------------------------------------------------

    def lift_idempotent(self, v: dict) -> dict:
        """Newton lift e <- 3e^2 - 2e^3 of v {m: raw value} until exactly
        idempotent.

        Converges when v is idempotent modulo a nil ideal; quadratic, so
        the iteration count is logarithmic in the nilpotency index, and
        LIFT_ITERATIONS steps cover any nilpotency index below 2^64.
        """
        field, ops = self.field, self.field.ops
        three, minus_two = field.raw(3), field.raw(-2)
        e = dict(v)
        for _ in range(LIFT_ITERATIONS):
            e2 = self._product(e.items(), e.items())
            if e2 == e:
                return e
            e3 = self._product(e2.items(), e.items())
            e = {}
            for c, power in ((three, e2), (minus_two, e3)):
                if not ops.is_zero(c):  # 3 = 0 in char 3, 2 = 0 in char 2
                    add_scaled(ops, e, c, power)
        raise LinAlgError("idempotent lifting did not converge; input not "
                          "idempotent modulo a nil ideal")

    def _min_poly(self, e: dict, x: list) -> tuple[list, list[dict]]:
        """(mu, powers): the monic minimal polynomial mu of x in the corner
        with unit e, and the powers e, x, ..., x^(deg mu) that the search
        for it builds, as sparse raw rows.  e is {m: raw value}, x the
        nonzero (index, raw value) pairs of an element of eAe."""
        search, powers = MinPolySearch(self.field), [e]
        while (mu := search.add(powers[-1])) is None:
            powers.append(self._product(powers[-1].items(), x))
        return mu, powers

    def _at_powers(self, powers: list[dict]):
        """h -> h(x) = sum h_k x^k as {m: raw value}, for a polynomial h
        of degree below len(powers), from the powers of _min_poly lifted
        once."""
        ops = self.field.ops
        lifted, scale = lift_columns(ops, dict(enumerate(powers)))
        return lambda h: combination(ops, sparse_raw(ops, h), lifted, scale)

    def split_idempotent(self, e: dict, x: dict) -> dict | None:
        """Try to split idempotent e using the element x = e x e.

        Returns a proper subidempotent 0 != f < e, or None.  Two routes:
        a base-field root lam of the minimal polynomial mu of x in the
        corner gives either a CRT projection onto the generalized
        lam-eigencomponent, or (when x - lam*e is nilpotent) a proper
        left ideal whose right identity is the wanted idempotent.  Both
        are polynomials in x of degree below deg mu, read off the powers
        e, x, x^2, ... that the search for mu builds: e is the unit of
        the corner, and x = e x e.
        """
        mu, powers = self._min_poly(e, list(x.items()))
        if len(mu) <= 2:
            return None
        at = self._at_powers(powers)
        for lam in field_roots(self.field, mu):
            nil, away = _eigen_projection(self.field.ops, mu, lam)
            if away is None:
                # x - lam*e is nilpotent in the corner; its last nonzero
                # power spans a proper left ideal of the corner.
                f = self._left_ideal_idempotent(e, at(nil))
                if f and f != e:
                    return f
                continue
            f = at(away)
            if f and f != e and self._product(f.items(), f.items()) == f:
                return f
        return None

    def _left_ideal_idempotent(self, e: dict, n: dict) -> dict | None:
        """Right identity of the left ideal (eAe)n, if one exists.

        In a semisimple corner every left ideal is generated by an
        idempotent, which is precisely a right identity of the ideal;
        finding it is a linear solve.
        """
        raw = SubspaceBasis.of_raw(self.field, self.dim, [
            self._product(b, n.items()) for b in self.corner_basis(e)]).raw
        if not raw:
            return None
        # u = sum c_k raw[k] with v u = v for every v in raw: column k
        # holds the products v raw[k], keyed by (v, entry)
        system = Echelon(self.field)
        for b in raw:
            system.add({(i, m): x for i, v in enumerate(raw)
                        for m, x in self._product(v, b).items()})
        try:
            comb = system.coords({(i, m): x for i, v in enumerate(raw)
                                  for m, x in v})
        except NoSolution:
            return None
        u = sum_scaled(self.field.ops, [(c, raw[k]) for k, c in comb.items()])
        if not u or self._product(u.items(), u.items()) != u:
            return None
        return u

    def split_commutative(self) -> list[dict]:
        """All primitive idempotents of a commutative semisimple algebra,
        as {m: raw value}, sorted by their dense raw coefficient vectors
        compared entry by entry.

        One refinement of a pool of orthogonal idempotents
        (Eberly-Giesbrecht, J. Symb. Comp. 29 (2000)).  The pool starts
        from the basis vectors that are orthogonal idempotents, read off
        the constants with no product (_basis_idempotents), and 1 minus
        their sum when that is nonzero: orthogonal idempotents summing
        to 1.  Then for each basis vector b in turn, every piece e is
        replaced by the eigen-components of x = e e_b inside eA, one CRT
        idempotent h_lam(x) per root lam of the minimal polynomial mu of
        x that field_roots finds, and one piece for the factors of mu
        with no root found (_eigen_pieces).  n = dim A orthogonal
        idempotents of an n-dimensional algebra are all primitive, so
        the refinement stops when the pool holds n pieces, with no
        primitivity test; with n basis idempotents (the dual of a group
        algebra on its delta functions) nothing is refined.  Passes over
        the basis repeat while the one before split a piece.  Every
        piece of the pool is a sum of primitive idempotents, and those
        of a commutative semisimple algebra are unique, so the sorted
        result is the same from any starting pool.

        When a pass splits nothing and fewer than n pieces remain, some
        piece e has eA = k^m with m >= 2 or is not split.  If it is k^m,
        the e e_b span eA, so some x = e e_b is not a multiple of e; its
        mu has deg mu distinct roots in k, and the pass would have split
        e.  So NonSplitField is raised.  Over Q and finite fields
        field_roots is exhaustive and the raise is a proof; over a char-0
        extension field it rests on field_roots' list of candidate roots.
        """
        ops, n = self.field.ops, self.dim
        taken = self._basis_idempotents()
        pool = [{i: ops.one} for i in taken]
        rest = dict(sparse_raw(ops, self.unit_raw))
        add_scaled(ops, rest, ops.neg(ops.one), dict.fromkeys(taken, ops.one))
        if rest:
            pool.append(rest)
        changed = True
        while changed and len(pool) < n:
            changed = False
            for b in range(n):
                i = 0
                while i < len(pool) < n:
                    parts = self._eigen_pieces(pool[i], b)
                    pool[i:i + 1] = parts
                    i += len(parts)
                    changed = changed or len(parts) > 1
                if len(pool) == n:
                    break
        if len(pool) < n:
            raise NonSplitField(
                "a simple block of the dual algebra has center larger "
                "than the base field; recompute over a field extension")
        return sorted(pool, key=self._dense)

    def _basis_idempotents(self) -> list[int]:
        """The i, increasing, whose basis vectors e_i are orthogonal
        idempotents, taken greedily off the constants with no product:
        e_i e_i = e_i, and e_i e_j = e_j e_i = 0 for every j taken before."""
        one, c = self.field.ops.one, self.constants
        taken: list[int] = []
        for i, row in enumerate(c):
            if row[i] == [(i, one)] and not any(row[j] or c[j][i]
                                                for j in taken):
                taken.append(i)
        return taken

    def is_commutative(self) -> bool:
        """Whether e_i e_j = e_j e_i for every i < j, compared on the
        constants with no product."""
        c = self.constants
        return all(c[i][j] == c[j][i]
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    def _eigen_pieces(self, e: dict, b: int) -> list[dict]:
        """The eigen-components of x = e e_b inside eA, for an idempotent
        e {m: raw value} of a commutative algebra: e h_lam(x) for each
        root lam of mu that field_roots finds, then the rest of e when
        some factor of mu has no root found; [e] when x is a multiple of
        e.  The h_lam and the rest are orthogonal idempotents of k[x]/mu
        summing to 1 (CRT).  x = 0 gives [e] and an idempotent x (mu =
        t^2 - t) [e - x, x], the pieces of the roots 0 and 1, directly."""
        ops = self.field.ops
        x = list(self._product(e.items(), [(b, ops.one)]).items())
        if not x:
            return [e]
        mu, powers = self._min_poly(e, x)
        if len(mu) <= 2:
            return [e]
        if mu == [ops.zero, ops.neg(ops.one), ops.one]:
            rest = dict(e)
            add_scaled(ops, rest, ops.neg(ops.one), powers[1])
            return [rest, powers[1]]
        projections, rest = [], [ops.one]
        for lam in field_roots(self.field, mu):
            away = _eigen_projection(ops, mu, lam)[1]
            if away is not None:
                projections.append(poly.sub(ops, [ops.one], away))
                rest = poly.sub(ops, rest, projections[-1])
        at = self._at_powers(powers)
        return [at(h) for h in projections + [rest] if h]

    def primitive_idempotent_in(self, e: dict) -> dict:
        """A primitive idempotent below e, by a bounded splitting search.

        Candidates x, tried as e x e: the corner basis, then its pairwise
        sums, differences and products.  When none splits the corner,
        SplittingSearchExhausted is raised: the bounded search proves
        nothing about the block.
        """
        corner = self.corner_basis(e)
        if len(corner) == 1:
            return e
        ops = self.field.ops
        one, minus_one = ops.one, ops.neg(ops.one)
        pairs = list(itertools.combinations(corner, 2))
        for x in itertools.chain(
                map(dict, corner),
                (sum_scaled(ops, [(one, a), (one, b)]) for a, b in pairs),
                (sum_scaled(ops, [(one, a), (minus_one, b)]) for a, b in pairs),
                (self._product(a, b)
                 for a, b in itertools.permutations(corner, 2))):
            exe = self._product(self._product(e.items(), x.items()).items(),
                                e.items())
            f = self.split_idempotent(e, exe)
            if f is not None:
                return self.primitive_idempotent_in(f)
        raise SplittingSearchExhausted(
            "no candidate splits a corner of dimension "
            f"{len(corner)}; the block may be a division algebra over the "
            "base field, or may need a larger search")

    def corner_basis(self, e: dict, central: bool = False) -> tuple:
        """Canonical basis of eAe = (eA)e, as SubspaceBasis.raw rows: the
        columns e e_i of L_e are row-reduced to a basis of eA, and only its
        rows are multiplied by e.  For a central e, eAe = eA e = e e A =
        eA, so central=True returns that basis as it is."""
        ea = SubspaceBasis.of_raw(self.field, self.dim,
                                  self._basis_products(e.items()))
        if central:
            return ea.raw
        return SubspaceBasis.of_raw(self.field, self.dim, [
            self._product(r, e.items()) for r in ea.raw]).raw


def _eigen_projection(ops, mu: list, lam) -> tuple[list, list | None]:
    """(nil, away) for a root lam of multiplicity m of mu: nil is
    (t - lam)^(m - 1), and away is h mod mu with h = 0 mod (t - lam)^m
    and h = 1 mod the rest of mu, so that h(x) projects away from the
    generalized lam-eigencomponent and 1 - h(x) onto it.  away is None
    when mu is a power of t - lam (x - lam is nilpotent)."""
    lin = [ops.neg(lam), ops.one]
    rest, mult_ = mu, 0
    while True:
        qq, rr = poly.divmod(ops, rest, lin)
        if rr:
            break
        rest, mult_ = qq, mult_ + 1
    nil = [ops.one]
    for _ in range(mult_ - 1):
        nil = poly.mul(ops, nil, lin)
    if len(rest) == 1:
        return nil, None
    primary = poly.mul(ops, nil, lin)
    g, u, _ = poly.gcdext(ops, primary, rest)
    require(len(g) == 1, "primary parts are coprime")
    ginv = ops.inv(g[0])
    h = poly.mul(ops, [ops.mul(c, ginv) for c in u], primary)
    return nil, poly.divmod(ops, h, mu)[1]


def _frobenius_root(field: FieldSpec, x, q: int):
    """The unique q-th root (q a power of char) of the raw value x in a
    finite field.  x -> x^(p^(deg-1)) inverts one Frobenius; it is applied
    once per factor of p in q, as one power by squaring on raw values."""
    ops, n = field.ops, 1
    while q > 1:
        n, q = n * field.char ** (field.degree - 1), q // field.char
    out = ops.one
    while n:
        if n & 1:
            out = ops.mul(out, x)
        x, n = ops.mul(x, x), n >> 1
    return out


class QuotientMap:
    """Quotient by a two-sided nil(potent) ideal, with canonical section.

    The complement basis is the set of standard basis vectors at the
    non-pivot columns of the ideal's canonical form, so everything here
    is deterministic.  A vector v is sum_i v[pivot_i] row_i plus its
    section part, so projecting needs no solve: section coordinate j is
    v[s_j] - sum_i v[pivot_i] row_i[s_j].  The quotient's constants are
    the projections of the parent's nonzero products e_{s_a} e_{s_b}.
    The quotient by the zero ideal (every cosemisimple input's H*/J) is
    the parent itself, with the identity section: algebra is alg, and
    no constant is copied.  An ideal over another field or ambient
    dimension is a FieldMismatch or ShapeMismatch.
    """

    def __init__(self, alg: FiniteAlgebra, ideal: SubspaceBasis):
        self.parent = alg
        self.ideal = ideal.require_in(alg.field, alg.dim)
        field, ops = alg.field, alg.field.ops
        cols = self.section_cols = [j for j in range(alg.dim)
                                    if j not in ideal.pivots]
        # the section coordinates of each e_m, as {k: raw value}: e_{s_k}
        # is section vector k, and e_p for a pivot p is row_p minus its
        # section part
        index = {s: k for k, s in enumerate(cols)}
        self._images = {s: {k: ops.one} for s, k in index.items()}
        for p, r in zip(ideal.pivots, ideal.raw):
            self._images[p] = {index[s]: ops.neg(c) for s, c in r if s in index}
        if not ideal.dim:
            self.algebra = alg
            return
        constants = {(a, b, k): c for a, sa in enumerate(cols)
                     for b, sb in enumerate(cols)
                     for k, c in self.project(
                         alg.constants[sa][sb]).items()}
        unit = self.project(sparse_raw(ops, alg.unit_raw)).items()
        self.algebra = FiniteAlgebra.of_raw(field, len(cols), constants,
                                            dense_raw(ops, len(cols), unit))

    def project(self, pairs) -> dict:
        """The section coordinates {k: raw value}, with no zeros, of the
        vector with nonzero (index, raw value) pairs."""
        ops, out = self.parent.field.ops, {}
        for m, c in pairs:
            add_scaled(ops, out, c, self._images[m])
        return out

    def lift(self, q: dict) -> dict:
        """q {k: raw value} written at the section columns."""
        return {self.section_cols[k]: c for k, c in q.items()}


class SubalgebraMap:
    """A unital subalgebra presented on the canonical rows of its span; a
    span over another field or ambient dimension is a FieldMismatch or
    ShapeMismatch."""

    def __init__(self, alg: FiniteAlgebra, basis: SubspaceBasis):
        basis.require_in(alg.field, alg.dim)
        self.parent, self.basis, ops = alg, basis, alg.field.ops
        # a product of basis rows, or the unit, in the span has its
        # coordinates at the pivots
        constants = {}
        for (a, u), (b, v) in itertools.product(enumerate(basis.raw), repeat=2):
            prod = alg._product(u, v)
            if not basis.contains_raw(prod):
                raise NoSolution("vector is not in the subspace")
            constants.update(((a, b, k), prod[p]) for k, p in
                             enumerate(basis.pivots) if p in prod)
        if not basis.contains_raw(dict(sparse_raw(ops, alg.unit_raw))):
            raise NoSolution("vector is not in the subspace")
        self.algebra = FiniteAlgebra.of_raw(alg.field, basis.dim, constants, [
            alg.unit_raw[p] for p in basis.pivots])

    def embed(self, q: dict) -> dict:
        """The element of the parent with coordinates q {k: raw value}."""
        return sum_scaled(self.parent.field.ops,
                          [(c, self.basis.raw[k]) for k, c in q.items()])
