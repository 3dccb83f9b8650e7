"""Acceptance suite: twelve end-to-end criteria over the example corpus.

Each criterion is one test; the conftest terminal-summary hook prints one
ACCEPTANCE <n> PASS/FAIL line per criterion after the run.
"""

import functools
import json
import random
import time

from hopfex import GF, FieldSpec
from hopfex.cli import run_command
from hopfex.extension import extend_coalgebra
from hopfex.matforms import (MatrixOverH, antipode_inverse_check,
                             basic_multiplicative_matrix, is_multiplicative,
                             is_primitive_matrix, matrix_hopf_power, mtensor,
                             primitive_decompose, stack_triangular)
from hopfex.structfile import HEADER
from hopfex.zoo import restricted_poly, taft

from golden_defs import golden_objects
from lifting_cases import (counit_unit_map, hopf_power_map, identity_map,
                           mul_vec, t2_from_pair, vec_add, vec_dot,
                           vec_is_zero, vec_scale, zero_vec)

RESULTS = []

_BUILDERS = dict(golden_objects())


@functools.lru_cache(maxsize=None)
def obj(stem):
    return _BUILDERS[stem]()


def all_stems():
    return list(_BUILDERS)


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                RESULTS.append((num, desc, False))
                raise
            RESULTS.append((num, desc, True))
        return run
    return wrap


@criterion(1, "coalgebra/bialgebra/Hopf axioms hold on the whole corpus")
def test_criterion_01():
    needed = {"kZ2", "kZ6", "kS3", "dual_kS3", "sweedler", "sweedler_f3",
              "taft9", "taft9_f7", "restricted2", "restricted3",
              "restricted5", "tensor_kZ2_kZ3", "tensor_sweedler_kZ2_f3"}
    assert needed <= set(all_stems())
    for stem in all_stems():
        h = obj(stem)
        assert h.check() == [], stem
        assert h.check_hopf() == [], stem


@criterion(2, "coradical idempotents are orthonormal and restrict correctly")
def test_criterion_02():
    for stem in all_stems():
        h = obj(stem)
        fam = h.coradical_idempotents()
        dual = h.dual_algebra()
        fns = list(fam)
        simples = h.simple_subcoalgebras()
        assert len(fns) == len(simples), stem
        total = zero_vec(h.field, h.dim)
        for i, e in enumerate(fns):
            total = vec_add(total, e)
            for j, f in enumerate(fns):
                prod = dual.mult(e, f)
                want = e if i == j else zero_vec(h.field, h.dim)
                assert prod == want, (stem, i, j)
        assert total == tuple(h.counit), stem
        # restriction to each simple: e_C acts on D as delta_CD * eps
        for i, e in enumerate(fns):
            for j, comp in enumerate(simples):
                for row in comp.subspace.rows:
                    val = vec_dot(e, row)
                    want = h.counit_vec(row) if i == j else h.field.zero()
                    assert val == want, (stem, i, j)


@criterion(3, "group algebra exponents 2, 6, 6 for Z2, Z6, S3 by iteration")
def test_criterion_03():
    for stem, want in (("kZ2", 2), ("kZ6", 6), ("kS3", 6)):
        h = obj(stem)
        rep = h.exponent()
        assert rep.kind == "finite" and rep.n == want, stem
        ue = counit_unit_map(h)
        assert hopf_power_map(h, want) == ue, stem
        for n in range(1, want):
            assert hopf_power_map(h, n) != ue, (stem, n)


@criterion(4, "characteristic-zero witnesses have infinite Hopf order")
def test_criterion_04():
    for stem in ("sweedler", "taft9"):
        h = obj(stem)
        rep = h.classify_exponent()
        assert rep.kind == "provably_infinite", stem
        w = h.element(rep.witness)
        ue = vec_scale(w.eps(), h.one().vec)
        acc = identity_map(h)  # acc = [n] throughout the loop
        for n in range(1, 201):
            assert acc.apply(w.vec) != ue, (stem, n)
            acc = h.convolution(acc, identity_map(h))
    # primitive case: the restricted generator has powers exactly n * x
    for p in (2, 3, 5):
        h = restricted_poly(p)
        x = h.basis_element(1)
        assert x.delta() == t2_from_pair(x.vec, h.one().vec) | \
            t2_from_pair(h.one().vec, x.vec)
        for n in range(25):
            assert h.hopf_power(x, n) == h.field.from_int(n) * x, (p, n)


@criterion(5, "matrix Hopf powers are matrix powers; S(G) inverts G")
def test_criterion_05():
    for stem in all_stems():
        h = obj(stem)
        for comp in h.simple_subcoalgebras():
            g = basic_multiplicative_matrix(h, comp).matrix
            assert is_multiplicative(g), stem
            for n in range(9):
                gn = matrix_hopf_power(g, n)
                assert gn == g.power(n), (stem, n)
                for i in range(g.nrows):
                    for j in range(g.nrows):
                        want = h.hopf_power(g.element(i, j), n).vec
                        assert gn.entry(i, j) == want, (stem, n, i, j)
            assert antipode_inverse_check(g), stem


@criterion(6, "exponent outcomes survive scalar extension")
def test_criterion_06():
    char0 = FieldSpec(0, cyclotomic_order=4)
    quad = {2: GF(2, modulus=[1, 1, 1]),
            3: GF(3, modulus=[1, 0, 1]),
            5: GF(5, modulus=[2, 0, 1]),
            7: GF(7, modulus=[1, 0, 1])}
    checked = 0
    for stem in all_stems():
        h = obj(stem)
        if h.field.degree != 1:
            continue  # already an extension field; embedding not defined
        bigger = char0 if h.field.char == 0 else quad[h.field.char]
        h2 = h.extend_scalars(bigger)
        assert h2.check_hopf() == [], stem
        r1, r2 = h.classify_exponent(), h2.classify_exponent()
        assert (r1.kind, r1.n) == (r2.kind, r2.n), stem
        checked += 1
    assert checked >= 10


@criterion(7, "characteristic-p exponent bounds are exact and verified")
def test_criterion_07():
    for p in (2, 3, 5):
        h = restricted_poly(p)
        rep = h.classify_exponent()
        assert rep.kind == "bounded" and rep.bound == p, p
        assert rep.n == p, p
        ue = counit_unit_map(h)
        assert hopf_power_map(h, p) == ue, p
        for n in range(1, p):
            assert hopf_power_map(h, n) != ue, (p, n)

    sw = obj("sweedler_f3")
    rep = sw.classify_exponent()
    assert rep.kind == "bounded" and rep.bound == 6  # 2 * 3
    assert rep.n is not None and rep.n <= 6
    assert hopf_power_map(sw, rep.n) == counit_unit_map(sw)
    for n in range(1, rep.n):
        assert hopf_power_map(sw, n) != counit_unit_map(sw)

    tf = obj("taft9_f7")
    rep = tf.classify_exponent()
    assert rep.kind == "bounded" and rep.bound == 21  # 3 * 7^(0+1)
    assert rep.n is not None and rep.n <= 21
    assert hopf_power_map(tf, rep.n) == counit_unit_map(tf)
    for n in range(1, rep.n):
        assert hopf_power_map(tf, n) != counit_unit_map(tf)


@criterion(8, "degree-one elements decompose into primitive matrices")
def test_criterion_08():
    rng = random.Random(20260814)

    def random_in(h, sub):
        total = zero_vec(h.field, h.dim)
        for row in sub.rows:
            c = h.field.from_int(rng.randint(-4, 4))
            total = vec_add(total, vec_scale(c, row))
        return h.element(total)

    def degree_one(h):
        filt = h.coradical_filtration()
        return filt[min(1, len(filt) - 1)]

    plans = []
    for stem in ("sweedler", "taft9"):
        h = obj(stem)
        simples = h.simple_subcoalgebras()
        h1 = degree_one(h)
        pairs = [(ci, di)
                 for ci in range(len(simples)) for di in range(len(simples))
                 if ci != di and
                 h.bicomponent_subspace(ci, di, within=h1).dim > 0]
        plans.append((h, simples, pairs, 7))
    hd = obj("dual_kS3")
    dsimples = hd.simple_subcoalgebras()
    dpairs = [(c.index, c.index) for c in dsimples]
    plans.append((hd, dsimples, dpairs, 6))

    total = 0
    for h, simples, pairs, quota in plans:
        h1 = degree_one(h)
        for t in range(quota):
            ci, di = pairs[t % len(pairs)]
            sub = h.bicomponent_subspace(ci, di, within=h1)
            w = random_in(h, sub)
            cb = basic_multiplicative_matrix(h, simples[ci])
            db = cb if di == ci else basic_multiplicative_matrix(
                h, simples[di])
            dec = primitive_decompose(w, cb, db)
            rebuilt = dec.remainder
            for ip in range(cb.matrix.nrows):
                for jp in range(db.matrix.nrows):
                    wm = dec.matrix(ip, jp)
                    assert is_primitive_matrix(wm, cb.matrix, db.matrix)
                    assert wm.delta() == \
                        mtensor(cb.matrix, wm) + mtensor(wm, db.matrix)
                    z = stack_triangular(cb.matrix, wm, db.matrix)
                    assert is_multiplicative(z)
                    rebuilt = rebuilt + h.element(wm.entry(ip, jp))
            assert rebuilt == w
            if ci != di:
                assert dec.remainder.is_zero()
            total += 1
    assert total == 20


@criterion(9, "integral forms agree; invariance and trace decomposition hold")
def test_criterion_09():
    for stem in all_stems():
        h = obj(stem)
        tr = h.integral_trace()
        db = h.integral_dual_basis()
        assert tr.element == db.element, stem
        assert tr.asserted == h.involutory(), stem
        if h.involutory():
            lam = tr.element.vec
            for i in range(h.dim):
                e = h.basis_element(i)
                assert mul_vec(h, e.vec, lam) == vec_scale(e.eps(), lam), \
                    (stem, i)
        if h.is_cosemisimple():
            dec = h.cosemisimple_integral_decomposition()
            rebuilt = h.one()
            for idx, r, trace in dec.terms:
                rebuilt = rebuilt + h.field.from_int(r) * trace
            assert rebuilt == dec.element, stem
            assert dec.element == tr.element, stem


@criterion(10, "corner extensions: degree 2 directly, degree 3 by recursion")
def test_criterion_10():
    start = time.monotonic()

    def check(ext):
        res, base = ext.result, ext.base
        assert res.check() == []
        assert res.coradical().dim == base.coradical().dim
        assert res.names[:base.dim] == base.names
        for i in range(base.dim):
            assert res.comul[i] == base.comul[i]
            assert res.counit[i] == base.counit[i]
        # ext.g / ext.h may already live in the result; pad to its dim
        gpad = tuple(ext.g.vec) + tuple(
            res.field.zero() for _ in range(res.dim - len(ext.g.vec)))
        hpad = tuple(ext.h.vec) + tuple(
            res.field.zero() for _ in range(res.dim - len(ext.h.vec)))
        for w in ext.witnesses:
            assert is_multiplicative(w)
            for i in range(w.nrows):
                for j in range(i):
                    assert vec_is_zero(w.entries[i][j])
                d = res.element(w.entry(i, i))
                assert d.delta() == t2_from_pair(d.vec, d.vec)
            assert w.entry(0, 0) == gpad
            assert w.entry(w.nrows - 1, w.nrows - 1) == hpad
        assert ext.designated_sum() == ext.z

    t9 = taft(3, FieldSpec(0, cyclotomic_order=3))
    g = t9.basis_element(1)
    ext9 = extend_coalgebra(
        t9, t9.element(t9.power_vec(g.vec, 2)), t9.one(),
        t9.basis_element(t9.index_of("x^2")), 2)
    assert ext9.result.dim == 10
    check(ext9)

    t16 = taft(4, FieldSpec(0, cyclotomic_order=4))
    g = t16.basis_element(1)
    ext16 = extend_coalgebra(
        t16, t16.element(t16.power_vec(g.vec, 3)), t16.one(),
        t16.basis_element(t16.index_of("x^3")), 3)
    assert ext16.result.dim == 21
    assert len(ext16.witnesses) == 3
    check(ext16)

    assert time.monotonic() - start < 300


@criterion(11, "block triangular matrix orders obey d * p^(log bound)")
def test_criterion_11():
    from hopfex.matforms import block_order_bound_check

    h = obj("taft9_f7")

    def vec(name):
        return h.basis_element(h.index_of(name)).vec

    q = mul_vec(h, vec("x"), vec("g"))[h.index_of("gx")]
    zero = zero_vec(h.field, h.dim)
    z = MatrixOverH(h, [
        [vec("g^2"), vec_scale(h.field.one() + q, vec("gx")), vec("x^2")],
        [zero, vec("g"), vec("x")],
        [zero, zero, h.one().vec]])
    rep = block_order_bound_check(z, d=3, p=7)
    assert rep.bound == 21 and rep.holds
    assert z.power(21) == MatrixOverH.identity(h, 3)

    sw = obj("sweedler_f3")
    zero = zero_vec(sw.field, sw.dim)
    z2 = MatrixOverH(sw, [
        [sw.basis_element(sw.index_of("g")).vec,
         sw.basis_element(sw.index_of("x")).vec],
        [zero, sw.one().vec]])
    rep2 = block_order_bound_check(z2, d=2, p=3)
    assert rep2.bound == 6 and rep2.holds

    r5 = restricted_poly(5)
    zero = zero_vec(r5.field, r5.dim)
    two_x = vec_scale(r5.field.from_int(2), r5.basis_element(1).vec)
    z3 = MatrixOverH(r5, [
        [r5.one().vec, two_x, r5.basis_element(2).vec],
        [zero, r5.one().vec, r5.basis_element(1).vec],
        [zero, zero, r5.one().vec]])
    rep3 = block_order_bound_check(z3, d=1, p=5)
    assert rep3.bound == 5 and rep3.holds


@criterion(12, "CLI reports are deterministic and exit codes honour errors")
def test_criterion_12(tmp_path_factory=None):
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden"
    commands = [
        ["validate", str(golden / "taft9.hopf")],
        ["coradical", str(golden / "sweedler.hopf")],
        ["filtration", str(golden / "restricted5.hopf")],
        ["simples", str(golden / "dual_kS3.hopf")],
        ["idempotents", str(golden / "kZ6.hopf")],
        ["exponent", str(golden / "kS3.hopf")],
        ["integral", str(golden / "kZ2.hopf")],
        ["theorem-check", str(golden / "sweedler_f3.hopf")],
        ["zoo-dump", "sweedler"],
    ]
    for argv in commands:
        first = run_command(argv)
        second = run_command(argv)
        assert first == second, argv
        assert first[0] == 0, argv
        jfirst = run_command(argv + ["--json"])
        jsecond = run_command(argv + ["--json"])
        assert jfirst == jsecond, argv
        json.loads(jfirst[1])

    import tempfile
    with tempfile.TemporaryDirectory() as td:
        tdp = pathlib.Path(td)
        malformed = {
            "a.hopf": "not a structure file\n",
            "b.hopf": (f"{HEADER}\nfield characteristic 0\n"
                       "dim 1\nbasis e\ncounit nope\ncomul 0 0 0 1\n"),
            "c.hopf": (f"{HEADER}\nfield characteristic 0\n"
                       "dim 1\nbasis e\ncounit 1\ncomul 0 0 9 1\n"),
        }
        for name, content in malformed.items():
            f = tdp / name
            f.write_text(content)
            code, text = run_command(["validate", str(f)])
            assert code == 2, name
