"""The benchmark's four workloads, each a list of operations on hopfex.

Every operation builds its objects fresh from structure constants made
at set-up, because a Coalgebra caches its coradical analysis and a user
of the command line pays for that analysis on every run.  Calls go
through module attributes (``hopfex.cli.run_command``, not a name bound
here at import), so that the tracer's patches see them.

Each operation has a key into expected.json, a function that reduces
its result to facts that do not depend on the seed or the basis, and a
verification that returns the problems it found.  record_expected.py
stores the facts; the benchmark compares against them.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hopfex
import hopfex.cli
import hopfex.structfile
import hopfex.zoo
from hopfex import GF, QQ, FieldSpec

from rebase import rebase

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``facts`` and ``verify`` are not."""

    name: str
    key: str | None
    run: Callable[[], object]
    facts: Callable[[object], dict]
    verify: Callable[[object], list[str]]


def _no_problems(result) -> list[str]:
    return []


def _coalgebra_data(obj) -> dict:
    """Constructor arguments that rebuild obj's coalgebra structure."""
    comul = {(i, j, k): c for i, d in enumerate(obj.comul)
             for (j, k), c in d.items()}
    return dict(field=obj.field, names=obj.names, comul=comul,
                counit=list(obj.counit), name=obj.name)


def _fresh_coalgebra(data: dict):
    return hopfex.Coalgebra(data["field"], data["names"], data["comul"],
                            data["counit"], name=data["name"])


# ---------------------------------------------------------------------------
# cli-corpus: the command line, in process, on the golden corpus
# ---------------------------------------------------------------------------

GOLDEN_DIR = "tests/golden"

CORPUS_COMMANDS = [
    ["validate"],
    ["coradical"],
    ["filtration"],
    ["simples"],
    ["idempotents"],
    ["integral"],
    ["theorem-check"],
    ["mult-matrix", "--simple", "0"],
    # the default cap (1024 on taft16) would make one call swamp the rest
    ["exponent", "--cap", "32"],
]

# argument sets of tests/test_cli.py, with the cap of the exponent runs
SWEEDLER_COMMANDS = [
    ["hopf-order", "--element", "g", "--cap", "32"],
    ["hopf-order", "--element", "0 1 0 0", "--cap", "32"],
    ["hopf-order", "--element", "x", "--cap", "32"],
    ["decompose", "--element", "x", "--simple", "0", "--simple", "1"],
    ["decompose", "--element", "x", "--simple", "1", "--simple", "0"],
]


def cli_argvs(root: Path) -> list[list[str]]:
    """Every corpus command line, without the rendering flag.

    File arguments are relative to the repository root, which is the
    working directory of the benchmark.
    """
    files = sorted(p.name for p in (root / GOLDEN_DIR).glob("*.hopf"))
    if not files:
        raise FileNotFoundError(f"no golden files under {root / GOLDEN_DIR}")
    argvs = [cmd[:1] + [f"{GOLDEN_DIR}/{f}"] + cmd[1:]
             for f in files for cmd in CORPUS_COMMANDS]
    sweedler = f"{GOLDEN_DIR}/sweedler.hopf"
    argvs += [cmd[:1] + [sweedler] + cmd[1:] for cmd in SWEEDLER_COMMANDS]
    argvs.append(["exponent", f"{GOLDEN_DIR}/sweedler_f3.hopf",
                  "--field-extend", "1,0,1"])
    argvs += [["zoo-dump", name] for name in hopfex.zoo.ZOO_NAMES]
    return argvs


def cli_op(argv: list[str]) -> Op:
    key = " ".join(argv)

    def run():
        return hopfex.cli.run_command(argv)

    def facts(result):
        code, text = result
        return {"exit": code,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}

    return Op(key, key, run, facts, _no_problems)


def build_cli_corpus(seed: int, root: Path) -> list[Op]:
    """Command lines alternate between text and --json in their fixed
    order, so each file and each command runs in both renderings across
    the corpus; the seed picks only the order of the calls."""
    rng = random.Random(seed)
    argvs = cli_argvs(root)
    # set-up parses each file once, as a user's first run would
    for path in sorted({argv[1] for argv in argvs if argv[0] != "zoo-dump"}):
        text = (root / path).read_text(encoding="utf-8")
        hopfex.structfile.parse_structure_file(text)
    # F_9 for --field-extend: its irreducibility test imports sympy
    FieldSpec(3, modulus=[1, 0, 1])
    ops = [cli_op(argv + ["--json"] if i % 2 else argv)
           for i, argv in enumerate(argvs)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# coradical: filtration, simples and idempotents on six inputs
# ---------------------------------------------------------------------------

def _coradical_inputs():
    z = hopfex.zoo
    f3 = GF(3)
    return [
        ("taft25 over Q(zeta_5)",
         lambda: z.taft(5, FieldSpec(0, cyclotomic_order=5)), False),
        ("kZ12 over Q", lambda: z.group_algebra(z.cyclic(12), QQ), False),
        ("kZ12 over F_13",
         lambda: z.group_algebra(z.cyclic(12), GF(13)), False),
        ("sweedler (x) kZ3 over F_3",
         lambda: z.tensor_product(z.sweedler(f3),
                                  z.group_algebra(z.cyclic(3), f3)), False),
        ("taft9 over F_4",
         lambda: z.taft(3, GF(2, modulus=[1, 1, 1])), False),
        ("kZ2 (x) dual-kS3 over Q",
         lambda: z.tensor_product(z.group_algebra(z.cyclic(2), QQ),
                                  z.dual_group_algebra(z.symmetric(3), QQ)),
         True),
    ]


def coradical_facts(result) -> dict:
    _, filt, simples, _ = result
    return {
        "levels": [lvl.dim for lvl in filt],
        "simples": sorted([c.dim, c.matrix_size] for c in simples),
        "grouplikes": sum(1 for c in simples if c.is_grouplike),
    }


def verify_idempotents(result) -> list[str]:
    """Exact check: orthonormal under the dual product, summing to eps."""
    coalg, _, simples, fam = result
    dual = coalg.dual_algebra()
    zero = tuple(coalg.field.zero() for _ in range(coalg.dim))
    funcs = [fam.functional(c.index) for c in simples]
    problems = []
    for i, fi in enumerate(funcs):
        for j, fj in enumerate(funcs):
            want = fi if i == j else zero
            if dual.mult(fi, fj) != want:
                problems.append(f"idempotents {i} and {j} not orthonormal")
    total = zero
    for f in funcs:
        total = tuple(a + b for a, b in zip(total, f))
    if total != coalg.counit:
        problems.append("idempotents do not sum to the counit")
    return problems


def build_coradical(seed: int, root: Path, rebased: bool = True) -> list[Op]:
    """The seed re-bases the dense input; the others are fixed."""
    ops = []
    for name, make, dense in _coradical_inputs():
        obj = make()
        if dense and rebased:
            obj = rebase(obj, seed)
        data = _coalgebra_data(obj)

        def run(data=data):
            c = _fresh_coalgebra(data)
            return (c, c.coradical_filtration(), c.simple_subcoalgebras(),
                    c.coradical_idempotents())

        ops.append(Op(name, name, run, coradical_facts, verify_idempotents))
    return ops


# ---------------------------------------------------------------------------
# extend: the recursive coalgebra extension
# ---------------------------------------------------------------------------

def _extend_inputs():
    z = hopfex.zoo
    return [
        ("taft9 over Q(zeta_3)",
         lambda: z.taft(3, FieldSpec(0, cyclotomic_order=3)), 2),
        ("taft9 over F_7", lambda: z.taft(3, GF(7)), 2),
        ("restricted5", lambda: z.restricted_poly(5), 2),
        ("taft16 over Q(zeta_4)",
         lambda: z.taft(4, FieldSpec(0, cyclotomic_order=4)), 3),
    ]


def _unit_multiples(field) -> list:
    """Nonzero scalars that cost the same to multiply by: all of F_p^*,
    or the roots of unity +-t^k of a cyclotomic field."""
    if field.char:
        return [field.from_int(k) for k in range(1, field.char)]
    t = field.gen()
    m = field.cyclotomic_order
    return [s * t ** k for s in (field.one(), -field.one()) for k in range(m)]


def extend_facts(result) -> dict:
    base, ext = result
    return {
        "result_dimension": ext.result.dim,
        "new_basis": list(ext.new_basis),
        "witness_orders": [w.nrows for w in ext.witnesses],
        "coradical_dimension": base.coradical().dim,
        "coradical_unchanged": ext.result.coradical().dim
        == base.coradical().dim,
    }


def verify_extension(result) -> list[str]:
    _, ext = result
    problems = [f"witness {i} is not multiplicative"
                for i, w in enumerate(ext.witnesses)
                if not hopfex.matforms.is_multiplicative(w)]
    if ext.designated_sum() != ext.z:
        problems.append("designated entries do not sum to z")
    return problems


def build_extend(seed: int, root: Path) -> list[Op]:
    """The seed picks the nonzero multiple c of the corner element x^n."""
    rng = random.Random(seed)
    ops = []
    for name, make, n in _extend_inputs():
        obj = make()
        if "g" in obj.names:
            g = obj.power_vec(obj.basis_element(obj.index_of("g")).vec, n)
        else:
            g = obj.unit
        c = rng.choice(_unit_multiples(obj.field))
        z = tuple(c * v
                  for v in obj.basis_element(obj.index_of(f"x^{n}")).vec)
        data = _coalgebra_data(obj)
        one = obj.unit

        def run(data=data, g=g, z=z, one=one, n=n):
            base = _fresh_coalgebra(data)
            E = hopfex.Element
            return base, hopfex.extend_coalgebra(base, E(base, g),
                                                 E(base, one), E(base, z), n)

        ops.append(Op(f"extend {name} degree {n}", f"{name} degree {n}",
                      run, extend_facts, verify_extension))
    return ops


# ---------------------------------------------------------------------------
# hopf-powers: convolution powers, Hopf orders, classification, integrals
# ---------------------------------------------------------------------------

HOPF_ORDER_CAP = 64


def report_facts(rep) -> dict:
    return {"kind": rep.kind, "n": rep.n, "bound": rep.bound, "cap": rep.cap}


def _taft16_elements(field, rng) -> list[tuple[list, int | None]]:
    """Seeded elements of taft16 with the Hopf order they must have.

    On sum_a c_a g^a with c_a > 0 the Hopf power is linear and sends g^a
    to g^(a n), so the order is the lcm of the orders of the g^a used.
    Adding one term c g^b x (c != 0) makes the x-part of h^[n] a nonzero
    multiple of sum_i q^(b(n-1-i)) g^(bn+i) x for every n in
    characteristic 0, so h has no Hopf order.

    The elements have Hopf order 4, Hopf order 2, and none.  The seed
    picks the coefficients and which g^a carry them, not the number of
    terms or the orders, since the search's cost grows with both.
    """
    order4 = [(a, b) for a in range(4) for b in range(a + 1, 4)
              if a % 2 or b % 2]
    out = []
    for support, with_x in ((rng.choice(order4), False), ((0, 2), False),
                            (rng.choice(order4), True)):
        coeffs = [0] * 16
        for a in support:
            coeffs[a] = rng.randint(1, 3)
        order = math.lcm(*(4 // math.gcd(a, 4) for a in support))
        if with_x:
            coeffs[4 + rng.randrange(4)] = rng.choice([-2, -1, 1, 2])
            order = None
        out.append(([field.from_int(c) for c in coeffs], order))
    return out


def build_hopf_powers(seed: int, root: Path) -> list[Op]:
    """The seed picks the elements whose Hopf order is searched."""
    rng = random.Random(seed)
    sf_of = {}
    z = hopfex.zoo
    q3 = FieldSpec(0, cyclotomic_order=3)
    q4 = FieldSpec(0, cyclotomic_order=4)
    f3 = GF(3)
    makers = {
        "taft9 over Q(zeta_3)": lambda: z.taft(3, q3),
        "taft16 over Q(zeta_4)": lambda: z.taft(4, q4),
        "taft9 over F_7": lambda: z.taft(3, GF(7)),
        "sweedler (x) kZ2 over F_3": lambda: z.tensor_product(
            z.sweedler(f3), z.group_algebra(z.cyclic(2), f3)),
        "restricted5": lambda: z.restricted_poly(5),
        "kZ12 over Q": lambda: z.group_algebra(z.cyclic(12), QQ),
    }
    for name, make in makers.items():
        sf_of[name] = hopfex.structfile.structure_from_object(make())

    def exponent_op(name, cap):
        sf = sf_of[name]
        label = f"exponent({cap or 'default'}) {name}"
        return Op(label, label,
                  lambda: sf.to_object().exponent(cap),
                  report_facts, _no_problems)

    ops = [exponent_op("taft9 over Q(zeta_3)", None),
           exponent_op("taft16 over Q(zeta_4)", 256)]

    taft16 = sf_of["taft16 over Q(zeta_4)"]
    for vec, order in _taft16_elements(q4, rng):
        def run(vec=vec):
            h = taft16.to_object()
            return h, vec, h.hopf_order(vec, HOPF_ORDER_CAP)

        def verify(result, order=order):
            h, vec, n = result
            if n != order:
                return [f"Hopf order {n}, expected {order}"]
            if n is not None and h.hopf_power(vec, n) != \
                    tuple(h.counit_vec(vec) * u for u in h.unit):
                return [f"h^[{n}] is not eps(h) 1"]
            return []

        ops.append(Op(f"hopf_order(cap {HOPF_ORDER_CAP}) taft16", None,
                      run, lambda result: {}, verify))

    for name in ("taft9 over F_7", "sweedler (x) kZ2 over F_3",
                 "restricted5"):
        sf = sf_of[name]
        label = f"classify_exponent {name}"
        ops.append(Op(label, label,
                      lambda sf=sf: sf.to_object().classify_exponent(),
                      report_facts, _no_problems))

    kz12 = sf_of["kZ12 over Q"]

    def integrals():
        h = kz12.to_object()
        return h, h.integral_trace(), h.integral_dual_basis()

    def integral_facts(result):
        h, tr, db = result
        return {"trace_form": h.format_element(tr.element.vec),
                "dual_basis_form": h.format_element(db.element.vec)}

    def verify_integrals(result):
        _, tr, db = result
        if tr.element.vec != db.element.vec:
            return ["trace and dual-basis integrals disagree"]
        return []

    ops.append(Op("integrals kZ12 over Q", "integrals kZ12 over Q",
                  integrals, integral_facts, verify_integrals))
    return ops


# Seconds one pass takes at the nominal host speed (README.md, "Host
# speed").  A run of --seconds S makes as many passes as fit in S at that
# speed, at least one: a count fixed by S, not by how fast the host
# happens to be during the run.
PASS_S = {
    "cli-corpus": 26.0,
    "coradical": 26.0,
    "extend": 7.0,
    "hopf-powers": 14.0,
}


def passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


BUILDERS = {
    "cli-corpus": build_cli_corpus,
    "coradical": build_coradical,
    "extend": build_extend,
    "hopf-powers": build_hopf_powers,
}
