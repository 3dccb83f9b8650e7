"""Command-line front end: hopfex <subcommand> <file> [flags].

Subcommands load a structure-constant file (see structfile), dispatch to
the library, and print a deterministic report: the same file and flags
always give byte-identical output.  --json prints the identical facts as
JSON.  Exit codes: 0 success, 1 mathematical failure (axiom violation,
disagreeing invariants), 2 input error (unparseable file, bad flags, bad
HOPFEX_CAP).

The HOPFEX_CAP environment variable overrides the default iteration cap
for exponent searches; --cap overrides both.  HOPFEX_CAP must be a
positive integer; any other value is an input error (exit 2).  It is
read only when no --cap is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .coalgebra import Element
from .errors import HopfexError, InputError, NotCosemisimple
from .extension import extend_coalgebra
from .hopf import HopfAlgebra
from .matforms import basic_multiplicative_matrix, is_multiplicative, \
    primitive_decompose
from .linalg import sparse_raw, sum_scaled
from .scalars import FieldSpec, parse_rational
from .structfile import emit_structure_file, parse_structure_file, \
    structure_from_object
from .zoo import build_named


# ---------------------------------------------------------------------------
# report rendering: one facts dict, two output styles
# ---------------------------------------------------------------------------

def _plain(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def render_text(facts: dict, indent: int = 0) -> list[str]:
    """Deterministic text rendering of a facts dict.

    The same dict serialized as JSON carries exactly the same facts;
    both renderings follow insertion order.
    """
    pad = "  " * indent
    lines = []
    for key, val in facts.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(render_text(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}:")
            for item in val:
                if isinstance(item, dict):
                    lines.append(f"{pad}  -")
                    lines.extend(render_text(item, indent + 2))
                else:
                    lines.append(f"{pad}  - {_plain(item)}")
        else:
            lines.append(f"{pad}{key}: {_plain(val)}")
    return lines


def _report(facts: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(facts, indent=2) + "\n"
    if facts.get("command") == "zoo-dump":
        return facts["structure_file"]
    return "\n".join(render_text(facts)) + "\n"


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hopfex argument parser, built once per process.

    parse_args leaves the parser unchanged and returns a fresh namespace
    each call, so every run_command shares this one.
    """
    top = argparse.ArgumentParser(
        prog="hopfex",
        description="exact structure-constant computations on coalgebras, "
                    "bialgebras and Hopf algebras")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_file=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="structure-constant file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        p.add_argument("--cap", type=int, default=None,
                       help="iteration cap for power searches")
        p.add_argument("--element", default=None,
                       help="element as a basis name or whitespace-separated "
                            "coefficients")
        p.add_argument("--simple", type=int, action="append", default=None,
                       help="simple subcoalgebra index (repeatable)")
        p.add_argument("--field-extend", default=None, metavar="MODULUS",
                       help="extend scalars by a monic modulus, constant "
                            "term first, comma-separated; write a negative "
                            "constant term with '=', as in "
                            "--field-extend=-1/2,0,1")
        p.add_argument("--grouplike-left", default=None, metavar="ELT",
                       help="left group-like for extend")
        p.add_argument("--grouplike-right", default=None, metavar="ELT",
                       help="right group-like for extend")
        p.add_argument("--degree", type=int, default=None,
                       help="filtration degree for extend")
        return p

    add("validate", "check the coalgebra/bialgebra/Hopf axioms")
    add("coradical", "dimension and basis of the coradical")
    add("filtration", "coradical filtration levels")
    add("simples", "simple subcoalgebras")
    add("idempotents", "orthonormal coradical idempotents")
    add("exponent", "exponent by capped iteration")
    add("hopf-order", "Hopf order of --element")
    add("integral", "dual integrals: trace vs dual-basis form")
    add("mult-matrix", "basic multiplicative matrix of --simple")
    add("decompose", "primitive-matrix decomposition of --element")
    add("extend", "extend the coalgebra so --element becomes a corner")
    add("theorem-check", "classify the exponent structurally")
    zoo = add("zoo-dump", "emit a catalog object as a structure file",
              needs_file=False)
    zoo.add_argument("name", help="catalog name, e.g. sweedler, taft3, kZ6")
    return top


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    return parse_structure_file(text).to_object()


def _parse_element(obj, spec: str) -> Element:
    toks = spec.split()
    if not toks:
        raise InputError("empty element specification")
    if len(toks) == 1 and toks[0] in obj.names:
        return obj.basis_element(obj.index_of(toks[0]))
    if len(toks) != obj.dim:
        raise InputError(
            f"element needs {obj.dim} coefficients, got {len(toks)}")
    return Element.of_raw(obj, sparse_raw(obj.field.ops, [
        obj.field.parse_raw(t) for t in toks]))


def _field_extend(obj, spec: str):
    if not isinstance(obj, HopfAlgebra):
        raise InputError("--field-extend needs a bialgebra file")
    try:
        modulus = [parse_rational(c.strip()) for c in spec.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse modulus {spec!r}")
    try:
        bigger = FieldSpec(obj.field.char, modulus=modulus)
        return obj.extend_scalars(bigger)
    except HopfexError as exc:
        raise InputError(f"scalar extension failed: {exc}")


def _kind(obj) -> str:
    if isinstance(obj, HopfAlgebra):
        return "Hopf algebra" if obj.antipode_raw is not None else "bialgebra"
    return "coalgebra"


def _need_hopf(obj) -> HopfAlgebra:
    if not isinstance(obj, HopfAlgebra):
        raise InputError("this command needs a bialgebra file "
                         "(mul and unit blocks)")
    return obj


def _matrix_rows(obj, mat) -> list:
    return ["  |  ".join(obj._format_raw(entry) for entry in row)
            for row in mat.raw]


def _base_facts(command: str, obj) -> dict:
    return {
        "command": command,
        "object": obj.name or "(unnamed)",
        "kind": _kind(obj),
        "dimension": obj.dim,
        "field": obj.field.describe(),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, facts dict)
# ---------------------------------------------------------------------------

def _cmd_validate(obj, args):
    bad = obj.check_hopf() if isinstance(obj, HopfAlgebra) else obj.check()
    facts = _base_facts("validate", obj)
    facts["violations"] = list(bad)
    facts["valid"] = not bad
    return (0 if not bad else 1), facts


def _cmd_coradical(obj, args):
    rad = obj.coradical()
    facts = _base_facts("coradical", obj)
    facts["coradical_dimension"] = rad.dim
    facts["cosemisimple"] = rad.dim == obj.dim
    facts["basis"] = [obj._format_raw(row) for row in rad.raw]
    return 0, facts


def _cmd_filtration(obj, args):
    filt = obj.coradical_filtration()
    facts = _base_facts("filtration", obj)
    facts["depth"] = len(filt) - 1
    facts["level_dimensions"] = [lvl.dim for lvl in filt]
    return 0, facts


def _cmd_simples(obj, args):
    facts = _base_facts("simples", obj)
    facts["pointed"] = obj.is_pointed()
    out = []
    for comp in obj.simple_subcoalgebras():
        entry = {
            "index": comp.index,
            "dimension": comp.dim,
            "matrix_size": comp.matrix_size,
            "grouplike": obj._format_raw(sorted(comp.grouplike_raw.items()))
            if comp.is_grouplike else None,
        }
        out.append(entry)
    facts["simples"] = out
    return 0, facts


def _cmd_idempotents(obj, args):
    fam = obj.coradical_idempotents()
    simples = obj.simple_subcoalgebras()
    facts = _base_facts("idempotents", obj)
    dual, field, ops = obj.dual_algebra(), obj.field, obj.field.ops
    raw = [(comp.index, dict(fam.raw[comp.index])) for comp in simples]
    zero = field.format_raw(ops.zero)
    facts["idempotents"] = [{
        "index": i,
        "functional": " ".join(field.format_raw(f[m]) if m in f else zero
                               for m in range(obj.dim)),
    } for i, f in raw]
    # f_i f_j = delta_ij f_i and sum f_i = eps, on raw values
    ok = all(dual._product(fi.items(), fj.items()) == (fi if i == j else {})
             for i, fi in raw for j, fj in raw)
    eps_sum = sum_scaled(ops, [(ops.one, fi) for _, fi in raw])
    sum_is_counit = eps_sum == dict(sparse_raw(ops, obj.counit_raw))
    facts["orthonormal"] = ok and sum_is_counit
    facts["sum_is_counit"] = sum_is_counit
    return (0 if facts["orthonormal"] else 1), facts


def _cmd_exponent(obj, args):
    h = _need_hopf(obj)
    rep = h.exponent(args.cap)
    facts = _base_facts("exponent", obj)
    facts["cap"] = rep.cap
    facts["outcome"] = rep.kind
    facts["exponent"] = rep.n
    if rep.kind == "exceeds_cap":
        note = h.classify_exponent(args.cap)
        facts["note"] = {
            "classification": note.kind,
            "criterion": note.criterion,
        }
        if note.bound is not None:
            facts["note"]["bound"] = note.bound
    return 0, facts


def _cmd_hopf_order(obj, args):
    h = _need_hopf(obj)
    if args.element is None:
        raise InputError("hopf-order needs --element")
    el = _parse_element(h, args.element)
    cap = args.cap
    order = h.hopf_order(el, cap)
    facts = _base_facts("hopf-order", obj)
    facts["element"] = h._format_raw(el.raw)
    facts["order"] = order
    facts["exceeded_cap"] = order is None
    return 0, facts


def _cmd_integral(obj, args):
    h = _need_hopf(obj)
    tr = h.integral_trace()
    db = h.integral_dual_basis()
    facts = _base_facts("integral", obj)
    facts["trace_form"] = h._format_raw(tr.element.raw)
    facts["dual_basis_form"] = h._format_raw(db.element.raw)
    agree = tr.element == db.element
    facts["agree"] = agree
    facts["left_integral_verified"] = tr.asserted
    try:
        dec = h.cosemisimple_integral_decomposition()
        facts["cosemisimple_decomposition"] = [
            {"simple": idx, "coefficient": r, "trace": h._format_raw(t.raw)}
            for idx, r, t in dec.terms
        ]
    except NotCosemisimple:
        pass
    return (0 if agree else 1), facts


def _cmd_mult_matrix(obj, args):
    if not args.simple:
        raise InputError("mult-matrix needs --simple INDEX")
    simples = obj.simple_subcoalgebras()
    idx = args.simple[0]
    if not 0 <= idx < len(simples):
        raise InputError(f"simple index {idx} out of range "
                         f"(object has {len(simples)})")
    basic = basic_multiplicative_matrix(obj, simples[idx])
    facts = _base_facts("mult-matrix", obj)
    facts["simple"] = idx
    facts["size"] = basic.matrix.nrows
    facts["matrix"] = _matrix_rows(obj, basic.matrix)
    facts["multiplicative"] = is_multiplicative(basic.matrix)
    return (0 if facts["multiplicative"] else 1), facts


def _cmd_decompose(obj, args):
    if args.element is None:
        raise InputError("decompose needs --element")
    if not args.simple or len(args.simple) != 2:
        raise InputError("decompose needs --simple LEFT --simple RIGHT")
    simples = obj.simple_subcoalgebras()
    ci, di = args.simple
    for idx in (ci, di):
        if not 0 <= idx < len(simples):
            raise InputError(f"simple index {idx} out of range")
    el = _parse_element(obj, args.element)
    cb = basic_multiplicative_matrix(obj, simples[ci])
    db = cb if di == ci else basic_multiplicative_matrix(obj, simples[di])
    dec = primitive_decompose(el, cb, db)
    facts = _base_facts("decompose", obj)
    facts["element"] = obj._format_raw(el.raw)
    facts["left_simple"] = ci
    facts["right_simple"] = di
    facts["remainder"] = obj._format_raw(dec.remainder.raw)
    facts["matrices"] = [
        {"block": f"({ip}, {jp})",
         "rows": _matrix_rows(obj, dec.matrix(ip, jp))}
        for ip in range(len(dec.matrices))
        for jp in range(len(dec.matrices[0]))
    ]
    return 0, facts


def _cmd_extend(obj, args):
    for flag, val in (("--element", args.element),
                      ("--grouplike-left", args.grouplike_left),
                      ("--grouplike-right", args.grouplike_right),
                      ("--degree", args.degree)):
        if val is None:
            raise InputError(f"extend needs {flag}")
    if args.degree < 1:
        raise InputError("--degree must be positive")
    z = _parse_element(obj, args.element)
    g = _parse_element(obj, args.grouplike_left)
    h = _parse_element(obj, args.grouplike_right)
    ext = extend_coalgebra(obj, g, h, z, args.degree)
    res = ext.result
    facts = _base_facts("extend", obj)
    facts["degree"] = ext.n
    facts["result_dimension"] = res.dim
    facts["new_basis"] = list(ext.new_basis)
    facts["witnesses"] = [
        {"order": w.nrows, "rows": _matrix_rows(res, w)}
        for w in ext.witnesses
    ]
    facts["designated_sum"] = res._format_raw(ext.designated_sum().raw)
    facts["coradical_unchanged"] = \
        res.coradical().dim == obj.coradical().dim
    return 0, facts


def _cmd_theorem_check(obj, args):
    h = _need_hopf(obj)
    rep = h.classify_exponent(args.cap)
    facts = _base_facts("theorem-check", obj)
    facts["outcome"] = rep.kind
    facts["exponent"] = rep.n
    facts["bound"] = rep.bound
    facts["cap"] = rep.cap
    facts["criterion"] = rep.criterion
    if rep.witness is not None:
        facts["witness"] = h._format_raw(rep.witness.raw)
    facts["steps"] = [str(s) for s in rep.steps]
    return 0, facts


def _cmd_zoo_dump(args):
    try:
        obj = build_named(args.name)
    except HopfexError as exc:
        raise InputError(str(exc))
    text = emit_structure_file(structure_from_object(obj))
    facts = {
        "command": "zoo-dump",
        "name": args.name,
        "structure_file": text,
    }
    return 0, facts


_HANDLERS = {
    "validate": _cmd_validate,
    "coradical": _cmd_coradical,
    "filtration": _cmd_filtration,
    "simples": _cmd_simples,
    "idempotents": _cmd_idempotents,
    "exponent": _cmd_exponent,
    "hopf-order": _cmd_hopf_order,
    "integral": _cmd_integral,
    "mult-matrix": _cmd_mult_matrix,
    "decompose": _cmd_decompose,
    "extend": _cmd_extend,
    "theorem-check": _cmd_theorem_check,
}


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, report text).

    Raises SystemExit only through argparse (unknown flags or
    subcommands), matching the exit-2 input-error contract.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "zoo-dump":
            code, facts = _cmd_zoo_dump(args)
        else:
            obj = _load(args.file)
            if args.field_extend is not None:
                obj = _field_extend(obj, args.field_extend)
            if args.cap is not None and args.cap < 1:
                raise InputError("--cap must be positive")
            code, facts = _HANDLERS[args.command](obj, args)
    except InputError as exc:
        return 2, f"input error: {exc}\n"
    except HopfexError as exc:
        return 1, f"{type(exc).__name__}: {exc}\n"
    return code, _report(facts, args.json)


def main(argv=None) -> int:
    code, text = run_command(argv if argv is not None else sys.argv[1:])
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
