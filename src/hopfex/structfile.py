"""The hopfex structure-constant file format.

One self-describing text format carries a coalgebra, bialgebra or Hopf
algebra by its structure constants:

    hopfex structure v1
    name sweedler over Q            (optional, rest of line verbatim)
    field characteristic 0
    field cyclotomic 3              (optional, char 0 shorthand)
    field modulus 1 0 1             (optional, constant term first)
    dim 4
    basis 1 g x gx
    counit 1 1 0 0
    comul 0 0 0 1                   (i j k scalar: e_i -> e_j (x) e_k)
    ...
    mul 0 0 0 1                     (optional block: e_i e_j = sum e_m)
    unit 1 0 0 0                    (required with mul)
    antipode 1 1 1                  (optional: S(e_i) = sum scalar e_m)

Scalars are fractions ('2', '-5/7'), exact decimals ('0.5', '1e3') or,
in extension fields, coefficient lists of those, constant-first
('[0,1]').  A literal whose numerator or denominator would have more
digits than sys.get_int_max_str_digits() allows is a ScalarParseError.
Each distinct scalar token is parsed once per file, straight to a raw
field value (FieldSpec.parse_raw): a StructureFile holds raw tables and
makes no Scalar, and neither does the emitter.  '#' starts a comment;
blank lines are ignored.  The emitter is canonical: fixed directive
order, sparse blocks sorted by index, zero entries omitted, full-length
coefficient lists.  Canonical files round-trip byte-identically through
parse and emit.

Presence of mul and unit makes the file a bialgebra; antipode makes it
a Hopf algebra.  Parsing reports the first error with its line number.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .coalgebra import Coalgebra
from .errors import (
    DuplicateEntry,
    IndexOutOfRange,
    ScalarParseError,
    StructureFileError,
)
from .hopf import HopfAlgebra
from .scalars import FieldSpec, parse_rational

HEADER = "hopfex structure v1"


class StructureFile:
    """Parsed contents of a structure-constant file, held as raw field
    values in the forms the of_raw constructors take.

    comul[i] is Delta(e_i) as {(j, k): raw value} and counit the raw
    eps(e_i); mul (when present) maps (i, j, m) to the raw c of
    e_i e_j = sum c e_m and unit is the raw unit vector; antipode (when
    present) holds S(e_i) = sum c e_m as the columns {i: {m: raw c}},
    one per i.  No table holds a zero.
    """

    __slots__ = ("field", "names", "counit", "comul", "mul", "unit",
                 "antipode", "name")

    def __init__(self, field: FieldSpec, names, counit, comul, mul=None,
                 unit=None, antipode=None, name: str = ""):
        self.field = field
        self.names = tuple(names)
        self.counit = tuple(counit)
        self.comul = tuple(comul)
        self.mul = mul
        self.unit = tuple(unit) if unit is not None else None
        self.antipode = antipode
        self.name = name

    @property
    def dim(self) -> int:
        return len(self.names)

    def to_object(self):
        """Build the Coalgebra or HopfAlgebra the file describes, anew on
        every call, from the raw tables as they are."""
        if self.mul is None:
            return Coalgebra.of_raw(self.field, self.names, self.comul,
                                    self.counit, name=self.name)
        return HopfAlgebra.of_raw(
            self.field, self.names, self.comul, self.counit,
            FiniteAlgebra.of_raw(self.field, self.dim, self.mul, self.unit),
            self.antipode, name=self.name)

    def __repr__(self):
        kind = "coalgebra"
        if self.mul is not None:
            kind = "Hopf algebra" if self.antipode is not None else "bialgebra"
        return f"<StructureFile {kind} dim={self.dim}>"


def structure_from_object(obj: Coalgebra) -> StructureFile:
    """The raw structure constants of a coalgebra or Hopf algebra."""
    mul = unit = antipode = None
    if isinstance(obj, HopfAlgebra):
        mul, unit = obj.algebra.raw_constants(), obj.algebra.unit_raw
        antipode = obj.antipode_raw
    return StructureFile(obj.field, obj.names, obj.counit_raw, obj.comul_raw,
                         mul, unit, antipode, name=obj.name)


# ---------------------------------------------------------------------------
# emitter
# ---------------------------------------------------------------------------

def _check_name_token(name: str):
    if not name or any(ch.isspace() for ch in name) or "#" in name:
        raise StructureFileError(
            f"basis name {name!r} cannot be written as a file token")


def emit_structure_file(sf: StructureFile) -> str:
    """Canonical text for a StructureFile; parse(emit(sf)) reproduces sf."""
    field, fmt = sf.field, sf.field.format_raw
    out = [HEADER]
    if sf.name:
        out.append(f"name {sf.name}")
    out.append(f"field characteristic {field.char}")
    if field.cyclotomic_order is not None:
        out.append(f"field cyclotomic {field.cyclotomic_order}")
    elif field.modulus is not None:
        out.append("field modulus "
                   + " ".join(map(str, field.modulus)))
    out.append(f"dim {sf.dim}")
    for name in sf.names:
        _check_name_token(name)
    out.append("basis " + " ".join(sf.names))
    out.append("counit " + " ".join(map(fmt, sf.counit)))
    for i, delta in enumerate(sf.comul):
        for (j, k) in sorted(delta):
            out.append(f"comul {i} {j} {k} {fmt(delta[(j, k)])}")
    if sf.mul is not None:
        for (i, j, m) in sorted(sf.mul):
            out.append(f"mul {i} {j} {m} {fmt(sf.mul[(i, j, m)])}")
        out.append("unit " + " ".join(map(fmt, sf.unit)))
        for i in sorted(sf.antipode or ()):
            col = sf.antipode[i]
            for m in sorted(col):
                out.append(f"antipode {i} {m} {fmt(col[m])}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.name = ""
        self.char: int | None = None
        self.modulus = None
        self.cyclotomic = None
        self.field: FieldSpec | None = None
        self.dim: int | None = None
        self.names = None
        self.counit = None
        self.comul: list = []  # Delta(e_i) for each i, from dim on
        self.mul: dict = {}
        self.unit = None
        self.antipode: dict = {}  # the column of each i, from dim on
        # token -> raw value: a file repeats a few distinct scalar
        # tokens many times; only successful parses are kept
        self.scalars: dict = {}

    def fail(self, msg: str, lineno: int, cls=StructureFileError):
        raise cls(msg, line=lineno)

    def need_field(self, lineno: int) -> FieldSpec:
        if self.field is None:
            if self.char is None:
                self.fail("field characteristic must be declared first",
                          lineno)
            try:
                self.field = FieldSpec(self.char, modulus=self.modulus,
                                       cyclotomic_order=self.cyclotomic)
            except Exception as exc:
                self.fail(f"invalid field declaration: {exc}", lineno)
        return self.field

    def need_dim(self, lineno: int) -> int:
        if self.dim is None:
            self.fail("dim must be declared first", lineno)
        return self.dim

    def parse_int(self, tok: str, what: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            self.fail(f"{what} must be an integer, got {tok!r}", lineno)

    def parse_index(self, tok: str, lineno: int) -> int:
        i = self.parse_int(tok, "index", lineno)
        if not 0 <= i < self.need_dim(lineno):
            self.fail(f"index {i} out of range for dimension {self.dim}",
                      lineno, IndexOutOfRange)
        return i

    def parse_scalar(self, tok: str, lineno: int):
        s = self.scalars.get(tok)
        if s is None:
            field = self.need_field(lineno)
            try:
                s = self.scalars[tok] = field.parse_raw(tok)
            except ScalarParseError as exc:
                self.fail(str(exc), lineno, ScalarParseError)
        return s

    def parse_vector(self, toks, what: str, lineno: int):
        if len(toks) != self.need_dim(lineno):
            self.fail(f"{what} needs {self.dim} entries, got {len(toks)}",
                      lineno)
        return tuple(self.parse_scalar(t, lineno) for t in toks)

    def run(self) -> StructureFile:
        seen_header = False
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if not seen_header:
                if line.strip() != HEADER:
                    self.fail(f"first line must be {HEADER!r}", lineno)
                seen_header = True
                continue
            if line.startswith("name "):
                self.name = line[len("name "):]
                continue
            toks = line.split()
            head = toks[0]
            if head == "field":
                self.handle_field(toks, lineno)
            elif head == "dim":
                self.handle_dim(toks, lineno)
            elif head == "basis":
                self.handle_basis(toks, lineno)
            elif head == "counit":
                self.counit = self.parse_vector(toks[1:], "counit", lineno)
            elif head == "comul":
                self.handle_triple(toks, lineno, "comul")
            elif head == "mul":
                self.handle_triple(toks, lineno, "mul")
            elif head == "unit":
                self.unit = self.parse_vector(toks[1:], "unit", lineno)
            elif head == "antipode":
                self.handle_antipode(toks, lineno)
            else:
                self.fail(f"unknown directive {head!r}", lineno)
        if not seen_header:
            self.fail("empty file", 1)
        return self.finish()

    def handle_field(self, toks, lineno: int):
        if self.field is not None:
            self.fail("field block must come before any scalars", lineno)
        if len(toks) < 3:
            self.fail("field directive needs a kind and a value", lineno)
        kind = toks[1]
        if kind == "characteristic":
            if len(toks) != 3:
                self.fail("field characteristic takes one integer", lineno)
            if self.char is not None:
                self.fail("duplicate field characteristic", lineno,
                          DuplicateEntry)
            self.char = self.parse_int(toks[2], "characteristic", lineno)
        elif kind == "modulus":
            if self.modulus is not None:
                self.fail("duplicate field modulus", lineno, DuplicateEntry)
            try:
                self.modulus = [parse_rational(t) for t in toks[2:]]
            except (ValueError, ZeroDivisionError):
                self.fail("modulus coefficients must be fractions", lineno,
                          ScalarParseError)
        elif kind == "cyclotomic":
            if len(toks) != 3:
                self.fail("field cyclotomic takes one integer", lineno)
            if self.cyclotomic is not None:
                self.fail("duplicate field cyclotomic", lineno,
                          DuplicateEntry)
            self.cyclotomic = self.parse_int(toks[2], "cyclotomic order",
                                             lineno)
        else:
            self.fail(f"unknown field directive {kind!r}", lineno)

    def handle_dim(self, toks, lineno: int):
        if self.dim is not None:
            self.fail("duplicate dim", lineno, DuplicateEntry)
        if len(toks) != 2:
            self.fail("dim takes one integer", lineno)
        d = self.parse_int(toks[1], "dim", lineno)
        if d < 1:
            self.fail("dim must be positive", lineno)
        self.dim = d
        self.comul = [{} for _ in range(d)]
        self.antipode = {i: {} for i in range(d)}
        self.need_field(lineno)

    def handle_basis(self, toks, lineno: int):
        if self.names is not None:
            self.fail("duplicate basis", lineno, DuplicateEntry)
        names = toks[1:]
        if len(names) != self.need_dim(lineno):
            self.fail(f"basis needs {self.dim} names, got {len(names)}",
                      lineno)
        if len(set(names)) != len(names):
            self.fail("basis names must be distinct", lineno, DuplicateEntry)
        self.names = tuple(names)

    def handle_triple(self, toks, lineno: int, what: str):
        if len(toks) != 5:
            self.fail(f"{what} takes three indices and a scalar", lineno)
        i = self.parse_index(toks[1], lineno)
        j = self.parse_index(toks[2], lineno)
        k = self.parse_index(toks[3], lineno)
        table, key = ((self.mul, (i, j, k)) if what == "mul"
                      else (self.comul[i], (j, k)))
        if key in table:
            self.fail(f"duplicate {what} entry ({i}, {j}, {k})", lineno,
                      DuplicateEntry)
        table[key] = self.parse_scalar(toks[4], lineno)

    def handle_antipode(self, toks, lineno: int):
        if len(toks) != 4:
            self.fail("antipode takes two indices and a scalar", lineno)
        i = self.parse_index(toks[1], lineno)
        m, col = self.parse_index(toks[2], lineno), self.antipode[i]
        if m in col:
            self.fail(f"duplicate antipode entry ({i}, {m})", lineno,
                      DuplicateEntry)
        col[m] = self.parse_scalar(toks[3], lineno)

    def finish(self) -> StructureFile:
        last = len(self.lines)
        if self.dim is None:
            self.fail("missing dim", last)
        if self.names is None:
            self.fail("missing basis", last)
        if self.counit is None:
            self.fail("missing counit", last)
        if not any(self.comul):
            self.fail("missing comul block", last)
        # tables keep explicit zeros so far: a block that appeared is not empty
        has_mul, has_antipode = bool(self.mul), any(self.antipode.values())
        if has_mul and self.unit is None:
            self.fail("mul block without a unit vector", last)
        if self.unit is not None and not has_mul:
            self.fail("unit vector without a mul block", last)
        if has_antipode and not has_mul:
            self.fail("antipode without a mul block", last)
        # explicit zeros are dropped only now, after the duplicate checks
        is_zero = self.field.ops.is_zero

        def nonzero(table: dict) -> dict:
            return {key: c for key, c in table.items() if not is_zero(c)}

        return StructureFile(
            self.field, self.names, self.counit, map(nonzero, self.comul),
            nonzero(self.mul) if has_mul else None, self.unit,
            {i: nonzero(col) for i, col in self.antipode.items()}
            if has_antipode else None, name=self.name)


def parse_structure_file(text: str) -> StructureFile:
    """Parse structure-file text; report the first error with its line."""
    return _Parser(text).run()
