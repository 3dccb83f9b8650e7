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
('[0,1]').  Each distinct scalar token is parsed once per file.  '#'
starts a comment; blank lines are ignored.  The emitter is canonical: fixed directive order, sparse blocks
sorted by index, zero entries omitted, full-length coefficient lists.
Canonical files round-trip byte-identically through parse and emit.

Presence of mul and unit makes the file a bialgebra; antipode makes it
a Hopf algebra.  Parsing reports the first error with its line number.
"""

from __future__ import annotations

from fractions import Fraction

from .coalgebra import Coalgebra
from .errors import (
    DuplicateEntry,
    IndexOutOfRange,
    ScalarParseError,
    StructureFileError,
)
from .hopf import HopfAlgebra
from .scalars import FieldSpec

HEADER = "hopfex structure v1"


class StructureFile:
    """Parsed contents of a structure-constant file.

    comul maps (i, j, k) to a scalar, mul (when present) maps (i, j, m),
    antipode (when present) maps (i, m) with S(e_i) = sum scalar e_m.
    """

    __slots__ = ("field", "names", "counit", "comul", "mul", "unit",
                 "antipode", "name")

    def __init__(self, field: FieldSpec, names, counit, comul, mul=None,
                 unit=None, antipode=None, name: str = ""):
        self.field = field
        self.names = tuple(names)
        self.counit = tuple(counit)
        self.comul = dict(comul)
        self.mul = dict(mul) if mul is not None else None
        self.unit = tuple(unit) if unit is not None else None
        self.antipode = dict(antipode) if antipode is not None else None
        self.name = name

    @property
    def dim(self) -> int:
        return len(self.names)

    def is_bialgebra(self) -> bool:
        return self.mul is not None

    def to_object(self):
        """Build the Coalgebra or HopfAlgebra the file describes."""
        if self.mul is None:
            return Coalgebra(self.field, self.names, self.comul, self.counit,
                             name=self.name)
        return HopfAlgebra(self.field, self.names, self.comul, self.counit,
                           self.mul, self.unit, self.antipode, name=self.name)

    def __repr__(self):
        kind = "coalgebra"
        if self.mul is not None:
            kind = "Hopf algebra" if self.antipode is not None else "bialgebra"
        return f"<StructureFile {kind} dim={self.dim}>"


def structure_from_object(obj: Coalgebra) -> StructureFile:
    """Extract the structure constants of a coalgebra or Hopf algebra."""
    comul = {}
    for i in range(obj.dim):
        for (j, k), c in obj.comul[i].items():
            comul[(i, j, k)] = c
    mul = None
    unit = None
    antipode = None
    if isinstance(obj, HopfAlgebra):
        mul = {}
        for i in range(obj.dim):
            for j in range(obj.dim):
                for m, c in enumerate(obj.mul_table[i][j]):
                    if not c.is_zero():
                        mul[(i, j, m)] = c
        unit = obj.unit
        if obj.antipode_mat is not None:
            antipode = {}
            for i in range(obj.dim):
                col = obj.antipode_mat.column(i)
                for m, c in enumerate(col):
                    if not c.is_zero():
                        antipode[(i, m)] = c
    return StructureFile(obj.field, obj.names, obj.counit, comul, mul, unit,
                         antipode, name=obj.name)


# ---------------------------------------------------------------------------
# emitter
# ---------------------------------------------------------------------------

def _check_name_token(name: str):
    if not name or any(ch.isspace() for ch in name) or "#" in name:
        raise StructureFileError(
            f"basis name {name!r} cannot be written as a file token")


def emit_structure_file(sf: StructureFile) -> str:
    """Canonical text for a StructureFile; parse(emit(sf)) reproduces sf."""
    field = sf.field
    out = [HEADER]
    if sf.name:
        out.append(f"name {sf.name}")
    out.append(f"field characteristic {field.char}")
    if field.cyclotomic_order is not None:
        out.append(f"field cyclotomic {field.cyclotomic_order}")
    elif field.modulus is not None:
        out.append("field modulus "
                   + " ".join(str(Fraction(c)) for c in field.modulus))
    out.append(f"dim {sf.dim}")
    for name in sf.names:
        _check_name_token(name)
    out.append("basis " + " ".join(sf.names))
    out.append("counit " + " ".join(field.format(c) for c in sf.counit))
    for (i, j, k) in sorted(sf.comul):
        c = sf.comul[(i, j, k)]
        if not c.is_zero():
            out.append(f"comul {i} {j} {k} {field.format(c)}")
    if sf.mul is not None:
        for (i, j, m) in sorted(sf.mul):
            c = sf.mul[(i, j, m)]
            if not c.is_zero():
                out.append(f"mul {i} {j} {m} {field.format(c)}")
        out.append("unit " + " ".join(field.format(c) for c in sf.unit))
        if sf.antipode is not None:
            for (i, m) in sorted(sf.antipode):
                c = sf.antipode[(i, m)]
                if not c.is_zero():
                    out.append(f"antipode {i} {m} {field.format(c)}")
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
        self.comul: dict = {}
        self.mul: dict = {}
        self.unit = None
        self.antipode: dict = {}
        self.saw_mul = False
        self.saw_antipode = False
        # token -> Scalar: a file repeats a few distinct scalar tokens
        # many times; only successful parses are kept
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
                s = self.scalars[tok] = field.parse(tok)
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
                self.handle_triple(toks, lineno, self.comul, "comul")
            elif head == "mul":
                self.saw_mul = True
                self.handle_triple(toks, lineno, self.mul, "mul")
            elif head == "unit":
                self.unit = self.parse_vector(toks[1:], "unit", lineno)
            elif head == "antipode":
                self.saw_antipode = True
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
                self.modulus = [Fraction(t) for t in toks[2:]]
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

    def handle_triple(self, toks, lineno: int, table: dict, what: str):
        if len(toks) != 5:
            self.fail(f"{what} takes three indices and a scalar", lineno)
        i = self.parse_index(toks[1], lineno)
        j = self.parse_index(toks[2], lineno)
        k = self.parse_index(toks[3], lineno)
        if (i, j, k) in table:
            self.fail(f"duplicate {what} entry ({i}, {j}, {k})", lineno,
                      DuplicateEntry)
        table[(i, j, k)] = self.parse_scalar(toks[4], lineno)

    def handle_antipode(self, toks, lineno: int):
        if len(toks) != 4:
            self.fail("antipode takes two indices and a scalar", lineno)
        i = self.parse_index(toks[1], lineno)
        m = self.parse_index(toks[2], lineno)
        if (i, m) in self.antipode:
            self.fail(f"duplicate antipode entry ({i}, {m})", lineno,
                      DuplicateEntry)
        self.antipode[(i, m)] = self.parse_scalar(toks[3], lineno)

    def finish(self) -> StructureFile:
        last = len(self.lines)
        if self.dim is None:
            self.fail("missing dim", last)
        if self.names is None:
            self.fail("missing basis", last)
        if self.counit is None:
            self.fail("missing counit", last)
        if not self.comul:
            self.fail("missing comul block", last)
        if self.saw_mul and self.unit is None:
            self.fail("mul block without a unit vector", last)
        if self.unit is not None and not self.saw_mul:
            self.fail("unit vector without a mul block", last)
        if self.saw_antipode and not self.saw_mul:
            self.fail("antipode without a mul block", last)
        return StructureFile(
            self.field, self.names, self.counit, self.comul,
            self.mul if self.saw_mul else None,
            self.unit,
            self.antipode if self.saw_antipode else None,
            name=self.name)


def parse_structure_file(text: str) -> StructureFile:
    """Parse structure-file text; report the first error with its line."""
    return _Parser(text).run()
