"""Structure-file parsing and canonical emission."""

import sys
import time
from fractions import Fraction

import pytest

from golden_defs import golden_objects
from hopfex import GF, FieldSpec
from hopfex.errors import (DuplicateEntry, IndexOutOfRange, ScalarParseError,
                           StructureFileError)
from hopfex.scalars import Scalar
from hopfex.structfile import (HEADER, emit_structure_file,
                               parse_structure_file, structure_from_object)
from lifting_cases import dense_table

STEMS = [stem for stem, _ in golden_objects()]


@pytest.mark.parametrize("stem", STEMS)
def test_golden_files_are_fresh(stem, zoo, golden_dir):
    """The stored goldens match re-emission from the builders exactly."""
    stored = (golden_dir / f"{stem}.hopf").read_text()
    fresh = emit_structure_file(structure_from_object(zoo[stem]))
    assert fresh == stored, f"{stem}.hopf is stale; regenerate the goldens"


@pytest.mark.parametrize("stem", STEMS)
def test_golden_roundtrip_byte_identical(stem, golden_dir):
    text = (golden_dir / f"{stem}.hopf").read_text()
    sf = parse_structure_file(text)
    assert emit_structure_file(sf) == text


@pytest.mark.parametrize("stem", STEMS)
def test_golden_objects_rebuild_and_validate(stem, zoo, golden_dir):
    sf = parse_structure_file((golden_dir / f"{stem}.hopf").read_text())
    obj = sf.to_object()
    want = zoo[stem]
    assert obj.dim == want.dim
    assert obj.field == want.field
    assert obj.comul == want.comul
    assert obj.counit == want.counit
    assert sf.mul is not None
    assert dense_table(obj.algebra) == dense_table(want.algebra)
    assert obj.check_hopf() == []


@pytest.mark.parametrize("stem", STEMS)
def test_building_a_golden_boxes_only_its_unit(stem, golden_dir,
                                               monkeypatch):
    # the structure file holds raw tables and of_raw stores them as they
    # are, the unit and the counit included, and neither the dual
    # algebra nor its quotient by the radical makes a Scalar
    sf = parse_structure_file((golden_dir / f"{stem}.hopf").read_text())
    made = []
    original = Scalar.__init__

    def counted(self, field, val):
        made.append(val)
        original(self, field, val)

    monkeypatch.setattr(Scalar, "__init__", counted)
    obj = sf.to_object()
    assert made == []
    dual = obj.dual_algebra()
    assert made == []
    with monkeypatch.context() as m:
        m.setattr(Scalar, "__init__", original)
        radical = dual.radical()
    del made[:]
    dual.quotient(radical)
    assert made == []
    # the counter does see the boxed view being read
    obj.comul
    assert made


def test_emit_is_deterministic(zoo):
    sf = structure_from_object(zoo["sweedler"])
    assert emit_structure_file(sf) == emit_structure_file(sf)


def test_parse_accepts_comments_and_blank_lines():
    text = (
        f"{HEADER}\n"
        "# a trivial one-dimensional coalgebra\n"
        "\n"
        "field characteristic 0\n"
        "dim 1\n"
        "basis e\n"
        "counit 1\n"
        "comul 0 0 0 1\n")
    sf = parse_structure_file(text)
    assert sf.dim == 1 and sf.mul is None
    obj = sf.to_object()
    assert obj.check() == []


def test_parse_coalgebra_only_file(zoo, golden_dir):
    # strip the algebra directives from a golden: still a valid coalgebra
    text = (golden_dir / "kZ2.hopf").read_text()
    kept = [ln for ln in text.splitlines()
            if not ln.startswith(("mul ", "unit ", "antipode "))]
    sf = parse_structure_file("\n".join(kept) + "\n")
    assert sf.mul is None
    assert sf.to_object().check() == []


def error_line(exc: StructureFileError):
    return exc.line


def test_parse_error_missing_header():
    with pytest.raises(StructureFileError) as ei:
        parse_structure_file("dim 1\n")
    assert "first line" in str(ei.value) and ei.value.line == 1


def test_parse_error_scalar_with_line_number():
    text = (
        f"{HEADER}\n"
        "field characteristic 0\n"
        "dim 1\n"
        "basis e\n"
        "counit bogus\n")
    with pytest.raises(ScalarParseError) as ei:
        parse_structure_file(text)
    assert ei.value.line == 5


def test_parse_error_index_out_of_range():
    text = (
        f"{HEADER}\n"
        "field characteristic 0\n"
        "dim 1\n"
        "basis e\n"
        "counit 1\n"
        "comul 0 0 5 1\n")
    with pytest.raises(IndexOutOfRange) as ei:
        parse_structure_file(text)
    assert ei.value.line == 6


def test_parse_error_duplicate_triple():
    text = (
        f"{HEADER}\n"
        "field characteristic 0\n"
        "dim 1\n"
        "basis e\n"
        "counit 1\n"
        "comul 0 0 0 1\n"
        "comul 0 0 0 1\n")
    with pytest.raises(DuplicateEntry) as ei:
        parse_structure_file(text)
    assert ei.value.line == 7


def test_parse_error_scalar_before_field():
    text = (
        f"{HEADER}\n"
        "dim 1\n"
        "basis e\n"
        "counit 1\n")
    with pytest.raises(StructureFileError):
        parse_structure_file(text)


def test_parse_error_wrong_basis_count():
    text = (
        f"{HEADER}\n"
        "field characteristic 0\n"
        "dim 2\n"
        "basis e\n")
    with pytest.raises(StructureFileError) as ei:
        parse_structure_file(text)
    assert ei.value.line == 4


def test_parse_error_mul_without_unit():
    text = (
        f"{HEADER}\n"
        "field characteristic 0\n"
        "dim 1\n"
        "basis e\n"
        "counit 1\n"
        "comul 0 0 0 1\n"
        "mul 0 0 0 1\n")
    with pytest.raises(StructureFileError):
        parse_structure_file(text)


def test_field_extension_scalars_roundtrip(zoo):
    text = emit_structure_file(structure_from_object(zoo["taft9"]))
    sf = parse_structure_file(text)
    assert sf.field == zoo["taft9"].field
    assert emit_structure_file(sf) == text
    assert "field cyclotomic 3" in text


def test_modulus_field_line():
    h = GF(3, modulus=[1, 0, 1])
    from hopfex.zoo import cyclic, group_algebra
    obj = group_algebra(cyclic(2), h)
    text = emit_structure_file(structure_from_object(obj))
    assert "field characteristic 3" in text
    assert "field modulus 1 0 1" in text
    sf = parse_structure_file(text)
    assert sf.field == h
    assert emit_structure_file(sf) == text


GROUPLIKES = (
    f"{HEADER}\n"
    "field characteristic 0\n"
    "dim 2\n"
    "basis a b\n"
    "counit 1 1.0\n"
    "comul 0 0 0 1\n"
    "comul 1 1 1 {last}\n")


def test_scalar_tokens_parse_once_per_file(monkeypatch):
    parsed = []
    original = FieldSpec.parse_raw

    def counted(self, tok):
        parsed.append(tok)
        return original(self, tok)

    monkeypatch.setattr(FieldSpec, "parse_raw", counted)
    sf = parse_structure_file(GROUPLIKES.format(last="1"))
    # '1' appears three times and '1.0' once: each token is parsed once,
    # and the two give the same raw value
    assert sorted(parsed) == ["1", "1.0"]
    ones = [sf.counit[0], sf.comul[0][(0, 0)], sf.comul[1][(1, 1)],
            sf.counit[1]]
    assert ones == [1] * 4 and all(type(s) is int for s in ones)
    assert sf.to_object().check() == []


def test_scalar_errors_keep_their_line_numbers():
    with pytest.raises(ScalarParseError) as ei:
        parse_structure_file(GROUPLIKES.format(last="1/0"))
    assert ei.value.line == 7 and "'1/0'" in str(ei.value)
    # a bad token that repeats is reported on its first line
    text = GROUPLIKES.format(last="x").replace("comul 0 0 0 1", "comul 0 0 0 x")
    with pytest.raises(ScalarParseError) as ei:
        parse_structure_file(text)
    assert ei.value.line == 6


@pytest.mark.parametrize("stem", STEMS)
def test_parse_build_and_emit_make_no_scalar(stem, golden_dir, monkeypatch):
    # parsing makes at most the one boxed_zero of the file's new field;
    # building the object, emitting it and, over a prime field, extending
    # its scalars make none
    text = (golden_dir / f"{stem}.hopf").read_text()
    made = []
    original = Scalar.__init__

    def counted(self, field, val):
        made.append(self)
        original(self, field, val)

    bigger = FieldSpec(0, cyclotomic_order=4)
    monkeypatch.setattr(Scalar, "__init__", counted)
    sf = parse_structure_file(text)
    assert made in ([], [sf.field.boxed_zero])
    assert not made or made[0] is sf.field.boxed_zero
    del made[:]
    obj = sf.to_object()
    assert emit_structure_file(sf) == text
    assert emit_structure_file(structure_from_object(obj)) == text
    if obj.field.char == 0 and obj.field.modulus is None:
        emit_structure_file(structure_from_object(obj.extend_scalars(bigger)))
    assert made == []


def test_to_object_builds_a_new_object_each_call(golden_dir):
    sf = parse_structure_file((golden_dir / "sweedler.hopf").read_text())
    a, b = sf.to_object(), sf.to_object()
    assert a is not b and a.comul == b.comul and a.check_hopf() == []


@pytest.mark.parametrize("block, first, second", [
    ("comul", "comul 1 0 0 0", "comul 1 0 0 1"),
    ("mul", "mul 0 0 0 0", "mul 0 0 0 1"),
    ("antipode", "antipode 0 0 0", "antipode 0 0 1")])
def test_explicit_zero_entries_count_as_duplicates(block, first, second):
    # a zero entry is dropped only after the duplicate check
    tail = "mul 0 0 0 1\nmul 1 1 1 1\nunit 1 1\n" if block != "mul" \
        else "mul 1 1 1 1\nunit 1 1\n"
    text = GROUPLIKES.format(last="1") + tail
    with pytest.raises(DuplicateEntry) as ei:
        parse_structure_file(text + f"{first}\n{second}\n")
    assert ei.value.line == text.count("\n") + 2
    assert str(ei.value).startswith(f"line {ei.value.line}: duplicate {block}")


def test_explicit_zero_entries_are_dropped():
    zeros = ["comul 1 0 0 0", "mul 0 1 0 0", "antipode 1 0 0"]
    lines = ["mul 0 0 0 1", "mul 1 1 1 1", "unit 1 1", "antipode 0 0 1",
             "antipode 1 1 1"]
    text = GROUPLIKES.format(last="1") + "\n".join(lines + zeros) + "\n"
    sf = parse_structure_file(text)
    assert sf.comul == ({(0, 0): 1}, {(1, 1): 1})
    assert sf.mul == {(0, 0, 0): 1, (1, 1, 1): 1}
    assert sf.antipode == {0: {0: 1}, 1: {1: 1}}
    obj = sf.to_object()
    assert obj.comul_raw == sf.comul and obj.antipode_raw == sf.antipode
    without = GROUPLIKES.format(last="1") + "\n".join(lines) + "\n"
    assert emit_structure_file(sf) == emit_structure_file(
        parse_structure_file(without))


HUGE_LITERALS = ["1e99999999", "1e-2000000", "1e5000", "-2.5E+4400",
                 "0e99999999", "1_0e9_999_999", "[1e5000]",
                 "1" + "0" * 5000]


@pytest.mark.parametrize("tok", HUGE_LITERALS)
def test_literals_beyond_the_digit_limit_are_parse_errors(tok):
    # the exponent is checked before its power of ten is formed, so each
    # fails at once and with its line, as a 5,001-digit integer does
    text = GROUPLIKES.format(last=tok)
    start = time.perf_counter()
    with pytest.raises(ScalarParseError) as ei:
        parse_structure_file(text)
    assert time.perf_counter() - start < 1
    assert ei.value.line == 7 and "cannot parse scalar" in str(ei.value)
    modulus = f"{HEADER}\nfield characteristic 0\nfield modulus {tok} 0 1\n"
    with pytest.raises(ScalarParseError) as ei:
        parse_structure_file(modulus.replace("[", "").replace("]", ""))
    assert ei.value.line == 3
    assert str(ei.value) == "line 3: modulus coefficients must be fractions"


def test_literals_at_the_digit_limit_still_parse():
    limit = sys.get_int_max_str_digits()
    q = GF(0)
    assert q.parse_raw(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert q.parse_raw(f"1e-{limit - 1}").denominator == 10 ** (limit - 1)
    for tok in (f"1e{limit}", f"1e-{limit}", f"0.5e{limit}"):
        with pytest.raises(ScalarParseError, match="exceeds"):
            q.parse_raw(tok)
    for tok, want in (("0.5", q.raw(Fraction(1, 2))), ("1e3", 1000),
                      ("1_000", 1000), ("-5/7", q.raw(Fraction(-5, 7))),
                      ("2.50e-1", q.raw(Fraction(1, 4)))):
        assert q.parse_raw(tok) == want
        assert q.parse(tok).val == want


def test_a_denominator_zero_in_the_field_is_a_parse_error():
    text = GROUPLIKES.format(last="1/3").replace(
        "characteristic 0", "characteristic 3")
    with pytest.raises(ScalarParseError) as ei:
        parse_structure_file(text)
    assert ei.value.line == 7 and "zero modulo 3" in str(ei.value)
