"""Structure-file parsing and canonical emission."""

import pytest

from golden_defs import golden_objects
from hopfex import GF
from hopfex.errors import (DuplicateEntry, IndexOutOfRange, ScalarParseError,
                           StructureFileError)
from hopfex.structfile import (HEADER, emit_structure_file,
                               parse_structure_file, structure_from_object)

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
    assert sf.is_bialgebra()
    assert obj.mul_table == want.mul_table
    assert obj.check_hopf() == []


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
    assert sf.dim == 1 and not sf.is_bialgebra()
    obj = sf.to_object()
    assert obj.check() == []


def test_parse_coalgebra_only_file(zoo, golden_dir):
    # strip the algebra directives from a golden: still a valid coalgebra
    text = (golden_dir / "kZ2.hopf").read_text()
    kept = [ln for ln in text.splitlines()
            if not ln.startswith(("mul ", "unit ", "antipode "))]
    sf = parse_structure_file("\n".join(kept) + "\n")
    assert not sf.is_bialgebra()
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


def test_scalar_tokens_parse_once_per_file():
    sf = parse_structure_file(GROUPLIKES.format(last="1"))
    ones = [sf.counit[0], sf.comul[(0, 0, 0)], sf.comul[(1, 1, 1)]]
    assert all(s is ones[0] for s in ones)
    assert sf.counit[1] == ones[0] and sf.counit[1] is not ones[0]
    assert all(type(s.val) is int for s in ones + [sf.counit[1]])
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
