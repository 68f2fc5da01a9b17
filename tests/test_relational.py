from __future__ import annotations

import csv
from pathlib import Path

import pytest

from _oracle import active_domain, write_instance
from cqmine.errors import DataError, SchemaError
from cqmine.relational import (
    Instance,
    Schema,
    RelationDecl,
    load_instance,
    load_schema,
)

# ---------------------------------------------------------------------------
# schema parsing
# ---------------------------------------------------------------------------


def test_load_schema_beer(beer_schema):
    assert beer_schema.names() == ("likes", "visits", "serves")
    assert beer_schema.relation("likes").columns == ("drinker", "beer")
    assert beer_schema.relation("serves").arity == 2
    assert "visits" in beer_schema
    assert "drinks" not in beer_schema


def test_load_schema_comments_and_blanks(tmp_path: Path):
    path = tmp_path / "schema.txt"
    path.write_text("# top comment\n\nr(a, b, c)  # trailing\n\ns(x)\n")
    schema = load_schema(path)
    assert schema.names() == ("r", "s")
    assert schema.relation("r").arity == 3


@pytest.mark.parametrize(
    "text",
    [
        "r(a, b)\nr(c)\n",  # duplicate relation
        "r()\n",  # no columns
        "r(a, a)\n",  # duplicate column
        "r(a b)\n",  # bad column token
        "not a declaration\n",
        "",  # empty file
    ],
)
def test_load_schema_rejects(tmp_path: Path, text: str):
    path = tmp_path / "schema.txt"
    path.write_text(text)
    with pytest.raises(SchemaError):
        load_schema(path)


def test_schema_rejects_duplicate_names_and_empty_relations():
    with pytest.raises(SchemaError, match="duplicate relation name: 'r'"):
        Schema((RelationDecl("r", ("a",)), RelationDecl("r", ("b",))))
    with pytest.raises(SchemaError, match="relation 'r' must have arity >= 1"):
        Schema((RelationDecl("r", ()),))


def test_load_schema_not_utf8_names_file_and_line(tmp_path: Path):
    path = tmp_path / "schema.txt"
    path.write_bytes(b"r(a, b)\n# caf\xe9\ns(a)\n")
    with pytest.raises(SchemaError, match=r"schema\.txt:2: not UTF-8 text"):
        load_schema(path)


def test_schema_unknown_relation(beer_schema):
    with pytest.raises(SchemaError, match="drinks"):
        beer_schema.relation("drinks")


# ---------------------------------------------------------------------------
# instance loading
# ---------------------------------------------------------------------------


def test_load_instance_beer(beer_instance):
    assert len(beer_instance.tables["likes"]) == 6
    assert len(beer_instance.tables["visits"]) == 6
    assert len(beer_instance.tables["serves"]) == 6
    assert sum(len(rows) for rows in beer_instance.tables.values()) == 18
    assert ("Allen", "Duvel") in beer_instance.tables["likes"]
    assert ("Old Dutch", "Trappist") in beer_instance.tables["serves"]


def test_load_instance_collapses_duplicates(tmp_path: Path):
    (tmp_path / "schema.txt").write_text("r(a, b)\n")
    (tmp_path / "r.csv").write_text("1,2\n1,2\n3,4\n")
    schema = load_schema(tmp_path / "schema.txt")
    inst = load_instance(schema, tmp_path)
    assert inst.tables["r"] == frozenset({("1", "2"), ("3", "4")})


def test_load_instance_and_schema_skip_byte_order_mark(tmp_path: Path):
    (tmp_path / "schema.txt").write_text("\ufefflikes(drinker, beer)\n", encoding="utf-8")
    (tmp_path / "likes.csv").write_text(
        "\ufeffAlice,Duvel\nAlice,Westmalle\n", encoding="utf-8"
    )
    schema = load_schema(tmp_path / "schema.txt")
    assert schema.names() == ("likes",)
    inst = load_instance(schema, tmp_path)
    assert inst.tables["likes"] == frozenset({("Alice", "Duvel"), ("Alice", "Westmalle")})


def load_r(tmp_path: Path, data: bytes) -> frozenset[tuple[str, ...]]:
    (tmp_path / "schema.txt").write_text("r(a, b)\n")
    (tmp_path / "r.csv").write_bytes(data)
    return load_instance(load_schema(tmp_path / "schema.txt"), tmp_path).tables["r"]


def test_load_instance_keeps_blank_fields(tmp_path: Path):
    # an empty field is the empty string, a value like any other; only a
    # wholly empty line is skipped
    rows = load_r(tmp_path, b"a,\n,b\n\n,\n")
    assert rows == frozenset({("a", ""), ("", "b"), ("", "")})


def test_load_instance_quoted_commas(tmp_path: Path):
    rows = load_r(tmp_path, b'"Smith, J.",Duvel\n"say ""hi""",x\n')
    assert rows == frozenset({("Smith, J.", "Duvel"), ('say "hi"', "x")})


def test_load_instance_crlf_line_endings(tmp_path: Path):
    # CRLF and LF rows mix freely; a line break inside quotes is kept as is
    rows = load_r(tmp_path, b'a,b\r\nc,d\n\r\n"x\r\ny",z\r\n')
    assert rows == frozenset({("a", "b"), ("c", "d"), ("x\r\ny", "z")})


def test_load_instance_not_utf8_names_file(tmp_path: Path):
    with pytest.raises(DataError, match=r"r\.csv: not UTF-8 text"):
        load_r(tmp_path, b"a,b\ncaf\xe9,c\n")


def test_load_instance_oversized_field_names_file_and_line(tmp_path: Path):
    field = b"x" * (csv.field_size_limit() + 1)
    with pytest.raises(DataError, match=r"r\.csv:2: field larger than field limit"):
        load_r(tmp_path, b"a,b\n" + field + b",c\n")


def test_load_instance_missing_file(tmp_path: Path):
    (tmp_path / "schema.txt").write_text("r(a)\n")
    schema = load_schema(tmp_path / "schema.txt")
    with pytest.raises(DataError, match="'r'"):
        load_instance(schema, tmp_path)


def test_load_instance_width_mismatch(tmp_path: Path):
    (tmp_path / "schema.txt").write_text("r(a, b)\n")
    (tmp_path / "r.csv").write_text("1,2\n1,2,3\n")
    schema = load_schema(tmp_path / "schema.txt")
    with pytest.raises(DataError, match="expected 2 fields"):
        load_instance(schema, tmp_path)
    # the line is the file's, not the record's: a quoted field spans two
    (tmp_path / "r.csv").write_text('"x\ny",z\n1,2,3\n')
    with pytest.raises(DataError, match=r"r\.csv:3: expected 2 fields"):
        load_instance(schema, tmp_path)


def test_instance_constructor_checks_width():
    schema = Schema((RelationDecl("r", ("a", "b")),))
    with pytest.raises(DataError):
        Instance(schema, {"r": frozenset({("1",)})})


def test_write_instance_round_trip(beer_instance, tmp_path: Path):
    write_instance(beer_instance, tmp_path)
    again = load_instance(beer_instance.schema, tmp_path)
    assert again.tables == beer_instance.tables


# ---------------------------------------------------------------------------
# active domain
# ---------------------------------------------------------------------------


def test_active_domain_beer(beer_instance):
    assert active_domain(beer_instance, "likes", 0) == frozenset({"Allen", "Carol", "Bill"})
    assert active_domain(beer_instance, "likes", 1) == frozenset({"Duvel", "Trappist", "Jupiler"})
    assert active_domain(beer_instance, "visits", 1) == frozenset(
        {"Cheers", "California", "Old Dutch"}
    )


def test_active_domain_out_of_range(beer_instance):
    with pytest.raises(DataError):
        active_domain(beer_instance, "likes", 2)
    with pytest.raises(SchemaError):
        active_domain(beer_instance, "nope", 0)
