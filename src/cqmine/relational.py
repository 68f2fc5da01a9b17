"""Relational schemas and database instances with set semantics.

A schema declares named relations with fixed arity and column names; an
instance assigns each relation a finite set of constant tuples.  Both are
immutable once loaded.
"""

from __future__ import annotations

import codecs
import csv
import re
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, SchemaError

_DECL_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<cols>[^()]*)\s*\)$"
)
_COL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class RelationDecl(NamedTuple):
    """A single relation declaration: name, arity and column names."""

    name: str
    columns: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.columns)


class Schema:
    """An ordered collection of relation declarations with unique names."""

    __slots__ = ("relations", "_by_name")

    def __init__(self, relations: tuple[RelationDecl, ...]) -> None:
        by_name: dict[str, RelationDecl] = {}
        for decl in relations:
            if decl.name in by_name:
                raise SchemaError(f"duplicate relation name: {decl.name!r}")
            if decl.arity < 1:
                raise SchemaError(f"relation {decl.name!r} must have arity >= 1")
            by_name[decl.name] = decl
        self.relations = relations
        self._by_name = by_name

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def relation(self, name: str) -> RelationDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation: {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(decl.name for decl in self.relations)


class Instance:
    """A database instance: one frozen set of rows per schema relation.

    Rows are tuples of strings; duplicates are collapsed by construction.

    Two tables belong to the evaluator (see ``cqmine.evaluation``) and live
    as long as the instance.  ``component_counts`` holds each connected
    component of a query body counted on this instance, keyed so that
    renaming leaves the key unchanged, with its counts by its placeholders'
    values.  ``indexes`` holds the rows of a relation that match an atom's
    argument pattern, grouped by the values of its bound variables, keyed by
    relation and pattern.
    """

    __slots__ = ("schema", "tables", "component_counts", "indexes")

    def __init__(
        self, schema: Schema, tables: dict[str, frozenset[tuple[str, ...]]]
    ) -> None:
        self.schema = schema
        self.tables: dict[str, frozenset[tuple[str, ...]]] = {}
        for decl in schema.relations:
            rows = frozenset(tables.get(decl.name, frozenset()))
            for row in rows:
                if len(row) != decl.arity:
                    raise DataError(
                        f"relation {decl.name!r}: row {row!r} has width "
                        f"{len(row)}, expected {decl.arity}"
                    )
            self.tables[decl.name] = rows
        self.component_counts: dict[tuple, dict[tuple[str, ...], int]] = {}
        self.indexes: dict[tuple, dict[tuple[str, ...], list[tuple[str, ...]]]] = {}


def load_schema(path: str | Path) -> Schema:
    """Parse a schema file: one ``name(col1, col2, ...)`` declaration per line.

    Blank lines and ``#`` comments are ignored, as is a leading UTF-8 byte
    order mark.
    """
    path = Path(path)
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
        text = data.decode("utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
    decls: list[RelationDecl] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECL_RE.match(line)
        if m is None:
            raise SchemaError(f"{path}:{lineno}: cannot parse declaration: {raw!r}")
        cols = tuple(c.strip() for c in m.group("cols").split(",") if c.strip())
        if not cols:
            raise SchemaError(f"{path}:{lineno}: relation {m.group('name')!r} has no columns")
        for col in cols:
            if not _COL_RE.match(col):
                raise SchemaError(f"{path}:{lineno}: bad column name {col!r}")
        if len(set(cols)) != len(cols):
            raise SchemaError(f"{path}:{lineno}: duplicate column name in {m.group('name')!r}")
        decls.append(RelationDecl(m.group("name"), cols))
    if not decls:
        raise SchemaError(f"{path}: schema declares no relations")
    return Schema(tuple(decls))


def load_instance(schema: Schema, data_dir: str | Path) -> Instance:
    """Load one headerless ``<relation>.csv`` file per schema relation.

    A leading UTF-8 byte order mark is skipped rather than read as part of
    the first value.  Unreadable, non-UTF-8 or malformed files raise ``DataError``.
    """
    data_dir = Path(data_dir)
    tables: dict[str, frozenset[tuple[str, ...]]] = {}
    for decl in schema.relations:
        csv_path = data_dir / f"{decl.name}.csv"
        rows: set[tuple[str, ...]] = set()
        try:
            with open(csv_path, newline="", encoding="utf-8-sig") as handle:
                reader = csv.reader(handle)
                for record in reader:
                    if not record:
                        continue
                    if len(record) != decl.arity:
                        raise DataError(
                            f"{csv_path}:{reader.line_num}: expected {decl.arity} "
                            f"fields, got {len(record)}"
                        )
                    rows.add(tuple(record))
        except OSError as exc:
            raise DataError(f"data file of relation {decl.name!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{csv_path}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:
            raise DataError(f"{csv_path}:{reader.line_num}: {exc}") from exc
        tables[decl.name] = frozenset(rows)
    return Instance(schema, tables)
