"""Evaluation of conjunctive queries over an instance.

The answer of a query is the set of head tuples produced by matchings, where
a matching assigns a constant to every variable so that each body atom lands
on a row of its relation.  Support is the number of distinct answer tuples.

Queries with symbolic constants are evaluated grouped: each assignment of the
placeholders to constants gets its own support count.  Every query runs as
the SQL that ``cqmine.sqlgen`` renders, on the instance's sqlite3 database;
a database error becomes a ``QueryError``.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Callable

from .errors import QueryError
from .queries import ConjunctiveQuery, SymbolicConstant
from .relational import Instance
from .sqlgen import count_sql, emit_sql


def _fetch(
    render: Callable[..., str], query: ConjunctiveQuery, instance: Instance, **params
) -> list[tuple]:
    sql = render(query, instance.schema, params)
    try:
        return instance.database.execute(sql, params).fetchall()
    except sqlite3.Error as exc:
        raise QueryError(f"query cannot be evaluated: {exc}") from exc


def _require_plain(query: ConjunctiveQuery) -> None:
    if query.symbolic_constants():
        raise QueryError("query contains symbolic constants; use support_grouped")


def evaluate(query: ConjunctiveQuery, instance: Instance) -> frozenset[tuple[str, ...]]:
    """The answer set of a symbolic-constant-free query on an instance."""
    _require_plain(query)
    return frozenset(_fetch(emit_sql, query, instance))


def support(query: ConjunctiveQuery, instance: Instance) -> int:
    """Number of distinct answer tuples, counted without building them."""
    _require_plain(query)
    [(count,)] = _fetch(count_sql, query, instance)
    return count


@dataclass(frozen=True)
class GroupedSupport:
    """Per-assignment supports for a query with symbolic constants.

    ``counts`` maps a tuple of constant values — aligned with ``symbols``,
    which lists the query's symbolic constants in index order — to the
    support of the query instantiated at that assignment.
    """

    symbols: tuple[SymbolicConstant, ...]
    counts: dict[tuple[str, ...], int]

    def best(self) -> int:
        return max(self.counts.values(), default=0)

    def sorted_items(self) -> list[tuple[tuple[str, ...], int]]:
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def __bool__(self) -> bool:
        return bool(self.counts)


def support_grouped(
    query: ConjunctiveQuery, instance: Instance, minsup: int = 1
) -> GroupedSupport:
    """Grouped evaluation: support per symbolic-constant assignment.

    Assignments with support below ``minsup`` are omitted.
    """
    symbols = tuple(sorted(query.symbolic_constants(), key=lambda s: s.index))
    if not symbols:
        raise QueryError("query has no symbolic constants; use support/evaluate")
    rows = _fetch(emit_sql, query, instance, minsup=minsup)
    return GroupedSupport(symbols, {tuple(row[:-1]): row[-1] for row in rows})
