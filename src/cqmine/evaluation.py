"""Evaluation of conjunctive queries over an instance.

The answer of a query is the set of head tuples produced by matchings, where
a matching assigns a constant to every variable so that each body atom lands
on a row of its relation.  Support is the number of distinct answer tuples.

Every support is a grouped count: each assignment of the query's
placeholders to constants gets its own support, and a query without
placeholders has the one empty assignment ``()``.  Every query runs as the
SQL that ``cqmine.sqlgen`` renders, on the instance's sqlite3 database; a
database error becomes a ``QueryError``.

Supports are counted per connected component of the body, where atoms are
connected by shared variables and placeholders (constants link nothing).
The answer set is the Cartesian product of the components' answer sets, so
the support is the product of per-component counts: the number of distinct
projections onto the component's head variables, or 1 or 0 for whether a
component without head variables is satisfiable, each taken per assignment
of the component's placeholders.  A zero factor ends the count.
"""

from __future__ import annotations

import itertools
import math
import sqlite3

from .errors import QueryError
from .queries import (
    Atom,
    ConjunctiveQuery,
    SymbolicConstant,
    Term,
    Variable,
    check_against_schema,
)
from .relational import Instance
from .sqlgen import emit_sql, factor_sql


def _fetch(instance: Instance, sql: str, params: dict) -> list[tuple]:
    try:
        return instance.database.execute(sql, params).fetchall()
    except sqlite3.Error as exc:
        raise QueryError(f"query cannot be evaluated: {exc}") from exc


def _require_plain(query: ConjunctiveQuery) -> None:
    if query.symbolic_constants():
        raise QueryError("query contains symbolic constants; use support_grouped")


Component = tuple[tuple[Variable, ...], list[SymbolicConstant], list[Atom]]


def _components(query: ConjunctiveQuery) -> list[Component]:
    """The body's connected components: head variables in head order,
    placeholders in index order, and atoms.

    Atoms are connected when they share a variable or a placeholder.
    """
    holders: dict[Term, list[Atom]] = {}
    for atom in query.body:
        for term in atom.args:
            if term[0] != "c":
                holders.setdefault(term, []).append(atom)
    components = []
    seen: set[Atom] = set()
    for atom in sorted(query.body):
        if atom in seen:
            continue
        seen.add(atom)
        stack, atoms = [atom], []
        while stack:
            current = stack.pop()
            atoms.append(current)
            for term in current.args:
                for other in holders.get(term, ()):
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        terms = {term for member in atoms for term in member.args}
        head = tuple(v for v in query.head if v in terms)
        symbols = sorted((t for t in terms if t[0] == "s"), key=lambda s: s.index)
        components.append((head, symbols, atoms))
    return components


def _factor_rows(component: Component, instance: Instance, params: dict) -> list[tuple]:
    sql = factor_sql(*component, instance.schema, params)
    return _fetch(instance, sql, params)


def evaluate(query: ConjunctiveQuery, instance: Instance) -> frozenset[tuple[str, ...]]:
    """The answer set of a symbolic-constant-free query on an instance."""
    _require_plain(query)
    params: dict = {}
    return frozenset(_fetch(instance, emit_sql(query, instance.schema, params), params))


class GroupedSupport:
    """Per-assignment supports of a query.

    ``counts`` maps a tuple of constant values — aligned with ``symbols``,
    which lists the query's symbolic constants in index order — to the
    support of the query instantiated at that assignment.  A query without
    symbolic constants has ``symbols == ()`` and at most the one assignment
    ``()``.
    """

    __slots__ = ("symbols", "counts")

    def __init__(
        self, symbols: tuple[SymbolicConstant, ...], counts: dict[tuple[str, ...], int]
    ) -> None:
        self.symbols = symbols
        self.counts = counts

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

    This is the one support count; a query without symbolic constants is
    counted as its one assignment ``()``.  Assignments with support below
    ``minsup`` are omitted.  A single component is counted with the
    threshold in SQL; several are counted without one, and the products of
    their counts are filtered.
    """
    symbols = tuple(sorted(query.symbolic_constants(), key=lambda s: s.index))
    check_against_schema(query, instance.schema)
    components = _components(query)
    threshold = minsup if len(components) == 1 else 1
    order: list[SymbolicConstant] = []
    factors: list[dict[tuple[str, ...], int]] = []
    for component in components:
        rows = _factor_rows(component, instance, {"minsup": threshold})
        # a factor without placeholders is the one row (0,) when unsatisfiable
        counts = {tuple(row[:-1]): row[-1] for row in rows if row[-1]}
        if not counts:
            return GroupedSupport(symbols, {})
        order.extend(component[1])
        factors.append(counts)
    positions = [order.index(symbol) for symbol in symbols]
    counts = {}
    for parts in itertools.product(*(factor.items() for factor in factors)):
        count = math.prod(factor for _, factor in parts)
        if count >= minsup:
            values = [value for part, _ in parts for value in part]
            counts[tuple(values[i] for i in positions)] = count
    return GroupedSupport(symbols, counts)
