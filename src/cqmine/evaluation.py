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

An instance keeps one table of component counts
(``Instance.component_counts``), so a component runs as SQL once per
instance however many queries hold it.  Its key is left unchanged by
renaming: the component's ``queries.shape`` with the head unordered (a
count of distinct projections does not depend on head order); the shape
numbers of its placeholders in index order, since ``shape`` numbers them by
first occurrence and the values of two renamed components must line up; and
the least count the SQL keeps, its ``HAVING`` threshold or else 1.  Equal
shapes mean the components are renamings of each other, so sharing an entry
is exact.

A ``GroupedSupport`` keeps these counts as its factors and multiplies at
lookup: ``count`` gives the support at one assignment, and ``counts``
enumerates the assignments that meet the minimum support, from the factors'
counts in descending order, on first use.
"""

from __future__ import annotations

import sqlite3
from operator import itemgetter

from .errors import QueryError
from .queries import (
    Atom,
    ConjunctiveQuery,
    SymbolicConstant,
    Term,
    Variable,
    check_against_schema,
    shape,
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


def _component_counts(
    component: Component, instance: Instance, threshold: int
) -> dict[tuple[str, ...], int]:
    """The component's nonzero counts by its placeholders' values, in
    descending order of count, kept only from ``threshold`` on where the SQL
    applies one: from the instance's table, counted in SQL on a miss.  The
    dict is the table's own, and is never changed."""
    head, symbols, atoms = component
    numbers: dict[Term, int] = {}
    form = shape((head, atoms), False, numbers)
    if not (head and symbols):
        threshold = 1  # the SQL applies none, and every count kept is nonzero
    key = (form, tuple(map(numbers.__getitem__, symbols)), threshold)
    table = instance.component_counts
    counts = table.get(key)
    if counts is None:
        params = {"minsup": threshold}
        rows = _fetch(instance, factor_sql(*component, instance.schema, params), params)
        rows.sort(key=itemgetter(-1), reverse=True)
        # a factor without placeholders is the one row (0,) when unsatisfiable
        counts = table[key] = {tuple(row[:-1]): row[-1] for row in rows if row[-1]}
    return counts


def evaluate(query: ConjunctiveQuery, instance: Instance) -> frozenset[tuple[str, ...]]:
    """The answer set of a symbolic-constant-free query on an instance."""
    _require_plain(query)
    params: dict = {}
    return frozenset(_fetch(instance, emit_sql(query, instance.schema, params), params))


Factor = tuple[tuple[int, ...], dict[tuple[str, ...], int]]


class GroupedSupport:
    """Per-assignment supports of a query, kept as the factors they multiply.

    An assignment is a tuple of constant values aligned with ``symbols``,
    which lists the query's symbolic constants in index order.  A query
    without symbolic constants has ``symbols == ()`` and at most the one
    assignment ``()``.  ``factors`` holds one ``(positions, counts)`` pair
    per component counted: the positions in ``symbols`` of the component's
    placeholders, and the component's nonzero counts by their values, which
    ``support_grouped`` gives in descending order of count.  The support at
    an assignment is the product of the factors' counts at its values.  One
    factor always holds every placeholder in index order, or holds no count.

    ``counts`` maps every assignment whose support meets ``minsup`` to that
    support.  It is enumerated from the factors on first use, and then
    ``factors`` is dropped (``None``): from then on the counts answer
    ``count``.  The dicts are shared with the table of component counts,
    and ``counts`` may be a factor's own, so none is ever changed.
    """

    __slots__ = ("symbols", "factors", "minsup", "_counts")

    def __init__(
        self,
        symbols: tuple[SymbolicConstant, ...],
        factors: tuple[Factor, ...],
        minsup: int = 1,
    ) -> None:
        self.symbols = symbols
        self.factors: tuple[Factor, ...] | None = factors
        self.minsup = minsup
        self._counts: dict[tuple[str, ...], int] | None = None

    @property
    def counts(self) -> dict[tuple[str, ...], int]:
        counts = self._counts
        if counts is None:
            counts = _meeting(self.factors, len(self.symbols), self.minsup)
            self._counts, self.factors = counts, None
        return counts

    def count(self, values: tuple[str, ...]) -> int:
        """The support at ``values``, an assignment whose support meets
        ``minsup``, with nothing enumerated.  Elsewhere the factors or the
        counts may hold no count at the values, and that is a ``KeyError``.
        """
        factors = self.factors
        if factors is None:
            return self._counts[values]
        if len(factors) == 1:
            return factors[0][1][values]
        support = 1
        for positions, counts in factors:
            support *= counts[tuple(map(values.__getitem__, positions))]
        return support

    def best(self) -> int:
        return max(self.counts.values(), default=0)

    def sorted_items(self) -> list[tuple[tuple[str, ...], int]]:
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def __bool__(self) -> bool:
        return bool(self.counts)


def _meeting(
    factors: tuple[Factor, ...], width: int, minsup: int
) -> dict[tuple[str, ...], int]:
    """Every assignment of ``width`` values whose product of factor counts
    meets ``minsup``, with that product.

    Each factor's counts come in descending order, so a branch ends at the
    first count whose partial product, times the largest counts of the
    factors after it, falls below ``minsup``.  A partial product below
    ``minsup`` alone ends nothing: later factors multiply it by at least 1.
    One factor holds every placeholder in index order, and is served as it
    is when all its counts meet ``minsup``.
    """
    if len(factors) == 1:
        counts = factors[0][1]
        if not counts or next(reversed(counts.values())) >= minsup:
            return counts
        return {values: count for values, count in counts.items() if count >= minsup}
    if not all(counts for _, counts in factors):
        return {}
    # bounds[i]: the largest product of the factors from ``i`` on
    bounds = [1]
    for _, counts in reversed(factors):
        bounds.append(bounds[-1] * next(iter(counts.values())))
    bounds.reverse()
    last = len(factors) - 1
    slots: list[str] = [""] * width
    found: dict[tuple[str, ...], int] = {}

    def extend(i: int, product: int) -> None:
        positions, counts = factors[i]
        rest = bounds[i + 1]
        for values, count in counts.items():
            total = product * count
            if total * rest < minsup:
                break
            for position, value in zip(positions, values):
                slots[position] = value
            if i == last:
                found[tuple(slots)] = total
            else:
                extend(i + 1, total)

    extend(0, 1)
    return found


def support_grouped(
    query: ConjunctiveQuery, instance: Instance, minsup: int = 1
) -> GroupedSupport:
    """Grouped evaluation: support per symbolic-constant assignment.

    This is the one support count; a query without symbolic constants is
    counted as its one assignment ``()``.  The result's ``counts`` omits
    assignments with support below ``minsup``, and its ``count`` reads the
    support at any other.  A single component is counted with the
    threshold in SQL; several are counted without one, and only their
    products are filtered.  Each component comes from the instance's table
    of component counts, and runs as SQL only when the table lacks it.
    """
    symbols = tuple(sorted(query.symbolic_constants(), key=lambda s: s.index))
    check_against_schema(query, instance.schema)
    components = _components(query)
    threshold = minsup if len(components) == 1 else 1
    position = {symbol: i for i, symbol in enumerate(symbols)}
    factors: list[Factor] = []
    for component in components:
        counts = _component_counts(component, instance, threshold)
        factors.append((tuple(map(position.__getitem__, component[1])), counts))
        if not counts:
            break
    return GroupedSupport(symbols, tuple(factors), minsup)
