"""Evaluation of conjunctive queries over an instance.

The answer of a query is the set of head tuples produced by matchings, where
a matching assigns a constant to every variable so that each body atom lands
on a row of its relation.  Support is the number of distinct answer tuples.

Every support is a grouped count: each assignment of the query's
placeholders to constants gets its own support, and a query without
placeholders has the one empty assignment ``()``.  Queries are evaluated
in process, set at a time (``_join``): the atoms are joined one at a time,
the atom with the most bound arguments first, each by probing an index of
its relation that the instance keeps (``Instance.indexes``).  An index is
keyed by the relation and the atom's argument pattern; it holds only the
rows that match the atom's constants and repeated terms, grouped by the
values of its bound variables.  After each join the rows are projected onto
the terms still needed and deduplicated, which is exact under set
semantics.  A body of more than 64 atoms is a ``QueryError``, so that every
query evaluated is also one SQL statement that ``cqmine.sqlgen`` renders
and SQLite can run (a join there holds at most 64 tables).

Supports are counted per connected component of the body, where atoms are
connected by shared variables and placeholders (constants link nothing).
The answer set is the Cartesian product of the components' answer sets, so
the support is the product of per-component counts: the number of distinct
projections onto the component's head variables, or 1 or 0 for whether a
component without head variables is satisfiable, each taken per assignment
of the component's placeholders.  A zero factor ends the count.  A count
is the one ``sqlgen.factor_sql`` renders: with both head variables and
placeholders it keeps only counts from a threshold on.

An instance keeps one table of component counts
(``Instance.component_counts``), so a component is counted once per
instance however many queries hold it.  Its key is left unchanged by
renaming: the component's ``queries.shape`` with the head unordered (a
count of distinct projections does not depend on head order); the shape
numbers of its placeholders in index order, since ``shape`` numbers them by
first occurrence and the values of two renamed components must line up; and
the least count kept, the threshold or else 1.  Equal shapes mean the
components are renamings of each other, so sharing an entry is exact.

A ``GroupedSupport`` keeps these counts as its factors and multiplies at
lookup: ``count`` gives the support at one assignment, and ``counts``
enumerates the assignments that meet the minimum support, from the factors'
counts in descending order, on first use.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Callable, Collection, Iterable

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

# a join in SQLite holds at most 64 tables, one per body atom
MAX_ATOMS = 64


def _check(query: ConjunctiveQuery, instance: Instance) -> None:
    check_against_schema(query, instance.schema)
    if len(query.body) > MAX_ATOMS:
        raise QueryError(
            f"query cannot be evaluated: its {len(query.body)} atoms exceed "
            f"the {MAX_ATOMS} tables one SQL join can hold"
        )


def _require_plain(query: ConjunctiveQuery) -> None:
    if query.symbolic_constants():
        raise QueryError("query contains symbolic constants; use support_grouped")


def _getter(positions: list[int]) -> Callable[[tuple], tuple]:
    """The function taking a tuple to its values at ``positions``, as a tuple."""
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions) if positions else lambda row: ()


Index = dict[tuple[str, ...], list[tuple[str, ...]]]


def _index(instance: Instance, relation: str, pattern: tuple) -> Index:
    """The instance's index of ``relation`` for an argument ``pattern``.

    ``pattern`` has one entry per argument: a ``Constant`` the row must
    hold, the earlier position whose value the row must repeat, ``"k"`` for
    a key column or ``"o"`` for an output column.  The index maps the key
    columns' values of each matching row to the output columns' values of
    every such row.  It is built on first use and kept with the instance.
    """
    index = instance.indexes.get((relation, pattern))
    if index is None:
        index = instance.indexes[relation, pattern] = {}
        checks = [
            (position, entry)
            for position, entry in enumerate(pattern)
            if entry not in ("k", "o")
        ]
        key_of = _getter([p for p, entry in enumerate(pattern) if entry == "k"])
        out_of = _getter([p for p, entry in enumerate(pattern) if entry == "o"])
        for row in instance.tables[relation]:
            if all(
                row[p] == (row[entry] if type(entry) is int else entry[1])
                for p, entry in checks
            ):
                index.setdefault(key_of(row), []).append(out_of(row))
    return index


def _join(
    atoms: Iterable[Atom], kept: Collection[Term], instance: Instance
) -> tuple[list[Term], set[tuple[str, ...]]]:
    """The join of ``atoms`` projected onto the terms ``kept``: the terms in
    column order, and the distinct rows of their values.

    The atoms are joined one at a time, each time the one with the most
    bound arguments (constants, and terms the rows already hold).  Each
    join keeps only the columns that ``kept`` or a later atom needs.  The
    rows are empty, and the columns may lack a kept term, once a join
    leaves no row.
    """
    pending = sorted(atoms)
    columns: list[Term] = []
    rows: set[tuple[str, ...]] = {()}
    while pending and rows:
        bound = set(columns)
        atom = max(
            pending, key=lambda a: sum(t[0] == "c" or t in bound for t in a[1])
        )
        pending.remove(atom)
        relation, args = atom
        pattern: list = []
        keys: list[int] = []
        news: list[Term] = []
        first: dict[Term, int] = {}
        for position, term in enumerate(args):
            if term[0] == "c":
                pattern.append(term)
            elif term in first:
                pattern.append(first[term])
            else:
                first[term] = position
                if term in bound:
                    pattern.append("k")
                    keys.append(columns.index(term))
                else:
                    pattern.append("o")
                    news.append(term)
        probe = _index(instance, relation, tuple(pattern)).get
        needed = {t for a in pending for t in a[1]}.union(kept)
        keep = [i for i, term in enumerate(columns) if term in needed]
        fresh = [i for i, term in enumerate(news) if term in needed]
        key_of, keep_of, fresh_of = _getter(keys), _getter(keep), _getter(fresh)
        joined: set[tuple[str, ...]] = set()
        for row in rows:
            matches = probe(key_of(row))
            if matches:
                base = keep_of(row)
                joined.update([base + fresh_of(match) for match in matches])
        columns = [columns[i] for i in keep] + [news[i] for i in fresh]
        rows = joined
    return columns, rows


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


def _count(
    component: Component, instance: Instance, threshold: int
) -> dict[tuple[str, ...], int]:
    """The component's nonzero counts by its placeholders' values, in
    descending order of count: per assignment, the number of distinct
    projections onto the head, kept from ``threshold`` on, or 1 where there
    is no head.  Without placeholders the one assignment is ``()``."""
    head, symbols, atoms = component
    columns, rows = _join(atoms, {*head, *symbols}, instance)
    if not rows:
        return {}
    values_of = _getter([columns.index(symbol) for symbol in symbols])
    if not head:
        return dict.fromkeys(map(values_of, rows), 1)
    if not symbols:
        return {(): len(rows)}
    counts = Counter(map(values_of, rows)).most_common()
    return {values: count for values, count in counts if count >= threshold}


def _component_counts(
    component: Component, instance: Instance, threshold: int
) -> dict[tuple[str, ...], int]:
    """The component's counts (see ``_count``) from the instance's table,
    counted on a miss.  ``threshold`` applies only where there are both
    head variables and placeholders.  The dict is the table's own, and is
    never changed."""
    head, symbols, atoms = component
    numbers: dict[Term, int] = {}
    form = shape((head, atoms), False, numbers)
    if not (head and symbols):
        threshold = 1  # every count kept is nonzero
    key = (form, tuple(map(numbers.__getitem__, symbols)), threshold)
    table = instance.component_counts
    counts = table.get(key)
    if counts is None:
        counts = table[key] = _count(component, instance, threshold)
    return counts


def evaluate(query: ConjunctiveQuery, instance: Instance) -> frozenset[tuple[str, ...]]:
    """The answer set of a symbolic-constant-free query on an instance."""
    _require_plain(query)
    _check(query, instance)
    columns, rows = _join(query.body, query.head, instance)
    if not rows:
        return frozenset()
    return frozenset(map(_getter([columns.index(v) for v in query.head]), rows))


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
    threshold; several are counted without one, and only their products
    are filtered.  Each component comes from the instance's table of
    component counts, and is counted only when the table lacks it.
    """
    symbols = tuple(sorted(query.symbolic_constants(), key=lambda s: s.index))
    _check(query, instance)
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
