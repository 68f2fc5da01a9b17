"""Render conjunctive queries and relations as SQL text.

Plain queries become a single SELECT DISTINCT over aliased tables with
equality predicates for shared variables and constants.  Queries with
symbolic constants become a grouped query: an inner SELECT DISTINCT projects
the placeholder columns alongside the head, and the outer query groups by the
placeholders and filters with ``HAVING COUNT(*) >= :minsup``.  A support is
counted per connected component of the body (``factor_sql``), from the same
join text.

Relation, column and variable names are quoted identifiers, so SQL keywords
stay valid; a placeholder's column is named ``"$c1"``, which no variable name
can be.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SymbolicConstant,
    Term,
    Variable,
    check_against_schema,
    render_term,
)

if TYPE_CHECKING:
    from .relational import RelationDecl, Schema


def _quote_identifier(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def table_sql(decl: RelationDecl) -> tuple[str, str]:
    """Statements creating a relation's table and inserting one row into it.

    The columns are TEXT, so ``'01'`` and ``'1'`` stay apart.
    """
    table = _quote_identifier(decl.name)
    columns = ", ".join(f"{_quote_identifier(c)} TEXT" for c in decl.columns)
    marks = ", ".join("?" for _ in decl.columns)
    return f"CREATE TABLE {table} ({columns})", f"INSERT INTO {table} VALUES ({marks})"


def _join(
    atoms: Iterable[Atom], schema: Schema, params: dict[str, str] | None
) -> tuple[dict[Term, str], str]:
    """The join of ``atoms``: each term's first column, and the text after FROM.

    Atoms are aliased ``t1, t2, ...`` in text order; a repeated variable or
    placeholder and every constant become equality predicates.  Constants
    are inline literals or, when ``params`` is given, parameters ``:k1``,
    ``:k2``, ... added to ``params``.  sqlite3 rejects statement text that
    holds a NUL, so an inline literal splices each one in as ``char(0)``.
    """

    def literal(constant: Constant) -> str:
        if params is None:
            return render_term(constant).replace("\0", "' || char(0) || '")
        name = f"k{len(params) + 1}"
        params[name] = constant.value
        return f":{name}"

    atoms = sorted(atoms, key=str)
    aliases: dict[Atom, str] = {
        atom: f"t{i}" for i, atom in enumerate(atoms, start=1)
    }

    first_site: dict[Term, str] = {}
    predicates: list[str] = []
    for atom in atoms:
        columns = schema.relation(atom.relation).columns
        alias = aliases[atom]
        for term, column in zip(atom.args, columns):
            site = f"{alias}.{_quote_identifier(column)}"
            if isinstance(term, Constant):
                predicates.append(f"{site} = {literal(term)}")
                continue
            if term in first_site:
                predicates.append(f"{site} = {first_site[term]}")
            else:
                first_site[term] = site

    from_clause = ", ".join(
        f"{_quote_identifier(atom.relation)} {aliases[atom]}" for atom in atoms
    )
    where = f" WHERE {' AND '.join(predicates)}" if predicates else ""
    return first_site, from_clause + where


def _columns(terms: Iterable[Term], first_site: dict[Term, str]) -> str:
    return ", ".join(
        f"{first_site[t]} AS {_quote_identifier(render_term(t))}" for t in terms
    )


def emit_sql(
    query: ConjunctiveQuery, schema: Schema, params: dict[str, str] | None = None
) -> str:
    """SQL text computing the query's answer (or grouped supports).

    Constants are inline literals, with each NUL spliced in as ``char(0)``,
    or, when ``params`` is given, parameters ``:k1``, ``:k2``, ... added to
    ``params``.  A grouped query also expects ``:minsup``.
    """
    check_against_schema(query, schema)
    symbols = sorted(query.symbolic_constants(), key=lambda s: s.index)
    if symbols:
        return factor_sql(query.head, symbols, query.body, schema, params)
    first_site, source = _join(query.body, schema, params)
    return f"SELECT DISTINCT {_columns(query.head, first_site)} FROM {source}"


def factor_sql(
    head: Sequence[Variable],
    symbols: Sequence[SymbolicConstant],
    atoms: Iterable[Atom],
    schema: Schema,
    params: dict[str, str] | None,
) -> str:
    """SQL for one factor of a support: rows ``(*placeholder values, count)``.

    ``atoms`` hold the placeholders ``symbols``, in index order.  ``count``
    is the number of distinct projections of the atoms' join onto ``head``,
    or, with no ``head``, 1 when the join is non-empty.  With placeholders
    there is one row per assignment, and ``:minsup`` is expected when there
    is a ``head``; without, there is one row whose count may be 0.  Constants
    are bound as by ``emit_sql``.  For a whole query's head and body the text
    is ``emit_sql``'s grouped form, or a count of its plain form.
    """
    first_site, source = _join(atoms, schema, params)
    columns = _columns([*symbols, *head], first_site)
    if not columns:
        return f"SELECT EXISTS (SELECT 1 FROM {source})"
    if not symbols:
        return f"SELECT COUNT(*) FROM (SELECT DISTINCT {columns} FROM {source})"
    if not head:
        return f"SELECT DISTINCT {columns}, 1 FROM {source}"
    group_cols = ", ".join(f"s.{_quote_identifier(render_term(s))}" for s in symbols)
    return (
        f"SELECT {group_cols}, COUNT(*) AS support "
        f"FROM (SELECT DISTINCT {columns} FROM {source}) s "
        f"GROUP BY {group_cols} HAVING COUNT(*) >= :minsup"
    )
