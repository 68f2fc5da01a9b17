"""Render conjunctive queries and relations as SQL text.

Plain queries become a single SELECT DISTINCT over aliased tables with
equality predicates for shared variables and constants.  Queries with
symbolic constants become a grouped query: an inner SELECT DISTINCT projects
the placeholder columns alongside the head, and the outer query groups by the
placeholders and filters with ``HAVING COUNT(*) >= :minsup``.

Relation, column and variable names are quoted identifiers, so SQL keywords
stay valid; a placeholder's column is named ``"$c1"``, which no variable name
can be.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
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


def emit_sql(
    query: ConjunctiveQuery, schema: Schema, params: dict[str, str] | None = None
) -> str:
    """SQL text computing the query's answer (or grouped supports).

    Constants are inline literals or, when ``params`` is given, parameters
    ``:k1``, ``:k2``, ... added to ``params``, so that any value, NUL included,
    reaches the database intact.  A grouped query also expects ``:minsup``.
    """

    def literal(constant: Constant) -> str:
        if params is None:
            return render_term(constant)
        name = f"k{len(params) + 1}"
        params[name] = constant.value
        return f":{name}"

    check_against_schema(query, schema)
    atoms = sorted(query.body, key=str)
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

    symbols = sorted(query.symbolic_constants(), key=lambda s: s.index)
    head_cols = ", ".join(
        f"{first_site[v]} AS {_quote_identifier(v.name)}" for v in query.head
    )
    if not symbols:
        return f"SELECT DISTINCT {head_cols} FROM {from_clause}{where}"

    names = [_quote_identifier(render_term(s)) for s in symbols]
    symbol_cols = ", ".join(
        f"{first_site[s]} AS {name}" for s, name in zip(symbols, names)
    )
    inner = (
        f"SELECT DISTINCT {symbol_cols}, {head_cols} FROM {from_clause}{where}"
    )
    group_cols = ", ".join(f"s.{name}" for name in names)
    return (
        f"SELECT {group_cols}, COUNT(*) AS support FROM ({inner}) s "
        f"GROUP BY {group_cols} HAVING COUNT(*) >= :minsup"
    )


def count_sql(query: ConjunctiveQuery, schema: Schema, params: dict[str, str]) -> str:
    """The number of answers; constants are bound into ``params`` as by ``emit_sql``."""
    return f"SELECT COUNT(*) FROM ({emit_sql(query, schema, params)})"
