from __future__ import annotations

import itertools
import random

from cqmine.queries import instantiate, parse_query
from cqmine.relational import Instance, RelationDecl, Schema
from cqmine.sqlgen import emit_sql

import _oracle

Q = parse_query


# ---------------------------------------------------------------------------
# text shape
# ---------------------------------------------------------------------------


def test_single_selection_text(beer_schema):
    sql = emit_sql(Q("Q(x) :- likes(x, 'Duvel')"), beer_schema)
    assert sql == (
        'SELECT DISTINCT t1."drinker" AS "x" FROM "likes" t1 '
        "WHERE t1.\"beer\" = 'Duvel'"
    )


def test_join_produces_equality_predicates(beer_schema):
    sql = emit_sql(Q("Q(x, y) :- likes(x, y), serves(z, y), visits(x, z)"), beer_schema)
    assert 'FROM "likes" t1, "serves" t2, "visits" t3' in sql
    assert 't2."beer" = t1."beer"' in sql
    assert 't3."drinker" = t1."drinker"' in sql
    assert 't3."bar" = t2."bar"' in sql


def test_grouped_form(beer_schema):
    sql = emit_sql(Q("Q(x1) :- likes(x1, $c1)"), beer_schema)
    assert sql.startswith(
        'SELECT s."$c1", COUNT(*) AS support FROM (SELECT DISTINCT'
    )
    assert sql.endswith('GROUP BY s."$c1" HAVING COUNT(*) >= :minsup')


def test_constant_quoting(beer_schema):
    sql = emit_sql(Q("Q(x) :- visits(x, 'O''Brien''s')"), beer_schema)
    assert "t1.\"bar\" = 'O''Brien''s'" in sql


def test_keyword_names_are_quoted():
    schema = Schema((RelationDecl("order", ("group", "select")),))
    rows = frozenset({("a", "b"), ("b", "1"), ("c", "1")})
    instance = Instance(schema, {"order": rows})
    plain = emit_sql(Q("Q(from) :- order(from, where), order(where, '1')"), schema)
    assert plain == (
        'SELECT DISTINCT t1."group" AS "from" FROM "order" t1, "order" t2 '
        "WHERE t2.\"group\" = t1.\"select\" AND t2.\"select\" = '1'"
    )
    assert instance.database.execute(plain).fetchall() == [("a",)]
    grouped = emit_sql(Q("Q(from) :- order(from, $c1)"), schema)
    assert instance.database.execute(grouped, {"minsup": 2}).fetchall() == [("1", 2)]


def test_deterministic_text(beer_schema):
    q = "Q(x, y) :- likes(x, y), serves(z, y), visits(x, z)"
    assert emit_sql(Q(q), beer_schema) == emit_sql(Q(q), beer_schema)


# ---------------------------------------------------------------------------
# execution cross-checks against brute-force enumeration
# ---------------------------------------------------------------------------


def test_plain_sql_matches_evaluate(beer_schema, beer_instance):
    rng = random.Random(7401)
    for _ in range(60):
        q = _oracle.random_query(rng, allow_symbolics=False)
        rows = set(beer_instance.database.execute(emit_sql(q, beer_schema)))
        assert rows == _oracle.eval_naive(q, beer_instance.tables), str(q)


def naive_grouped_counts(query, tables, minsup):
    """Support of every instantiation over the active domain, by enumeration."""
    symbols = sorted(query.symbolic_constants(), key=lambda s: s.index)
    domain = sorted({value for rows in tables.values() for row in rows for value in row})
    counts = {}
    for values in itertools.product(domain, repeat=len(symbols)):
        count = _oracle.support_naive(
            instantiate(query, dict(zip(symbols, values))), tables
        )
        if count >= minsup:
            counts[values] = count
    return counts


def test_grouped_sql_matches_support_grouped(beer_schema, beer_instance):
    rng = random.Random(7402)
    checked = 0
    for trial in range(80):
        q = _oracle.random_query(rng)
        if not q.symbolic_constants():
            continue
        inst = (
            beer_instance if trial % 2 == 0
            else _oracle.random_instance(rng, beer_schema)
        )
        for minsup in (1, 2):
            rows = inst.database.execute(emit_sql(q, beer_schema), {"minsup": minsup})
            got = {tuple(row[:-1]): row[-1] for row in rows}
            assert got == naive_grouped_counts(q, inst.tables, minsup), str(q)
        checked += 1
    assert checked > 20


def test_example_rule_pair_supports_via_sql(beer_schema, beer_instance):
    conn = beer_instance.database
    antecedent = Q("Q(x, y) :- likes(x, 'Duvel'), visits(x, y)")
    consequent = Q("Q(x, y) :- likes(x, 'Duvel'), visits(x, y), serves(y, 'Duvel')")
    assert len(conn.execute(emit_sql(antecedent, beer_schema)).fetchall()) == 6
    assert len(conn.execute(emit_sql(consequent, beer_schema)).fetchall()) == 5
