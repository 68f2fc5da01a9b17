from __future__ import annotations

import random

from cqmine.queries import Atom, Constant, SymbolicConstant, Variable, parse_query
from cqmine.relational import Instance, RelationDecl, Schema
from cqmine.sqlgen import emit_sql, factor_sql

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


def test_factor_of_a_whole_query_is_its_emitted_text(beer_schema):
    plain = Q("Q(x, y) :- likes(x, y), serves(z, y), visits(x, 'Cheers')")
    assert factor_sql(plain.head, [], plain.body, beer_schema, None) == (
        f"SELECT COUNT(*) FROM ({emit_sql(plain, beer_schema)})"
    )
    grouped = Q("Q(x) :- likes(x, $c2), visits(x, $c1), serves($c1, 'Duvel')")
    symbols = [SymbolicConstant(1), SymbolicConstant(2)]
    assert factor_sql(grouped.head, symbols, grouped.body, beer_schema, None) == (
        emit_sql(grouped, beer_schema)
    )


def test_factors_without_head_variables(beer_schema):
    c1, c2 = SymbolicConstant(1), SymbolicConstant(2)
    params = {}
    ground = [Atom("serves", (Constant("Cheers"), Constant("Duvel")))]
    assert factor_sql((), [], ground, beer_schema, params) == (
        'SELECT EXISTS (SELECT 1 FROM "serves" t1 '
        'WHERE t1."bar" = :k1 AND t1."beer" = :k2)'
    )
    assert params == {"k1": "Cheers", "k2": "Duvel"}
    placeholders = [Atom("serves", (c1, c2))]
    assert factor_sql((), [c1, c2], placeholders, beer_schema, {}) == (
        'SELECT DISTINCT t1."bar" AS "$c1", t1."beer" AS "$c2", 1 FROM "serves" t1'
    )
    joined = [Atom("visits", (Variable("z"), c1)), Atom("likes", (Variable("z"), c2))]
    assert factor_sql((), [c1, c2], joined, beer_schema, {}) == (
        'SELECT DISTINCT t2."bar" AS "$c1", t1."beer" AS "$c2", 1 '
        'FROM "likes" t1, "visits" t2 WHERE t2."drinker" = t1."drinker"'
    )


# ---------------------------------------------------------------------------
# execution cross-checks against brute-force enumeration
# ---------------------------------------------------------------------------


def test_plain_sql_matches_evaluate(beer_schema, beer_instance):
    rng = random.Random(7401)
    for _ in range(60):
        q = _oracle.random_query(rng, allow_symbolics=False)
        rows = set(beer_instance.database.execute(emit_sql(q, beer_schema)))
        assert rows == _oracle.eval_naive(q, beer_instance.tables), str(q)


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
            assert got == _oracle.naive_grouped_counts(q, inst.tables, minsup), str(q)
        checked += 1
    assert checked > 20


def test_example_rule_pair_supports_via_sql(beer_schema, beer_instance):
    conn = beer_instance.database
    antecedent = Q("Q(x, y) :- likes(x, 'Duvel'), visits(x, y)")
    consequent = Q("Q(x, y) :- likes(x, 'Duvel'), visits(x, y), serves(y, 'Duvel')")
    assert len(conn.execute(emit_sql(antecedent, beer_schema)).fetchall()) == 6
    assert len(conn.execute(emit_sql(consequent, beer_schema)).fetchall()) == 5
