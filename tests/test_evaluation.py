from __future__ import annotations

import random

import pytest

from cqmine.errors import QueryError
from cqmine.evaluation import evaluate, support_grouped
from cqmine.queries import instantiate, parse_query
from cqmine.relational import Instance
from cqmine.sqlgen import emit_sql

import _oracle
from _oracle import support

Q = parse_query


# ---------------------------------------------------------------------------
# plain evaluation on the beer instance
# ---------------------------------------------------------------------------


def test_single_selection(beer_instance):
    answers = evaluate(Q("Q(x1) :- likes(x1, 'Duvel')"), beer_instance)
    assert answers == {("Allen",), ("Carol",), ("Bill",)}


def test_conjunction_of_selections(beer_instance):
    answers = evaluate(
        Q("Q(x) :- likes(x, 'Duvel'), likes(x, 'Trappist')"), beer_instance
    )
    assert answers == {("Allen",), ("Bill",)}


def test_cross_product_support_is_36(beer_instance):
    assert support(Q("Q(x1, x2, x3, x4) :- likes(x1, x2), visits(x3, x4)"), beer_instance) == 36


def test_projection_support(beer_instance):
    assert support(Q("Q(x1) :- likes(x1, x2)"), beer_instance) == 3
    assert support(Q("Q(x1) :- likes(x1, 'Jupiler')"), beer_instance) == 1


def test_three_atom_join(beer_instance):
    # drinkers who visit a bar serving a beer they like
    query = Q("Q(x) :- likes(x, y), visits(x, z), serves(z, y)")
    assert evaluate(query, beer_instance) == {("Allen",), ("Carol",), ("Bill",)}


def test_empty_relation(tmp_path):
    from cqmine.relational import RelationDecl, Schema

    schema = Schema((RelationDecl("r", ("a", "b")),))
    inst = Instance(schema, {"r": frozenset()})
    assert evaluate(Q("Q(x) :- r(x, y)"), inst) == frozenset()


def test_evaluate_rejects_symbolic_constants(beer_instance):
    with pytest.raises(QueryError):
        evaluate(Q("Q(x) :- likes(x, $c1)"), beer_instance)


def test_evaluate_checks_schema(beer_instance):
    with pytest.raises(QueryError):
        evaluate(Q("Q(x) :- drinks(x, y)"), beer_instance)


def test_more_than_64_atoms_is_a_query_error(beer_instance):
    chain = ", ".join(f"likes(x{i}, x{i + 1})" for i in range(1, 66))
    for evaluator, text in [
        (evaluate, f"Q(x1) :- {chain}"),
        (support, f"Q(x1) :- {chain}"),
        (support_grouped, f"Q(x1) :- {chain}, likes(x1, $c1)"),
    ]:
        with pytest.raises(QueryError, match="64 tables"):
            evaluator(Q(text), beer_instance)


# ---------------------------------------------------------------------------
# grouped evaluation
# ---------------------------------------------------------------------------


def test_grouped_per_beer(beer_instance):
    grouped = support_grouped(Q("Q(x1) :- likes(x1, $c1)"), beer_instance, minsup=1)
    assert grouped.counts == {("Duvel",): 3, ("Trappist",): 2, ("Jupiler",): 1}
    assert grouped.best() == 3


def test_grouped_respects_minsup(beer_instance):
    grouped = support_grouped(Q("Q(x1) :- likes(x1, $c1)"), beer_instance, minsup=2)
    assert grouped.counts == {("Duvel",): 3, ("Trappist",): 2}
    empty = support_grouped(Q("Q(x1) :- likes(x1, $c1)"), beer_instance, minsup=4)
    assert not empty
    assert empty.best() == 0


def test_grouped_two_placeholders(beer_instance):
    grouped = support_grouped(
        Q("Q(x) :- likes(x, $c1), likes(x, $c2)"), beer_instance, minsup=2
    )
    # Duvel/Trappist likers: Allen and Bill (in both orders), plus the
    # diagonal pairs that collapse to single selections.
    assert grouped.counts[("Duvel", "Trappist")] == 2
    assert grouped.counts[("Trappist", "Duvel")] == 2
    assert grouped.counts[("Duvel", "Duvel")] == 3


def test_grouped_matches_instantiation(beer_instance):
    rng = random.Random(6011)
    checked = 0
    for _ in range(60):
        q = _oracle.random_query(rng, max_atoms=3)
        if not q.symbolic_constants():
            continue
        grouped = support_grouped(q, beer_instance, minsup=1)
        for values, count in grouped.counts.items():
            inst = instantiate(q, dict(zip(grouped.symbols, values)))
            assert support(inst, beer_instance) == count
            checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# agreement with brute-force valuation enumeration
# ---------------------------------------------------------------------------


def test_evaluate_matches_naive_enumeration(beer_schema, beer_instance):
    rng = random.Random(88221)
    for trial in range(150):
        q = _oracle.random_query(rng, allow_symbolics=False)
        inst = beer_instance if trial % 3 == 0 else _oracle.random_instance(rng, beer_schema)
        assert evaluate(q, inst) == _oracle.eval_naive(q, inst.tables), str(q)


def test_equivalent_queries_same_answers(beer_schema, beer_instance):
    # Build equivalent variants explicitly: rename apart, then duplicate an
    # atom with fresh existential variables where that keeps equivalence.
    from cqmine.containment import is_equivalent
    from cqmine.queries import Atom, ConjunctiveQuery, Variable

    rng = random.Random(88222)
    checked = 0
    for _ in range(60):
        q1 = _oracle.random_query(rng, allow_symbolics=False)
        renaming = {
            v: Variable(f"r_{v.name}")
            for v in sorted(q1.variables(), key=lambda t: t.name)
        }
        q2 = _oracle.substitute(q1, renaming)
        template = sorted(q2.body, key=str)[0]
        padded = Atom(
            template.relation,
            tuple(Variable(f"pad{i}") for i in range(len(template.args))),
        )
        q3 = ConjunctiveQuery(q2.head, q2.body | {padded})
        inst = _oracle.random_instance(rng, beer_schema)
        assert evaluate(q1, inst) == evaluate(q2, inst)
        if is_equivalent(q1, q3):
            assert evaluate(q1, inst) == evaluate(q3, inst)
            checked += 1
    assert checked > 30


def test_head_permutation_permutes_coordinates(beer_instance):
    q = Q("Q(x, y) :- likes(x, y)")
    p = Q("Q(y, x) :- likes(x, y)")
    assert evaluate(p, beer_instance) == {(b, a) for a, b in evaluate(q, beer_instance)}
    assert support(p, beer_instance) == support(q, beer_instance)


# ---------------------------------------------------------------------------
# supports of disconnected bodies, counted per connected component
# ---------------------------------------------------------------------------


def test_disconnected_supports_match_enumeration(beer_schema, beer_instance):
    rng = random.Random(4417)
    plain = grouped = 0
    for trial in range(150):
        q = _oracle.random_disconnected_query(rng, parts=2 + trial % 2)
        inst = (
            beer_instance if trial % 3 == 0
            else _oracle.random_instance(rng, beer_schema)
        )
        if not q.symbolic_constants():
            assert support(q, inst) == _oracle.support_naive(q, inst.tables), str(q)
            plain += 1
            continue
        for minsup in (1, 2):
            got = support_grouped(q, inst, minsup=minsup).counts
            assert got == _oracle.naive_grouped_counts(q, inst.tables, minsup), str(q)
        grouped += 1
    assert plain > 30 and grouped > 30


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Q(y) :- likes(x, y), visits(x, 'California')", 2),
        # a component without head variables only has to be satisfiable
        ("Q(x) :- likes(x, y), visits(z, w)", 3),
        ("Q(x) :- likes(x, y), visits(z, 'Nowhere')", 0),
        ("Q(x, y) :- likes(x, y), visits(z, w), serves(w, 'Duvel')", 6),
        # a component without variables
        ("Q(x) :- likes(x, y), serves('Cheers', 'Duvel')", 3),
        ("Q(x) :- likes(x, y), serves('Cheers', 'Nothing')", 0),
        ("Q(x, z) :- likes(x, 'Duvel'), visits(z, 'Cheers')", 9),
    ],
)
def test_component_shapes_plain(beer_instance, text, expected):
    q = Q(text)
    assert support(q, beer_instance) == expected
    assert expected == _oracle.support_naive(q, beer_instance.tables)
    # the one grouped count: a plain query is the empty assignment, absent
    # when a factor is zero
    grouped = support_grouped(q, beer_instance)
    assert grouped.symbols == ()
    assert grouped.counts == ({(): expected} if expected else {})


@pytest.mark.parametrize(
    "text",
    [
        # placeholders only: a component without variables
        "Q(x) :- likes(x, y), serves($c1, $c2)",
        "Q(x) :- likes(x, $c1), serves($c2, 'Duvel')",
        # placeholders in a component without head variables
        "Q(x, y) :- likes(x, y), visits(z, $c1)",
        "Q(x, z) :- likes(x, $c1), visits(z, $c2)",
        # constants link nothing
        "Q(x) :- likes(x, 'Duvel'), serves($c1, 'Duvel')",
    ],
)
def test_component_shapes_grouped(beer_instance, text):
    q = Q(text)
    for minsup in range(1, 8):
        got = support_grouped(q, beer_instance, minsup=minsup).counts
        assert got == _oracle.naive_grouped_counts(q, beer_instance.tables, minsup)


def test_empty_relation_component_gives_support_zero():
    from cqmine.relational import RelationDecl, Schema

    schema = Schema((RelationDecl("r", ("a", "b")), RelationDecl("s", ("a", "b"))))
    inst = Instance(schema, {"r": frozenset({("1", "2"), ("3", "4")}), "s": frozenset()})
    assert support(Q("Q(x) :- r(x, y)"), inst) == 2
    for text in ["Q(x) :- r(x, y), s(z, w)", "Q(x, z) :- r(x, y), s(z, w)"]:
        assert support(Q(text), inst) == 0
    for text in [
        "Q(x) :- r(x, $c1), s(z, w)",
        "Q(x) :- r(x, y), s($c1, $c2)",
        "Q(x, z) :- r(x, $c1), s(z, $c2)",
    ]:
        assert not support_grouped(Q(text), inst)


def traced_copy(instance: Instance, statements: list[str]) -> Instance:
    """A fresh instance of ``instance``'s schema and tables, so with an empty
    table of component counts, that appends each statement it runs to
    ``statements``."""
    fresh = Instance(instance.schema, instance.tables)
    fresh.database.set_trace_callback(statements.append)
    return fresh


def test_zero_factor_ends_the_count(beer_instance):
    statements: list[str] = []
    # components are counted in atom order: likes before serves and visits
    support(
        Q("Q(x, z) :- likes(x, 'Nothing'), serves(z, y), visits(w, y)"),
        traced_copy(beer_instance, statements),
    )
    support_grouped(
        Q("Q(x) :- likes(x, 'Nothing'), visits(w, $c1)"),
        traced_copy(beer_instance, statements),
    )
    assert len(statements) == 2
    assert not any('"visits"' in sql or '"serves"' in sql for sql in statements)


def test_renamed_components_share_one_entry(beer_instance):
    # the table keys a component by its shape and its placeholders' shape
    # numbers in index order: a renaming that keeps which placeholder comes
    # first shares the entry, with the values of its placeholders aligned
    statements: list[str] = []
    instance = traced_copy(beer_instance, statements)
    first = support_grouped(Q("Q(x) :- likes(x, $c2), visits(x, $c5)"), instance)
    second = support_grouped(Q("Q(y) :- visits(y, $c3), likes(y, $c1)"), instance)
    assert len(statements) == len(instance.component_counts) == 1
    assert first.counts is second.counts
    assert first.counts[("Duvel", "Cheers")] == 3
    # shape numbers placeholders by first occurrence, not by index, so a
    # renaming that permutes the indices is another entry, aligned again
    third = support_grouped(Q("Q(x) :- likes(x, $c2), visits(x, $c1)"), instance)
    fourth = support_grouped(Q("Q(y) :- likes(y, $c1), visits(y, $c2)"), instance)
    assert len(statements) == len(instance.component_counts) == 2
    assert fourth.counts is first.counts
    assert third.counts == {
        (bar, beer): count for (beer, bar), count in fourth.counts.items()
    }
    assert third.counts[("Cheers", "Duvel")] == 3
    for grouped, text in [
        (third, "Q(x) :- likes(x, $c2), visits(x, $c1)"),
        (fourth, "Q(y) :- likes(y, $c1), visits(y, $c2)"),
    ]:
        expected = _oracle.naive_grouped_counts(Q(text), instance.tables, 1)
        assert grouped.counts == expected


def test_connected_body_runs_the_whole_query(beer_schema, beer_instance):
    plain = Q("Q(x) :- likes(x, y), visits(x, z), serves(z, 'Duvel')")
    grouped = Q("Q(x) :- likes(x, $c1), visits(x, 'Cheers')")
    statements: list[str] = []
    support(plain, traced_copy(beer_instance, statements))
    support_grouped(grouped, traced_copy(beer_instance, statements), minsup=2)
    # the trace shows statements with their parameters bound
    assert statements == [
        f"SELECT COUNT(*) FROM ({emit_sql(plain, beer_schema)})",
        emit_sql(grouped, beer_schema).replace(":minsup", "2"),
    ]
