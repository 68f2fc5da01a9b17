from __future__ import annotations

import copy
import pickle
import random

import pytest

from _oracle import render_query, substitute
from cqmine.containment import minimize
from cqmine.errors import QueryError
from cqmine.queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SymbolicConstant,
    Variable,
    canonical_form,
    check_against_schema,
    fresh_symbolic_constant,
    fresh_variable,
    instantiate,
    parse_query,
    render_term,
    substitute_terms,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def q(head, *atoms):
    return ConjunctiveQuery(tuple(head), frozenset(atoms))


# ---------------------------------------------------------------------------
# model invariants
# ---------------------------------------------------------------------------


def test_query_accepts_well_formed():
    query = q([x, y], Atom("likes", (x, y)))
    assert query.arity == 2
    assert query.variables() == frozenset({x, y})


def test_query_rejects_empty_head():
    with pytest.raises(QueryError):
        q([], Atom("likes", (x, y)))


def test_query_rejects_duplicate_head_variable():
    with pytest.raises(QueryError, match="distinct"):
        q([x, x], Atom("likes", (x, y)))


def test_query_rejects_non_variable_head():
    with pytest.raises(QueryError):
        q([x, Constant("Duvel")], Atom("likes", (x, y)))


def test_query_rejects_empty_body():
    with pytest.raises(QueryError):
        ConjunctiveQuery((x,), frozenset())


def test_query_rejects_unsafe_head():
    with pytest.raises(QueryError, match="z"):
        q([z], Atom("likes", (x, y)))


def test_term_collections():
    query = q(
        [x],
        Atom("likes", (x, Constant("Duvel"))),
        Atom("likes", (x, SymbolicConstant(1))),
    )
    assert query.constants() == frozenset({Constant("Duvel")})
    assert query.symbolic_constants() == frozenset({SymbolicConstant(1)})


def test_terms_of_different_kinds_are_distinct():
    terms = [Variable("a"), Constant("a"), SymbolicConstant(1), Constant("1")]
    for i, left in enumerate(terms):
        for right in terms[i + 1:]:
            assert left != right
    assert len(set(terms)) == len(terms)
    assert repr(terms[0]) == "Variable(name='a')"
    assert repr(terms[2]) == "SymbolicConstant(index=1)"


def test_atom_identity_ignores_how_it_was_built():
    direct = Atom("likes", (x, Constant("Duvel")))
    parsed = next(iter(parse_query("Q(x) :- likes(x, 'Duvel')").body))
    mapping = {y: x, z: Constant("Duvel")}
    substituted = next(iter(substitute_terms([Atom("likes", (y, z))], mapping)))
    listed = Atom("likes", tuple([Variable("x"), Constant("Duvel")]))
    for atom in (parsed, substituted, listed):
        assert atom == direct
        assert hash(atom) == hash(direct)
        assert type(atom) is Atom
    assert len({direct, parsed, substituted, listed}) == 1
    for copied in (copy.deepcopy(direct), pickle.loads(pickle.dumps(direct))):
        assert copied == direct and type(copied) is Atom
        assert type(copied.args[0]) is Variable
    assert str(direct) == "likes(x, 'Duvel')"
    assert repr(direct) == (
        "Atom(relation='likes', args=(Variable(name='x'), Constant(value='Duvel')))"
    )
    # queries are tuples too: the same checks, whatever built them
    query = ConjunctiveQuery((x,), frozenset([direct, Atom("visits", (x, y))]))
    built = (
        parse_query("Q(x) :- visits(x, y), likes(x, 'Duvel')"),
        instantiate(
            parse_query("Q(x) :- likes(x, $c1), visits(x, y)"),
            {SymbolicConstant(1): "Duvel"},
        ),
        ConjunctiveQuery(
            tuple([Variable("x")]),
            frozenset([Atom("visits", (Variable("x"), Variable("y"))), listed]),
        ),
    )
    copies = (copy.copy(query), copy.deepcopy(query), pickle.loads(pickle.dumps(query)))
    for other in (*built, *copies):
        assert other == query and hash(other) == hash(query)
        assert type(other) is ConjunctiveQuery
        assert all(type(atom) is Atom for atom in other.body)
    assert len({query, *built, *copies}) == 1
    assert query.head == (x,) and query.body is query[1] and query.arity == 1
    assert query.variables() == {x, y} and query.constants() == {Constant("Duvel")}
    assert repr(ConjunctiveQuery((x,), frozenset([direct]))) == (
        "ConjunctiveQuery(head=(Variable(name='x'),), body=frozenset({Atom("
        "relation='likes', args=(Variable(name='x'), Constant(value='Duvel')))}))"
    )


def test_body_with_mixed_term_kinds_sorts():
    body = [
        Atom("likes", (x, y)),
        Atom("likes", (x, SymbolicConstant(1))),
        Atom("likes", (x, Constant("1"))),
        Atom("likes", (Constant("a"), x)),
    ]
    ordered = sorted(body)
    assert sorted(reversed(body)) == ordered
    assert minimize(q([x], *body)).head == (x,)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_render_term():
    assert render_term(Variable("x")) == "x"
    assert render_term(SymbolicConstant(3)) == "$c3"
    assert render_term(Constant("Old Dutch")) == "'Old Dutch'"
    assert render_term(Constant("O'Brien")) == "'O''Brien'"


def test_fresh_variable_skips_used():
    assert fresh_variable({"v1", "v2"}) == Variable("v3")
    assert fresh_variable(set(), stem="u") == Variable("u1")


def test_fresh_symbolic_constant():
    assert fresh_symbolic_constant({SymbolicConstant(1), SymbolicConstant(3)}) == SymbolicConstant(2)


def test_substitute_maps_head_and_body():
    query = q([x, y], Atom("likes", (x, y)))
    out = substitute(query, {y: z})
    assert out == q([x, z], Atom("likes", (x, z)))


def test_instantiate_replaces_symbolic_constants():
    query = q([x], Atom("likes", (x, SymbolicConstant(1))))
    out = instantiate(query, {SymbolicConstant(1): "Duvel"})
    assert out == q([x], Atom("likes", (x, Constant("Duvel"))))


def test_instantiate_may_collapse_atoms():
    query = q(
        [x],
        Atom("likes", (x, SymbolicConstant(1))),
        Atom("likes", (x, SymbolicConstant(2))),
    )
    out = instantiate(query, {SymbolicConstant(1): "Duvel", SymbolicConstant(2): "Duvel"})
    assert len(out.body) == 1


def test_check_against_schema(beer_schema):
    good = q([x, y], Atom("likes", (x, y)))
    check_against_schema(good, beer_schema)
    with pytest.raises(QueryError, match="unknown relation"):
        check_against_schema(q([x], Atom("drinks", (x,))), beer_schema)
    with pytest.raises(QueryError, match="arity"):
        check_against_schema(q([x], Atom("likes", (x,))), beer_schema)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple():
    query = parse_query("Q(x, y) :- likes(x, y)")
    assert query == q([x, y], Atom("likes", (x, y)))


def test_parse_constants_and_symbolics():
    query = parse_query("Q(x) :- likes(x, 'Duvel'), visits(x, $c1)")
    assert query == q(
        [x],
        Atom("likes", (x, Constant("Duvel"))),
        Atom("visits", (x, SymbolicConstant(1))),
    )


def test_parse_quoted_constant_with_escape():
    query = parse_query("Q(x) :- visits(x, 'O''Brien''s')")
    (atom,) = query.body
    assert atom.args[1] == Constant("O'Brien's")


def test_parse_is_whitespace_tolerant():
    a = parse_query("Q(x,y):-likes(x,y),serves(z,y)")
    b = parse_query("  Q( x , y )  :-  likes( x , y ) , serves( z , y )  ")
    assert a == b


def test_parse_trailing_period_optional():
    assert parse_query("Q(x) :- likes(x, y).") == parse_query("Q(x) :- likes(x, y)")


@pytest.mark.parametrize(
    "text",
    [
        "Q(x) :- ",
        "Q() :- likes(x, y)",
        "Q(x, x) :- likes(x, x)",
        "Q('Duvel') :- likes(x, 'Duvel')",
        "likes(x, y)",
        "Q(x) :- likes(x, y) extra",
        "Q(x) :- likes(x, y), ",
        "Q(x) :- likes(x, 'unterminated)",
        "Q(x) :- likes(x, Y)",  # uppercase variable
        "Q(x) :- likes(x, y)..",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(QueryError):
        parse_query(text)


def test_parse_checks_schema(beer_schema):
    parse_query("Q(x, y) :- likes(x, y)", beer_schema)
    with pytest.raises(QueryError):
        parse_query("Q(x) :- drinks(x)", beer_schema)


def test_parse_render_round_trip():
    texts = [
        "Q(x1, x2) :- likes(x1, x2).",
        "Q(x1) :- likes(x1, 'Duvel'), visits(x1, $c1).",
        "Q(x1, x2) :- likes(x1, x3), serves(x2, x3), visits(x1, x2).",
    ]
    for text in texts:
        assert render_query(parse_query(text)) == text


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------


def test_canonical_text_invariant_under_renaming():
    a = parse_query("Q(u, w) :- likes(u, v), serves(w, v)")
    b = parse_query("Q(p, q) :- serves(q, r), likes(p, r)")
    assert canonical_form(a)[0] == canonical_form(b)[0]


def test_canonical_text_distinguishes_structure():
    a = parse_query("Q(x) :- likes(x, y), likes(x, z)")
    b = parse_query("Q(x) :- likes(x, y), likes(z, y)")
    assert canonical_form(a)[0] != canonical_form(b)[0]


def test_canonical_text_head_order_matters_by_default():
    a = parse_query("Q(x, y) :- likes(x, y)")
    b = parse_query("Q(y, x) :- likes(x, y)")
    assert canonical_form(a)[0] != canonical_form(b)[0]
    assert canonical_form(a, modulo_head_permutation=True)[0] == canonical_form(
        b, modulo_head_permutation=True
    )[0]


def test_canonical_text_random_renamings():
    rng = random.Random(20240817)
    base = parse_query(
        "Q(a, b) :- likes(a, c), likes(b, c), serves(d, c), visits(a, d), visits(b, d)"
    )
    expected = canonical_form(base)[0]
    names = [f"n{i}" for i in range(10)]
    for _ in range(25):
        rng.shuffle(names)
        mapping = {v: Variable(names[i]) for i, v in enumerate(sorted(base.variables(), key=lambda t: t.name))}
        renamed = substitute(base, mapping)
        assert canonical_form(renamed)[0] == expected


def test_canonical_text_symbolic_constants_renumbered():
    a = parse_query("Q(x) :- likes(x, $c5), visits(x, $c9)")
    b = parse_query("Q(x) :- likes(x, $c2), visits(x, $c1)")
    assert canonical_form(a)[0] == canonical_form(b)[0]
    assert "$c1" in canonical_form(a)[0] and "$c2" in canonical_form(a)[0]
    # distinct placeholders stay distinct
    c = parse_query("Q(x) :- likes(x, $c1), visits(x, $c1)")
    assert canonical_form(c)[0] != canonical_form(a)[0]
