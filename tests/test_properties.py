"""Property tests of the query algebra on generated queries.

Phase 2 shares generalization steps between consequents by canonical text,
which is sound only if that text ignores how variables and placeholders are
named; the text must be the least rendering over all atom orders, as the
enumerating oracle finds it; minimization must reach a fixed point that is
equivalent to its input.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracle
from cqmine.containment import is_equivalent, minimize
from cqmine.queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SymbolicConstant,
    Variable,
    canonical_form,
    instantiate,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

VARIABLES = [Variable(f"y{i}") for i in range(4)]
TERMS = st.one_of(
    st.sampled_from(VARIABLES),
    st.sampled_from(VARIABLES),
    st.sampled_from(
        [Constant(value) for value in _oracle.CONSTANT_POOL]
        + [SymbolicConstant(1), SymbolicConstant(2)]
    ),
)


@st.composite
def atoms(draw):
    relation, arity = draw(st.sampled_from(_oracle.RELATIONS))
    return Atom(relation, tuple(draw(TERMS) for _ in range(arity)))


@st.composite
def queries(draw):
    body = draw(st.lists(atoms(), min_size=1, max_size=4))
    body_vars = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    assume(body_vars)
    head = draw(st.lists(st.sampled_from(body_vars), min_size=1, unique=True))
    return ConjunctiveQuery(tuple(head), frozenset(body))


@PROPERTY
@given(st.data())
def test_canonical_text_ignores_variable_and_placeholder_names(data):
    query = data.draw(queries())
    variables = sorted(query.variables(), key=lambda v: v.name)
    symbolics = sorted(query.symbolic_constants(), key=lambda s: s.index)
    names = data.draw(st.permutations([f"w{i}" for i in range(len(variables))]))
    indices = data.draw(
        st.lists(
            st.integers(1, 9),
            min_size=len(symbolics),
            max_size=len(symbolics),
            unique=True,
        )
    )
    mapping = {v: Variable(name) for v, name in zip(variables, names)}
    mapping.update(
        {s: SymbolicConstant(index) for s, index in zip(symbolics, indices)}
    )
    renamed = _oracle.substitute(query, mapping)
    text, form = canonical_form(query)
    assert canonical_form(renamed) == (text, form)
    assert canonical_form(form)[0] == text


@st.composite
def tied_queries(draw):
    """Bodies of up to four atoms over three relations, some with their
    mirror atom, so that several atoms often render alike at one position;
    ``like`` is a prefix of ``likes``, yet ``like(`` sorts before ``likes(``."""
    size = draw(st.integers(1, 4))
    body: list[Atom] = []
    while len(body) < size:
        relation = draw(st.sampled_from(["like", "likes", "visits"]))
        args = (draw(TERMS), draw(TERMS))
        body.append(Atom(relation, args))
        if len(body) < 4 and draw(st.booleans()):
            body.append(Atom(relation, args[::-1]))
    body_vars = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    assume(body_vars)
    head = draw(st.lists(st.sampled_from(body_vars), min_size=1, unique=True))
    return ConjunctiveQuery(tuple(head), frozenset(body))


@PROPERTY
@given(tied_queries())
def test_canonical_text_is_the_least_rendering(query):
    for modulo_head_permutation in (False, True):
        text, _ = canonical_form(
            query, modulo_head_permutation=modulo_head_permutation
        )
        assert text == _oracle.least_rendering(query, modulo_head_permutation)


@PROPERTY
@given(queries())
def test_minimize_is_idempotent_and_equivalent(query):
    reduced = minimize(query)
    assert minimize(reduced) == reduced
    assert reduced.head == query.head
    assert reduced.body <= query.body
    # placeholders stay fixed: bind each to a constant of its own, which no
    # homomorphism may move
    pinned = {s: f"#{s.index}" for s in query.symbolic_constants()}
    assert is_equivalent(instantiate(query, pinned), instantiate(reduced, pinned))
