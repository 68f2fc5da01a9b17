from __future__ import annotations

import random

from cqmine.containment import (
    find_containment_mapping,
    is_contained,
    is_diagonally_contained,
    is_equivalent,
    minimize,
)
from cqmine.phase1 import MinerConfig, MinerState, class_of
from cqmine.queries import (
    Atom,
    Constant,
    ConjunctiveQuery,
    Variable,
    parse_query,
    render_term,
    substitute_terms,
)
from cqmine.relational import Schema

import _oracle

Q = parse_query

# ``class_of`` absorbs head order without a key atom and keeps it with one;
# it does not require the query to contain the anchor.  Class keys take no
# schema, so an empty one serves.
UNORDERED = MinerState(MinerConfig(minsup=1), Schema(()))
ORDERED = MinerState(
    MinerConfig(minsup=1, key_atom=Atom("likes", (Variable("k1"), Variable("k2")))),
    Schema(()),
)


def key(query, state=UNORDERED):
    return class_of(query, state)[0]


def same_up_to_head_order(q1, q2):
    return (
        q1.arity == q2.arity
        and is_diagonally_contained(q1, q2)
        and is_diagonally_contained(q2, q1)
    )


# ---------------------------------------------------------------------------
# directed containment
# ---------------------------------------------------------------------------


def test_containment_is_reflexive():
    q = Q("Q(x, y) :- likes(x, y), serves(z, y)")
    assert is_contained(q, q)
    assert is_equivalent(q, q)


def test_containment_under_renaming():
    a = Q("Q(x, y) :- likes(x, y)")
    b = Q("Q(u, w) :- likes(u, w)")
    assert is_equivalent(a, b)


def test_selection_is_contained_in_general_query():
    general = Q("Q(x) :- likes(x, y)")
    selected = Q("Q(x) :- likes(x, 'Duvel')")
    assert is_contained(selected, general)
    assert not is_contained(general, selected)


def test_join_is_contained_in_unjoined():
    # Hand-checked: mapping x1->x1, x2->x2, x4->x3, x3->x1 embeds the
    # two-atom cartesian body into the joined one, but not conversely.
    joined = Q("Q(x1, x2, x3) :- likes(x1, x2), likes(x1, x3)")
    unjoined = Q("Q(x1, x2, x4) :- likes(x1, x2), likes(x3, x4)")
    assert is_contained(joined, unjoined)
    assert not is_contained(unjoined, joined)


def test_extension_is_contained_in_shorter():
    short = Q("Q(x, y) :- likes(x, y)")
    long = Q("Q(x, y) :- likes(x, y), serves(z, y)")
    assert is_contained(long, short)
    assert not is_contained(short, long)


def test_arity_mismatch_never_contained():
    a = Q("Q(x) :- likes(x, y)")
    b = Q("Q(x, y) :- likes(x, y)")
    assert not is_contained(a, b)
    assert find_containment_mapping(a, b) is None


def test_symbolic_constant_containment():
    # A placeholder query is contained in the fully general one ...
    general = Q("Q(x) :- likes(x, y)")
    symbolic = Q("Q(x) :- likes(x, $c1)")
    concrete = Q("Q(x) :- likes(x, 'Duvel')")
    assert is_contained(symbolic, general)
    assert not is_contained(general, symbolic)
    # ... and every concrete selection is contained in the placeholder form.
    assert is_contained(concrete, symbolic)
    assert not is_contained(symbolic, concrete)


def test_find_containment_mapping_witness():
    q1 = Q("Q(x) :- likes(x, 'Duvel')")
    q2 = Q("Q(u) :- likes(u, v)")
    mapping = find_containment_mapping(q1, q2)
    assert mapping is not None
    assert mapping[Variable("u")] == Variable("x")
    # The witness really is a homomorphism onto q1's body.
    assert substitute_terms(q2.body, mapping) <= q1.body


# ---------------------------------------------------------------------------
# diagonal containment
# ---------------------------------------------------------------------------


def test_projection_is_diagonally_contained():
    wide = Q("Q(x, y) :- likes(x, y)")
    narrow = Q("Q(x) :- likes(x, y)")
    assert is_diagonally_contained(narrow, wide)
    assert not is_diagonally_contained(wide, narrow)


def test_head_permutation_is_diagonal_both_ways():
    a = Q("Q(x, y) :- likes(x, y)")
    b = Q("Q(y, x) :- likes(x, y)")
    assert not is_contained(a, b)
    assert is_diagonally_contained(a, b)
    assert is_diagonally_contained(b, a)
    assert a.arity == b.arity and is_diagonally_contained(a, b)


def test_plain_containment_implies_diagonal():
    rng = random.Random(411)
    for _ in range(120):
        q1 = _oracle.random_query(rng)
        q2 = _oracle.random_query(rng)
        if is_contained(q1, q2):
            assert is_diagonally_contained(q1, q2)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_minimize_drops_redundant_atom():
    q = Q("Q(x) :- likes(x, y), likes(x, z)")
    assert minimize(q) == Q("Q(x) :- likes(x, y)") or len(minimize(q).body) == 1


def test_minimize_keeps_head_variables_apart():
    q = Q("Q(x, y) :- likes(x, y), likes(x, z)")
    m = minimize(q)
    assert len(m.body) == 1
    assert m.head == q.head


def test_minimize_preserves_distinct_placeholders():
    q = Q("Q(x) :- likes(x, $c1), likes(x, $c2)")
    assert minimize(q) == q


def test_minimize_merges_variable_into_placeholder_atom():
    q = Q("Q(x) :- likes(x, $c1), likes(y, $c1)")
    assert minimize(q) == Q("Q(x) :- likes(x, $c1)")


def test_minimize_irredundant_query_unchanged():
    q = Q("Q(x) :- likes(x, y), visits(x, z), serves(z, y)")
    assert minimize(q) == q


def test_minimize_equivalent_to_input():
    rng = random.Random(751)
    for _ in range(150):
        q = _oracle.random_query(rng, max_atoms=4)
        m = minimize(q)
        assert len(m.body) <= len(q.body)
        assert is_equivalent(m, q)


# ---------------------------------------------------------------------------
# class keys
# ---------------------------------------------------------------------------


def test_canonical_key_identifies_equivalent_queries():
    a = Q("Q(x) :- likes(x, y)")
    b = Q("Q(u) :- likes(u, v), likes(u, w)")
    for state in (UNORDERED, ORDERED):
        assert key(a, state) == key(b, state)


def test_canonical_key_modulo_head_permutation():
    a = Q("Q(x, y) :- likes(x, y)")
    b = Q("Q(y, x) :- likes(x, y)")
    assert key(a, ORDERED) != key(b, ORDERED)
    assert key(a) == key(b)


def test_canonical_key_separates_placeholder_counts():
    one = Q("Q(x) :- likes(x, $c1)")
    two = Q("Q(x) :- likes(x, $c1), likes(x, $c2)")
    for state in (UNORDERED, ORDERED):
        assert key(one, state) != key(two, state)


def test_canonicalize_round_trip():
    rng = random.Random(902)
    for _ in range(100):
        q = _oracle.random_query(rng, max_atoms=4)
        for state in (UNORDERED, ORDERED):
            k, c = class_of(q, state)
            assert key(c, state) == k
            assert class_of(c, state)[1] == c
        assert is_equivalent(class_of(q, ORDERED)[1], q)
        assert same_up_to_head_order(class_of(q, UNORDERED)[1], q)


def test_class_of_keeps_head_order_with_key_atom():
    # the head lists the anchor's arguments in reverse; a representative
    # that reordered it would leave the key-atom language
    q = Q("Q(b, a) :- likes(a, b), serves(c, b)")
    _, ordered = class_of(q, ORDERED)
    assert Atom("likes", (ordered.head[1], ordered.head[0])) in ordered.body
    _, unordered = class_of(q, UNORDERED)
    assert Atom("likes", unordered.head) in unordered.body


# ---------------------------------------------------------------------------
# agreement with the brute-force oracle
# ---------------------------------------------------------------------------


def test_containment_matches_oracle_on_random_pairs():
    rng = random.Random(133001)
    for _ in range(250):
        q1 = _oracle.random_query(rng)
        q2 = _oracle.random_query(rng)
        assert is_contained(q1, q2) == _oracle.family_contained(q1, q2), (
            f"{q1} vs {q2}"
        )


def test_diagonal_matches_oracle_on_random_pairs():
    rng = random.Random(133002)
    for _ in range(150):
        q1 = _oracle.random_query(rng)
        q2 = _oracle.random_query(rng)
        assert is_diagonally_contained(q1, q2) == _oracle.diagonal_contained(q1, q2), (
            f"{q1} vs {q2}"
        )


def _specialize_and_reorder(rng, query):
    """A query diagonally contained in ``query`` by construction.

    Joins variables and binds some to constants, may add an atom over the
    result's terms, then keeps a shuffled subset of the head's images.
    """
    variables = sorted(query.variables(), key=lambda v: v.name)
    mapping = {}
    for variable in variables:
        roll = rng.random()
        if roll < 0.2:
            mapping[variable] = rng.choice(variables)
        elif roll < 0.3:
            mapping[variable] = Constant(rng.choice(_oracle.CONSTANT_POOL))
    body = substitute_terms(query.body, mapping)
    terms = sorted({t for atom in body for t in atom.args}, key=render_term)
    if rng.random() < 0.5:
        relation, arity = rng.choice(_oracle.RELATIONS)
        body |= {Atom(relation, tuple(rng.choice(terms) for _ in range(arity)))}
    images = {mapping.get(v, v) for v in query.head}
    heads = sorted((t for t in images if isinstance(t, Variable)), key=render_term)
    if not heads:
        return None
    head = rng.sample(heads, rng.randint(1, len(heads)))
    return ConjunctiveQuery(tuple(head), body)


def test_diagonal_matches_oracle_on_constructed_pairs():
    rng = random.Random(133005)
    built = 0
    while built < 150:
        q2 = _oracle.random_query(rng)
        q1 = _specialize_and_reorder(rng, q2)
        if q1 is None:
            continue
        built += 1
        assert is_diagonally_contained(q1, q2), f"{q1} vs {q2}"
        assert _oracle.diagonal_contained(q1, q2), f"{q1} vs {q2}"
        assert is_diagonally_contained(q2, q1) == _oracle.diagonal_contained(q2, q1), (
            f"{q2} vs {q1}"
        )


def test_canonical_key_equality_matches_equivalence_without_placeholders():
    rng = random.Random(133003)
    pairs = 0
    for _ in range(400):
        q1 = _oracle.random_query(rng, allow_symbolics=False)
        q2 = _oracle.random_query(rng, allow_symbolics=False)
        if q1.arity != q2.arity:
            continue
        pairs += 1
        assert (key(q1, ORDERED) == key(q2, ORDERED)) == is_equivalent(q1, q2)
        assert (key(q1) == key(q2)) == same_up_to_head_order(q1, q2)
    assert pairs > 100


def test_canonical_key_equality_implies_equivalence_with_placeholders():
    rng = random.Random(133004)
    for _ in range(200):
        q1 = _oracle.random_query(rng)
        q2 = _oracle.random_query(rng)
        if key(q1, ORDERED) == key(q2, ORDERED):
            assert is_equivalent(q1, q2)
        if key(q1) == key(q2):
            assert same_up_to_head_order(q1, q2)
