"""The head-preserving generalization steps shared by both phases."""

import gc

from cqmine.containment import is_diagonally_contained, minimize
from cqmine.generalization import inverse_substitutions, splits
from cqmine.queries import Variable, canonical_form, parse_query


def test_non_head_split_is_produced_once_per_mirror_pair(beer_schema):
    # x2 is shared by two atoms and not exported; renaming the split-off
    # occurrences to x2 and the rest to the fresh variable gives the same
    # query, so only one of each such pair may be produced.  A budget of four
    # atoms lets both atoms be duplicated.
    query = parse_query("Q(x1) :- likes(x1, x2), serves(x3, x2)", beer_schema)
    for max_atoms in (2, 4):
        steps = list(inverse_substitutions(query, Variable("x2"), max_atoms))
        texts = [canonical_form(step)[0] for step in steps]
        assert len(set(texts)) == len(texts)
        for step in steps:
            assert step.head == query.head
    # the mirror pairs exist: one split per pair survives at the tight budget
    tight = list(inverse_substitutions(query, Variable("x2"), 2))
    assert len(tight) == 1


def test_lone_occurrence_splits_only_by_duplicating_its_atom(beer_schema):
    query = parse_query("Q(x1) :- likes(x1, x2)", beer_schema)
    assert list(inverse_substitutions(query, Variable("x1"), 1)) == []
    (step,) = inverse_substitutions(query, Variable("x1"), 2)
    duplicated = parse_query("Q(x1) :- likes(x1, x2), likes(x3, x2)", beer_schema)
    assert canonical_form(step)[0] == canonical_form(duplicated)[0]


def test_searches_leave_no_cyclic_garbage():
    # a generator closure that calls itself leaves a function <-> cell
    # reference cycle behind every call, which only the cyclic collector frees
    redundant = parse_query(
        "Q(x) :- likes(x, y), likes(x, z), likes(w, y), visits(x, 'Cheers')"
    )
    joined = parse_query("Q(x) :- likes(x, y), likes(y, x), visits(x, y)")
    gc.collect()
    gc.disable()
    try:
        reduced = minimize(redundant)
        found = list(splits(joined, 4))
        assert is_diagonally_contained(reduced, redundant)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(reduced.body) < len(redundant.body)
    assert found
