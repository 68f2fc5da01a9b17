"""Tests for the levelwise frequent-query miner."""

import hashlib
import json

import pytest

from cqmine.containment import is_diagonally_contained, is_equivalent
from cqmine.errors import ConfigError
from cqmine.evaluation import support_grouped
from cqmine import phase1
from cqmine.phase1 import (
    ADMIT,
    DEFER,
    PRUNE,
    MinerConfig,
    MinerState,
    QueryRecord,
    admission,
    class_of,
    initial_candidates,
    parse_key_atom,
    run_phase1,
    specializations,
)
from cqmine.queries import Atom, parse_query
from cqmine.relational import RelationDecl, Schema

from _oracle import (
    candidate_keys,
    eager_admission,
    generalization_classes,
    render_query,
    support,
)


# class keys take no schema, so an empty one serves
UNORDERED = MinerState(MinerConfig(minsup=1), Schema(()))


def key_of(text, schema=None):
    return class_of(parse_query(text, schema), UNORDERED)[0]


def keys(queries):
    return {class_of(q, UNORDERED)[0] for q in queries}


def state_key(state, query):
    return class_of(query, state)[0]


# ---------------------------------------------------------------------------
# configuration and key-atom parsing


def test_minsup_must_be_positive():
    with pytest.raises(ConfigError):
        MinerConfig(minsup=0)


def test_max_atoms_must_be_positive():
    with pytest.raises(ConfigError):
        MinerConfig(minsup=1, max_atoms=0)


def test_max_atoms_fits_one_sqlite_join():
    assert MinerConfig(minsup=1, max_atoms=64).max_atoms == 64
    with pytest.raises(ConfigError, match="from 1 to 64"):
        MinerConfig(minsup=1, max_atoms=65)


def test_parse_key_atom(beer_schema):
    atom = parse_key_atom("likes(_, _)", beer_schema)
    assert atom.relation == "likes"
    assert len(atom.args) == 2
    assert len(set(atom.args)) == 2


def test_parse_key_atom_rejects_unknown_relation(beer_schema):
    with pytest.raises(ConfigError):
        parse_key_atom("owns(_, _)", beer_schema)


def test_parse_key_atom_rejects_wrong_arity(beer_schema):
    with pytest.raises(ConfigError):
        parse_key_atom("likes(_)", beer_schema)


def test_parse_key_atom_counts_only_placeholders():
    # underscores in the relation name are not argument positions
    schema = Schema((RelationDecl("has_tag", ("item", "tag")),))
    atom = parse_key_atom("has_tag(_, _)", schema)
    assert atom.relation == "has_tag"
    assert len(set(atom.args)) == 2
    with pytest.raises(ConfigError, match="has 1 positions"):
        parse_key_atom("has_tag(_)", schema)


def test_parse_key_atom_rejects_malformed(beer_schema):
    with pytest.raises(ConfigError):
        parse_key_atom("likes(x, _)", beer_schema)


# ---------------------------------------------------------------------------
# initial candidates


def test_initial_candidates_two_atoms(beer_schema, beer_instance):
    queries = initial_candidates(
        MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    )
    assert len(queries) == 6
    for query in queries:
        assert len(query.body) == 2
        assert query.arity == 4
        # every variable is fresh and exported, so the query is a cross
        # product: support is |likes| * |relation2| = 36 on this data
        assert support(query, beer_instance) == 36


def test_initial_candidates_counts_by_max_atoms(beer_schema):
    for max_atoms, count in [(1, 3), (3, 10)]:
        config = MinerConfig(minsup=1, max_atoms=max_atoms)
        assert len(initial_candidates(MinerState(config, beer_schema))) == count


def test_initial_candidates_key_atom(beer_schema):
    atom = parse_key_atom("likes(_, _)", beer_schema)
    queries = initial_candidates(
        MinerState(MinerConfig(minsup=2, max_atoms=2, key_atom=atom), beer_schema)
    )
    assert [render_query(q) for q in queries] == ["Q(x1, x2) :- likes(x1, x2)."]


# ---------------------------------------------------------------------------
# specializations


def test_specializations_of_double_likes(beer_schema):
    base = parse_query("Q(x1,x2,x3,x4) :- likes(x1,x2), likes(x3,x4)", beer_schema)
    results = specializations(
        base, MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    ).values()
    got = keys(results)
    # joins: shared first column, shared second column, a chain, a self-loop
    assert key_of("Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)") in got
    assert key_of("Q(x1,x2,x3) :- likes(x1,x2), likes(x3,x2)") in got
    assert key_of("Q(x1,x2,x3) :- likes(x1,x2), likes(x2,x3)") in got
    assert key_of("Q(x1,x2,x3) :- likes(x1,x1), likes(x2,x3)") in got
    # projections collapse symmetric drops into two classes
    assert key_of("Q(x1,x2,x3) :- likes(x1,x2), likes(x3,x4)") in got
    assert key_of("Q(x1,x3,x4) :- likes(x1,x2), likes(x3,x4)") in got
    # nothing else: no extension at the atom cap, no selection on an
    # all-exported head
    assert len(results) == 6


def test_specializations_mixed_pair_has_mixed_join(beer_schema):
    base = parse_query("Q(x1,x2,x3,x4) :- likes(x1,x2), visits(x3,x4)", beer_schema)
    results = specializations(
        base, MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    ).values()
    got = keys(results)
    assert key_of("Q(x1,x2,x3) :- likes(x1,x2), visits(x1,x3)") in got


def test_specializations_single_application_results(beer_schema):
    # one query, all four operations visible at once
    base = parse_query(
        "Q(x,y) :- likes(x,y), visits(x,z), serves(z,u)", beer_schema
    )
    state = MinerState(MinerConfig(minsup=2, max_atoms=4), beer_schema)
    got = keys(specializations(base, state).values())
    # join u into y
    assert (
        key_of("Q(x,y) :- likes(x,y), visits(x,z), serves(z,y)", beer_schema) in got
    )
    # selection of the non-exported bar and beer variables
    assert (
        key_of("Q(x,y) :- likes(x,y), visits(x,$c1), serves($c1,u)", beer_schema)
        in got
    )
    assert (
        key_of("Q(x,y) :- likes(x,y), visits(x,z), serves(z,$c1)", beer_schema) in got
    )
    # projection onto the drinker alone (the body stays: no atom maps into
    # another relation's atom, so nothing is redundant)
    assert (
        key_of("Q(x) :- likes(x,y), visits(x,z), serves(z,u)", beer_schema) in got
    )


def test_specializations_extension_adds_other_relations(beer_schema):
    base = parse_query("Q(x) :- likes(x,y)", beer_schema)
    state = MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    got = keys(specializations(base, state).values())
    assert key_of("Q(x) :- likes(x,y), serves(u,v)", beer_schema) in got
    assert key_of("Q(x) :- likes(x,y), visits(u,v)", beer_schema) in got
    # extending with another likes atom is redundant and collapses back
    assert key_of("Q(x) :- likes(x,y), likes(u,v)", beer_schema) == key_of(
        "Q(x) :- likes(x,y)", beer_schema
    )


def test_specializations_never_return_own_class(beer_schema):
    state = MinerState(MinerConfig(minsup=2, max_atoms=3), beer_schema)
    for text in [
        "Q(x1,x2) :- likes(x1,x2)",
        "Q(x1) :- likes(x1,$c1)",
        "Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)",
    ]:
        base = parse_query(text, beer_schema)
        base_key = class_of(base, state)[0]
        results = specializations(base, state).values()
        assert base_key not in keys(results)


def test_specializations_respect_atom_cap(beer_schema):
    base = parse_query("Q(x) :- likes(x,y), visits(x,z)", beer_schema)
    state = MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    for result in specializations(base, state).values():
        assert len(result.body) <= 2


def test_specializations_without_constants(beer_schema):
    base = parse_query("Q(x) :- likes(x,y)", beer_schema)
    config = MinerConfig(minsup=2, max_atoms=2, enable_constants=False)
    for result in specializations(base, MinerState(config, beer_schema)).values():
        assert not result.symbolic_constants()


def test_specializations_key_atom_keeps_head(beer_schema):
    atom = parse_key_atom("likes(_, _)", beer_schema)
    state = MinerState(MinerConfig(minsup=2, max_atoms=2, key_atom=atom), beer_schema)
    base = parse_query("Q(x1,x2) :- likes(x1,x2), serves(x3,x4)", beer_schema)
    results = specializations(base, state).values()
    assert results
    for result in results:
        assert result.arity == 2
        assert Atom("likes", result.head) in result.body


def test_class_keys_are_state_keys(beer_schema):
    state = MinerState(MinerConfig(minsup=2, max_atoms=3), beer_schema)
    checked = 0
    for text in [
        "Q(x,y) :- likes(x,y), visits(x,z), serves(z,u)",
        "Q(x1) :- likes(x1,$c1), visits(x1,x2)",
        "Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)",
    ]:
        query = parse_query(text, beer_schema)
        for found in (
            specializations(query, state),
            generalization_classes(query, state),
        ):
            assert list(found) == sorted(found)
            for key, representative in found.items():
                assert key == class_of(representative, state)[0]
                checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# immediate generalizations


def test_most_general_queries_have_no_generalizations(beer_schema):
    state = MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    for query in initial_candidates(state):
        assert list(generalization_classes(query, state).values()) == []


def test_generalizations_of_shared_drinker_join(beer_schema):
    query = parse_query("Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)", beer_schema)
    results = generalization_classes(
        query, MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    ).values()
    # splitting the shared drinker un-exports one of them, leaving the class
    # that exports one full row plus the other atom's beer column
    assert keys(results) == {key_of("Q(x1,x2,x4) :- likes(x1,x2), likes(x3,x4)")}


def test_generalizations_of_mixed_join(beer_schema):
    query = parse_query("Q(x1,x2,x3) :- likes(x1,x2), visits(x1,x3)", beer_schema)
    results = generalization_classes(
        query, MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    ).values()
    got = keys(results)
    assert key_of("Q(x1,x2,x4) :- likes(x1,x2), visits(x3,x4)") in got
    assert key_of("Q(x1,x2,x3) :- likes(x4,x2), visits(x1,x3)") in got
    assert len(results) == 2


def test_generalizations_reopen_symbolic_constant(beer_schema):
    query = parse_query("Q(x1) :- likes(x1,$c1)", beer_schema)
    results = generalization_classes(
        query, MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    ).values()
    assert keys(results) == {key_of("Q(x1) :- likes(x1,x2)")}


def test_generalizations_restore_head_variable(beer_schema):
    query = parse_query("Q(x1) :- likes(x1,x2)", beer_schema)
    results = generalization_classes(
        query, MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    ).values()
    assert keys(results) == {key_of("Q(x1,x2) :- likes(x1,x2)")}


def test_generalizations_are_strict(beer_schema):
    state = MinerState(MinerConfig(minsup=2, max_atoms=3), beer_schema)
    for text in [
        "Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)",
        "Q(x1) :- likes(x1,x2), visits(x1,x3)",
        "Q(x1) :- likes(x1,$c1), visits(x1,x2)",
    ]:
        query = parse_query(text, beer_schema)
        for parent in generalization_classes(query, state).values():
            assert is_diagonally_contained(query, parent)
            assert not is_diagonally_contained(parent, query)


def test_generalizations_key_atom_stay_in_language(beer_schema):
    atom = parse_key_atom("likes(_, _)", beer_schema)
    state = MinerState(MinerConfig(minsup=2, max_atoms=2, key_atom=atom), beer_schema)
    query = parse_query("Q(x1,x2) :- likes(x1,x2), visits(x1,x3)", beer_schema)
    results = generalization_classes(query, state).values()
    got = keys(results)
    # splitting the shared drinker on the visits side stays anchored
    assert key_of("Q(x1,x2) :- likes(x1,x2), visits(x4,x3)") in got
    # dropping the visits atom does too
    assert key_of("Q(x1,x2) :- likes(x1,x2)") in got
    for parent in results:
        assert Atom("likes", parent.head) in parent.body


# ---------------------------------------------------------------------------
# pruning


def verdict_for(query, state):
    # each verdict walks the generalizations afresh
    state.waiting.clear()
    key, representative = class_of(query, state)
    return admission(key, representative, state)


def test_prune_drops_already_seen_classes(beer_instance):
    state = run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))
    renamed = parse_query("Q(a,b,c) :- likes(a,b), likes(a,c)")
    key = state_key(state, renamed)
    assert key in state.frequent_index
    assert verdict_for(renamed, state) == PRUNE
    # dropping a settled class from the pool leaves its classification alone
    assert key in state.frequent_index
    assert key not in state.infrequent_index


def test_prune_admits_class_with_frequent_parents(beer_instance):
    state = run_phase1(
        beer_instance, MinerConfig(minsup=2, max_atoms=2, enable_constants=False)
    )
    candidate = parse_query("Q(x1) :- likes(x1,$c1)")
    assert verdict_for(candidate, state) == ADMIT


def test_prune_blocks_class_with_unknown_parent(beer_instance):
    state = run_phase1(
        beer_instance, MinerConfig(minsup=2, max_atoms=2, enable_constants=False)
    )
    # this class generalizes (among others) to the chain join, which the run
    # evaluated and found infrequent, so the class itself was never admitted
    candidate = parse_query("Q(x1,x2) :- likes(x1,x2), likes(x2,x3)")
    chain = state_key(state, parse_query("Q(x1,x2,x3) :- likes(x1,x2), likes(x2,x3)"))
    key = state_key(state, candidate)
    assert key in state.infrequent_index and chain in state.infrequent_index
    state.infrequent_index.discard(key)
    assert verdict_for(candidate, state) == PRUNE
    assert key in state.infrequent_index
    # while the chain join is still unclassified, the candidate waits
    state.infrequent_index -= {key, chain}
    assert verdict_for(candidate, state) == DEFER
    assert key not in state.infrequent_index


def no_split_expected(*args):
    raise AssertionError("a split was made after the verdict was known")


def mark_frequent(state, text, instance):
    # classify a class frequent with its measured support, as a run would
    key, query = class_of(parse_query(text), state)
    grouped = support_grouped(query, instance, state.config.minsup)
    assert grouped, text
    state.frequent_index[key] = QueryRecord(key, query, grouped.best(), 1, grouped)


def test_prune_stops_at_first_infrequent_parent(
    beer_instance, beer_schema, monkeypatch
):
    # atom removals come before splits, so an infrequent removal settles the
    # verdict before any split is made; the removal walked before it is
    # frequent, so the walk passes it
    monkeypatch.setattr(phase1, "splits", no_split_expected)
    config = MinerConfig(minsup=2, max_atoms=2)
    state = MinerState(config=config, schema=beer_schema)
    mark_frequent(state, "Q(x1) :- visits(x1,x3)", beer_instance)
    removal = key_of("Q(x1) :- likes(x1,x2)")
    state.infrequent_index.add(removal)
    key, representative = class_of(
        parse_query("Q(x1) :- likes(x1,x2), visits(x1,x3)"), state
    )
    assert admission(key, representative, state) == PRUNE
    assert key in state.infrequent_index
    # a pruned class leaves no memo behind
    assert state.waiting == {}


def test_defer_waits_on_the_first_parent_not_known_frequent(
    beer_instance, beer_schema, monkeypatch
):
    # of the candidate's two atom removals, the first walked is unclassified
    # and the second infrequent: the walk stops at the first
    calls = {"class_of": 0}

    def counted(*args):
        calls["class_of"] += 1
        return class_of(*args)

    monkeypatch.setattr(phase1, "splits", no_split_expected)
    monkeypatch.setattr(phase1, "class_of", counted)
    config = MinerConfig(minsup=2, max_atoms=2)
    state = MinerState(config=config, schema=beer_schema)
    unclassified = key_of("Q(x1) :- visits(x1,x3)")
    infrequent = key_of("Q(x1) :- likes(x1,x2)")
    state.infrequent_index.add(infrequent)
    key, representative = class_of(
        parse_query("Q(x1) :- likes(x1,x2), visits(x1,x3)"), state
    )

    def verdict():
        return admission(key, representative, state)

    assert verdict() == DEFER
    assert state.waiting == {key: unclassified}
    assert key not in state.infrequent_index
    # while that parent stays unclassified, the candidate waits unwalked
    walked = calls["class_of"]
    assert walked > 0
    assert verdict() == DEFER
    assert calls["class_of"] == walked
    assert state.waiting == {key: unclassified}
    # once it is infrequent, the candidate is pruned and forgotten
    state.infrequent_index.add(unclassified)
    assert verdict() == PRUNE
    assert key in state.infrequent_index
    assert state.waiting == {}
    # once it is frequent, the walk starts over and reaches the infrequent
    # removal
    state.infrequent_index -= {key, unclassified}
    assert verdict() == DEFER
    assert state.waiting == {key: unclassified}
    mark_frequent(state, "Q(x1) :- visits(x1,x3)", beer_instance)
    walked = calls["class_of"]
    assert verdict() == PRUNE
    assert calls["class_of"] > walked
    assert key in state.infrequent_index
    assert state.waiting == {}


# ---------------------------------------------------------------------------
# full runs


@pytest.fixture(scope="module")
def beer_run(beer_instance):
    return run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))


def record_for(state, text):
    return state.frequent_index.get(state_key(state, parse_query(text)))


def test_run_level_one_is_all_cross_products(beer_run):
    first = beer_run.levels[0]
    assert len(first.candidate_keys) == 6
    assert first.candidate_keys == first.frequent_keys
    for key in first.frequent_keys:
        assert beer_run.frequent_index[key].support == 36


def test_run_level_two_is_single_projections(beer_run, beer_schema):
    state = MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
    expected = set()
    for query in initial_candidates(state):
        for position in range(query.arity):
            head = query.head[:position] + query.head[position + 1 :]
            projected = type(query)(head, query.body)
            expected.add(class_of(projected, state)[0])
    second = beer_run.levels[1]
    assert len(expected) == 18
    assert set(second.candidate_keys) == expected
    assert set(second.frequent_keys) == expected


def test_run_join_classes_appear_at_level_three(beer_run):
    supports = {
        "Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)": 14,
        "Q(x1,x2,x3) :- likes(x1,x2), likes(x3,x2)": 14,
        "Q(x1,x2,x3) :- visits(x1,x2), visits(x1,x3)": 14,
        "Q(x1,x2,x3) :- visits(x1,x2), visits(x3,x2)": 14,
        "Q(x1,x2,x3) :- serves(x1,x2), serves(x1,x3)": 14,
        "Q(x1,x2,x3) :- serves(x1,x2), serves(x3,x2)": 12,
        "Q(x1,x2,x3) :- likes(x1,x2), visits(x1,x3)": 10,
    }
    for text, expected in supports.items():
        record = record_for(beer_run, text)
        assert record is not None, text
        assert record.support == expected, text
        assert record.level == 3, text


def test_run_chain_joins_are_infrequent(beer_run):
    # chained columns never meet on this data (no value is both a drinker
    # and a beer, and so on), so these classes are evaluated and rejected
    for text in [
        "Q(x1,x2,x3) :- likes(x1,x2), likes(x2,x3)",
        "Q(x1,x2,x3) :- visits(x1,x2), visits(x2,x3)",
        "Q(x1,x2,x3) :- serves(x1,x2), serves(x2,x3)",
    ]:
        key = state_key(beer_run, parse_query(text))
        assert key not in beer_run.frequent_index
        assert key in beer_run.infrequent_index


def test_run_descent_to_single_drinker_column(beer_run):
    whole = record_for(beer_run, "Q(x1,x2) :- likes(x1,x2)")
    assert whole is not None and whole.support == 6 and whole.level == 3
    drinkers = record_for(beer_run, "Q(x1) :- likes(x1,x2)")
    assert drinkers is not None and drinkers.support == 3 and drinkers.level == 4


def test_run_symbolic_descent_record(beer_run):
    record = record_for(beer_run, "Q(x1) :- likes(x1,$c1)")
    assert record is not None
    assert record.level == 5
    assert record.support == 3
    assert record.frequent_constants.sorted_items() == [
        (("Duvel",), 3),
        (("Trappist",), 2),
    ]


def test_run_high_threshold_stops_after_first_level(beer_instance):
    state = run_phase1(beer_instance, MinerConfig(minsup=37, max_atoms=2))
    assert len(state.levels) == 1
    assert not state.frequent_index
    assert len(state.infrequent_index) == 6


def test_run_single_atom_language(beer_instance):
    state = run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=1))
    table = {}
    for record in state.frequent_records():
        assignments = record.frequent_constants.sorted_items()
        table[render_query(record.query)] = (record.level, record.support, assignments)
    # a plain discovery holds the one empty assignment, with its support
    assert table == {
        "Q(x1, x2) :- likes(x1, x2).": (1, 6, [((), 6)]),
        "Q(x1, x2) :- serves(x1, x2).": (1, 6, [((), 6)]),
        "Q(x1, x2) :- visits(x1, x2).": (1, 6, [((), 6)]),
        "Q(x1) :- likes(x1, x2).": (2, 3, [((), 3)]),
        "Q(x1) :- likes(x2, x1).": (2, 3, [((), 3)]),
        "Q(x1) :- serves(x1, x2).": (2, 3, [((), 3)]),
        "Q(x1) :- serves(x2, x1).": (2, 3, [((), 3)]),
        "Q(x1) :- visits(x1, x2).": (2, 3, [((), 3)]),
        "Q(x1) :- visits(x2, x1).": (2, 3, [((), 3)]),
        "Q(x1) :- likes($c1, x1).": (3, 3, [(("Bill",), 3), (("Allen",), 2)]),
        "Q(x1) :- likes(x1, $c1).": (3, 3, [(("Duvel",), 3), (("Trappist",), 2)]),
        "Q(x1) :- serves($c1, x1).": (3, 3, [(("Cheers",), 3), (("California",), 2)]),
        "Q(x1) :- serves(x1, $c1).": (
            3,
            2,
            [(("Duvel",), 2), (("Jupiler",), 2), (("Trappist",), 2)],
        ),
        "Q(x1) :- visits($c1, x1).": (3, 3, [(("Carol",), 3), (("Allen",), 2)]),
        "Q(x1) :- visits(x1, $c1).": (3, 3, [(("Cheers",), 3), (("California",), 2)]),
    }


# per anchor: two joined patterns that keep all six anchor rows, and one
# placeholder pattern with its frequent assignments
KEY_ATOM_EXPECTED = {
    "likes": (
        [
            "Q(x1, x2) :- likes(x1, x2), serves(x3, x2).",
            "Q(x1, x2) :- likes(x1, x2), visits(x1, x3).",
        ],
        "Q(x1,x2) :- likes(x1,x2), visits(x1,$c1)",
        [(("Cheers",), 6), (("California",), 3)],
    ),
    "visits": (
        [
            "Q(x1, x2) :- likes(x1, x3), visits(x1, x2).",
            "Q(x1, x2) :- serves(x2, x3), visits(x1, x2).",
        ],
        "Q(x1,x2) :- likes(x1,$c1), visits(x1,x2)",
        [(("Duvel",), 6), (("Trappist",), 3)],
    ),
    "serves": (
        [
            "Q(x1, x2) :- likes(x3, x2), serves(x1, x2).",
            "Q(x1, x2) :- serves(x1, x2), visits(x3, x1).",
        ],
        "Q(x1,x2) :- serves(x1,x2), visits($c1,x1)",
        [(("Carol",), 6), (("Allen",), 5), (("Bill",), 3)],
    ),
}


@pytest.mark.parametrize("anchor", sorted(KEY_ATOM_EXPECTED))
def test_run_key_atom_language(beer_instance, beer_schema, anchor):
    atom = parse_key_atom(f"{anchor}(_, _)", beer_schema)
    state = run_phase1(
        beer_instance, MinerConfig(minsup=2, max_atoms=3, key_atom=atom)
    )
    # every representative lists the anchor's arguments as its head, in order
    for record in state.frequent_records():
        assert record.query.arity == 2
        assert Atom(anchor, record.query.head) in record.query.body
    table = {
        render_query(record.query): record.support
        for record in state.frequent_records()
    }
    # the key atom's own rows are the transactions; these patterns keep all
    # six because the attached conditions hold for every row
    joined, placeholder, assignments = KEY_ATOM_EXPECTED[anchor]
    assert table[f"Q(x1, x2) :- {anchor}(x1, x2)."] == 6
    for text in joined:
        assert table[text] == 6, text
    record = record_for(state, placeholder)
    assert record is not None
    assert record.frequent_constants.sorted_items() == assignments


def test_run_is_deterministic_and_jobs_invariant(beer_instance):
    def snapshot(state):
        return (
            [(lv.number, lv.candidate_keys, lv.frequent_keys) for lv in state.levels],
            {key: record.support for key, record in state.frequent_index.items()},
            set(state.infrequent_index),
        )

    config = MinerConfig(minsup=2, max_atoms=2)
    first = snapshot(run_phase1(beer_instance, config))
    second = snapshot(run_phase1(beer_instance, config))
    assert first == second


def test_run_no_two_frequent_classes_equivalent(beer_run):
    records = [
        record
        for record in beer_run.frequent_records()
        if not record.query.symbolic_constants()
    ]
    plain = [record.query for record in records]
    for index, left in enumerate(plain):
        for right in plain[index + 1 :]:
            assert not is_equivalent(left, right)


def test_run_supports_match_direct_evaluation(beer_run, beer_instance):
    for record in beer_run.frequent_records():
        if record.query.symbolic_constants():
            continue
        assert support(record.query, beer_instance) == record.support


def test_run_records_are_minimized_representatives(beer_run):
    for record in beer_run.frequent_records():
        assert state_key(beer_run, record.query) in beer_run.frequent_index
        assert render_query(record.query).startswith("Q(")


def test_run_obeys_the_apriori_invariant(beer_run):
    # keys are canonical texts, so each one parses back to its representative
    def parents_of(key):
        query = parse_query(key)
        assert state_key(beer_run, query) == key
        return generalization_classes(query, beer_run)

    evaluated = candidate_keys(beer_run)
    assert set(beer_run.frequent_index) <= evaluated
    for key in evaluated:
        assert all(parent in beer_run.frequent_index for parent in parents_of(key))
    pruned = beer_run.infrequent_index - evaluated
    assert pruned
    for key in pruned:
        assert any(parent in beer_run.infrequent_index for parent in parents_of(key))


# the levels of the bench's beer-a3 run: sha256 of the json of their tuples
BEER_A3_LEVELS = "a603626f797d9e87f76957b002a1874afaf5e9cdbb8c2c7375f6bbc76bbfa021"


def test_run_keys_most_classes_from_the_memo(beer_instance, monkeypatch):
    # most raw queries phase 1 keys are renamings of one keyed before; only
    # the memo's misses minimize (5,657 calls, 1,747 misses when written).
    # This is the bench's beer-a3 run, and its work is guarded: one survivor
    # per join of two head variables (8,825 calls with both), no strictness
    # check on a split of a query without placeholders, and admission walks
    # stop at the first parent not known frequent (7,307 calls walking on
    # to the first infrequent one)
    calls = {"class_of": 0, "minimize": 0, "is_diagonally_contained": 0}

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    # a deferred class keeps one key, never a suspended walk
    waits = []
    lazy = phase1.admission

    def admission(key, representative, state):
        verdict = lazy(key, representative, state)
        waits.append(state.waiting.get(key))
        return verdict

    for name in calls:
        monkeypatch.setattr(phase1, name, counting(name, getattr(phase1, name)))
    monkeypatch.setattr(phase1, "admission", admission)
    config = MinerConfig(minsup=40, max_atoms=3, enable_constants=False)
    state = run_phase1(beer_instance, config)
    assert state.frequent_index
    assert calls["minimize"] == len(state.classes)
    assert calls["minimize"] < calls["class_of"] / 2
    assert calls["class_of"] <= 5657
    assert all(type(parent) is str for parent in state.waiting.values())
    assert any(waits)
    assert all(parent is None or type(parent) is str for parent in waits)
    assert calls["is_diagonally_contained"] == 0
    levels = json.dumps([list(level) for level in state.levels])
    assert hashlib.sha256(levels.encode()).hexdigest() == BEER_A3_LEVELS


def phase1_snapshot(state):
    return (
        state.levels,
        {
            key: (
                record.support,
                record.level,
                record.texts,
                record.frequent_constants.sorted_items(),
            )
            for key, record in state.frequent_index.items()
        },
    )


@pytest.mark.parametrize(
    "minsup, max_atoms, constants, anchor",
    [
        (2, 2, True, None),
        (2, 2, False, None),
        (2, 2, True, "likes(_,_)"),
        (40, 3, False, None),
    ],
    ids=["a2-s2", "a2-s2-no-constants", "a2-s2-key-atom", "beer-a3"],
)
def test_lazy_admission_mines_what_the_eager_rule_does(
    beer_instance, beer_schema, monkeypatch, minsup, max_atoms, constants, anchor
):
    key_atom = parse_key_atom(anchor, beer_schema) if anchor else None
    config = MinerConfig(minsup, max_atoms, constants, key_atom)
    lazy = run_phase1(beer_instance, config)
    monkeypatch.setattr(phase1, "admission", eager_admission())
    eager = run_phase1(beer_instance, config)
    assert phase1_snapshot(lazy) == phase1_snapshot(eager)
    # stopping earlier only turns some prunings into waits
    assert lazy.infrequent_index <= eager.infrequent_index
