"""Association-rule generation between discovered frequent queries."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

import cqmine.containment
import cqmine.phase2
import cqmine.queries
from _oracle import reference_rules, rule_queries
from cqmine.containment import is_contained, minimize
from cqmine.errors import ConfigError
from cqmine.evaluation import support, support_grouped
from cqmine.generalization import atom_removals, splits
from cqmine.phase1 import (
    Level,
    MinerConfig,
    MinerState,
    QueryRecord,
    class_of,
    parse_key_atom,
    run_phase1,
)
from cqmine.phase2 import AssociationRule, RuleConfig, run_phase2
from cqmine.queries import canonical_form, instantiate, parse_query, render_query
from cqmine.relational import Instance, RelationDecl, Schema
from cqmine.reports import run_dump


@functools.lru_cache(maxsize=None)
def ordered_key(query):
    """Equivalence key that keeps head order, as rules compare heads."""
    return canonical_form(minimize(query))[0]


@pytest.fixture(scope="module")
def maxtwo_state(beer_instance):
    return run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))


@pytest.fixture(scope="module")
def rules_exact(maxtwo_state, beer_instance):
    return run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(1)))


@pytest.fixture(scope="module")
def rules_half(maxtwo_state, beer_instance):
    return run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(1, 2)))


def rule_texts(rule):
    return (rule.antecedent, rule.consequent)


def find_rule(rules, antecedent_text, consequent_text):
    hits = [r for r in rules if rule_texts(r) == (antecedent_text, consequent_text)]
    assert len(hits) <= 1
    return hits[0] if hits else None


def one_step_generalizations(query, max_atoms):
    """Strictly more general classes one walk step away, same head.

    Minimized, canonically renamed, deduplicated and sorted by canonical
    text; steps whose class is the query's own are dropped.  The rule walk
    still travels through those, because a later step applied to the
    redundant body can reach antecedents that no single step produces.
    """
    base_text, base = canonical_form(minimize(query))
    found = {}
    for raw in itertools.chain(atom_removals(base), splits(base, max_atoms)):
        text, reduced = canonical_form(minimize(raw))
        if text != base_text:
            found.setdefault(text, reduced)
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_minconf_zero_rejected():
    with pytest.raises(ConfigError):
        RuleConfig(Fraction(0))


def test_minconf_above_one_rejected():
    with pytest.raises(ConfigError):
        RuleConfig(Fraction(3, 2))


def test_minconf_negative_rejected():
    with pytest.raises(ConfigError):
        RuleConfig(Fraction(-1, 2))


def test_minconf_garbage_rejected():
    with pytest.raises(ConfigError):
        RuleConfig("not a number")


def test_minconf_coerced_to_exact_fraction():
    assert RuleConfig(Fraction(3, 4)).minconf == Fraction(3, 4)
    assert RuleConfig("3/4").minconf == Fraction(3, 4)
    assert RuleConfig("0.75").minconf == Fraction(3, 4)
    assert RuleConfig(0.75).minconf == Fraction(3, 4)
    assert RuleConfig(1).minconf == Fraction(1)
    assert RuleConfig(1).include_trivial is False


def test_rule_fields_validated():
    q = "Q(x1) :- likes(x1, x2)."
    with pytest.raises(ConfigError):
        AssociationRule(q, q, 0, Fraction(1))
    with pytest.raises(ConfigError):
        AssociationRule(q, q, 3, Fraction(2))


# ---------------------------------------------------------------------------
# one walk step: the head-preserving generalization steps
# ---------------------------------------------------------------------------


def test_constant_relaxes_to_variable(beer_schema):
    query = parse_query("Q(x1) :- likes(x1, 'Duvel')", beer_schema)
    results = one_step_generalizations(query, 2)
    assert [render_query(g) for g in results] == ["Q(x1) :- likes(x1, x2)."]


def test_atom_removal_generalizes(beer_schema):
    query = parse_query(
        "Q(x1, x2) :- likes(x1, 'Duvel'), visits(x1, x2), serves(x2, 'Duvel')",
        beer_schema,
    )
    texts = {render_query(g) for g in one_step_generalizations(query, 3)}
    assert "Q(x1, x2) :- likes(x1, 'Duvel'), visits(x1, x2)." in texts
    assert "Q(x1, x2) :- serves(x2, 'Duvel'), visits(x1, x2)." in texts
    # relaxing both constant occurrences at once keeps them linked
    assert "Q(x1, x2) :- likes(x1, x3), serves(x2, x3), visits(x1, x2)." in texts


def test_generalizations_are_strict_and_same_head(beer_schema):
    query = parse_query(
        "Q(x1, x2) :- likes(x1, 'Duvel'), visits(x1, x2), serves(x2, 'Duvel')",
        beer_schema,
    )
    results = one_step_generalizations(query, 3)
    keys = [ordered_key(g) for g in results]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    for general in results:
        assert general.head == query.head
        assert is_contained(query, general)
        assert not is_contained(general, query)


def test_full_head_single_atom_has_no_one_step_generalizations(beer_schema):
    query = parse_query("Q(x1, x2) :- likes(x1, x2)", beer_schema)
    assert one_step_generalizations(query, 2) == []


def test_variable_split_can_duplicate_the_atom(beer_schema):
    # Undoing the merge that produced likes(x1, x1) must re-expand the atom
    # into two, one per surviving occurrence.
    query = parse_query("Q(x1) :- likes(x1, x1)", beer_schema)
    texts = [render_query(g) for g in one_step_generalizations(query, 2)]
    assert texts == [
        "Q(x1) :- likes(x1, x2).",
        "Q(x1) :- likes(x1, x2), likes(x2, x1).",
        "Q(x1) :- likes(x1, x2), likes(x2, x2).",
        "Q(x1) :- likes(x2, x1).",
        "Q(x1) :- likes(x2, x1), likes(x2, x2).",
    ]


# ---------------------------------------------------------------------------
# full runs: flagship rules
# ---------------------------------------------------------------------------


def test_flagship_rule_holds_with_full_confidence(rules_exact):
    rule = find_rule(
        rules_exact, "Q(x1) :- likes(x1, x2).", "Q(x1) :- likes(x1, 'Duvel')."
    )
    assert rule is not None
    assert rule.confidence == Fraction(1)
    assert rule.support == 3


def test_instantiated_consequent_uses_grouped_count(maxtwo_state, rules_exact):
    record = next(
        r
        for r in maxtwo_state.frequent_records()
        if r.frequent_constants is not None
        and render_query(r.query) == "Q(x1) :- likes(x1, $c1)."
    )
    assert record.frequent_constants.counts[("Duvel",)] == 3
    rule = find_rule(
        rules_exact, "Q(x1) :- likes(x1, x2).", "Q(x1) :- likes(x1, 'Duvel')."
    )
    assert rule.support == 3


def test_antecedent_with_more_atoms_than_consequent_found(rules_half, beer_schema):
    # The split of likes(x1, x2) across two atoms keeps each head variable in
    # its own copy; no single rewriting step produces it, so finding it shows
    # the walk generalizes through redundant intermediate bodies.
    consequent = parse_query("Q(x1, x2) :- likes(x1, x2)", beer_schema)
    assert one_step_generalizations(consequent, 2) == []
    rule = find_rule(
        rules_half,
        "Q(x1, x2) :- likes(x1, x3), likes(x4, x2).",
        "Q(x1, x2) :- likes(x1, x2).",
    )
    assert rule is not None
    assert rule.support == 6
    assert rule.confidence == Fraction(2, 3)


def test_threshold_is_inclusive(maxtwo_state, beer_instance):
    rules = run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(2, 3)))
    assert all(rule.confidence >= Fraction(2, 3) for rule in rules)
    rule = find_rule(
        rules,
        "Q(x1, x2) :- likes(x1, x3), likes(x4, x2).",
        "Q(x1, x2) :- likes(x1, x2).",
    )
    assert rule is not None and rule.confidence == Fraction(2, 3)


def test_exact_threshold_keeps_only_certain_rules(rules_exact):
    assert rules_exact
    assert all(rule.confidence == Fraction(1) for rule in rules_exact)
    assert (
        find_rule(
            rules_exact,
            "Q(x1, x2) :- likes(x1, x3), likes(x4, x2).",
            "Q(x1, x2) :- likes(x1, x2).",
        )
        is None
    )


# ---------------------------------------------------------------------------
# full runs: structural invariants
# ---------------------------------------------------------------------------


def test_rule_sides_share_the_head_and_nest(rules_half):
    for rule in rules_half:
        antecedent, consequent = rule_queries(rule)
        assert antecedent.head == consequent.head
        assert is_contained(consequent, antecedent)


def test_no_duplicate_rules(rules_half):
    pairs = [tuple(ordered_key(q) for q in rule_queries(rule)) for rule in rules_half]
    assert len(set(pairs)) == len(pairs)


def test_rules_sorted_by_confidence_then_text(rules_half):
    ordering = [
        (-rule.confidence, *(render_query(q) for q in rule_queries(rule)))
        for rule in rules_half
    ]
    assert ordering == sorted(ordering)


def test_sampled_rules_verified_against_the_data(rules_half, beer_instance):
    rng = random.Random(20260823)
    for rule in rng.sample(rules_half, 250):
        antecedent, consequent = rule_queries(rule)
        consequent_support = support(consequent, beer_instance)
        antecedent_support = support(antecedent, beer_instance)
        assert rule.support == consequent_support >= 2
        assert rule.confidence == Fraction(consequent_support, antecedent_support)
        assert rule.confidence >= Fraction(1, 2)


def test_confidence_anti_monotone_along_antecedent_nesting(rules_half):
    rng = random.Random(4)
    by_consequent = {}
    for rule in rules_half:
        by_consequent.setdefault(render_query(rule_queries(rule)[1]), []).append(rule)
    groups = [g for g in by_consequent.values() if len(g) >= 2]
    checked = 0
    for group in rng.sample(groups, min(40, len(groups))):
        for first in rng.sample(group, min(6, len(group))):
            for second in rng.sample(group, min(6, len(group))):
                if is_contained(rule_queries(first)[0], rule_queries(second)[0]):
                    assert second.confidence <= first.confidence
                    checked += 1
    assert checked >= 40


def test_trivial_rules_only_on_request(maxtwo_state, beer_instance, rules_exact):
    def is_trivial(rule):
        antecedent, consequent = rule_queries(rule)
        return ordered_key(antecedent) == ordered_key(consequent)

    assert not any(is_trivial(rule) for rule in rules_exact)
    with_trivial = run_phase2(
        maxtwo_state, beer_instance, RuleConfig(Fraction(1), include_trivial=True)
    )
    trivial = [rule for rule in with_trivial if is_trivial(rule)]
    assert all(rule.confidence == Fraction(1) for rule in trivial)
    assert len(with_trivial) == len(rules_exact) + len(trivial)
    assert {rule_texts(r) for r in with_trivial} >= {rule_texts(r) for r in rules_exact}


def test_runs_are_deterministic_and_jobs_invariant(
    maxtwo_state, beer_instance, rules_exact
):
    again = run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(1)))
    assert again == rules_exact


def test_each_form_is_expanded_once_per_run(
    maxtwo_state, beer_instance, rules_half, monkeypatch
):
    # consequents share most of their generalizations, so the walk generates
    # a form's steps once per run and every later consequent reads them
    expanded = []

    def recording_atom_removals(form):
        expanded.append(canonical_form(form)[0])
        return atom_removals(form)

    monkeypatch.setattr(cqmine.phase2, "atom_removals", recording_atom_removals)
    rules = run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(1, 2)))
    assert rules == rules_half
    assert expanded
    assert len(expanded) == len(set(expanded))


def test_supports_held_from_phase_one_are_not_counted_again(
    maxtwo_state, beer_instance, rules_half, monkeypatch
):
    # every consequent's support is known from phase 1, and an antecedent
    # is counted at most once per run, however many walks reach it
    consequents = set()
    for record in maxtwo_state.frequent_records():
        grouped = record.frequent_constants
        if grouped is None:
            consequents.add(ordered_key(record.query))
            continue
        for assignment in grouped.counts:
            mapping = dict(zip(grouped.symbols, assignment))
            consequents.add(ordered_key(instantiate(record.query, mapping)))
    counted = []

    def recording_support(query, instance):
        counted.append(ordered_key(query))
        return support(query, instance)

    # an antecedent that keeps constants is counted grouped, with its
    # constants re-opened as placeholders, and each such count is made once
    grouped_counts = []

    def recording_support_grouped(query, instance, minsup=1):
        grouped_counts.append(query)
        return support_grouped(query, instance, minsup)

    monkeypatch.setattr(cqmine.phase2, "support", recording_support)
    monkeypatch.setattr(cqmine.phase2, "support_grouped", recording_support_grouped)
    rules = run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(1, 2)))
    assert rules == rules_half
    assert counted
    assert not consequents & set(counted)
    assert len(counted) == len(set(counted))
    assert grouped_counts
    assert all(query.symbolic_constants() for query in grouped_counts)
    assert len(grouped_counts) == len(set(grouped_counts))


def test_no_rules_without_frequent_queries(beer_instance):
    state = run_phase1(beer_instance, MinerConfig(minsup=37, max_atoms=2))
    assert run_phase2(state, beer_instance, RuleConfig(Fraction(1, 2))) == []


# ---------------------------------------------------------------------------
# one walk per group of constant assignments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("include_trivial", [False, True], ids=["plain", "trivial"])
@pytest.mark.parametrize(
    "minconf", [Fraction(1), Fraction(2, 3), Fraction(1, 2)], ids=["1", "2-3", "1-2"]
)
def test_rules_match_the_per_assignment_walk(
    maxtwo_state, beer_instance, minconf, include_trivial
):
    config = RuleConfig(minconf, include_trivial)
    expected = reference_rules(maxtwo_state, beer_instance, config)
    assert run_phase2(maxtwo_state, beer_instance, config) == expected


def test_rules_match_the_per_assignment_walk_at_three_atoms():
    # the three-atom instance of the phase-1 oracle test: over two values,
    # placeholders often share one, and instantiation collapses atoms
    schema = Schema((RelationDecl("r", ("a", "b")),))
    instance = Instance(schema, {"r": {("p", "q"), ("q", "p"), ("p", "p")}})
    state = run_phase1(instance, MinerConfig(minsup=2, max_atoms=3))
    config = RuleConfig(Fraction(1, 2))
    rules = run_phase2(state, instance, config)
    assert rules == reference_rules(state, instance, config)
    assert len(rules) == 24257


def test_one_walk_serves_every_assignment(monkeypatch):
    # likes(x1, $c1) is frequent for 'a', 'b' and 'c'; the three consequents
    # differ only by their constant, so one walk, from the first, serves all
    schema = Schema((RelationDecl("likes", ("drinker", "beer")),))
    rows = {("d1", "a"), ("d2", "a"), ("d1", "b"), ("d2", "b"), ("d3", "b")}
    instance = Instance(schema, {"likes": rows | {("d1", "c"), ("d3", "c")}})
    state = run_phase1(instance, MinerConfig(minsup=2, max_atoms=1))
    [record] = [
        record
        for record in state.frequent_records()
        if render_query(record.query) == "Q(x1) :- likes(x1, $c1)."
    ]
    grouped = record.frequent_constants
    assert sorted(grouped.counts) == [("a",), ("b",), ("c",)]
    consequents = {
        canonical_form(instantiate(record.query, dict(zip(grouped.symbols, values))))[0]
        for values in grouped.counts
    }
    expanded = []

    def recording_atom_removals(form):
        expanded.append(canonical_form(form)[0])
        return atom_removals(form)

    monkeypatch.setattr(cqmine.phase2, "atom_removals", recording_atom_removals)
    config = RuleConfig(Fraction(1, 2))
    rules = run_phase2(state, instance, config)
    assert sum(text in consequents for text in expanded) == 1
    assert rules == reference_rules(state, instance, config)
    for beer, confidence in (("a", Fraction(2, 3)), ("b", 1), ("c", Fraction(2, 3))):
        consequent = f"Q(x1) :- likes(x1, '{beer}')."
        rule = find_rule(rules, "Q(x1) :- likes(x1, x2).", consequent)
        assert rule.confidence == confidence


def test_equal_values_form_a_group_of_their_own():
    # one discovery with two placeholders; assignments that give both the
    # same value collapse its two atoms into one, a walk of another shape
    schema = Schema((RelationDecl("r", ("a", "b")),))
    rows = {("x", "p"), ("x", "q"), ("y", "p"), ("y", "q"), ("z", "p")}
    instance = Instance(schema, {"r": rows})
    state = MinerState(MinerConfig(minsup=2, max_atoms=2), schema)
    query = parse_query("Q(x1) :- r(x1, $c1), r(x1, $c2)", schema)
    key, representative = class_of(query, state)
    grouped = support_grouped(representative, instance, minsup=2)
    assert grouped.counts == {
        ("p", "p"): 3, ("p", "q"): 2, ("q", "p"): 2, ("q", "q"): 2
    }
    state.frequent_index[key] = QueryRecord(representative, grouped.best(), 1, grouped)
    state.levels.append(Level(1, (key,), (key,)))
    # ('p', 'q') and ('q', 'p') give the same query, which is walked once
    groups = cqmine.phase2._consequent_groups(state)
    assert [group.texts for group in groups] == [
        ["Q(x1) :- r(x1, 'p')", "Q(x1) :- r(x1, 'q')"],
        ["Q(x1) :- r(x1, 'p'), r(x1, 'q')"],
    ]
    for minconf in (Fraction(1), Fraction(1, 2)):
        config = RuleConfig(minconf, include_trivial=True)
        assert run_phase2(state, instance, config) == reference_rules(
            state, instance, config
        )


# ---------------------------------------------------------------------------
# per-run memos
# ---------------------------------------------------------------------------


def test_query_algebra_keeps_no_process_wide_memo():
    assert not hasattr(cqmine.queries.canonical_form, "cache_info")
    assert not hasattr(cqmine.containment.minimize, "cache_info")


def test_each_run_owns_its_memos(beer_instance):
    def mine(config):
        state = run_phase1(beer_instance, config)
        rules = run_phase2(state, beer_instance, RuleConfig(Fraction(1)))
        return state, run_dump(state, rules, {})

    config = MinerConfig(minsup=2, max_atoms=2)
    first, first_dump = mine(config)
    mine(MinerConfig(minsup=3, max_atoms=2, enable_constants=False))
    second, second_dump = mine(config)
    assert second_dump == first_dump
    assert second.canonical_form is not first.canonical_form
    assert second.minimize is not first.minimize
    assert second.parents is not first.parents
    # the runs in between left nothing behind: the second run starts from
    # empty memos and does exactly the first run's work
    assert second.canonical_form.cache_info() == first.canonical_form.cache_info()
    assert second.minimize.cache_info() == first.minimize.cache_info()
    assert second.parents == first.parents


# ---------------------------------------------------------------------------
# anchored pipeline
# ---------------------------------------------------------------------------


def test_visits_anchored_pipeline_yields_the_bar_rule(beer_schema, beer_instance):
    # Drinkers who like a beer and visit a bar; in five of six cases the bar
    # serves that very beer.
    config = MinerConfig(
        minsup=2, max_atoms=3, key_atom=parse_key_atom("visits(_, _)", beer_schema)
    )
    state = run_phase1(beer_instance, config)
    rules = run_phase2(state, beer_instance, RuleConfig(Fraction(5, 6)))
    rule = find_rule(
        rules,
        "Q(x1, x2) :- likes(x1, 'Duvel'), visits(x1, x2).",
        "Q(x1, x2) :- likes(x1, 'Duvel'), serves(x2, 'Duvel'), visits(x1, x2).",
    )
    assert rule is not None
    assert rule.confidence == Fraction(5, 6)
    assert rule.support == 5
