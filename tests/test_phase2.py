"""Association-rule generation between discovered frequent queries."""

import functools
import io
import itertools
import random
import sys
from fractions import Fraction
from operator import attrgetter

import pytest

import cqmine.containment
import cqmine.evaluation
import cqmine.phase1
import cqmine.phase2
import cqmine.queries
from _oracle import reference_rules, render_query, rule_queries, support
from cqmine.containment import is_contained, minimize
from cqmine.errors import ConfigError
from cqmine.evaluation import support_grouped
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
from cqmine.queries import (
    canonical_form,
    canonical_text,
    instance_renderer,
    instantiate,
    parse_query,
)
from cqmine.relational import Instance, RelationDecl, Schema
from cqmine.reports import write_frequent, write_reports


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


def test_rules_compare_by_value_in_64_bytes():
    # phase 2's memory is mostly rules, so each must stay this small
    rule = AssociationRule(
        "Q(x1) :- likes(x1, x2).", "Q(x1) :- likes(x1, 'a').", 3, Fraction(3, 4)
    )
    same = AssociationRule(
        antecedent=rule.antecedent,
        consequent=rule.consequent,
        support=3,
        confidence=Fraction(6, 8),
    )
    assert rule == same and hash(rule) == hash(same)
    assert rule != AssociationRule(rule.antecedent, rule.consequent, 3, Fraction(1, 2))
    assert rule != (rule.antecedent, rule.consequent, 3, Fraction(3, 4))
    assert sys.getsizeof(rule) <= 64


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
        if render_query(r.query) == "Q(x1) :- likes(x1, $c1)."
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


def test_rules_share_their_parts_and_keep_their_order(rules_half):
    for side in (attrgetter("antecedent"), attrgetter("consequent")):
        first = {}
        for rule in rules_half:
            text = side(rule)
            assert first.setdefault(text, text) is text
    # one ``Fraction`` per (support, antecedent support) pair
    confidences = {}
    for rule in rules_half:
        pair = (rule.support, rule.support / rule.confidence)
        assert confidences.setdefault(pair, rule.confidence) is rule.confidence
    assert len({id(rule.confidence) for rule in rules_half}) == len(confidences)
    # the order of two stable sorts, by texts and then by descending confidence
    expected = sorted(rules_half, key=attrgetter("antecedent", "consequent"))
    expected.sort(key=attrgetter("confidence"), reverse=True)
    assert rules_half == expected


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
    # a form's steps once per memo entry and every later consequent reads
    # them; each entry holds its own form object, kept alive here, so the
    # objects' identities tell the entries apart
    expanded = []

    def recording_atom_removals(form):
        expanded.append(form)
        return atom_removals(form)

    monkeypatch.setattr(cqmine.phase2, "atom_removals", recording_atom_removals)
    rules = run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(1, 2)))
    assert rules == rules_half
    assert expanded
    assert len(expanded) == len(set(map(id, expanded)))


def test_every_count_comes_from_the_instance_table(
    maxtwo_state, beer_instance, rules_half, monkeypatch
):
    # every support comes from one table of grouped counts: an antecedent,
    # a constant-free consequent reached from another walk included, is
    # counted at most once per run, however many walks reach it, with any
    # constants it keeps re-opened as placeholders; its components come from
    # the instance's table, where phase 1 left them (the components counted
    # are pinned by ``test_each_component_is_counted_once_per_instance``)
    counted = []

    def recording_support_grouped(query, instance, minsup=1):
        counted.append(query)
        return support_grouped(query, instance, minsup)

    monkeypatch.setattr(cqmine.phase2, "support_grouped", recording_support_grouped)
    rules = run_phase2(maxtwo_state, beer_instance, RuleConfig(Fraction(1, 2)))
    assert rules == rules_half
    assert len(counted) == len(set(counted))
    assert not any(query.constants() for query in counted)
    # the count calls of beer at two atoms, minsup 2 and minconf 1/2
    assert len(counted) == 324


def test_each_component_is_counted_once_per_instance(
    beer_instance, rules_half, monkeypatch
):
    # a fresh instance starts with an empty table of component counts; phase
    # 1 counts each distinct component key once, and phase 2 finds nearly
    # every count it needs in the entries phase 1 made (the parent design
    # counted 711 components in phase 1 and 435 in phase 2)
    instance = Instance(beer_instance.schema, beer_instance.tables)
    counted = []
    count = cqmine.evaluation._count

    def recording(component, instance, threshold):
        counted.append(component)
        return count(component, instance, threshold)

    monkeypatch.setattr(cqmine.evaluation, "_count", recording)
    state = run_phase1(instance, MinerConfig(minsup=2, max_atoms=2))
    assert len(counted) == len(instance.component_counts) == 147
    rules = run_phase2(state, instance, RuleConfig(Fraction(1, 2)))
    assert rules == rules_half
    assert len(counted) == len(instance.component_counts) == 148


def test_instance_texts_render_once_per_order_type(
    beer_instance, rules_half, monkeypatch
):
    # every instance text is filled into a rendering of its query made once
    # per order type of the values (the parent design made 689 renderings in
    # phase 1 and 824 in phase 2, one per instance where a relation repeats)
    rendered = []

    def rendering(query, substitution=None):
        rendered.append(query)
        return canonical_text(query, substitution)

    monkeypatch.setattr(cqmine.queries, "canonical_text", rendering)
    state = run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))
    assert len(rendered) == 421
    rules = run_phase2(state, beer_instance, RuleConfig(Fraction(1, 2)))
    assert rules == rules_half
    assert not hasattr(cqmine.phase2, "canonical_text")
    assert len(rendered) == 421 + 329


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
    rules = run_phase2(maxtwo_state, beer_instance, config)
    assert rules == expected
    # rules are built unchecked, from supports phase 2 has just tested
    assert all(rule.support >= 1 for rule in rules)
    assert all(minconf <= rule.confidence <= 1 for rule in rules)


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
    state.frequent_index[key] = QueryRecord(
        key, representative, grouped.best(), 1, grouped
    )
    state.levels.append(Level(1, (key,), (key,)))
    # ('p', 'q') and ('q', 'p') give the same query, which is walked once
    groups = cqmine.phase2._consequent_groups(state, {})
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
# each frequent instance rendered once
# ---------------------------------------------------------------------------


def instance_queries(record):
    """The record's query instantiated at each frequent assignment, in order."""
    grouped = record.frequent_constants
    return [
        instantiate(record.query, dict(zip(grouped.symbols, values)))
        for values, _ in grouped.sorted_items()
    ]


def test_records_carry_each_instance_text(maxtwo_state):
    redundant = 0
    for record in maxtwo_state.frequent_records():
        instances = instance_queries(record)
        assert record.texts == tuple(canonical_form(q)[0] for q in instances)
        # an assignment that repeats a value can make an atom redundant: the
        # record keeps the raw instance's text, a rule its minimized class
        redundant += sum(
            canonical_form(minimize(q))[0] != canonical_form(q)[0] for q in instances
        )
    assert redundant == 13


def test_writer_renders_nothing(maxtwo_state, rules_half, monkeypatch):
    # each headline is the record's key, which is its query's canonical text
    records = maxtwo_state.frequent_records()
    headlines = [f"{r.support}\t{canonical_text(r.query)}." for r in records]
    rendered, renderers, instantiated, forms = [], [], [], []

    def rendering(query, substitution=None):
        rendered.append((query, substitution))
        return canonical_text(query, substitution)

    def making_renderer(query, symbols):
        renderers.append(query)
        return instance_renderer(query, symbols)

    def instantiating(query, assignment):
        instantiated.append(query)
        return instantiate(query, assignment)

    def forming(query, **options):
        forms.append(query)
        return canonical_form(query, **options)

    # every text is rendered by ``queries.canonical_text``, instance texts
    # by the renderers phase 1 and phase 2 make
    monkeypatch.setattr(cqmine.queries, "canonical_text", rendering)
    for module in (cqmine.phase1, cqmine.phase2):
        monkeypatch.setattr(module, "instance_renderer", making_renderer)
    for module in (cqmine.queries, cqmine.phase2):
        monkeypatch.setattr(module, "instantiate", instantiating)
    for module in (cqmine.queries, cqmine.phase1, cqmine.phase2):
        monkeypatch.setattr(module, "canonical_form", forming)
    # phase 2 has run on this state (``rules_half``); the writer renders no
    # text and no canonical form (the parent design rendered 294 headlines)
    frequent_txt = io.StringIO()
    write_frequent(maxtwo_state, frequent_txt, io.StringIO())
    names = ("canonical_text", "canonical_form", "instantiate", "instance_renderer")
    for name in names:
        assert not hasattr(cqmine.reports, name)
    assert rendered == []
    assert renderers == []
    assert instantiated == []
    assert forms == []
    lines = frequent_txt.getvalue().splitlines()
    assert [line for line in lines if not line.startswith("  ")] == headlines
    assert headlines == [f"{r.support}\t{r.key}." for r in records]
    instances = [line for line in lines if line.startswith("  ")]
    assert instances == [
        f"  {count}\t{canonical_form(query)[0]}."
        for record in records
        if record.frequent_constants.symbols
        for (_, count), query in zip(
            record.frequent_constants.sorted_items(), instance_queries(record)
        )
    ]


def test_groups_render_only_bases_and_merging_members(maxtwo_state, monkeypatch):
    bases, patterns, members, templates = [], [], [], []

    def instantiating(query, assignment):
        bases.append((query, assignment))
        return instantiate(query, assignment)

    def making_renderer(query, symbols):
        patterns.append(query)
        render = instance_renderer(query, symbols)

        def rendering(values):
            members.append(values)
            return render(values)

        return rendering

    def templating(query, substitution=None):
        templates.append(query)
        return canonical_text(query, substitution)

    monkeypatch.setattr(cqmine.phase2, "instantiate", instantiating)
    monkeypatch.setattr(cqmine.phase2, "instance_renderer", making_renderer)
    monkeypatch.setattr(cqmine.queries, "canonical_text", templating)
    groups = cqmine.phase2._consequent_groups(maxtwo_state, {})
    records = maxtwo_state.frequent_records()
    # each group's first member alone is instantiated, for the form its walk
    # starts from
    assert [canonical_form(instantiate(*call))[0] for call in bases] == [
        group.texts[0] for group in groups
    ]
    # only the text of a member of a minimized pattern that merges
    # placeholders is rendered, once per member; the others are the records'
    assert not any(query is record.query for query in patterns for record in records)
    merging_members = sum(
        len(set(values)) < len(values)
        for record in records
        for values in record.frequent_constants.counts
    )
    assert len(members) == merging_members == 117
    # a member's text is filled into its pattern's rendering for the order
    # type of its values: 39 patterns take 42 renderings (117 before)
    assert len(patterns) == 39
    assert len(templates) == 42
    assert len(bases) + len(templates) < sum(len(record.texts) for record in records)


def test_group_members_are_value_tuples(maxtwo_state):
    groups = cqmine.phase2._consequent_groups(maxtwo_state, {})
    # the grouped-count key of each instance of a pattern that merges no
    # placeholders, by the instance's text; of the assignments that give one
    # text (a symmetric body's swapped values) the first is the member
    keys = {}
    for record in maxtwo_state.frequent_records():
        grouped = record.frequent_constants
        for (values, _), text in zip(grouped.sorted_items(), record.texts):
            if len(set(values)) == len(values):
                keys.setdefault(text, values)
    kept = 0
    for group in groups:
        assert group._fields == ("base", "texts", "counts", "values")
        assert len(group.values) == len(group.texts)
        assert all(type(values) is tuple for values in group.values)
        for text, values in zip(group.texts, group.values):
            if text in keys:
                # the record's own key object, not a copy
                assert values is keys[text]
                kept += 1
    assert kept == len(keys)


# ---------------------------------------------------------------------------
# per-run memos
# ---------------------------------------------------------------------------


def test_query_algebra_keeps_no_process_wide_memo():
    assert not hasattr(cqmine.queries.canonical_form, "cache_info")
    assert not hasattr(cqmine.containment.minimize, "cache_info")


def phase2_calls(state, instance, config, monkeypatch):
    """``run_phase2``'s rules and its calls of ``canonical_form`` and
    ``minimize``, by name."""
    calls = dict.fromkeys(("canonical_form", "minimize"), 0)

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(
                cqmine.phase2, name, counting(name, getattr(cqmine.phase2, name))
            )
        rules = run_phase2(state, instance, config)
    return rules, calls


def test_phase2_renders_each_walk_form_once_per_shape(beer_instance, monkeypatch):
    # the walk's forms and classes come from one memo keyed by shape, and a
    # form that is its own class is not rendered again
    state = run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))
    config = RuleConfig(Fraction(1, 2))
    rules, calls = phase2_calls(state, beer_instance, config, monkeypatch)
    assert rules == reference_rules(state, beer_instance, config)
    # 578 shapes, of which 72 have a class that drops an atom and is
    # rendered too, and 39 minimized patterns that merge placeholders
    assert calls == {"canonical_form": 650, "minimize": 617}
    # 1,404 renderings when raw queries keyed two memos and texts a third
    assert calls["canonical_form"] < 1404


def test_each_run_owns_its_memos(beer_instance, monkeypatch):
    def mine(config):
        state = run_phase1(beer_instance, config)
        rules, calls = phase2_calls(
            state, beer_instance, RuleConfig(Fraction(1)), monkeypatch
        )
        run_json = io.StringIO()
        write_reports(state, rules, {}, run_json)
        return state, run_json.getvalue(), calls

    config = MinerConfig(minsup=2, max_atoms=2)
    first, first_report, first_calls = mine(config)
    mine(MinerConfig(minsup=3, max_atoms=2, enable_constants=False))
    second, second_report, second_calls = mine(config)
    assert second_report == first_report
    assert second.waiting is not first.waiting
    # the runs in between left nothing behind: the second run starts from
    # empty memos and does exactly the first run's work
    assert second_calls == first_calls
    assert min(first_calls.values()) > 0
    assert second.waiting == first.waiting
    # and from an empty atom table, sharing no atom with the first run
    assert second.atoms == first.atoms
    first_atoms = {id(atom) for atom in first.atoms.values()}
    assert first_atoms.isdisjoint(id(atom) for atom in second.atoms.values())


def test_a_run_keeps_one_object_per_distinct_atom(beer_instance, monkeypatch):
    tables, forms = [], []  # of every form the run renders, memo entries included

    def recording_canonical_form(query, **options):
        text, form = canonical_form(query, **options)
        tables.append(options["atoms"])
        forms.append(form)
        return text, form

    monkeypatch.setattr(cqmine.phase1, "canonical_form", recording_canonical_form)
    monkeypatch.setattr(cqmine.phase2, "canonical_form", recording_canonical_form)
    state = run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))
    run_phase2(state, beer_instance, RuleConfig(Fraction(1, 2)))
    assert all(table is state.atoms for table in tables)
    kept = [atom for record in state.frequent_records() for atom in record.query.body]
    kept += [atom for form in forms for atom in form.body]
    assert len({id(atom) for atom in kept}) == len(set(kept)) == len(state.atoms)


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
