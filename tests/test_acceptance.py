"""End-to-end acceptance suite for the miner.

Each test exercises one acceptance criterion against the bundled beer
fixtures and emits a single ``ACCEPTANCE <n>: PASS``/``FAIL`` line.  The
lines are echoed in an "acceptance criteria" section of pytest's terminal
summary (they are also ordinary prints, so ``-s`` shows them inline).

The oracle used by criteria 5 and 6 is independent of the mining code: it
enumerates every query of the search language directly (bodies over the
schema, set-partition variable patterns, active-domain constants, all head
subsets) and counts answers by brute-force valuation enumeration.
"""

from __future__ import annotations

import bisect
import os
import random
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import _oracle
import conftest
import cqmine
from _oracle import support
from cqmine.containment import (
    is_contained,
    is_diagonally_contained,
    is_equivalent,
    minimize,
)
from cqmine.evaluation import evaluate
from cqmine.phase1 import (
    MinerConfig,
    MinerState,
    class_of,
    initial_candidates,
    run_phase1,
)
from cqmine.phase2 import RuleConfig, run_phase2
from cqmine.queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    parse_query,
)
from cqmine.relational import Instance, RelationDecl, Schema

FIXTURES = Path(__file__).parent / "fixtures" / "beer"
# child processes import the package this suite imported, installed or not
ENV = {**os.environ, "PYTHONPATH": str(Path(cqmine.__file__).parents[1])}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        _report(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    _report(f"ACCEPTANCE {number}: PASS - {description}")


def _report(line: str) -> None:
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


# the mined language has no key atom, so class keys absorb head order; class
# keys take no schema, so an empty one serves
LANGUAGE = MinerState(MinerConfig(minsup=2, max_atoms=2), Schema(()))


def class_key(query: ConjunctiveQuery) -> str:
    return class_of(query, LANGUAGE)[0]


def key_of(text: str) -> str:
    return class_key(parse_query(text))


@pytest.fixture(scope="module")
def state2(beer_instance):
    return run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))


# ---------------------------------------------------------------------------
# criterion 1: the first level is the six two-atom cross products


def test_01_first_level_cross_products(beer_schema, beer_instance):
    with criterion(1, "six initial two-atom candidates, each with support 36"):
        queries = initial_candidates(
            MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
        )
        assert len(queries) == 6
        expected = {
            key_of("Q(x1,x2,x3,x4) :- likes(x1,x2), likes(x3,x4)"),
            key_of("Q(x1,x2,x3,x4) :- likes(x1,x2), visits(x3,x4)"),
            key_of("Q(x1,x2,x3,x4) :- likes(x1,x2), serves(x3,x4)"),
            key_of("Q(x1,x2,x3,x4) :- visits(x1,x2), visits(x3,x4)"),
            key_of("Q(x1,x2,x3,x4) :- visits(x1,x2), serves(x3,x4)"),
            key_of("Q(x1,x2,x3,x4) :- serves(x1,x2), serves(x3,x4)"),
        }
        got = {class_key(q) for q in queries}
        assert got == expected
        for query in queries:
            assert support(query, beer_instance) == 36


# ---------------------------------------------------------------------------
# criterion 2: second-level pruning admits projections only; joins of the
# same-relation pairs are admitted one level later


def test_02_second_level_pruning(state2, beer_schema):
    with criterion(
        2,
        "level 2 admits exactly the 18 single projections; same-relation "
        "joins surface at level 3 and mixed joins are deferred, not lost",
    ):
        state = MinerState(MinerConfig(minsup=2, max_atoms=2), beer_schema)
        projections = set()
        for query in initial_candidates(state):
            for position in range(query.arity):
                head = query.head[:position] + query.head[position + 1 :]
                projections.add(class_key(ConjunctiveQuery(head, query.body)))
        level2 = state2.levels[1]
        assert len(projections) == 18
        assert set(level2.candidate_keys) == projections
        # no join and no selection is admitted at level 2: every candidate is
        # a constant-free cross product with one projected column
        assert all("'" not in key and "$" not in key for key in level2.candidate_keys)

        # joins of the same-relation cross products survive pruning: the
        # column-sharing variants are frequent at level 3 ...
        for text in [
            "Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)",
            "Q(x1,x2,x3) :- visits(x1,x2), visits(x1,x3)",
            "Q(x1,x2,x3) :- serves(x1,x2), serves(x1,x3)",
        ]:
            record = state2.frequent_index[key_of(text)]
            assert record.level == 3, text
            assert record.support == 14, text
        # ... and the chain variants are admitted (evaluated) even though the
        # data then rejects them
        for text in [
            "Q(x1,x2,x3) :- likes(x1,x2), likes(x2,x3)",
            "Q(x1,x2,x3) :- visits(x1,x2), visits(x2,x3)",
            "Q(x1,x2,x3) :- serves(x1,x2), serves(x2,x3)",
        ]:
            key = key_of(text)
            assert key in _oracle.candidate_keys(state2), text
            assert key in state2.infrequent_index, text

        # a join of a mixed-relation pair is pruned at level 2 (its projected
        # parent is not yet known frequent) but admitted at level 3
        mixed = key_of("Q(x1,x2,x3) :- likes(x1,x2), visits(x1,x3)")
        assert mixed not in set(level2.candidate_keys)
        record = state2.frequent_index[mixed]
        assert record.level == 3
        assert record.support == 10


# ---------------------------------------------------------------------------
# criterion 3: the projection/selection descent chain


def test_03_descent_chain(state2, beer_instance):
    with criterion(
        3,
        "descent likes-self-join -> likes(x1,x2) -> likes(x1) support 3 -> "
        "per-beer counts Duvel:3 and Trappist:2",
    ):
        start = parse_query("Q(x1,x2,x3) :- likes(x1,x2), likes(x1,x3)")
        # projecting away x3 leaves a redundant atom; minimization drops it
        step1 = minimize(ConjunctiveQuery(start.head[:2], start.body))
        target1 = parse_query("Q(x1,x2) :- likes(x1,x2)")
        assert len(step1.body) == 1
        assert is_equivalent(step1, target1)
        record1 = state2.frequent_index[class_key(target1)]
        assert record1.support == 6

        step2 = ConjunctiveQuery(step1.head[:1], step1.body)
        target2 = parse_query("Q(x1) :- likes(x1,x2)")
        assert is_equivalent(step2, target2)
        record2 = state2.frequent_index[class_key(target2)]
        assert record2.support == 3
        assert support(step2, beer_instance) == 3

        # selecting the beer column yields the placeholder query; counting
        # answers per constant shows both beers meet the threshold of 2
        symbolic = state2.frequent_index[key_of("Q(x1) :- likes(x1,$c1)")]
        grouped = symbolic.frequent_constants
        assert grouped is not None
        items = dict(grouped.sorted_items())
        assert items[("Duvel",)] == 3
        assert items[("Trappist",)] == 2


# ---------------------------------------------------------------------------
# criterion 4: the full-confidence rule


def test_04_full_confidence_rule(state2, beer_instance):
    with criterion(
        4,
        "rule (likes some beer) => (likes Duvel) holds with confidence "
        "exactly 1.0",
    ):
        rules = run_phase2(state2, beer_instance, RuleConfig(Fraction(1)))
        matches = [
            rule
            for rule in rules
            if [_oracle.render_query(q) for q in _oracle.rule_queries(rule)]
            == ["Q(x1) :- likes(x1, x2).", "Q(x1) :- likes(x1, 'Duvel')."]
        ]
        assert len(matches) == 1
        rule = matches[0]
        assert rule.confidence == Fraction(1)
        assert float(rule.confidence) == 1.0
        assert rule.support == 3


# ---------------------------------------------------------------------------
# independent oracle: enumerate the whole two-atom search language


@pytest.fixture(scope="module")
def oracle_classes(beer_schema, beer_instance):
    """Mod-head-permutation class key -> (representative, brute-force support)."""
    tables = dict(beer_instance.tables)
    classes: dict[str, tuple[ConjunctiveQuery, int]] = {}
    for query in _oracle.language_queries(beer_schema, beer_instance, max_atoms=2):
        key = class_key(query)
        if key not in classes:
            classes[key] = (query, _oracle.support_naive(query, tables))
    return {key: pair for key, pair in classes.items() if pair[1] >= 2}


# ---------------------------------------------------------------------------
# criterion 5: phase 1 equals the brute-force oracle


def test_05_phase_one_matches_oracle(oracle_classes, state2):
    with criterion(
        5,
        "frequent classes equal the brute-force enumeration of the whole "
        "language (1339 classes, supports included)",
    ):
        miner = _oracle.frequent_supports(state2, class_key)
        oracle = {key: sup for key, (_, sup) in oracle_classes.items()}
        assert miner == oracle
        assert len(oracle) == 1339


@pytest.fixture(scope="module")
def three_atom_language():
    """The whole three-atom language of one binary relation, constants included.

    Returns the instance, the mining config, the oracle's class-key function
    and, per class key, a representative and its brute-force support.
    """
    schema = Schema((RelationDecl("r", ("a", "b")),))
    instance = Instance(schema, {"r": {("p", "q"), ("q", "p"), ("p", "p")}})
    config = MinerConfig(minsup=2, max_atoms=3)
    # the oracle keys classes through a state of its own, not the run's
    oracle_state = MinerState(config, schema)

    def key(query: ConjunctiveQuery) -> str:
        return class_of(query, oracle_state)[0]

    tables = dict(instance.tables)
    classes: dict[str, tuple[ConjunctiveQuery, int]] = {}
    for query in _oracle.language_queries(schema, instance, max_atoms=3):
        query_key = key(query)
        if query_key not in classes:
            classes[query_key] = (query, _oracle.support_naive(query, tables))
    return instance, config, key, classes


def test_phase_one_matches_oracle_at_three_atoms(three_atom_language):
    # criterion 5 covers two atoms over the beer data; here the whole
    # three-atom language of one binary relation, constants included
    instance, config, key, classes = three_atom_language
    oracle = {query_key: sup for query_key, (_, sup) in classes.items() if sup >= 2}
    assert _oracle.frequent_supports(run_phase1(instance, config), key) == oracle
    assert (len(classes), len(oracle)) == (1971, 1505)


# ---------------------------------------------------------------------------
# criterion 6: phase 2 equals the all-pairs containment sweep


@pytest.fixture(scope="module")
def oracle_rule_pairs(oracle_classes):
    """(antecedent key, consequent key, confidence) for all contained pairs.

    Class representatives are stored modulo head permutation, so containment
    between two classes is checked against every head alignment; support can
    never grow under containment, which prunes the quadratic sweep.
    """
    by_arity = defaultdict(list)
    for key, (query, sup) in oracle_classes.items():
        by_arity[len(query.head)].append((key, query, sup))
    pairs = []
    for group in by_arity.values():
        for ante_key, ante, ante_sup in group:
            for cons_key, cons, cons_sup in group:
                if ante_key == cons_key or cons_sup > ante_sup:
                    continue
                if is_diagonally_contained(cons, ante):
                    pairs.append((ante_key, cons_key, Fraction(cons_sup, ante_sup)))
    return pairs


def test_06_phase_two_matches_oracle(
    oracle_classes, oracle_rule_pairs, state2, beer_instance
):
    with criterion(
        6,
        "rule sets at minconf 1.0 and 0.5 equal the all-pairs sweep over "
        "oracle-frequent classes",
    ):
        trivial = {(key, key) for key in oracle_classes}
        expected_sizes = {Fraction(1): 4814, Fraction(1, 2): 6968}
        for minconf, size in expected_sizes.items():
            expected = trivial | {
                (ante, cons)
                for ante, cons, confidence in oracle_rule_pairs
                if confidence >= minconf
            }
            rules = run_phase2(
                state2, beer_instance, RuleConfig(minconf, include_trivial=True)
            )
            got = {
                tuple(class_key(q) for q in _oracle.rule_queries(rule))
                for rule in rules
            }
            assert got == expected, f"minconf={minconf}"
            assert len(expected) == size, f"minconf={minconf}"


def test_phase_two_matches_oracle_between_half_and_one(
    oracle_classes, oracle_rule_pairs, state2, beer_instance
):
    # criterion 6 covers minconf 1 and 1/2; at 2/3 the cut-off falls between
    # confidences the sweep holds, with some rules exactly on it
    minconf = Fraction(2, 3)
    assert any(confidence == minconf for _, _, confidence in oracle_rule_pairs)
    expected = {(key, key) for key in oracle_classes} | {
        (ante, cons)
        for ante, cons, confidence in oracle_rule_pairs
        if confidence >= minconf
    }
    rules = run_phase2(
        state2, beer_instance, RuleConfig(minconf, include_trivial=True)
    )
    got = {tuple(class_key(q) for q in _oracle.rule_queries(rule)) for rule in rules}
    assert got == expected
    assert 4814 < len(expected) < 6968


@pytest.mark.slow
def test_phase_two_matches_oracle_at_three_atoms(three_atom_language):
    # criterion 6's all-pairs sweep over the three-atom language's 1,505
    # frequent classes.  A rule is confident exactly when its antecedent's
    # support is at most the consequent's divided by minconf, and never
    # below the consequent's, so only antecedents in that range are checked
    instance, config, key, classes = three_atom_language
    minconf = Fraction(1, 2)
    by_arity = defaultdict(list)
    for query_key, (query, sup) in classes.items():
        if sup >= config.minsup:
            by_arity[len(query.head)].append((sup, query_key, query))
    expected = set()
    for group in by_arity.values():
        group.sort(key=lambda entry: entry[0])
        supports = [sup for sup, _, _ in group]
        for cons_sup, cons_key, cons in group:
            expected.add((cons_key, cons_key))
            ceiling = cons_sup * minconf.denominator // minconf.numerator
            low = bisect.bisect_left(supports, cons_sup)
            high = bisect.bisect_right(supports, ceiling)
            for _, ante_key, ante in group[low:high]:
                if ante_key != cons_key and is_diagonally_contained(cons, ante):
                    expected.add((ante_key, cons_key))
    state = run_phase1(instance, config)
    rules = run_phase2(state, instance, RuleConfig(minconf, include_trivial=True))
    got = {tuple(key(q) for q in _oracle.rule_queries(rule)) for rule in rules}
    assert got == expected
    assert len(expected) == 24049


# ---------------------------------------------------------------------------
# criteria 7 and 8: randomized engine properties


def _random_instance(rng: random.Random, schema: Schema) -> Instance:
    # pools overlap the constants random queries mention, so constant atoms
    # are sometimes satisfied rather than vacuously empty
    drinkers = ["d1", "d2", "d3"]
    beers = ["Duvel", "Trappist", "b1"]
    bars = ["Cheers", "p1", "p2"]
    pools = {"likes": (drinkers, beers), "visits": (drinkers, bars), "serves": (bars, beers)}
    tables = {}
    for name, (left, right) in pools.items():
        tables[name] = frozenset(
            (rng.choice(left), rng.choice(right)) for _ in range(rng.randint(0, 12))
        )
    return Instance(schema, tables)


def _random_atom(rng: random.Random, variables: list[Variable]) -> Atom:
    name, arity = rng.choice(_oracle.RELATIONS)
    args = []
    for _ in range(arity):
        if rng.random() < 0.75:
            args.append(rng.choice(variables))
        else:
            args.append(Constant(rng.choice(_oracle.CONSTANT_POOL)))
    return Atom(name, tuple(args))


def _specialize(
    rng: random.Random, query: ConjunctiveQuery, *, shrink_head: bool
) -> ConjunctiveQuery:
    """A random query contained in ``query`` (diagonally if the head shrinks)."""
    result = query
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        free = sorted(result.variables() - set(result.head), key=lambda v: v.name)
        if op < 0.45 and len(result.body) < 5:
            pool = sorted(result.variables(), key=lambda v: v.name)
            pool.append(Variable("w1"))
            result = ConjunctiveQuery(
                result.head, result.body | {_random_atom(rng, pool)}
            )
        elif op < 0.75 and free:
            victim = rng.choice(free)
            targets: list = sorted(
                result.variables() - {victim}, key=lambda v: v.name
            )
            targets.append(Constant(rng.choice(_oracle.CONSTANT_POOL)))
            result = _oracle.substitute(result, {victim: rng.choice(targets)})
    if shrink_head and len(result.head) > 1 and rng.random() < 0.7:
        size = rng.randint(1, len(result.head) - 1)
        result = ConjunctiveQuery(
            tuple(rng.sample(result.head, size)), result.body
        )
    return result


def test_07_containment_engine_properties(beer_schema):
    with criterion(
        7,
        "containment decisions match the canonical-database oracle on 1000 "
        "pairs; containment implies answer inclusion; minimize is sound",
    ):
        rng = random.Random(990731)
        for _ in range(1000):
            q1 = _oracle.random_query(rng)
            q2 = _oracle.random_query(rng)
            assert is_contained(q1, q2) == _oracle.family_contained(q1, q2), (
                _oracle.render_query(q1),
                _oracle.render_query(q2),
            )

        checked = 0
        for _ in range(120):
            general = _oracle.random_query(rng, allow_symbolics=False)
            special = _specialize(rng, general, shrink_head=False)
            assert is_contained(special, general)
            instance = _random_instance(rng, beer_schema)
            assert evaluate(special, instance) <= evaluate(general, instance)
            checked += 1
        assert checked >= 100

        for _ in range(200):
            query = _oracle.random_query(rng)
            small = minimize(query)
            assert len(small.body) <= len(query.body)
            assert _oracle.family_equivalent(small, query), _oracle.render_query(query)
            assert minimize(small) == small


def test_08_support_monotone_under_containment(beer_schema):
    with criterion(
        8,
        "whenever q1 is diagonally contained in q2, support(q1) <= "
        "support(q2) on random instances (100% of sampled triples)",
    ):
        rng = random.Random(41117)
        triples = 0
        for _ in range(150):
            general = _oracle.random_query(rng, allow_symbolics=False)
            special = _specialize(rng, general, shrink_head=True)
            assert is_diagonally_contained(special, general), (
                _oracle.render_query(special),
                _oracle.render_query(general),
            )
            for _ in range(2):
                instance = _random_instance(rng, beer_schema)
                assert support(special, instance) <= support(general, instance), (
                    _oracle.render_query(special),
                    _oracle.render_query(general),
                )
                triples += 1

        found = 0
        attempts = 0
        while found < 50 and attempts < 4000:
            attempts += 1
            q1 = _oracle.random_query(rng, allow_symbolics=False)
            q2 = _oracle.random_query(rng, allow_symbolics=False)
            if is_diagonally_contained(q1, q2):
                instance = _random_instance(rng, beer_schema)
                assert support(q1, instance) <= support(q2, instance), (
                    _oracle.render_query(q1),
                    _oracle.render_query(q2),
                )
                found += 1
        triples += found
        assert triples >= 300


# ---------------------------------------------------------------------------
# criterion 9: determinism across processes


def test_09_mine_runs_byte_identical(tmp_path):
    with criterion(9, "two consecutive mine runs produce byte-identical reports"):
        out_dirs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "cqmine",
                    "mine",
                    "--schema",
                    str(FIXTURES / "schema.txt"),
                    "--data",
                    str(FIXTURES),
                    "--minsup",
                    "2",
                    "--minconf",
                    "1.0",
                    "--out-dir",
                    str(out_dir),
                ],
                capture_output=True,
                text=True,
                env=ENV,
            )
            assert proc.returncode == 0, proc.stderr
            out_dirs.append(out_dir)
        for filename in ("frequent.txt", "rules.txt", "run.json"):
            first = (out_dirs[0] / filename).read_bytes()
            second = (out_dirs[1] / filename).read_bytes()
            assert first, filename
            assert first == second, filename
