"""Brute-force reference implementations used to freeze expected test values.

Everything here is deliberately naive and independent of the library's own
algorithms: evaluation enumerates rows atom by atom, and containment is
decided by instantiating symbolic constants over small constant pools and
checking the classic frozen-body criterion.  The search language itself is
enumerated outright.  The last section holds small helpers that only tests
need.
"""

from __future__ import annotations

import csv
import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping

from cqmine.containment import minimize
from cqmine.errors import DataError, QueryError
from cqmine.evaluation import support_grouped
from cqmine.generalization import atom_removals, splits
from cqmine.phase1 import (
    ADMIT,
    DEFER,
    PRUNE,
    MinerState,
    class_of,
    immediate_generalizations,
)
from cqmine.phase2 import AssociationRule, RuleConfig
from cqmine.queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SymbolicConstant,
    Term,
    Variable,
    canonical_form,
    canonical_text,
    instantiate,
    parse_query,
    substitute_terms,
)
from cqmine.relational import Instance, Schema

Tables = Mapping[str, Iterable[tuple[str, ...]]]


def eval_naive(query: ConjunctiveQuery, tables: Tables) -> set[tuple[str, ...]]:
    """All answers of a symbolic-constant-free query, by exhaustive matching."""
    assert not query.symbolic_constants()
    atoms = sorted(query.body, key=str)
    answers: set[tuple[str, ...]] = set()

    def rec(i: int, env: dict[Variable, str]) -> None:
        if i == len(atoms):
            answers.add(tuple(env[v] for v in query.head))
            return
        atom = atoms[i]
        for row in tables.get(atom.relation, ()):
            if len(row) != len(atom.args):
                continue
            new = dict(env)
            ok = True
            for term, value in zip(atom.args, row):
                if isinstance(term, Constant):
                    if term.value != value:
                        ok = False
                        break
                else:
                    if new.get(term, value) != value:
                        ok = False
                        break
                    new[term] = value
            if ok:
                rec(i + 1, new)

    rec(0, {})
    return answers


def support_naive(query: ConjunctiveQuery, tables: Tables) -> int:
    return len(eval_naive(query, tables))


def naive_grouped_counts(
    query: ConjunctiveQuery, tables: Tables, minsup: int
) -> dict[tuple[str, ...], int]:
    """Support of every instantiation over the active domain, by enumeration."""
    symbols = sorted(query.symbolic_constants(), key=lambda s: s.index)
    domain = sorted({value for rows in tables.values() for row in rows for value in row})
    counts = {}
    for values in itertools.product(domain, repeat=len(symbols)):
        count = support_naive(instantiate(query, dict(zip(symbols, values))), tables)
        if count >= minsup:
            counts[values] = count
    return counts


def set_partitions(count: int):
    """All restricted-growth labelings of ``count`` positions."""

    def rec(prefix: list[int], highest: int):
        if len(prefix) == count:
            yield tuple(prefix)
            return
        for value in range(highest + 2):
            yield from rec(prefix + [value], max(highest, value))

    if count == 0:
        yield ()
    else:
        yield from rec([0], 0)


def language_queries(schema: Schema, instance: Instance, max_atoms: int):
    """Every query of the search language up to ``max_atoms`` body atoms.

    Bodies are multisets of relations, variables follow every set-partition
    pattern, constants range over each column's active domain, and heads
    are all nonempty variable subsets.  Equivalent queries repeat.
    """
    names = list(schema.names())
    for size in range(1, max_atoms + 1):
        for combo in itertools.combinations_with_replacement(names, size):
            slots = [
                (name, column)
                for name in combo
                for column in range(schema.relation(name).arity)
            ]
            domains = [
                sorted(active_domain(instance, name, column))
                for name, column in slots
            ]
            total = len(slots)
            for constant_mask in itertools.product([False, True], repeat=total):
                variable_slots = [i for i in range(total) if not constant_mask[i]]
                if not variable_slots:
                    continue
                constant_slots = [i for i in range(total) if constant_mask[i]]
                for values in itertools.product(
                    *(domains[i] for i in constant_slots)
                ):
                    terms: list = [None] * total
                    for index, value in zip(constant_slots, values):
                        terms[index] = Constant(value)
                    for labels in set_partitions(len(variable_slots)):
                        for index, label in zip(variable_slots, labels):
                            terms[index] = Variable(f"v{label + 1}")
                        atoms = []
                        offset = 0
                        for name in combo:
                            arity = schema.relation(name).arity
                            atoms.append(Atom(name, tuple(terms[offset : offset + arity])))
                            offset += arity
                        body = frozenset(atoms)
                        used = sorted(
                            {t for t in terms if isinstance(t, Variable)},
                            key=lambda v: v.name,
                        )
                        for count in range(1, len(used) + 1):
                            for head in itertools.combinations(used, count):
                                yield ConjunctiveQuery(tuple(head), body)


def contained_no_symbolics(c1: ConjunctiveQuery, c2: ConjunctiveQuery) -> bool:
    """Classic criterion: freeze c1's variables, then evaluate c2 on the body."""
    if c1.arity != c2.arity:
        return False
    frozen = {v: f"~{v.name}" for v in c1.variables()}
    tables: dict[str, set[tuple[str, ...]]] = {}
    for atom in c1.body:
        row = tuple(
            frozen[t] if isinstance(t, Variable) else t.value for t in atom.args
        )
        tables.setdefault(atom.relation, set()).add(row)
    return tuple(frozen[v] for v in c1.head) in eval_naive(c2, tables)


def _assignments(
    syms: list[SymbolicConstant], pool: list[str]
) -> Iterable[dict[SymbolicConstant, str]]:
    for values in itertools.product(pool, repeat=len(syms)):
        yield dict(zip(syms, values))


def family_contained(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Is q1 contained in q2, treating symbolic constants as instance families?

    q1 is contained in q2 when for every instantiation of q1's placeholders
    some instantiation of q2's placeholders contains it.
    """
    if q1.arity != q2.arity:
        return False
    shared = sorted({c.value for c in (q1.constants() | q2.constants())})
    syms1 = sorted(q1.symbolic_constants(), key=lambda s: s.index)
    pool1 = shared + [f"~fresh{i}" for i in range(1, len(syms1) + 1)]
    syms2 = sorted(q2.symbolic_constants(), key=lambda s: s.index)
    for a1 in _assignments(syms1, pool1):
        inst1 = instantiate(q1, a1)
        pool2 = sorted({c.value for c in inst1.constants()})
        if not any(
            contained_no_symbolics(inst1, instantiate(q2, a2))
            for a2 in _assignments(syms2, pool2)
        ):
            return False
    return True


def family_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return family_contained(q1, q2) and family_contained(q2, q1)


def diagonal_contained(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Is q1 contained in some reordered projection of q2?"""
    if len(q2.head) < len(q1.head):
        return False
    for positions in itertools.permutations(range(len(q2.head)), len(q1.head)):
        head = tuple(q2.head[i] for i in positions)
        if family_contained(q1, ConjunctiveQuery(head, q2.body)):
            return True
    return False


def render_query(query: ConjunctiveQuery) -> str:
    """A query as the reports print it: its canonical text, head order kept,
    and a trailing period; ``parse_query`` reads it back."""
    return canonical_text(query) + "."


def least_rendering(query: ConjunctiveQuery, modulo_head_permutation: bool) -> str:
    """The canonical text by enumeration: the least rendering over every
    body-atom order and, with ``modulo_head_permutation``, every head order.

    A rendering names the head ``x1, ..., xk`` by position, then each other
    variable ``x<k+1>, ...`` and each symbolic constant ``$c1, ...`` by first
    occurrence along the atom order.
    """
    heads = (
        itertools.permutations(query.head) if modulo_head_permutation else [query.head]
    )
    texts = []
    for head in heads:
        for atoms in itertools.permutations(query.body):
            names = {v: f"x{i}" for i, v in enumerate(head, start=1)}
            counts = {"x": len(head), "$c": 0}
            rendered = []
            for atom in atoms:
                args = []
                for term in atom.args:
                    if isinstance(term, Constant):
                        args.append("'" + term.value.replace("'", "''") + "'")
                        continue
                    if term not in names:
                        stem = "x" if isinstance(term, Variable) else "$c"
                        counts[stem] += 1
                        names[term] = f"{stem}{counts[stem]}"
                    args.append(names[term])
                rendered.append(f"{atom.relation}({', '.join(args)})")
            texts.append(
                f"Q({', '.join(names[v] for v in head)}) :- {', '.join(rendered)}"
            )
    return min(texts)


# ---------------------------------------------------------------------------
# random query generation (over the beer schema)
# ---------------------------------------------------------------------------

RELATIONS = (("likes", 2), ("visits", 2), ("serves", 2))
CONSTANT_POOL = ("Duvel", "Trappist", "Cheers")


def random_query(
    rng: random.Random,
    *,
    max_atoms: int = 3,
    allow_constants: bool = True,
    allow_symbolics: bool = True,
) -> ConjunctiveQuery:
    vars_pool = [Variable(f"v{i}") for i in range(1, 5)]
    atoms: list[Atom] = []
    for _ in range(rng.randint(1, max_atoms)):
        relation, arity = rng.choice(RELATIONS)
        args = []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.62 or not (allow_constants or allow_symbolics):
                args.append(rng.choice(vars_pool))
            elif allow_constants and (roll < 0.84 or not allow_symbolics):
                args.append(Constant(rng.choice(CONSTANT_POOL)))
            else:
                args.append(SymbolicConstant(rng.randint(1, 2)))
        atoms.append(Atom(relation, tuple(args)))
    body_vars = sorted(
        {t for a in atoms for t in a.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    if not body_vars:
        first = atoms[0]
        atoms[0] = Atom(first.relation, (vars_pool[0],) + first.args[1:])
        body_vars = [vars_pool[0]]
    head = tuple(rng.sample(body_vars, rng.randint(1, min(3, len(body_vars)))))
    return ConjunctiveQuery(head, frozenset(atoms))


def random_disconnected_query(
    rng: random.Random, *, parts: int = 2, max_symbolics: int = 2
) -> ConjunctiveQuery:
    """A body of at least ``parts`` connected components, with at most
    ``max_symbolics`` placeholders: random queries renamed apart, under a head
    drawn from all their variables, so some parts may have no head variable.
    """
    while True:
        body: set[Atom] = set()
        for part in range(parts):
            query = random_query(rng, max_atoms=2)
            renaming: dict[Term, Term] = {
                v: Variable(f"p{part}{v.name}") for v in query.variables()
            }
            renaming.update(
                (s, SymbolicConstant(2 * part + s.index))
                for s in query.symbolic_constants()
            )
            body |= substitute_terms(query.body, renaming)
        variables = sorted(
            {t for atom in body for t in atom.args if isinstance(t, Variable)},
            key=lambda v: v.name,
        )
        symbolics = {
            t for atom in body for t in atom.args if isinstance(t, SymbolicConstant)
        }
        if len(symbolics) > max_symbolics:
            continue
        head = tuple(rng.sample(variables, rng.randint(1, min(3, len(variables)))))
        return ConjunctiveQuery(head, frozenset(body))


def random_instance(rng: random.Random, beer_schema: Schema, max_rows: int = 12) -> Instance:
    """Up to ``max_rows`` random rows per beer relation over small value pools."""
    drinkers = ["d1", "d2", "d3", "d4"]
    beers = ["b1", "b2", "b3"]
    bars = ["p1", "p2", "p3"]
    pools = {"likes": (drinkers, beers), "visits": (drinkers, bars), "serves": (bars, beers)}
    tables = {}
    for name, (left, right) in pools.items():
        n = rng.randint(0, max_rows)
        tables[name] = frozenset(
            (rng.choice(left), rng.choice(right)) for _ in range(n)
        )
    return Instance(beer_schema, tables)


# ---------------------------------------------------------------------------
# the per-assignment rule walk
# ---------------------------------------------------------------------------
#
# One walk per consequent, with no grouping of constant assignments: every
# frequent assignment of a placeholder discovery is instantiated, minimized
# and walked on its own.  It keeps the step and support tables, and memos of
# the plain ``canonical_form`` and ``minimize`` by query, its own and shared
# with nothing in ``cqmine``, so it is quick enough to check ``run_phase2``
# rule for rule.


class _Memo(dict):
    """``function``'s result by argument, computed on the first lookup."""

    def __init__(self, function: Callable) -> None:
        super().__init__()
        self.function = function

    def __missing__(self, argument):
        result = self[argument] = self.function(argument)
        return result


def _reference_consequents(
    state: MinerState, canonical: _Memo, minimal: _Memo
) -> dict[str, tuple[ConjunctiveQuery, int]]:
    """Canonical text -> (representative, support) of every consequent."""
    consequents: dict[str, tuple[ConjunctiveQuery, int]] = {}
    for record in state.frequent_records():
        grouped = record.frequent_constants
        for assignment, count in grouped.sorted_items():
            query = instantiate(record.query, dict(zip(grouped.symbols, assignment)))
            text, representative = canonical[minimal[query]]
            consequents.setdefault(text, (representative, count))
    return consequents


def _reference_steps(
    form_text: str,
    form: ConjunctiveQuery,
    table: dict,
    state: MinerState,
    canonical: _Memo,
    minimal: _Memo,
) -> list[tuple[str, ConjunctiveQuery, str, ConjunctiveQuery]]:
    """Raw and minimized canonical forms one step from ``form``, memoized."""
    steps = table.get(form_text)
    if steps is None:
        steps = []
        for raw in itertools.chain(
            atom_removals(form), splits(form, state.config.max_atoms)
        ):
            raw_text, raw_form = canonical[raw]
            steps.append((raw_text, raw_form, *canonical[minimal[raw_form]]))
        table[form_text] = steps
    return steps


def _reference_walk(
    base_text: str,
    base: ConjunctiveQuery,
    consequent_support: int,
    state: MinerState,
    instance: Instance,
    config: RuleConfig,
    supports: dict[str, int],
    table: dict,
    canonical: _Memo,
    minimal: _Memo,
) -> list[AssociationRule]:
    text = base_text + "."
    rules = []
    if config.include_trivial:
        rules.append(AssociationRule(text, text, consequent_support, Fraction(1)))
    minconf = config.minconf
    visited = {base_text}
    emitted = {base_text}
    frontier = [(base_text, base)]
    while frontier:
        next_frontier = []
        for form_text, form in frontier:
            for raw_text, raw_form, antecedent_text, antecedent in _reference_steps(
                form_text, form, table, state, canonical, minimal
            ):
                if raw_text in visited:
                    continue
                visited.add(raw_text)
                if antecedent_text not in supports:
                    supports[antecedent_text] = support(antecedent, instance)
                confidence = Fraction(consequent_support, supports[antecedent_text])
                if confidence < minconf:
                    continue
                if antecedent_text not in emitted:
                    emitted.add(antecedent_text)
                    rules.append(
                        AssociationRule(
                            antecedent_text + ".", text, consequent_support, confidence
                        )
                    )
                next_frontier.append((raw_text, raw_form))
        frontier = next_frontier
    return rules


def reference_rules(
    state: MinerState, instance: Instance, config: RuleConfig
) -> list[AssociationRule]:
    """``run_phase2``'s rules, in its order, from one walk per consequent."""
    canonical, minimal = _Memo(canonical_form), _Memo(minimize)
    consequents = _reference_consequents(state, canonical, minimal)
    supports = {text: count for text, (_, count) in consequents.items()}
    table: dict = {}
    rules = [
        rule
        for text, (consequent, count) in consequents.items()
        for rule in _reference_walk(
            text,
            consequent,
            count,
            state,
            instance,
            config,
            supports,
            table,
            canonical,
            minimal,
        )
    ]
    return sorted(rules, key=lambda r: (-r.confidence, r.antecedent, r.consequent))


# ---------------------------------------------------------------------------
# helpers that only tests use
# ---------------------------------------------------------------------------


def support(query: ConjunctiveQuery, instance: Instance) -> int:
    """Number of distinct answer tuples of a query without placeholders:
    the grouped count of its one assignment ``()``."""
    if query.symbolic_constants():
        raise QueryError("query contains symbolic constants; use support_grouped")
    return support_grouped(query, instance).counts.get((), 0)


def substitute(query: ConjunctiveQuery, mapping: Mapping[Term, Term]) -> ConjunctiveQuery:
    """Apply a term mapping to head and body, validating the result."""
    head = tuple(mapping.get(v, v) for v in query.head)
    return ConjunctiveQuery(head, substitute_terms(query.body, mapping))


def generalization_classes(
    query: ConjunctiveQuery, state: MinerState
) -> dict[str, ConjunctiveQuery]:
    """Every immediate generalization class of any query, keyed and in key order.

    The eager view of ``immediate_generalizations``: the query is first
    reduced to its class representative, then every parent is collected.
    """
    found: dict[str, ConjunctiveQuery] = {}
    for key, parent in immediate_generalizations(class_of(query, state)[1], state):
        found.setdefault(key, parent)
    return {key: found[key] for key in sorted(found)}


def eager_admission() -> Callable[[str, ConjunctiveQuery, MinerState], str]:
    """A reference for ``phase1.admission``: the rule that walks further.

    It takes the same arguments and gives the same verdicts, except that its
    walk passes unclassified generalizations and stops only at the first
    infrequent one.  A walk that finds none keeps every generalization key
    in a memo of its own, and a deferred candidate is decided again from
    that whole list.  Patch the returned function over ``phase1.admission``
    to run phase 1 with it; each call returns a fresh memo.
    """
    parents: dict[str, list[str]] = {}

    def admission(key: str, representative: ConjunctiveQuery, state: MinerState) -> str:
        frequent, infrequent = state.frequent_index, state.infrequent_index
        if key in frequent or key in infrequent:
            return PRUNE
        parent_keys = parents.get(key)
        if parent_keys is None:
            parent_keys = []
            for parent, _ in immediate_generalizations(representative, state):
                parent_keys.append(parent)
                if parent in infrequent:
                    break
            else:
                parents[key] = parent_keys
        if any(parent in infrequent for parent in parent_keys):
            infrequent.add(key)
            return PRUNE
        if all(parent in frequent for parent in parent_keys):
            return ADMIT
        return DEFER

    return admission


def candidate_keys(state: MinerState) -> set[str]:
    """Every class key admitted as a candidate at some level of a run."""
    seen: set[str] = set()
    for level in state.levels:
        seen.update(level.candidate_keys)
    return seen


def frequent_supports(
    state: MinerState, class_key: Callable[[ConjunctiveQuery], str]
) -> dict[str, int]:
    """Class key -> support of every frequent discovery of a run.

    A discovery with placeholders stands for one class per frequent
    assignment, keyed and counted on its own.
    """
    supports: dict[str, int] = {}
    for record in state.frequent_records():
        grouped = record.frequent_constants
        for values, count in grouped.sorted_items():
            plugged = instantiate(record.query, dict(zip(grouped.symbols, values)))
            supports[class_key(plugged)] = count
    return supports


def active_domain(instance: Instance, relation: str, column: int) -> frozenset[str]:
    """The set of constants occurring in one column (0-based) of a relation."""
    decl = instance.schema.relation(relation)
    if not 0 <= column < decl.arity:
        raise DataError(
            f"column {column} out of range for {relation!r} (arity {decl.arity})"
        )
    return frozenset(row[column] for row in instance.tables[relation])


def write_instance(instance: Instance, data_dir: str | Path) -> None:
    """Serialize an instance back to ``<relation>.csv`` files (sorted rows)."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    for decl in instance.schema.relations:
        with open(data_dir / f"{decl.name}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            for row in sorted(instance.tables[decl.name]):
                writer.writerow(row)


@functools.lru_cache(maxsize=None)
def rule_queries(rule: AssociationRule) -> tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """A rule's antecedent and consequent, parsed back from their texts.

    Each text must be the rendering of the query it parses to.  Many tests
    read the same rules, so each rule is parsed and checked once.
    """
    queries = parse_query(rule.antecedent), parse_query(rule.consequent)
    for text, query in zip((rule.antecedent, rule.consequent), queries):
        assert render_query(query) == text, text
    return queries
