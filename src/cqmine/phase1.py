"""Levelwise discovery of all frequent conjunctive queries over an instance.

The search starts from the most general queries expressible within the
configured limits and repeatedly specializes them.  A candidate is admitted
for evaluation only once every strictly more general query of its class is
known to be frequent; because support never shrinks under generalization,
classes with an infrequent generalization can be discarded without touching
the data.  Candidates whose generalizations are merely *not yet* classified
stay in a pending pool and are reconsidered on later iterations, so admission
order never loses part of the search space.

Queries are tracked per equivalence class: ``class_of`` minimizes every
generated query and renames it canonically, and indices are keyed by the
canonical text.  Without a key atom the text is taken up to a permutation of
the head, so two queries that only disagree on answer-column order count as
one discovery; with a key atom the head is the anchor's argument list and its
order is kept.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, NamedTuple

from .containment import is_diagonally_contained, minimize
from .errors import ConfigError
from .evaluation import GroupedSupport, support_grouped
from .generalization import atom_removals, splits
from .queries import (
    Atom,
    ConjunctiveQuery,
    Variable,
    canonical_form,
    fresh_symbolic_constant,
    fresh_variable,
    instance_renderer,
    shape,
    substitute_terms,
    unchecked_query,
)
from .relational import Instance, Schema

_KEY_ATOM_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((\s*_(?:\s*,\s*_)*\s*)\)\s*$"
)


def parse_key_atom(pattern: str, schema: Schema) -> Atom:
    """Turn a pattern like ``likes(_, _)`` into an atom over fresh variables.

    Each underscore becomes a distinct variable; the atom's variables double
    as the head of the seed query for key-atom mining.
    """
    match = _KEY_ATOM_RE.match(pattern)
    if match is None:
        raise ConfigError(
            f"key atom must look like 'relation(_, _)', got {pattern!r}"
        )
    name = match.group(1)
    if name not in schema:
        raise ConfigError(f"key atom names unknown relation {name!r}")
    arity = match.group(2).count("_")
    declared = schema.relation(name).arity
    if arity != declared:
        raise ConfigError(
            f"key atom for {name!r} has {arity} positions, relation has {declared}"
        )
    args = tuple(Variable(f"k{i}") for i in range(1, arity + 1))
    return Atom(name, args)


class MinerConfig:
    """Parameters controlling the frequent-query search.

    minsup: minimum number of answers (for queries with symbolic constants,
        of the best single assignment) for a query to count as frequent.
    max_atoms: largest body size explored, at most 64: one sqlite3 join
        holds at most 64 tables, one per body atom.
    enable_constants: when False, the selection operation is switched off and
        no symbolic-constant queries are generated.
    key_atom: optional atom every explored query must contain, with the
        atom's variables as the fixed head (the "transaction key" language).
    """

    __slots__ = ("minsup", "max_atoms", "enable_constants", "key_atom")

    def __init__(
        self,
        minsup: int,
        max_atoms: int = 2,
        enable_constants: bool = True,
        key_atom: Atom | None = None,
    ) -> None:
        if minsup < 1:
            raise ConfigError(f"minsup must be at least 1, got {minsup}")
        if not 1 <= max_atoms <= 64:
            raise ConfigError(f"max_atoms must be from 1 to 64, got {max_atoms}")
        self.minsup = minsup
        self.max_atoms = max_atoms
        self.enable_constants = enable_constants
        self.key_atom = key_atom


class QueryRecord:
    """A frequent discovery: its class ``key``, the class representative and
    its measured support.

    ``frequent_constants`` lists every assignment of the query's symbolic
    constants meeting the threshold, and ``support`` is the best one's
    count.  A discovery without symbolic constants holds the one empty
    assignment ``()``, with its support.

    ``texts`` holds the canonical text, head order kept, of the query
    instantiated at each frequent assignment, in ``sorted_items`` order.
    Each instance is rendered here, once, by ``instance_renderer``, which
    renders the query once per order type of the values, and phase 2 and
    the reports read the text.  A discovery without symbolic constants
    holds ``(key,)``: the representative is the minimized query renamed by
    its least naming, so its own canonical text is the key.
    """

    __slots__ = ("key", "query", "support", "level", "frequent_constants", "texts")

    def __init__(
        self,
        key: str,
        query: ConjunctiveQuery,
        support: int,
        level: int,
        frequent_constants: GroupedSupport,
    ) -> None:
        self.key = key
        self.query = query
        self.support = support
        self.level = level
        self.frequent_constants = frequent_constants
        self.texts = (key,)
        if frequent_constants.symbols:
            render = instance_renderer(query, frequent_constants.symbols)
            self.texts = tuple(
                render(values) for values, _ in frequent_constants.sorted_items()
            )


class Level(NamedTuple):
    """One admission round: the candidates evaluated and the survivors."""

    number: int
    candidate_keys: tuple[str, ...]
    frequent_keys: tuple[str, ...]


class MinerState:
    """Everything accumulated by a mining run, and phase 1's memos.

    ``classes`` maps the ``queries.shape`` of every raw query ``class_of``
    has keyed to its ``(key, representative)`` pair, so a renaming of a
    query already keyed costs one shape and one lookup.  ``waiting`` maps
    each class ``admission`` deferred to the one generalization key it waits
    on: the first its walk found not yet classified.
    Phase 2 keeps its own memo of walk forms, keyed by shape too, for one
    ``run_phase2`` call; one-off renderings, such as each record's
    ``texts``, go through the plain functions.

    ``atoms`` is the run's atom table: every ``canonical_form`` of the run
    interns the atoms of its renamed body there, so each distinct atom the
    run keeps (in class representatives, records, group bases and walk
    forms) is one object.  All live as long as the state.
    """

    __slots__ = (
        "config",
        "schema",
        "levels",
        "frequent_index",
        "infrequent_index",
        "waiting",
        "classes",
        "atoms",
    )

    def __init__(self, config: MinerConfig, schema: Schema) -> None:
        self.config = config
        self.schema = schema
        self.levels: list[Level] = []
        self.frequent_index: dict[str, QueryRecord] = {}
        self.infrequent_index: set[str] = set()
        self.waiting: dict[str, str] = {}
        self.classes: dict[tuple, tuple[str, ConjunctiveQuery]] = {}
        self.atoms: dict[Atom, Atom] = {}

    def frequent_records(self) -> list[QueryRecord]:
        return [
            self.frequent_index[key]
            for level in self.levels
            for key in level.frequent_keys
        ]


def initial_candidates(state: MinerState) -> list[ConjunctiveQuery]:
    """The most general queries of the language, one per equivalence class.

    Without a key atom these are the queries whose body is a multiset of
    exactly ``max_atoms`` relation atoms over all-distinct variables and
    whose head lists every variable.  Queries with smaller bodies are
    strictly less general (their atoms embed into a padded body while the
    wider head does not map back), so they surface later through projection
    and minimization rather than seeding the search.  With a key atom the
    language is anchored instead: the single seed is the key atom with its
    variables as head.
    """
    schema, config = state.schema, state.config
    if config.key_atom is not None:
        seed = unchecked_query(config.key_atom.args, frozenset([config.key_atom]))
        return [class_of(seed, state)[1]]
    results: dict[str, ConjunctiveQuery] = {}
    names = sorted(schema.names())
    for combo in itertools.combinations_with_replacement(names, config.max_atoms):
        counter = itertools.count(1)
        atoms = []
        for name in combo:
            arity = schema.relation(name).arity
            args = tuple(Variable(f"v{next(counter)}") for _ in range(arity))
            atoms.append(Atom(name, args))
        head = tuple(term for atom in atoms for term in atom.args)
        key, query = class_of(unchecked_query(head, frozenset(atoms)), state)
        results.setdefault(key, query)
    return [results[key] for key in sorted(results)]


def _used_names(query: ConjunctiveQuery) -> set[str]:
    return {variable.name for variable in query.variables()}


def class_of(query: ConjunctiveQuery, state: MinerState) -> tuple[str, ConjunctiveQuery]:
    """The key of a query's class and the class representative.

    The query is minimized and then canonically renamed.  Queries with equal
    keys are equivalent, and equivalent queries without placeholders have
    equal keys.  Without a key atom the key also absorbs head reordering.
    With one, every query of the language carries the anchor's variables as
    its head, so the head order is kept and representatives list the
    anchor's arguments in order.

    Results are memoized in ``state.classes`` by the query's ``shape``: a
    renaming of a query already keyed (and, without a key atom, a head
    reordering) has an isomorphic core and so the same key and
    representative.  A miss minimizes and renders the query.
    """
    head_ordered = state.config.key_atom is not None
    key = shape(query, head_ordered)
    found = state.classes.get(key)
    if found is None:
        found = state.classes[key] = canonical_form(
            minimize(query),
            modulo_head_permutation=not head_ordered,
            atoms=state.atoms,
        )
    return found


def specializations(
    query: ConjunctiveQuery, state: MinerState
) -> dict[str, ConjunctiveQuery]:
    """All immediate refinements of a query's class, keyed by class, in key order.

    Four operations generate refinements: extending the body with a new atom
    over fresh variables, joining two variables into one, selecting a
    non-head variable to a symbolic constant, and projecting away a head
    position.  Results are keyed and represented by ``class_of``;
    refinements back in the input's own class are dropped.  The input body
    has at most ``max_atoms`` atoms, and so has every refinement: extension
    runs only below that budget, and minimization never adds an atom.
    """
    schema, config = state.schema, state.config
    self_key, base = class_of(query, state)
    results: dict[str, ConjunctiveQuery] = {}

    def add(candidate: ConjunctiveQuery) -> None:
        key, reduced = class_of(candidate, state)
        if key != self_key:
            results.setdefault(key, reduced)

    biased = config.key_atom is not None
    head_set = set(base.head)

    # Extension: add one atom over all-fresh variables, head unchanged.  If
    # the relation already occurs in the body, the unconstrained new atom
    # maps onto the existing one, so the result collapses back; only absent
    # relations yield new classes.
    if len(base.body) < config.max_atoms:
        used = _used_names(base)
        present = {atom.relation for atom in base.body}
        for name in sorted(schema.names()):
            if name in present:
                continue
            arity = schema.relation(name).arity
            fresh: list[Variable] = []
            for _ in range(arity):
                variable = fresh_variable(used | {v.name for v in fresh})
                fresh.append(variable)
            atom = Atom(name, tuple(fresh))
            add(unchecked_query(base.head, base.body | {atom}))

    # Join: merge two distinct variables.  A head variable survives, and
    # when neither or both are in the head the first in name order does.
    # Two head variables make one survivor: keeping either drops the other's
    # head position, and the two results are renamings of each other (swap
    # the names) up to head order, which class keys without a key atom
    # ignore.  With a key atom the head is fixed, so no two head variables
    # are joined.
    variables = sorted(base.variables())
    for left, right in itertools.combinations(variables, 2):
        if biased and left in head_set and right in head_set:
            continue
        if right in head_set and left not in head_set:
            keep, drop = right, left
        else:
            keep, drop = left, right
        head = tuple(v for v in base.head if v != drop)
        add(unchecked_query(head, substitute_terms(base.body, {drop: keep})))

    # Selection: bind a non-head variable to a symbolic constant.
    if config.enable_constants:
        symbol = fresh_symbolic_constant(base.symbolic_constants())
        for variable in variables:
            if variable in head_set:
                continue
            body = substitute_terms(base.body, {variable: symbol})
            add(unchecked_query(base.head, body))

    # Projection: drop one head position (heads never shrink to nothing, and
    # key-atom mode keeps the head fixed).
    if base.arity >= 2 and not biased:
        for position in range(base.arity):
            head = base.head[:position] + base.head[position + 1 :]
            add(unchecked_query(head, base.body))

    return {key: results[key] for key in sorted(results)}


def immediate_generalizations(
    representative: ConjunctiveQuery, state: MinerState
) -> Iterator[tuple[str, ConjunctiveQuery]]:
    """Yield the strictly more general classes one inverse operation away.

    ``representative`` must be a class representative as ``class_of``
    returns it: atom removal is strict only on a minimized body.  Each
    result is a ``(key, representative)`` pair from ``class_of``.  Inverse
    extension removes a body atom, inverse join splits one variable's
    occurrences in two and inverse selection re-opens a literal constant at
    some of its occurrences; these head-preserving steps come from
    ``cqmine.generalization``, with a body budget that leaves no room for
    duplicated atoms.  A symbolic constant re-opens at all its occurrences
    at once, and inverse projection extends the head by an existing body
    variable.  Anything equivalent to the input is dropped, as is anything
    outside the key-atom language when one is configured.

    Results come lazily and cheapest first, so a caller that stops early
    pays only for the ones it looked at: removals, re-openings and inverse
    projections, which are strict by construction, come before the splits,
    which are strict by construction only on an input without placeholders
    and need a containment check on one with them.  Keys may repeat.
    """
    head, body = representative.head, representative.body
    key_atom = state.config.key_atom
    anchor_relation = key_atom.relation if key_atom is not None else None

    def in_language(candidate: ConjunctiveQuery) -> bool:
        # invariant under equivalence, so checked on the raw candidate before
        # the cost of canonicalizing it
        return (
            anchor_relation is None
            or Atom(anchor_relation, candidate.head) in candidate.body
        )

    # Every inverse operation admits a substitution carrying its result's
    # body onto the input body while covering the head, so the input is
    # always at least as specific as the result; only equivalence has to be
    # ruled out, and only where construction does not already guarantee
    # strictness.

    # The body is minimized, so what remains after removing an atom never
    # maps onto the whole and the result is strictly more general.
    for candidate in atom_removals(representative):
        if in_language(candidate):
            yield class_of(candidate, state)

    # Symbolic constants re-open wholesale: strict, since no homomorphism can
    # reintroduce the vanished symbol.
    fresh = fresh_variable(_used_names(representative))
    symbols = representative.symbolic_constants()
    for symbol in sorted(symbols):
        candidate = unchecked_query(head, substitute_terms(body, {symbol: fresh}))
        if in_language(candidate):
            yield class_of(candidate, state)

    # Inverse projection: put an existing non-head variable into the head.
    # The wider head can never be covered back, so the result is strict.
    if key_atom is None:
        unexported = representative.variables() - set(head)
        for variable in sorted(unexported):
            yield class_of(unchecked_query(head + (variable,), body), state)

    # A split keeps the atom count and puts a fresh variable in some places
    # of its target, a term it keeps elsewhere (a constant target it may
    # lose, but no embedding drops a constant).  Were the split diagonally
    # contained in the input, its embedding followed by the split's
    # substitution would be an endomorphism of the input that permutes the
    # head.  A power of it fixes the head and, without placeholders, every
    # term minimization holds fixed, so on the minimized input it is a
    # bijection on atoms and on terms.  The embedding would then be
    # injective on terms and onto the split's body, which has one term more:
    # impossible.  Placeholders may move under containment but not under
    # minimization: ``Q(x1) :- likes($c1, x1), likes($c2, x1)`` contains its
    # split ``Q(x1) :- likes($c1, x1), likes($c2, g1)``, so with placeholders
    # strictness is checked.
    for candidate in splits(representative, len(body)):
        if in_language(candidate) and not (
            symbols and is_diagonally_contained(candidate, representative)
        ):
            yield class_of(candidate, state)


ADMIT = "admit"
PRUNE = "prune"
DEFER = "defer"


def admission(key: str, representative: ConjunctiveQuery, state: MinerState) -> str:
    """What the search does with one pooled candidate of class ``key``.

    ``representative`` is the pooled class representative, as ``class_of``
    returns it.  ``ADMIT``: every immediate generalization is frequent, so
    the candidate is evaluated.  ``PRUNE``: the candidate leaves the pool
    unevaluated, either because its class is already classified or because
    one of its generalizations is infrequent; support never grows under
    specialization, so in the second case the class is recorded infrequent.
    ``DEFER``: some generalization is not classified yet, so the candidate
    waits for a later iteration.

    The generalizations are walked lazily and the walk stops at the first
    one not known frequent, which settles the verdict.  A deferred class
    keeps only that key, in ``state.waiting``: while it stays unclassified
    the class waits without a walk, once it is infrequent the class is
    pruned, and once it is frequent the walk starts over.  No walk is kept
    suspended between calls.  The frequent set does not change while a
    level is admitted, so each level admits the classes a full walk would.
    """
    frequent, infrequent = state.frequent_index, state.infrequent_index
    if key in frequent or key in infrequent:
        return PRUNE
    parent = state.waiting.pop(key, None)
    if parent is None or parent in frequent:
        for parent, _ in immediate_generalizations(representative, state):
            if parent not in frequent:
                break
        else:
            return ADMIT
    if parent in infrequent:
        infrequent.add(key)
        return PRUNE
    state.waiting[key] = parent
    return DEFER


def run_phase1(instance: Instance, config: MinerConfig) -> MinerState:
    """Mine every frequent query class reachable within the configured language.

    Each iteration runs every pooled candidate through ``admission``,
    evaluates the admitted ones, then refills the pool with the
    specializations of the newly frequent classes.  The run ends when an
    iteration admits nothing.
    """
    state = MinerState(config=config, schema=instance.schema)

    pending: dict[str, ConjunctiveQuery] = {}
    for query in initial_candidates(state):
        pending[class_of(query, state)[0]] = query

    level_number = 0
    while True:
        level_number += 1
        admitted: list[tuple[str, ConjunctiveQuery]] = []
        still_pending: dict[str, ConjunctiveQuery] = {}
        for key in sorted(pending):
            query = pending[key]
            verdict = admission(key, query, state)
            if verdict == ADMIT:
                admitted.append((key, query))
            elif verdict == DEFER:
                still_pending[key] = query

        if not admitted:
            break

        frequent_keys = []
        for key, query in admitted:
            grouped = support_grouped(query, instance, config.minsup)
            if not grouped:
                state.infrequent_index.add(key)
                continue
            state.frequent_index[key] = QueryRecord(
                key=key,
                query=query,
                support=grouped.best(),
                level=level_number,
                frequent_constants=grouped,
            )
            frequent_keys.append(key)
            children = specializations(query, state)
            for child_key, child in children.items():
                if (
                    child_key not in state.frequent_index
                    and child_key not in state.infrequent_index
                    and child_key not in still_pending
                ):
                    still_pending[child_key] = child

        state.levels.append(
            Level(
                number=level_number,
                candidate_keys=tuple(key for key, _ in admitted),
                frequent_keys=tuple(frequent_keys),
            )
        )
        pending = still_pending

    return state
