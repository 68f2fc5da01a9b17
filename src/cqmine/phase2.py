"""Discovery of confident association rules between frequent queries.

A rule pairs two conjunctive queries with identical heads: an antecedent and
a consequent whose answers are a subset of the antecedent's.  Its confidence
is the ratio of the two supports, so it reads "of the tuples satisfying the
antecedent, this fraction also satisfies the consequent".

For each frequent consequent the search walks from the consequent itself
(the most confident rule possible) toward ever more general antecedents.
Generalization steps (``cqmine.generalization``) are the inverses of the
specialization rewritings that built the query in the first place: removing
an atom, splitting a merged variable apart, and relaxing a constant back
into a variable.  Because merging variables or substituting constants can
collapse two distinct atoms into one, undoing those steps may have to
*duplicate* an atom, and the walk must pass through intermediate bodies that
are equivalent to an earlier form (they carry a redundant atom whose sole
purpose is to be generalized differently).  The walk therefore tracks raw
bodies, deduplicated by their canonical rendering without minimization,
while rules are reported per minimized equivalence class.

Support never shrinks under generalization, so confidence never grows along
the walk; a branch whose confidence already fell below the threshold can be
abandoned without losing any confident rule.

A discovery with placeholders stands for one consequent per frequent
constant assignment, since both sides of a rule must name the same concrete
constants.  Assignments with one equality pattern (the same placeholders
share a value) give consequents that differ only by a renaming of
constants, and so do the forms their walks pass through.  Such a *group* is
walked once, from the first assignment's consequent, its representative;
the other members come along as constant renamings.  Every form in the walk
carries a bit mask of the members that reached it through confident
antecedents only.  A branch ends when that set is empty, and a form reached
again by further members is expanded again for those alone.  A discovery
without placeholders is a group of one.

Groups share most of the forms their walks pass through.  One step table
per ``run_phase2`` call maps a form's canonical raw text to its
generalization steps, each already canonicalized and minimized, so a form
is expanded once per run however many walks reach it.  One support table
per call maps a minimized query's canonical text, head order kept, to its
support.  It starts with every consequent's count from phase 1, and an
antecedent it lacks is counted once and added.  An antecedent that keeps
constants has a support per member.  For the representative alone it comes
from the support table; otherwise one grouped count of the antecedent with
its constants re-opened as placeholders, made once per run for each
re-opened query and without a minimum support, serves every member of
every group that reaches it.  Rule sides are always the instantiated
queries' own canonical texts, never text substituted into a rendering:
instantiation can reorder the least rendering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .errors import ConfigError
from .evaluation import support, support_grouped
from .generalization import atom_removals, splits
from .phase1 import MinerState
from .queries import (
    ConjunctiveQuery,
    Constant,
    SymbolicConstant,
    instantiate,
    substitute_terms,
)
from .relational import Instance

__all__ = [
    "AssociationRule",
    "RuleConfig",
    "run_phase2",
]


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RuleConfig:
    """Thresholds controlling rule generation.

    ``minconf`` is kept as an exact fraction; strings such as ``"0.75"`` and
    floats are converted through their decimal reading so that command-line
    values compare exactly.  ``include_trivial`` additionally reports the
    rule pairing every consequent with itself (confidence 1).
    """

    minconf: Fraction
    include_trivial: bool = False

    def __post_init__(self) -> None:
        value = self.minconf
        try:
            if isinstance(value, float):
                value = Fraction(str(value))
            elif not isinstance(value, Fraction):
                value = Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ConfigError(f"minconf is not a valid fraction: {value!r}") from exc
        if not 0 < value <= 1:
            raise ConfigError(f"minconf must lie in (0, 1], got {value}")
        object.__setattr__(self, "minconf", value)


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """``antecedent => consequent`` over queries with identical heads.

    Both sides are ``render_query`` texts.  ``support`` is the consequent's
    support; ``confidence`` is the exact ratio of the two sides' supports.
    """

    antecedent: str
    consequent: str
    support: int
    confidence: Fraction

    def __post_init__(self) -> None:
        if self.support < 1:
            raise ConfigError(f"rule support must be positive, got {self.support}")
        if not 0 < self.confidence <= 1:
            raise ConfigError(
                f"rule confidence must lie in (0, 1], got {self.confidence}"
            )




# ---------------------------------------------------------------------------
# consequent groups and their walks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Group:
    """Consequents that share one walk, representative first.

    ``base`` is the representative's minimized, canonically renamed query.
    ``texts`` and ``counts`` are each member's canonical text and support.
    ``renamings`` carries the representative's constants to each member's
    (empty for the representative itself).
    """

    base: ConjunctiveQuery
    texts: list[str]
    counts: list[int]
    renamings: list[dict[Constant, Constant]]


def _consequent_groups(state: MinerState) -> list[_Group]:
    """Every frequent query eligible as a rule consequent, once, in groups.

    A discovery with placeholders has one consequent per frequent constant
    assignment, grouped by equality pattern: for each placeholder, the
    first placeholder with the same value.  Discoveries carry no literal
    constants (no phase-1 operator makes one), so members of a group differ
    by a one-to-one renaming of constants.  Phase-1 minimization holds
    placeholders fixed, so distinct values never make an atom redundant;
    only a pattern that merges placeholders is minimized, once per group.
    Members keep the support order of ``GroupedSupport.sorted_items``.  A
    consequent text that an earlier member already took is dropped: it is
    the same query, with the same support.
    """
    claimed: set[str] = set()
    groups: list[_Group] = []
    for record in state.frequent_records():
        query, grouped = record.query, record.frequent_constants
        if grouped is None:
            symbols, items = (), [((), record.support)]
        else:
            symbols, items = grouped.symbols, grouped.sorted_items()
        patterns: dict[tuple[int, ...], list[tuple[tuple[str, ...], int]]] = {}
        for assignment, count in items:
            first: dict[str, int] = {}
            pattern = tuple(
                first.setdefault(value, i) for i, value in enumerate(assignment)
            )
            patterns.setdefault(pattern, []).append((assignment, count))
        for pattern, members in patterns.items():
            free = [i for i, label in enumerate(pattern) if label == i]
            pattern_query = query
            if len(free) < len(pattern):
                merge = dict(zip(symbols, (symbols[label] for label in pattern)))
                pattern_query = state.minimize(
                    ConjunctiveQuery(query.head, substitute_terms(query.body, merge))
                )
            base, origin = None, ()
            texts: list[str] = []
            counts: list[int] = []
            renamings: list[dict[Constant, Constant]] = []
            free_symbols = [symbols[i] for i in free]
            for assignment, count in members:
                values = tuple(assignment[i] for i in free)
                text, form = state.canonical_form(
                    instantiate(pattern_query, dict(zip(free_symbols, values)))
                )
                if text in claimed:
                    continue
                claimed.add(text)
                if base is None:
                    base, origin = form, values
                texts.append(text)
                counts.append(count)
                renamings.append(
                    {Constant(a): Constant(b) for a, b in zip(origin, values) if a != b}
                )
            if base is not None:
                groups.append(_Group(base, texts, counts, renamings))
    return groups


_Step = tuple[str, ConjunctiveQuery, str, ConjunctiveQuery, tuple[Constant, ...]]


def _steps_of(
    form_text: str,
    form: ConjunctiveQuery,
    table: dict[str, list[_Step]],
    state: MinerState,
) -> list[_Step]:
    """The walk steps from ``form``, generated once per run and then shared.

    Each step is ``(raw_text, raw_form, antecedent_text, antecedent,
    constants)``: the generalized body, canonically renamed but not
    minimized, its minimized class, and the class's constants in order, in
    generation order (atom removals, then splits).
    ``form`` is a canonical rendering, so ``form_text`` determines it.  Both
    renderings go through the state's memos, which also serve other walks.
    """
    steps = table.get(form_text)
    if steps is None:
        canonical_form, minimize = state.canonical_form, state.minimize
        steps = []
        max_atoms = state.config.max_atoms
        for raw in itertools.chain(atom_removals(form), splits(form, max_atoms)):
            raw_text, raw_form = canonical_form(raw)
            antecedent_text, antecedent = canonical_form(minimize(raw_form))
            constants = tuple(sorted(antecedent.constants()))
            steps.append((raw_text, raw_form, antecedent_text, antecedent, constants))
        table[form_text] = steps
    return steps


# a grouped count of an antecedent with its constants re-opened: the support
# per tuple of values, and the canonical texts of the instantiations rendered
# so far, by the same tuples
_Counted = tuple[dict[tuple[str, ...], int], dict[tuple[str, ...], str]]


def _rules_for_group(
    group: _Group,
    state: MinerState,
    instance: Instance,
    config: RuleConfig,
    supports: dict[str, int],
    grouped: dict[ConjunctiveQuery, _Counted],
    table: dict[str, list[_Step]],
) -> list[AssociationRule]:
    texts, counts, renamings = group.texts, group.counts, group.renamings
    base_text = texts[0]
    rules: list[AssociationRule] = []
    if config.include_trivial:
        for text, count in zip(texts, counts):
            rules.append(AssociationRule(text + ".", text + ".", count, Fraction(1)))
    # member ``i``'s confidence ``counts[i] / antecedent_support`` reaches
    # ``minconf`` exactly when ``numerator * antecedent_support <= cuts[i]``
    numerator = config.minconf.numerator
    cuts = [count * config.minconf.denominator for count in counts]

    def decide(
        antecedent_text: str,
        antecedent: ConjunctiveQuery,
        constants: tuple[Constant, ...],
        undecided: int,
    ) -> int:
        """The members in ``undecided`` whose rule from ``antecedent`` is
        confident.  Their rules are emitted here, the only time each member
        meets this antecedent class."""
        if constants and undecided != 1:
            # members other than the representative see other constants
            reopen = {c: SymbolicConstant(i) for i, c in enumerate(constants, 1)}
            reopened = ConjunctiveQuery(
                antecedent.head, substitute_terms(antecedent.body, reopen)
            )
            entry = grouped.get(reopened)
            if entry is None:
                entry = (support_grouped(reopened, instance).counts, {})
                grouped[reopened] = entry
            by_values, rendered = entry
        else:
            # one support serves every member: no constants, or the
            # representative alone
            by_values = None
            antecedent_support = supports.get(antecedent_text)
            if antecedent_support is None:
                antecedent_support = support(antecedent, instance)
                supports[antecedent_text] = antecedent_support
        confident = 0
        bits = undecided
        while bits:
            low = bits & -bits
            bits ^= low
            member = low.bit_length() - 1
            if by_values is not None:
                key = tuple(renamings[member].get(c, c)[1] for c in constants)
                antecedent_support = by_values[key]
            if numerator * antecedent_support > cuts[member]:
                continue
            confident |= low
            text = antecedent_text
            if member and constants:
                # the member's own instantiation, rendered once per run
                text = rendered.get(key)
                if text is None:
                    renamed = ConjunctiveQuery(
                        antecedent.head,
                        substitute_terms(antecedent.body, renamings[member]),
                    )
                    text = rendered[key] = state.canonical_form(renamed)[0]
            count = counts[member]
            confidence = Fraction(count, antecedent_support)
            consequent = texts[member] + "."
            rules.append(AssociationRule(text + ".", consequent, count, confidence))
        return confident

    everyone = (1 << len(texts)) - 1
    # raw text -> members that reached the form
    reached = {base_text: everyone}
    # antecedent text -> [members decided, members confident]; the base's own
    # class is confident for all and never reported as a rule
    verdicts = {base_text: [everyone, everyone]}
    frontier = {base_text: [group.base, everyone]}
    while frontier:
        next_frontier: dict[str, list] = {}
        for form_text, (form, live) in frontier.items():
            for raw_text, raw_form, antecedent_text, antecedent, constants in _steps_of(
                form_text, form, table, state
            ):
                earlier = reached.get(raw_text, 0)
                new = live & ~earlier
                if not new:
                    continue
                reached[raw_text] = earlier | new
                verdict = verdicts.get(antecedent_text)
                if verdict is None:
                    verdict = verdicts[antecedent_text] = [0, 0]
                undecided = new & ~verdict[0]
                if undecided:
                    verdict[0] |= undecided
                    verdict[1] |= decide(
                        antecedent_text, antecedent, constants, undecided
                    )
                confident = new & verdict[1]
                if not confident:
                    continue  # every further generalization is even less confident
                pending = next_frontier.get(raw_text)
                if pending is None:
                    next_frontier[raw_text] = [raw_form, confident]
                else:
                    pending[1] |= confident
        frontier = next_frontier
    return rules


def run_phase2(
    state: MinerState,
    instance: Instance,
    config: RuleConfig,
) -> list[AssociationRule]:
    """Generate every confident association rule over the discovered queries.

    Each frequent query (with placeholders instantiated) is taken in turn as
    a consequent, and its antecedents are explored from most to least
    confident, one walk per group of consequents that differ only by their
    constants.  The walks share one support table, seeded with the
    consequents' supports, one table of grouped counts and one step table.
    The result is sorted by descending confidence, then antecedent and
    consequent text (with the trailing period, as printed).
    """
    groups = _consequent_groups(state)
    supports = {
        text: count
        for group in groups
        for text, count in zip(group.texts, group.counts)
    }
    grouped: dict[ConjunctiveQuery, _Counted] = {}
    table: dict[str, list[_Step]] = {}
    rules = [
        rule
        for group in groups
        for rule in _rules_for_group(
            group, state, instance, config, supports, grouped, table
        )
    ]
    # two stable sorts, so no tuple key compares ``Fraction``s for equality
    rules.sort(key=attrgetter("antecedent", "consequent"))
    rules.sort(key=attrgetter("confidence"), reverse=True)
    return rules
