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
bodies, one per entry of the form memo below, while rules are reported per
minimized equivalence class.

Support never shrinks under generalization, so confidence never grows along
the walk; a branch whose confidence already fell below the threshold can be
abandoned without losing any confident rule.

A discovery with placeholders stands for one consequent per frequent
constant assignment, since both sides of a rule must name the same concrete
constants.  Assignments with one equality pattern (the same placeholders
share a value) give consequents that differ only by a renaming of
constants, and so do the forms their walks pass through.  Such a *group* is
walked once, from the first assignment's consequent, its representative;
a member is the tuple of its placeholders' values, aligned with the
representative's.  Every form in the walk carries a bit mask of the members
that reached it through confident antecedents only.  A branch ends when
that set is empty, and a form reached again by further members is expanded
again for those alone.  A discovery without placeholders is a group of one.

Groups share most of the forms their walks pass through.  One form memo
per ``run_phase2`` call maps a raw form's ``queries.shape``, head order
kept (phase 1 keys its classes by the same function), to the entry a walk
keys the form by: the form renamed canonically, its minimized class, the
class's constants and, once a walk expands the form, its generalization
steps.  So a renaming is rendered and minimized once, and a form is
expanded once per run however many walks reach it.  Two entries hold
renamings of one form only where ``shape`` broke ties differently;
verdicts are kept per antecedent class, so each member still meets each
class once.  Every antecedent support comes from one table of grouped
counts per call, keyed by query.  An antecedent that keeps constants is
looked up with its constants re-opened as placeholders, and one without
by its own class form, whose one assignment is ``()``; a member's support
is the count at its values of the constants.  A query the table lacks is
counted once, at the run's minimum support, and serves every member of
every group that reaches it.  That threshold loses nothing: an antecedent
generalizes the member's consequent, so its support is at least the
member's count, which is at least the minimum support.  The counts stay
factored, one dict per connected component, taken from the instance's
table of component counts, where phase 1 left nearly all of them, and a
member's support multiplies its factors' counts at its values
(``GroupedSupport.count``).  Rule sides are always the instantiated
queries' own canonical texts, read from the records or made by
``queries.instance_renderer``, which renders a query with placeholders
once per order type of the values and puts each instance's values into
that rendering: the order of the values, not the values, decides how
instantiation orders the least rendering.

Rules share their parts.  Each member's printed consequent is made once,
each printed antecedent once per run, and each confidence is one
``Fraction`` per ``(count, antecedent_support)`` pair.  Rules are collected
in one bucket per confidence, so ordering them sorts each bucket by its
texts and compares no ``Fraction`` per rule.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .containment import minimize
from .errors import ConfigError
from .evaluation import GroupedSupport, support_grouped
from .generalization import atom_removals, splits
from .phase1 import MinerState
from .queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SymbolicConstant,
    canonical_form,
    instance_renderer,
    instantiate,
    shape,
    substitute_terms,
    unchecked_query,
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


class RuleConfig:
    """Thresholds controlling rule generation.

    ``minconf`` is kept as an exact fraction; strings such as ``"0.75"`` and
    floats are converted through their decimal reading so that command-line
    values compare exactly.  ``include_trivial`` additionally reports the
    rule pairing every consequent with itself (confidence 1).
    """

    __slots__ = ("minconf", "include_trivial")

    def __init__(self, minconf: Fraction, include_trivial: bool = False) -> None:
        value = minconf
        try:
            if isinstance(value, float):
                value = Fraction(str(value))
            elif not isinstance(value, Fraction):
                value = Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ConfigError(f"minconf is not a valid fraction: {value!r}") from exc
        if not 0 < value <= 1:
            raise ConfigError(f"minconf must lie in (0, 1], got {value}")
        self.minconf = value
        self.include_trivial = include_trivial


class AssociationRule:
    """``antecedent => consequent`` over queries with identical heads.

    Both sides are canonical texts, head order kept, with the trailing
    period they are printed with.  ``support`` is the consequent's support;
    ``confidence`` is the exact ratio of the two sides' supports.  Phase 2
    builds a rule only from supports it has just tested, so the fields are
    not checked again: the support is at least ``minsup``, and the
    confidence passed the exact ``minconf`` test (or is 1, for a trivial
    rule).  The rules of a run share their equal parts as one object each
    (see ``_Rules``).  A slotted instance takes 64 bytes, a tuple or
    ``NamedTuple`` of the four fields 72.  Rules are equal when their four
    fields are.
    """

    __slots__ = ("antecedent", "consequent", "support", "confidence")

    def __init__(
        self, antecedent: str, consequent: str, support: int, confidence: Fraction
    ) -> None:
        self.antecedent = antecedent
        self.consequent = consequent
        self.support = support
        self.confidence = confidence

    def _key(self) -> tuple[str, str, int, Fraction]:
        return (self.antecedent, self.consequent, self.support, self.confidence)

    def __eq__(self, other: object) -> bool:
        if type(other) is not AssociationRule:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"AssociationRule(antecedent={self.antecedent!r}, "
            f"consequent={self.consequent!r}, support={self.support!r}, "
            f"confidence={self.confidence!r})"
        )


# ---------------------------------------------------------------------------
# consequent groups and their walks
# ---------------------------------------------------------------------------


class _Form:
    """A raw form a walk passes through: the run's memo entry for its shape.

    ``form`` is the raw query renamed canonically, not minimized;
    ``class_text`` and ``class_form`` are the canonical text and form of its
    minimized class, and ``constants`` the class's constants in order.
    ``steps`` is ``None`` until a walk first expands the form, and then the
    forms one generalization step away, in generation order (atom removals,
    then splits).  A walk keys the forms it reached by their entries.
    """

    __slots__ = ("form", "class_text", "class_form", "constants", "steps")

    def __init__(
        self,
        form: ConjunctiveQuery,
        class_text: str,
        class_form: ConjunctiveQuery,
    ) -> None:
        self.form = form
        self.class_text = class_text
        self.class_form = class_form
        self.constants = tuple(sorted(class_form.constants()))
        self.steps: list[_Form] | None = None


def _form_of(
    raw: ConjunctiveQuery, forms: dict[tuple, _Form], atoms: dict[Atom, Atom]
) -> _Form:
    """The entry of ``raw`` in the run's form memo ``forms``, made on a miss.

    Queries of equal ``shape`` are renamings, with one canonical form, so
    one entry serves them all.  A miss renames ``raw`` canonically,
    interning its atoms in ``atoms``, and minimizes the form.  ``minimize``
    returns its input when no atom is redundant, and a canonical form is its
    own canonical form, so then the class is the form itself, with the text
    just rendered.
    """
    key = shape(raw, True)
    entry = forms.get(key)
    if entry is None:
        text, form = canonical_form(raw, atoms=atoms)
        minimal = minimize(form)
        if minimal is form:
            entry = _Form(form, text, form)
        else:
            text, minimal = canonical_form(minimal, atoms=atoms)
            entry = _Form(form, text, minimal)
        forms[key] = entry
    return entry


class _Group(NamedTuple):
    """Consequents that share one walk, representative first.

    ``base`` is the form memo's entry for the representative's minimized
    query.  ``texts`` and ``counts`` are each member's canonical text and
    support.  ``values`` holds each member's values of the free placeholders,
    aligned with the representative's: unless the pattern merges
    placeholders, the record's own ``GroupedSupport.counts`` key.
    """

    base: _Form
    texts: list[str]
    counts: list[int]
    values: list[tuple[str, ...]]


def _consequent_groups(state: MinerState, forms: dict[tuple, _Form]) -> list[_Group]:
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
    the same query, with the same support.  A discovery without
    placeholders has the one assignment ``()``, and so is a group of one.

    A member's text is its record's rendering of the instance, except in a
    merging pattern: there the record shows the raw instantiation, while
    the consequent is its minimized class, so those members' texts come
    from the minimized pattern's ``instance_renderer``.  Only each group's
    first member is instantiated, for the form its walk starts from, which
    it looks up in the form memo ``forms``.
    """
    claimed: set[str] = set()
    groups: list[_Group] = []
    for record in state.frequent_records():
        query, grouped = record.query, record.frequent_constants
        symbols = grouped.symbols
        patterns: dict[tuple[int, ...], list[tuple[tuple[str, ...], int, str]]] = {}
        for (assignment, count), text in zip(grouped.sorted_items(), record.texts):
            first: dict[str, int] = {}
            pattern = tuple(
                first.setdefault(value, i) for i, value in enumerate(assignment)
            )
            patterns.setdefault(pattern, []).append((assignment, count, text))
        for pattern, members in patterns.items():
            free = [i for i, label in enumerate(pattern) if label == i]
            merging = len(free) < len(pattern)
            free_symbols = tuple(symbols[i] for i in free)
            pattern_query = query
            # merging patterns stay: on beer at two atoms their members all
            # repeat other texts, but at three (``--minsup 3``) dropping them
            # loses 231 consequents, each another discovery's instance with
            # its head reordered, and 2,387 of 440,070 rules at minconf 0.5;
            # the text the ``claimed`` check needs is a fill of the minimized
            # pattern's rendering for the order type of the member's values
            if merging:
                merge = dict(zip(symbols, (symbols[label] for label in pattern)))
                pattern_query = minimize(
                    unchecked_query(query.head, substitute_terms(query.body, merge))
                )
                render = instance_renderer(pattern_query, free_symbols)
            base = None
            texts: list[str] = []
            counts: list[int] = []
            member_values: list[tuple[str, ...]] = []
            for assignment, count, text in members:
                values = tuple(assignment[i] for i in free) if merging else assignment
                if merging:
                    text = render(values)
                if text in claimed:
                    continue
                claimed.add(text)
                if base is None:
                    base = _form_of(
                        instantiate(pattern_query, dict(zip(free_symbols, values))),
                        forms,
                        state.atoms,
                    )
                texts.append(text)
                counts.append(count)
                member_values.append(values)
            if base is not None:
                groups.append(_Group(base, texts, counts, member_values))
    return groups


def _steps_of(
    entry: _Form, forms: dict[tuple, _Form], state: MinerState
) -> list[_Form]:
    """The walk steps from ``entry``'s form, generated once per run and then
    shared: steps of different forms share many raw bodies and classes."""
    steps = entry.steps
    if steps is None:
        form, atoms = entry.form, state.atoms
        steps = entry.steps = [
            _form_of(raw, forms, atoms)
            for raw in itertools.chain(
                atom_removals(form), splits(form, state.config.max_atoms)
            )
        ]
    return steps


class _Rules:
    """The run's rules, one bucket per confidence, and the parts they share.

    ``dotted`` maps an antecedent's canonical text to its printed form, and
    ``confidences`` maps ``(count, antecedent_support)`` to its ``Fraction``
    and that confidence's bucket in ``buckets``.  A rule so costs two
    lookups by plain keys and no ``Fraction`` hash, and equal parts of
    different rules are one object.
    """

    __slots__ = ("dotted", "confidences", "buckets")

    def __init__(self) -> None:
        self.dotted: dict[str, str] = {}
        self.confidences: dict[
            tuple[int, int], tuple[Fraction, list[AssociationRule]]
        ] = {}
        self.buckets: dict[Fraction, list[AssociationRule]] = {}

    def dot(self, text: str) -> str:
        dotted = self.dotted.get(text)
        if dotted is None:
            dotted = self.dotted[text] = text + "."
        return dotted

    def add(
        self, antecedent: str, consequent: str, count: int, antecedent_support: int
    ) -> None:
        key = (count, antecedent_support)
        part = self.confidences.get(key)
        if part is None:
            confidence = Fraction(count, antecedent_support)
            part = self.confidences[key] = (
                confidence,
                self.buckets.setdefault(confidence, []),
            )
        part[1].append(AssociationRule(antecedent, consequent, count, part[0]))

    def ordered(self) -> list[AssociationRule]:
        """Every rule, by descending confidence, then antecedent and
        consequent text: each bucket holds its rules in the order they were
        made, so this is the order of a stable sort by those keys."""
        self.confidences.clear()  # so each bucket goes once it is copied
        rules: list[AssociationRule] = []
        for confidence in sorted(self.buckets, reverse=True):
            bucket = self.buckets.pop(confidence)
            bucket.sort(key=attrgetter("antecedent", "consequent"))
            rules += bucket
        return rules


# a grouped count of an antecedent, any constants re-opened as placeholders,
# read by tuples of values (``()`` for none), and the printed texts of the
# instantiations rendered so far, by the same tuples
_Counted = tuple[GroupedSupport, dict[tuple[str, ...], str]]


def _rules_for_group(
    group: _Group,
    state: MinerState,
    instance: Instance,
    config: RuleConfig,
    grouped: dict[ConjunctiveQuery, _Counted],
    forms: dict[tuple, _Form],
    rules: _Rules,
) -> None:
    texts, counts, values = group.texts, group.counts, group.values
    # the position of each of the representative's constants in the members'
    # value tuples: a group's free values are pairwise distinct
    position = {value: i for i, value in enumerate(values[0])}
    consequents = [text + "." for text in texts]
    dot, add = rules.dot, rules.add
    if config.include_trivial:
        for consequent, count in zip(consequents, counts):
            add(consequent, consequent, count, count)
    # member ``i``'s confidence ``counts[i] / antecedent_support`` reaches
    # ``minconf`` exactly when ``numerator * antecedent_support <= cuts[i]``
    numerator = config.minconf.numerator
    cuts = [count * config.minconf.denominator for count in counts]
    minsup = state.config.minsup

    def decide(
        antecedent_text: str,
        antecedent: ConjunctiveQuery,
        constants: tuple[Constant, ...],
        undecided: int,
    ) -> int:
        """The members in ``undecided`` whose rule from ``antecedent`` is
        confident.  Their rules are emitted here, the only time each member
        meets this antecedent class.  Every support is read from
        ``grouped``, at the member's values of the antecedent's constants.
        A member's own instantiation of an antecedent with constants is
        rendered from ``lookup``, the antecedent with its constants
        re-opened as placeholders, by a renderer kept for this call, and
        kept in the entry's ``rendered`` dict, the per-run cache of those
        texts."""
        # members other than the representative see other constants, so the
        # count is looked up with them re-opened as placeholders
        positions = [position[c.value] for c in constants]
        lookup = antecedent
        if constants:
            reopen = {c: SymbolicConstant(i) for i, c in enumerate(constants, 1)}
            lookup = unchecked_query(
                antecedent.head, substitute_terms(antecedent.body, reopen)
            )
            render = instance_renderer(lookup, tuple(reopen.values()))
        entry = grouped.get(lookup)
        if entry is None:
            entry = grouped[lookup] = (support_grouped(lookup, instance, minsup), {})
        support, rendered = entry
        support_at = support.count
        confident = 0
        bits = undecided
        while bits:
            low = bits & -bits
            bits ^= low
            member = low.bit_length() - 1
            key = tuple(map(values[member].__getitem__, positions))
            antecedent_support = support_at(key)
            if numerator * antecedent_support > cuts[member]:
                continue
            confident |= low
            if member and constants:
                # the member's own instantiation, rendered once per run
                text = rendered.get(key)
                if text is None:
                    text = rendered[key] = dot(render(key))
            else:
                text = dot(antecedent_text)
            add(text, consequents[member], counts[member], antecedent_support)
        return confident

    everyone = (1 << len(texts)) - 1
    base = group.base
    # form memo entry -> members that reached the form
    reached = {base: everyone}
    # antecedent class text -> [members decided, members confident]; the
    # base's own class is confident for all and never reported as a rule
    verdicts = {base.class_text: [everyone, everyone]}
    frontier = {base: everyone}
    while frontier:
        next_frontier: dict[_Form, int] = {}
        for entry, live in frontier.items():
            for step in _steps_of(entry, forms, state):
                earlier = reached.get(step, 0)
                new = live & ~earlier
                if not new:
                    continue
                reached[step] = earlier | new
                verdict = verdicts.get(step.class_text)
                if verdict is None:
                    verdict = verdicts[step.class_text] = [0, 0]
                undecided = new & ~verdict[0]
                if undecided:
                    verdict[0] |= undecided
                    verdict[1] |= decide(
                        step.class_text, step.class_form, step.constants, undecided
                    )
                confident = new & verdict[1]
                if not confident:
                    continue  # every further generalization is even less confident
                next_frontier[step] = next_frontier.get(step, 0) | confident
        frontier = next_frontier


def run_phase2(
    state: MinerState,
    instance: Instance,
    config: RuleConfig,
) -> list[AssociationRule]:
    """Generate every confident association rule over the discovered queries.

    Each frequent query (with placeholders instantiated) is taken in turn as
    a consequent, and its antecedents are explored from most to least
    confident, one walk per group of consequents that differ only by their
    constants.  The walks share one table of grouped counts, one form memo
    and the rules' shared parts.  The result is sorted by descending
    confidence, then antecedent and consequent text (with the trailing
    period, as printed).
    """
    forms: dict[tuple, _Form] = {}
    groups = _consequent_groups(state, forms)
    grouped: dict[ConjunctiveQuery, _Counted] = {}
    rules = _Rules()
    for group in groups:
        _rules_for_group(group, state, instance, config, grouped, forms, rules)
    return rules.ordered()
