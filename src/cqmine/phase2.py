"""Discovery of confident association rules between frequent queries.

A rule pairs two conjunctive queries with identical heads: an antecedent and
a consequent whose answers are a subset of the antecedent's.  Its confidence
is the ratio of the two supports, so it reads "of the tuples satisfying the
antecedent, this fraction also satisfies the consequent".

For each frequent consequent the search walks from the consequent itself
(the most confident rule possible) toward ever more general antecedents.
Generalization steps (``cqmine.generalization``) are the inverses of the
specialization rewritings that built the query in the first place: removing an atom, splitting a merged
variable apart, and relaxing a constant back into a variable.  Because
merging variables or substituting constants can collapse two distinct atoms
into one, undoing those steps may have to *duplicate* an atom, and the walk
must pass through intermediate bodies that are equivalent to an earlier form
(they carry a redundant atom whose sole purpose is to be generalized
differently).  The walk therefore tracks raw bodies, deduplicated by their
canonical rendering without minimization, while rules are reported per
minimized equivalence class.

Support never shrinks under generalization, so confidence never grows along
the walk; a branch whose confidence already fell below the threshold can be
abandoned without losing any confident rule.

Consequents share most of the forms their walks pass through.  One step
table per ``run_phase2`` call maps a form's canonical raw text to its
generalization steps, each already canonicalized and minimized, so a form
is expanded once per run however many walks reach it.  One support table
per call maps a minimized query's canonical text, head order kept, to its
support.  It starts with every consequent's count from phase 1, and an
antecedent it lacks is counted once and added.  What stays per consequent
is what depends on it: the visited forms, the reported classes and the
confidence cut-off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .errors import ConfigError
from .evaluation import support
from .generalization import atom_removals, splits
from .phase1 import MinerState
from .queries import ConjunctiveQuery, instantiate
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
# the per-consequent walk
# ---------------------------------------------------------------------------


def _consequent_queries(state: MinerState) -> dict[str, tuple[ConjunctiveQuery, int]]:
    """All frequent queries eligible as rule consequents, with supports.

    Placeholder-bearing discoveries contribute one consequent per frequent
    constant assignment: both sides of a rule must name the same concrete
    constant for the containment between them to hold, so placeholders are
    pinned down before rules are formed.  Instantiation can make an atom
    redundant, hence the minimization; duplicates arising from distinct
    discoveries are dropped (their supports necessarily agree).  The keys are
    canonical texts of minimized queries, so each is also its class's text.
    """
    consequents: dict[str, tuple[ConjunctiveQuery, int]] = {}
    for record in state.frequent_records():
        grouped = record.frequent_constants
        if grouped is None:
            text, representative = state.canonical_form(record.query)
            consequents.setdefault(text, (representative, record.support))
            continue
        for assignment, count in grouped.sorted_items():
            query = instantiate(record.query, dict(zip(grouped.symbols, assignment)))
            text, representative = state.canonical_form(state.minimize(query))
            consequents.setdefault(text, (representative, count))
    return consequents


_Step = tuple[str, ConjunctiveQuery, str, ConjunctiveQuery]


def _steps_of(
    form_text: str,
    form: ConjunctiveQuery,
    table: dict[str, list[_Step]],
    state: MinerState,
) -> list[_Step]:
    """The walk steps from ``form``, generated once per run and then shared.

    Each step is ``(raw_text, raw_form, antecedent_text, antecedent)``: the
    generalized body, canonically renamed but not minimized, and its
    minimized class, in generation order (atom removals, then splits).
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
            steps.append((raw_text, raw_form, *canonical_form(minimize(raw_form))))
        table[form_text] = steps
    return steps


def _rules_for_consequent(
    base_text: str,
    base: ConjunctiveQuery,
    consequent_support: int,
    state: MinerState,
    instance: Instance,
    config: RuleConfig,
    supports: dict[str, int],
    table: dict[str, list[_Step]],
) -> list[AssociationRule]:
    text = base_text + "."
    rules: list[AssociationRule] = []
    if config.include_trivial:
        rules.append(AssociationRule(text, text, consequent_support, Fraction(1)))
    # confidence ``consequent_support / antecedent_support`` falls below
    # ``minconf`` exactly when ``cut < numerator * antecedent_support``
    numerator = config.minconf.numerator
    cut = consequent_support * config.minconf.denominator
    visited = {base_text}
    emitted = {base_text}
    frontier = [(base_text, base)]
    while frontier:
        next_frontier: list[tuple[str, ConjunctiveQuery]] = []
        for form_text, form in frontier:
            for raw_text, raw_form, antecedent_text, antecedent in _steps_of(
                form_text, form, table, state
            ):
                if raw_text in visited:
                    continue
                visited.add(raw_text)
                antecedent_support = supports.get(antecedent_text)
                if antecedent_support is None:
                    antecedent_support = support(antecedent, instance)
                    supports[antecedent_text] = antecedent_support
                if cut < numerator * antecedent_support:
                    continue  # every further generalization is even less confident
                if antecedent_text not in emitted:
                    emitted.add(antecedent_text)
                    confidence = Fraction(consequent_support, antecedent_support)
                    rules.append(
                        AssociationRule(
                            antecedent_text + ".", text, consequent_support, confidence
                        )
                    )
                next_frontier.append((raw_text, raw_form))
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
    confident, sharing one support table, seeded with the consequents'
    supports, and one step table.  The result is sorted by descending
    confidence, then antecedent and consequent text (with the trailing
    period, as printed).
    """
    consequents = _consequent_queries(state)
    supports = {text: count for text, (_, count) in consequents.items()}
    table: dict[str, list[_Step]] = {}
    rules = [
        rule
        for text, (consequent, count) in consequents.items()
        for rule in _rules_for_consequent(
            text, consequent, count, state, instance, config, supports, table
        )
    ]
    # two stable sorts, so no tuple key compares ``Fraction``s for equality
    rules.sort(key=attrgetter("antecedent", "consequent"))
    rules.sort(key=attrgetter("confidence"), reverse=True)
    return rules
