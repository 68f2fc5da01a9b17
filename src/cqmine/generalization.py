"""Head-preserving inverse operators shared by both mining phases.

Specialization builds a query by adding atoms, merging variables and binding
variables to constants.  The steps here undo one of those at a time and keep
the head exactly as it is:

* ``atom_removals`` drops one body atom (the inverse of extension);
* ``inverse_substitutions`` splits one variable or constant into itself and
  a fresh variable (the inverse of a join or a selection).

Every result maps back onto its input by a homomorphism that fixes the head
(an inclusion for a removal, ``fresh -> term`` for a split), so it contains
the input.  Results are raw: neither minimized nor renamed.  Phase 1 takes
them with a body budget that leaves no room for duplicated atoms and adds
its own operators on top; phase 2 walks them with the full body budget.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .queries import (
    Atom,
    ConjunctiveQuery,
    Term,
    Variable,
    fresh_variable,
    unchecked_query,
)

__all__ = ["atom_removals", "inverse_substitutions", "splits"]


def atom_removals(query: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
    """Yield ``query`` without one body atom, unless that strands a head variable."""
    head_vars = set(query.head)
    body = sorted(query.body)
    if len(body) < 2:
        return
    for atom in body:
        rest = frozenset(other for other in body if other != atom)
        rest_vars = {
            term
            for other in rest
            for term in other.args
            if term[0] == "v"
        }
        if head_vars <= rest_vars:
            yield unchecked_query(query.head, rest)


def inverse_substitutions(
    query: ConjunctiveQuery, target: Term, max_atoms: int
) -> Iterator[ConjunctiveQuery]:
    """Yield every query that one substitution ``fresh -> target`` maps onto ``query``.

    This is the shared inverse of variable merging and constant selection.
    Each atom containing ``target`` is replaced by a non-empty set of
    variants, where a variant renames some of that atom's ``target``
    positions to a fresh variable; substituting the fresh variable back
    restores exactly the original body.  Atoms may gain several variants —
    that re-expands atoms the forward substitution had collapsed together —
    bounded by ``max_atoms``.  A variable target must survive somewhere
    (else the rewrite is a mere renaming, or drops a head variable); a
    constant target may disappear entirely.

    For a non-head variable, the fresh variable and the target are
    interchangeable, so a split and its mirror image (every variant's renamed
    positions complemented) are the same query up to renaming.  Of the two,
    only the split whose renamed positions, as sorted bit masks per atom,
    compare higher is yielded.
    """
    holders = sorted(atom for atom in query.body if target in atom.args)
    if not holders:
        return
    others = frozenset(atom for atom in query.body if target not in atom.args)
    budget = max_atoms - len(others)
    if budget < len(holders):
        return
    target_is_variable = isinstance(target, Variable)
    if target_is_variable and budget == 1 and holders[0].args.count(target) == 1:
        return  # a lone occurrence, not duplicated, cannot both move and survive
    fresh = fresh_variable({v.name for v in query.variables()}, stem="g")
    variant_lists: list[list[tuple[int, Atom]]] = []
    full_masks: list[int] = []
    for atom in holders:
        positions = [i for i, arg in enumerate(atom.args) if arg == target]
        variants = []
        for count in range(len(positions) + 1):
            for flipped in itertools.combinations(positions, count):
                args = tuple(
                    fresh if index in flipped else arg
                    for index, arg in enumerate(atom.args)
                )
                mask = sum(1 << index for index in flipped)
                variants.append((mask, Atom(atom.relation, args)))
        variant_lists.append(variants)
        full_masks.append(sum(1 << index for index in positions))

    # depth-first on an explicit stack of frames (holder index, atoms chosen
    # so far, atom budget left, tied, subsets still to try for this holder);
    # ``tied``: the masks chosen so far equal their mirror image, so this
    # holder decides which of the two splits is yielded
    last = len(variant_lists) - 1
    skip_mirrors = target_is_variable and target not in query.head
    frames = [(0, [], budget, skip_mirrors, _subsets(variant_lists[0], budget - last))]
    while frames:
        index, chosen, remaining, tied, subsets = frames[-1]
        subset = next(subsets, None)
        if subset is None:
            frames.pop()
            continue
        still_tied = False
        if tied:
            masks = sorted(mask for mask, _ in subset)
            mirror = sorted(full_masks[index] ^ mask for mask, _ in subset)
            if mirror > masks:
                continue  # the mirror image is yielded instead
            still_tied = mirror == masks
        picked = chosen + [atom for _, atom in subset]
        left = remaining - len(subset)
        if index < last:
            nxt = index + 1
            widest = left - (last - nxt)  # leave one atom for each later holder
            frames.append(
                (nxt, picked, left, still_tied, _subsets(variant_lists[nxt], widest))
            )
            continue
        if not any(fresh in atom.args for atom in picked):
            continue  # nothing moved: identical to the original body
        atoms = others | frozenset(picked)
        if target_is_variable and not any(target in atom.args for atom in atoms):
            continue  # pure renaming, or a head variable would vanish
        yield unchecked_query(query.head, atoms)


def _subsets(variants: list, widest: int) -> Iterator[tuple]:
    """Non-empty subsets of ``variants`` with at most ``widest`` members, by size."""
    return itertools.chain.from_iterable(
        itertools.combinations(variants, count) for count in range(1, widest + 1)
    )


def splits(query: ConjunctiveQuery, max_atoms: int) -> Iterator[ConjunctiveQuery]:
    """Yield the inverse substitutions of every variable, then every constant."""
    for term in (*sorted(query.variables()), *sorted(query.constants())):
        yield from inverse_substitutions(query, term, max_atoms)
