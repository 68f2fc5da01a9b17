"""Containment, equivalence, and minimization of conjunctive queries.

Containment is decided by searching for a homomorphism between query bodies.
A homomorphism maps each constant to itself and each symbolic constant to a
constant or symbolic constant; variables may map to any term.  ``q1`` is
contained in ``q2`` when some homomorphism sends ``q2``'s body into ``q1``'s
body and ``q2``'s head onto ``q1``'s head position by position.

Diagonal containment drops the positional head constraint: it only asks that
``q1``'s head variables all be covered by the image of ``q2``'s head.  It is
the order under which support is monotone, and it absorbs head reordering and
projection.

Minimization removes redundant body atoms.  There the homomorphism must fix
symbolic constants pointwise, so placeholders that could later be filled with
different constants are never merged away.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Iterator, Mapping

from .queries import Atom, ConjunctiveQuery, Term

# ---------------------------------------------------------------------------
# homomorphism search
# ---------------------------------------------------------------------------


def _unify(
    atom: Atom,
    target: Atom,
    mapping: dict[Term, Term],
    frozen_symbolics: bool,
) -> dict[Term, Term] | None:
    """Extend ``mapping`` so that ``atom`` maps onto ``target``, or fail."""
    out = mapping
    copied = False
    for t_from, t_to in zip(atom[1], target[1]):
        tag = t_from[0]
        if tag == "c":
            if t_from != t_to:
                return None
            continue
        if tag == "s":
            if frozen_symbolics:
                if t_to != t_from:
                    return None
                continue
            if t_to[0] == "v":
                return None
        bound = out.get(t_from)
        if bound is None:
            if not copied:
                out = dict(out)
                copied = True
            out[t_from] = t_to
        elif bound != t_to:
            return None
    return out


def _iter_homs(
    from_body: frozenset[Atom],
    to_body: frozenset[Atom],
    seed: Mapping[Term, Term],
    frozen_symbolics: bool,
) -> Iterator[dict[Term, Term]]:
    """Yield homomorphisms from ``from_body`` into ``to_body`` extending ``seed``."""
    targets: dict[tuple[str, int], list[Atom]] = {}
    for atom in sorted(to_body):
        targets.setdefault((atom.relation, len(atom.args)), []).append(atom)

    def bound_args(atom: Atom) -> int:
        return sum(1 for t in atom[1] if t in seed or t[0] == "c")

    atoms = sorted(from_body, key=lambda a: (-bound_args(a), a))

    def extend(i: int, mapping: dict[Term, Term]) -> Iterator[dict[Term, Term]]:
        if i == len(atoms):
            yield mapping
            return
        atom = atoms[i]
        for target in targets.get((atom.relation, len(atom.args)), ()):
            extended = _unify(atom, target, mapping, frozen_symbolics)
            if extended is not None:
                yield from extend(i + 1, extended)

    yield from extend(0, dict(seed))


def find_containment_mapping(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> dict[Term, Term] | None:
    """A homomorphism witnessing ``q1 contained-in q2``, or ``None``.

    The mapping sends ``q2``'s variables and symbolic constants to terms of
    ``q1``; constants are implicitly fixed.
    """
    if q1.arity != q2.arity:
        return None
    seed: dict[Term, Term] = dict(zip(q2.head, q1.head))
    for hom in _iter_homs(q2.body, q1.body, seed, frozen_symbolics=False):
        return hom
    return None


def is_contained(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Is every answer of ``q1`` an answer of ``q2``, on every instance?"""
    return find_containment_mapping(q1, q2) is not None


def is_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return is_contained(q1, q2) and is_contained(q2, q1)


def is_diagonally_contained(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Does ``q2`` subsume ``q1`` up to head projection and reordering?

    Holds when some homomorphism sends ``q2``'s body into ``q1``'s body such
    that every head variable of ``q1`` is the image of a head variable of
    ``q2``.  Whenever this holds and ``q1`` is frequent, ``q2`` is frequent.
    The head variables of ``q1`` are distinct, so their preimages are too,
    and any body homomorphism whose image of ``q2``'s head covers them is a
    witness.
    """
    if len(q2.head) < len(q1.head):
        return False
    wanted = set(q1.head)
    for hom in _iter_homs(q2.body, q1.body, {}, frozen_symbolics=False):
        if wanted.issubset(hom[v] for v in q2.head):
            return True
    return False


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Remove redundant body atoms until none can be dropped.

    An atom is redundant when the full body maps homomorphically into the
    body without it, fixing head variables and symbolic constants pointwise.
    The result is equivalent to the input and unique up to renaming, so equal
    canonical texts decide equivalence.  Only atoms sharing a relation with
    another atom can be redundant (the homomorphic image of a dropped atom
    is a different atom of the same relation), so bodies without repeated
    relations are returned untouched.
    """
    body = query.body
    head_seed: dict[Term, Term] = {v: v for v in query.head}
    changed = True
    while changed and len(body) > 1:
        changed = False
        relation_counts = Counter(atom.relation for atom in body)
        candidates = [
            atom for atom in body if relation_counts[atom.relation] > 1
        ]
        for atom in sorted(candidates):
            reduced = body - {atom}
            for _ in _iter_homs(body, reduced, head_seed, frozen_symbolics=True):
                body = reduced
                changed = True
                break
            if changed:
                break
    if body is query.body:
        return query
    return ConjunctiveQuery(query.head, body)

