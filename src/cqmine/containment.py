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

from typing import Iterator, Mapping

from .queries import Atom, ConjunctiveQuery, Term, unchecked_query

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


def _target_index(ordered: list[Atom]) -> dict[tuple[str, int], list[Atom]]:
    """Atoms in sorted order, grouped by relation and arity."""
    targets: dict[tuple[str, int], list[Atom]] = {}
    for atom in ordered:
        targets.setdefault((atom.relation, len(atom.args)), []).append(atom)
    return targets


def _search_order(body: frozenset[Atom], seed: Mapping[Term, Term]) -> list[Atom]:
    """Atoms with the most arguments fixed by ``seed`` or constants first."""
    return sorted(
        body, key=lambda a: (-sum(1 for t in a[1] if t in seed or t[0] == "c"), a)
    )


def _iter_homs(
    from_body: frozenset[Atom],
    to_body: frozenset[Atom],
    seed: Mapping[Term, Term],
    frozen_symbolics: bool,
) -> Iterator[dict[Term, Term]]:
    """Yield homomorphisms from ``from_body`` into ``to_body`` extending ``seed``."""
    return _homs(
        _search_order(from_body, seed),
        _target_index(sorted(to_body)),
        seed,
        frozen_symbolics,
    )


def _homs(
    atoms: list[Atom],
    targets: dict[tuple[str, int], list[Atom]],
    seed: Mapping[Term, Term],
    frozen_symbolics: bool,
) -> Iterator[dict[Term, Term]]:
    """Yield homomorphisms sending ``atoms``, in order, into ``targets``."""
    if not atoms:
        yield dict(seed)
        return
    options = [targets.get((atom.relation, len(atom.args)), ()) for atom in atoms]
    last = len(atoms) - 1
    # depth-first on explicit stacks: mappings[i] is the mapping before atom
    # i, and cursors[i] the next target tried for it
    mappings = [dict(seed)]
    cursors = [0]
    while cursors:
        i = len(cursors) - 1
        k = cursors[i]
        if k == len(options[i]):
            cursors.pop()
            mappings.pop()
            continue
        cursors[i] = k + 1
        extended = _unify(atoms[i], options[i][k], mappings[i], frozen_symbolics)
        if extended is None:
            continue
        if i == last:
            yield extended
        else:
            mappings.append(extended)
            cursors.append(0)


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


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Remove redundant body atoms until none can be dropped.

    An atom is redundant when the full body maps homomorphically into the
    body without it, fixing head variables and symbolic constants pointwise.
    The result is equivalent to the input and unique up to renaming, so equal
    canonical texts decide equivalence.  Only atoms sharing a relation with
    another atom can be redundant (the homomorphic image of a dropped atom
    is a different atom of the same relation), so bodies without repeated
    relations are returned untouched.

    An atom whose arguments are all head variables, constants or
    placeholders is never tried: the homomorphism fixes each of its terms,
    so it can only map the atom onto itself, never into the body without it.
    """
    body = query.body
    head_seed: dict[Term, Term] = {v: v for v in query.head}
    while len(body) > 1:
        ordered = sorted(body)
        targets = _target_index(ordered)
        candidates = [
            atom
            for atom in ordered
            if len(targets[(atom.relation, len(atom.args))]) > 1
            and any(term[0] == "v" and term not in head_seed for term in atom[1])
        ]
        if not candidates:
            break
        atoms = _search_order(body, head_seed)
        for atom in candidates:
            key = (atom.relation, len(atom.args))
            reduced = {**targets, key: [t for t in targets[key] if t != atom]}
            if next(_homs(atoms, reduced, head_seed, True), None) is not None:
                body = body - {atom}
                break
        else:
            break
    if body is query.body:
        return query
    return unchecked_query(query.head, body)
