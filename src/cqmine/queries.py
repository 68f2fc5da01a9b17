"""Conjunctive queries over a relational schema.

A query has a head ``Q(v1, ..., vk)`` listing distinct answer variables and a
body that is a set of relational atoms.  Atom arguments are variables,
constants, or symbolic constants (``$c1``, ``$c2``, ...) acting as
placeholders that range over constants.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .errors import QueryError

if TYPE_CHECKING:
    from .relational import Schema


@dataclass(frozen=True, slots=True, eq=False)
class Variable:
    name: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True, slots=True, eq=False)
class Constant:
    value: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


@dataclass(frozen=True, slots=True, eq=False)
class SymbolicConstant:
    """A named placeholder for an unknown constant, rendered ``$c<index>``."""

    index: int

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymbolicConstant) and self.index == other.index

    def __hash__(self) -> int:
        return hash(self.index)


Term = Union[Variable, Constant, SymbolicConstant]


@dataclass(frozen=True, slots=True, eq=False)
class Atom:
    relation: str
    args: tuple[Term, ...]
    _text: str = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        text = f"{self.relation}({', '.join(render_term(t) for t in self.args)})"
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "_hash", hash((self.relation, self.args)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.relation == other.relation
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True, slots=True, eq=False)
class ConjunctiveQuery:
    """``Q(head) :- body`` with a non-empty body and a safe, non-empty head.

    Head entries must be distinct variables, each of which occurs in the body.
    """

    head: tuple[Variable, ...]
    body: frozenset[Atom]
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.head:
            raise QueryError("query head must list at least one variable")
        for term in self.head:
            if not isinstance(term, Variable):
                raise QueryError(f"head term {render_term(term)} is not a variable")
        if len(set(self.head)) != len(self.head):
            raise QueryError("head variables must be distinct")
        if not self.body:
            raise QueryError("query body must contain at least one atom")
        body_vars = {t for atom in self.body for t in atom.args if isinstance(t, Variable)}
        for var in self.head:
            if var not in body_vars:
                raise QueryError(f"head variable {var.name} does not occur in the body")
        object.__setattr__(self, "_hash", hash((self.head, self.body)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self._hash == other._hash
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.head)

    def variables(self) -> frozenset[Variable]:
        return frozenset(
            t for atom in self.body for t in atom.args if isinstance(t, Variable)
        )

    def constants(self) -> frozenset[Constant]:
        return frozenset(
            t for atom in self.body for t in atom.args if isinstance(t, Constant)
        )

    def symbolic_constants(self) -> frozenset[SymbolicConstant]:
        return frozenset(
            t for atom in self.body for t in atom.args if isinstance(t, SymbolicConstant)
        )

    def __str__(self) -> str:
        atoms = sorted(str(atom) for atom in self.body)
        head = ", ".join(v.name for v in self.head)
        return f"Q({head}) :- {', '.join(atoms)}"


# ---------------------------------------------------------------------------
# term helpers
# ---------------------------------------------------------------------------


def render_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, SymbolicConstant):
        return f"$c{term.index}"
    return "'" + term.value.replace("'", "''") + "'"


def fresh_variable(used: Iterable[str], stem: str = "v") -> Variable:
    taken = set(used)
    i = 1
    while f"{stem}{i}" in taken:
        i += 1
    return Variable(f"{stem}{i}")


def fresh_symbolic_constant(used: Iterable[SymbolicConstant]) -> SymbolicConstant:
    taken = {s.index for s in used}
    i = 1
    while i in taken:
        i += 1
    return SymbolicConstant(i)


def substitute_terms(body: Iterable[Atom], mapping: Mapping[Term, Term]) -> frozenset[Atom]:
    """Apply a term mapping to every atom; unmapped terms pass through."""
    return frozenset(
        Atom(atom.relation, tuple(mapping.get(t, t) for t in atom.args))
        for atom in body
    )


def instantiate(
    query: ConjunctiveQuery, assignment: Mapping[SymbolicConstant, str]
) -> ConjunctiveQuery:
    """Replace symbolic constants with real constants from ``assignment``."""
    mapping: dict[Term, Term] = {
        sym: Constant(value) for sym, value in assignment.items()
    }
    return ConjunctiveQuery(query.head, substitute_terms(query.body, mapping))


def check_against_schema(query: ConjunctiveQuery, schema: Schema) -> None:
    """Raise ``QueryError`` unless every body atom fits the schema."""
    for atom in query.body:
        decl = schema.relation(atom.relation) if atom.relation in schema else None
        if decl is None:
            raise QueryError(f"atom {atom}: unknown relation {atom.relation!r}")
        if len(atom.args) != decl.arity:
            raise QueryError(
                f"atom {atom}: relation {atom.relation!r} has arity {decl.arity}"
            )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<turnstile>:-)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)"
    r"|(?P<period>\.)"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<symc>\$c[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise QueryError(f"cannot tokenize query near: {rest[:30]!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> str:
        if self.peek() != kind:
            got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
            raise QueryError(f"expected {kind}, got {got!r}")
        value = self.tokens[self.pos][1]
        self.pos += 1
        return value

    def term(self) -> Term:
        kind = self.peek()
        if kind == "string":
            raw = self.take("string")
            return Constant(raw[1:-1].replace("''", "'"))
        if kind == "symc":
            return SymbolicConstant(int(self.take("symc")[2:]))
        if kind == "name":
            name = self.take("name")
            if not name[0].islower():
                raise QueryError(f"variable {name!r} must start with a lowercase letter")
            return Variable(name)
        raise QueryError("expected a variable, constant, or symbolic constant")

    def term_list(self) -> tuple[Term, ...]:
        self.take("lparen")
        terms = [self.term()]
        while self.peek() == "comma":
            self.take("comma")
            terms.append(self.term())
        self.take("rparen")
        return tuple(terms)

    def atom(self) -> Atom:
        name = self.take("name")
        return Atom(name, self.term_list())


def parse_query(text: str, schema: Schema | None = None) -> ConjunctiveQuery:
    """Parse ``Q(x, y) :- likes(x, 'Duvel'), serves(z, y).`` syntax.

    Constants are single-quoted with ``''`` escaping; ``$c<n>`` tokens are
    symbolic constants; lowercase identifiers are variables.  The head
    predicate name is arbitrary and the trailing period is optional.  If a
    schema is given, atoms are checked against it.
    """
    parser = _Parser(text)
    parser.take("name")
    head_terms = parser.term_list()
    for term in head_terms:
        if not isinstance(term, Variable):
            raise QueryError(f"head term {render_term(term)} is not a variable")
    parser.take("turnstile")
    atoms = [parser.atom()]
    while parser.peek() == "comma":
        parser.take("comma")
        atoms.append(parser.atom())
    if parser.peek() == "period":
        parser.take("period")
    if parser.pos != len(parser.tokens):
        raise QueryError(f"trailing input after query: {parser.tokens[parser.pos][1]!r}")
    query = ConjunctiveQuery(tuple(head_terms), frozenset(atoms))
    if schema is not None:
        check_against_schema(query, schema)
    return query


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------
#
# The canonical text of a query is the lexicographically least rendering over
# all orderings of its body atoms (and optionally all orderings of its head),
# with variables renamed x1, x2, ... and symbolic constants renamed $c1, ...
# in order of first occurrence.  Isomorphic queries therefore share one text.


def _atom_text(
    atom: Atom,
    naming: dict[Term, str],
    counters: list[int],
    head_pool: list[str] | None,
) -> str:
    parts: list[str] = []
    for term in atom.args:
        if isinstance(term, Constant):
            parts.append(render_term(term))
            continue
        name = naming.get(term)
        if name is None:
            if not isinstance(term, Variable):
                counters[1] += 1
                name = f"$c{counters[1]}"
            elif head_pool is not None and term in head_pool[0]:  # type: ignore[operator]
                # lazily give a head variable the least name still free; the
                # pool carries (head-var set, available names sorted as text)
                name = head_pool[1].pop(0)  # type: ignore[union-attr]
            else:
                counters[0] += 1
                name = f"x{counters[0]}"
            naming[term] = name
        parts.append(name)
    return f"{atom.relation}({', '.join(parts)})"


def _least_form(
    head: tuple[Variable, ...], atoms: tuple[Atom, ...], *, lazy_head: bool
) -> tuple[str, dict[Term, str]]:
    """Least rendering for a fixed head order, or over all head orders.

    With ``lazy_head`` head variables draw the least still-unused head name
    at their first body occurrence instead of being named by position.  The
    rendered prefix is identical either way, and because every delimiter
    sorts below every digit, the greedy choice is optimal at the first
    character where two assignments diverge — so the result equals the
    minimum over all head permutations without enumerating them.
    """
    arity = len(head)
    prefix = f"Q({', '.join(f'x{i}' for i in range(1, arity + 1))}) :- "
    if lazy_head:
        naming0: dict[Term, str] = {}
        pool0 = [
            frozenset(head),
            sorted((f"x{i}" for i in range(1, arity + 1))),
        ]
    else:
        naming0 = {v: f"x{i}" for i, v in enumerate(head, start=1)}
        pool0 = None
    best: str | None = None
    best_naming: dict[Term, str] = naming0

    def dfs(remaining: tuple[Atom, ...], naming: dict[Term, str],
            counters: list[int], pool, acc: str) -> None:
        nonlocal best, best_naming
        if best is not None and acc > best[: len(acc)]:
            return
        if not remaining:
            if best is None or acc < best:
                best = acc
                best_naming = naming
            return
        sep = "" if acc == prefix else ", "
        branches = []
        for i, atom in enumerate(remaining):
            child_naming = dict(naming)
            child_counters = list(counters)
            child_pool = [pool[0], list(pool[1])] if pool is not None else None
            text = _atom_text(atom, child_naming, child_counters, child_pool)
            branches.append((text, i, child_naming, child_counters, child_pool))
        branches.sort(key=lambda b: b[0])
        for text, i, child_naming, child_counters, child_pool in branches:
            dfs(remaining[:i] + remaining[i + 1:], child_naming, child_counters,
                child_pool, acc + sep + text)

    dfs(atoms, naming0, [arity, 0], pool0, prefix)
    assert best is not None
    return best, best_naming


def _term_for_name(name: str) -> Term:
    if name.startswith("$c"):
        return SymbolicConstant(int(name[2:]))
    return Variable(name)


@functools.lru_cache(maxsize=None)
def canonical_form(
    query: ConjunctiveQuery, *, modulo_head_permutation: bool = False
) -> tuple[str, ConjunctiveQuery]:
    """Canonical text plus the structurally renamed query it describes.

    The text is the lexicographically least rendering over all body-atom
    orderings (and, with ``modulo_head_permutation``, head orderings) with
    variables renamed x1, x2, ... and symbolic constants $c1, $c2, ... by
    first occurrence.  Isomorphic queries share one form.
    """
    atoms = tuple(query.body)
    text, naming = _least_form(
        query.head, atoms, lazy_head=modulo_head_permutation
    )
    renaming: dict[Term, Term] = {
        old: _term_for_name(name) for old, name in naming.items()
    }
    by_name = {name: old for old, name in naming.items()}
    chosen_head = tuple(by_name[f"x{i}"] for i in range(1, len(query.head) + 1))
    renamed = ConjunctiveQuery(
        tuple(renaming[v] for v in chosen_head),
        substitute_terms(query.body, renaming),
    )
    return text, renamed


def render_query(query: ConjunctiveQuery) -> str:
    """Deterministic display form: canonical text with the head order kept.

    A trailing period is emitted; ``parse_query`` round-trips the result.
    """
    return canonical_form(query)[0] + "."
