"""Conjunctive queries over a relational schema.

A query has a head ``Q(v1, ..., vk)`` listing distinct answer variables and a
body that is a set of relational atoms.  Atom arguments are variables,
constants, or symbolic constants (``$c1``, ``$c2``, ...) acting as
placeholders that range over constants.
"""

from __future__ import annotations

import functools
import re
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .errors import QueryError

if TYPE_CHECKING:
    from .relational import Schema


class _Tagged(tuple):
    # a term is the tuple (tag, payload), so hashing and comparison run in C;
    # the tag keeps kinds apart, and terms of different kinds order by tag
    __slots__ = ()
    _field = ""

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={self[1]!r})"


class Variable(_Tagged):
    __slots__ = ()
    _field = "name"
    name = property(itemgetter(1))

    def __new__(cls, name: str) -> Variable:
        return tuple.__new__(cls, ("v", name))


class Constant(_Tagged):
    __slots__ = ()
    _field = "value"
    value = property(itemgetter(1))

    def __new__(cls, value: str) -> Constant:
        return tuple.__new__(cls, ("c", value))


class SymbolicConstant(_Tagged):
    """A named placeholder for an unknown constant, rendered ``$c<index>``."""

    __slots__ = ()
    _field = "index"
    index = property(itemgetter(1))

    def __new__(cls, index: int) -> SymbolicConstant:
        return tuple.__new__(cls, ("s", index))


Term = Union[Variable, Constant, SymbolicConstant]


class Atom(tuple):
    """``(relation, args)``; atoms order by relation, then argument terms."""

    __slots__ = ()
    relation = property(itemgetter(0))
    args = property(itemgetter(1))

    def __new__(cls, relation: str, args: tuple[Term, ...]) -> Atom:
        return tuple.__new__(cls, (relation, args))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Atom(relation={self[0]!r}, args={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}({', '.join(map(render_term, self[1]))})"


class ConjunctiveQuery(tuple):
    """``Q(head) :- body`` with a non-empty body and a safe, non-empty head.

    The query is the tuple ``(head, body)``, so hashing and equality run in
    C.  Head entries must be distinct variables, each of which occurs in
    the body.
    """

    __slots__ = ()
    head = property(itemgetter(0))
    body = property(itemgetter(1))

    def __new__(
        cls, head: tuple[Variable, ...], body: frozenset[Atom]
    ) -> ConjunctiveQuery:
        if not head:
            raise QueryError("query head must list at least one variable")
        for term in head:
            if not isinstance(term, Variable):
                raise QueryError(f"head term {render_term(term)} is not a variable")
        if len(set(head)) != len(head):
            raise QueryError("head variables must be distinct")
        if not body:
            raise QueryError("query body must contain at least one atom")
        body_vars = {t for atom in body for t in atom.args if isinstance(t, Variable)}
        for var in head:
            if var not in body_vars:
                raise QueryError(f"head variable {var.name} does not occur in the body")
        return tuple.__new__(cls, (head, body))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"ConjunctiveQuery(head={self[0]!r}, body={self[1]!r})"

    @property
    def arity(self) -> int:
        return len(self.head)

    def _terms(self, tag: str) -> frozenset:
        return frozenset(t for atom in self.body for t in atom[1] if t[0] == tag)

    def variables(self) -> frozenset[Variable]:
        return self._terms("v")

    def constants(self) -> frozenset[Constant]:
        return self._terms("c")

    def symbolic_constants(self) -> frozenset[SymbolicConstant]:
        return self._terms("s")

    def __str__(self) -> str:
        atoms = sorted(str(atom) for atom in self.body)
        head = ", ".join(v.name for v in self.head)
        return f"Q({head}) :- {', '.join(atoms)}"


# ---------------------------------------------------------------------------
# term helpers
# ---------------------------------------------------------------------------


def render_term(term: Term) -> str:
    tag, payload = term
    if tag == "v":
        return payload
    if tag == "s":
        return f"$c{payload}"
    return "'" + payload.replace("'", "''") + "'"


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
    get = mapping.get
    return frozenset(Atom(rel, tuple(map(get, args, args))) for rel, args in body)


def instantiate(
    query: ConjunctiveQuery, assignment: Mapping[SymbolicConstant, str]
) -> ConjunctiveQuery:
    """Replace symbolic constants with real constants from ``assignment``.

    An empty assignment returns ``query`` itself.
    """
    if not assignment:
        return query
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
    fresh: tuple[int, int, int],
    head_names: tuple[frozenset[Variable], list[str]] | None,
) -> tuple[str, dict[Term, str], tuple[int, int, int]]:
    """``atom`` under ``naming``, the names of its unseen terms, and the new
    ``fresh`` counts of variable, placeholder and head names.

    With ``head_names`` (the head variables, their names sorted as text) a
    head variable takes the least head name still free.
    """
    variables, placeholders, heads = fresh
    added: dict[Term, str] = {}
    parts: list[str] = []
    for term in atom[1]:
        tag = term[0]
        if tag == "c":
            parts.append(render_term(term))
            continue
        name = naming.get(term) or added.get(term)
        if name is None:
            if tag == "s":
                placeholders += 1
                name = f"$c{placeholders}"
            elif head_names is not None and term in head_names[0]:
                name = head_names[1][heads]
                heads += 1
            else:
                variables += 1
                name = f"x{variables}"
            added[term] = name
        parts.append(name)
    return f"{atom[0]}({', '.join(parts)})", added, (variables, placeholders, heads)


def _least_form(
    head: tuple[Variable, ...], atoms: tuple[Atom, ...], *, lazy_head: bool
) -> tuple[str, dict[Term, str]]:
    """Least rendering for a fixed head order, or over all head orders.

    The search is depth-first and, at each position, continues only from
    the atoms whose rendering ties for the least text.  That is exact: a
    complete atom rendering is never a proper prefix of another, so a
    rendering that is not least at some position loses there, whatever
    follows.  ``atoms`` come sorted, so the atoms of the least remaining
    relation lead the rest, and only they are rendered: ``(`` sorts below
    every identifier character, so ``like(`` < ``likes(``, and the least
    rendering always has the least relation.

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
        naming: dict[Term, str] = {}
        head_names = (frozenset(head), sorted(f"x{i}" for i in range(1, arity + 1)))
    else:
        naming = {v: f"x{i}" for i, v in enumerate(head, start=1)}
        head_names = None
    best: str | None = None
    best_naming = naming
    stack = [(atoms, naming, (arity, 0, 0), prefix)]
    while stack:
        remaining, naming, fresh, text = stack.pop()
        if best is not None and text > best[: len(text)]:
            continue
        if not remaining:
            if best is None or text < best:
                best, best_naming = text, naming
            continue
        least = None
        relation = remaining[0][0]
        for i, atom in enumerate(remaining):
            if atom[0] != relation:
                break
            rendered, added, counts = _atom_text(atom, naming, fresh, head_names)
            if least is None or rendered < least:
                least, ties = rendered, [(i, added, counts)]
            elif rendered == least:
                ties.append((i, added, counts))
        text += least if len(remaining) == len(atoms) else ", " + least
        for i, added, counts in reversed(ties):
            stack.append(
                (remaining[:i] + remaining[i + 1 :], {**naming, **added}, counts, text)
            )
    assert best is not None
    return best, best_naming


@functools.lru_cache(maxsize=None)
def _term_for_name(name: str) -> Term:
    if name.startswith("$c"):
        return SymbolicConstant(int(name[2:]))
    return Variable(name)


def canonical_form(
    query: ConjunctiveQuery, *, modulo_head_permutation: bool = False
) -> tuple[str, ConjunctiveQuery]:
    """Canonical text plus the structurally renamed query it describes.

    The text is the lexicographically least rendering over all body-atom
    orderings (and, with ``modulo_head_permutation``, head orderings) with
    variables renamed x1, x2, ... and symbolic constants $c1, $c2, ... by
    first occurrence.  Isomorphic queries share one form.
    """
    atoms = tuple(sorted(query.body))
    text, naming = _least_form(
        query.head, atoms, lazy_head=modulo_head_permutation
    )
    renaming = {old: _term_for_name(name) for old, name in naming.items()}
    head = tuple(_term_for_name(f"x{i}") for i in range(1, len(query.head) + 1))
    return text, ConjunctiveQuery(head, substitute_terms(query.body, renaming))


def render_query(query: ConjunctiveQuery) -> str:
    """Deterministic display form: canonical text with the head order kept.

    A trailing period is emitted; ``parse_query`` round-trips the result.
    """
    return canonical_form(query)[0] + "."
