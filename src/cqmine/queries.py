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
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Union

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
    the body.  The constructor checks this; the query algebra builds its
    queries by ``unchecked_query``.
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


def unchecked_query(
    head: tuple[Variable, ...], body: frozenset[Atom]
) -> ConjunctiveQuery:
    """A query built without the checks of ``ConjunctiveQuery.__new__``.

    For the query algebra alone, whose operators make valid queries from
    valid ones: renamings, substitutions that keep every head variable,
    removals that strand none.  ``tests/test_properties.py`` checks that
    every query they build passes the checked constructor.  Queries from
    outside the program, such as ``parse_query``'s, are checked.
    """
    return tuple.__new__(ConjunctiveQuery, (head, body))


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
    return unchecked_query(query.head, substitute_terms(query.body, mapping))


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

    def term_list(self, allow_empty: bool = False) -> tuple[Term, ...]:
        self.take("lparen")
        if allow_empty and self.peek() == "rparen":
            self.take("rparen")
            return ()
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
    # an empty head parses, so that the constructor rejects it by name
    head_terms = parser.term_list(allow_empty=True)
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
    query: ConjunctiveQuery,
    *,
    modulo_head_permutation: bool = False,
    atoms: dict[Atom, Atom] | None = None,
) -> tuple[str, ConjunctiveQuery]:
    """Canonical text plus the structurally renamed query it describes.

    The text is the lexicographically least rendering over all body-atom
    orderings (and, with ``modulo_head_permutation``, head orderings) with
    variables renamed x1, x2, ... and symbolic constants $c1, $c2, ... by
    first occurrence.  Isomorphic queries share one form.

    Each atom of the renamed body is interned in ``atoms``, a table that
    maps an atom to its one kept copy, so forms rendered through one table
    share their equal atoms.  Without a table the atoms are the form's own.
    """
    text, naming = _least_form(
        query.head, tuple(sorted(query.body)), lazy_head=modulo_head_permutation
    )
    get = {old: _term_for_name(name) for old, name in naming.items()}.get
    intern = ({} if atoms is None else atoms).setdefault
    head = tuple(_term_for_name(f"x{i}") for i in range(1, len(query.head) + 1))
    body = []
    for relation, args in query.body:
        atom = Atom(relation, tuple(map(get, args, args)))
        body.append(intern(atom, atom))
    return text, unchecked_query(head, frozenset(body))


def shape(
    query: ConjunctiveQuery, head_ordered: bool, numbers: dict[Term, int] | None = None
) -> tuple:
    """A rendering of ``query`` that renaming its variables and placeholders
    leaves unchanged, and so does reordering its head unless ``head_ordered``.

    Atoms are sorted by relation, then by a name-free signature: each
    argument is its literal constant, or its kind with the position of its
    first occurrence in the atom and, for a head variable, a head mark (its
    head position when ``head_ordered``).  Raw terms break the remaining
    ties.  Variables and placeholders are then numbered in order of first
    occurrence, placeholders negative.  The shape is one flat tuple: the
    head's numbers, then each atom's relation followed by its arguments.
    Equal shapes mean the two queries are renamings of each other, with
    equal canonical forms (over all head orders unless ``head_ordered``);
    renamings whose ties broke differently only get different shapes.  Both
    phases key their memos by it: phase 1's classes, phase 2's walk forms;
    so does the evaluator's table of component counts.  An empty dict
    passed as ``numbers`` receives each variable's and placeholder's
    number: a renaming between queries of equal shapes maps each term to
    the term of the same number.  ``query`` may be any ``(head, body)``
    pair.
    """
    head, body = query
    if head_ordered:
        marks = {variable: i for i, variable in enumerate(head)}
    else:
        marks = dict.fromkeys(head, 0)
    mark = marks.get
    decorated = []
    for atom in body:
        args = atom[1]
        signature = [
            term if term[0] == "c" else (term[0], args.index(term), mark(term, -1))
            for term in args
        ]
        decorated.append((atom[0], signature, args))
    decorated.sort()
    if numbers is None:
        numbers = {}
    flat: list = []
    for relation, _, args in decorated:
        flat.append(relation)
        for term in args:
            if term[0] != "c":
                number = numbers.get(term)
                if number is None:
                    count = len(numbers)
                    number = numbers[term] = count if term[0] == "v" else ~count
                term = number
            flat.append(term)
    head_numbers = [numbers[variable] for variable in head]
    if not head_ordered:
        head_numbers.sort()
    return (*head_numbers, *flat)


def canonical_text(
    query: ConjunctiveQuery, substitution: Mapping[Term, Term] | None = None
) -> str:
    """The text of ``canonical_form``, head order kept, of ``query`` with
    ``substitution`` applied to its body; unmapped terms pass through.

    Only the text is made: no query, renaming or renamed body.  The
    substituted atoms are deduplicated, as ``substitute_terms`` does, since
    an assignment can collapse two atoms into one.
    """
    head, body = query
    if substitution:
        get = substitution.get
        body = {(relation, tuple(map(get, args, args))) for relation, args in body}
    return _least_form(head, tuple(sorted(body)), lazy_head=False)[0]


def instance_renderer(
    query: ConjunctiveQuery, symbols: tuple[SymbolicConstant, ...]
) -> Callable[[tuple[str, ...]], str]:
    """A function from an assignment of values to ``symbols``, which name
    all the placeholders of ``query``, to the ``canonical_text`` of
    ``query`` with each placeholder bound to its value.

    The least rendering's search meets a value only where it compares two
    renderings, and in ``query``, which must hold no literal constant, the
    text around a value holds no quote.  So a value against that text is
    decided by its leading quote, and two values by their quoted texts with
    ``(`` appended: a quoted value that is a proper prefix of another is
    followed by ``,`` or ``)``, where the other doubles its closing quote,
    and both sort above the quote, as ``(`` does.  The search's path, and
    so the text, then depends only on the values' order type: the rank of
    each quoted value so extended, equal values tied.  The query is
    rendered once per order type, each placeholder bound to a fixed-width
    marker ``'\\0<rank>'`` of its rank, and each text puts its own quoted
    values in the markers' places.
    """
    if query.constants():
        raise QueryError(f"cannot render the instances of {query}: it has constants")
    width = len(str(len(symbols)))
    # order type -> the marker rendering split at its markers (text at even
    # places), and each marker's place with a placeholder of its rank
    templates: dict[tuple[int, ...], tuple[list[str], list[tuple[int, int]]]] = {}

    def render(values: tuple[str, ...]) -> str:
        quoted = [render_term(Constant(value)) for value in values]
        keys = [text + "(" for text in quoted]
        order = tuple(map(sorted(keys).index, keys))
        template = templates.get(order)
        if template is None:
            markers = {s: Constant(f"\0{r:0{width}}") for s, r in zip(symbols, order)}
            parts = re.split("'\0([0-9]+)'", canonical_text(query, markers))
            slots = [(p, order.index(int(parts[p]))) for p in range(1, len(parts), 2)]
            template = templates[order] = (parts, slots)
        parts, slots = template
        for place, i in slots:
            parts[place] = quoted[i]
        return "".join(parts)

    return render
