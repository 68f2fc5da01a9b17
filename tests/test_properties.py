"""Property tests of the query algebra on generated queries.

Phase 2 shares generalization steps between consequents by canonical text,
which is sound only if that text ignores how variables and placeholders are
named; the text must be the least rendering over all atom orders, as the
enumerating oracle finds it; minimization must reach a fixed point that is
equivalent to its input.  Phase 1 memoizes class keys by a shape that
ignores the same names, which is sound only if renamed copies of a query get
the class its own minimization and canonical form would give; phase 2
memoizes its walk forms by that shape, head order kept, which is sound only
if renamed copies get their own raw and minimized forms.  The reports print
a class key as its representative's text, which is sound only if the key is
the representative's canonical text with its head order kept.  Every
support is one grouped count, which for a query without placeholders must
be its answer count at the one empty assignment; kept as per-component
factors, shared between renamed components, it must give the supports
that meet the minimum, enumerated or looked up, however the placeholders
are numbered.  The in-process join must give the answers and counts that
sqlite3 gives running the rendered SQL, and that enumeration gives, on
awkward values and bodies that repeat a variable inside one atom.  The
text-only renderers
must give the text of the instantiated query's canonical form.

Phase 1 skips work it can prove redundant, and the lemmas behind each cut
are checked here: a split of a minimized query without placeholders is
never diagonally contained in it, both survivors of a join of two head
variables are one class, and minimization leaves no redundant atom though
it never tries an atom whose terms are all fixed.  The algebra builds its
queries unchecked, so every query it builds must pass the checked
constructor.
"""

import contextlib
import itertools
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _oracle
from _oracle import support
from cqmine import containment, generalization, phase1, phase2
from cqmine import queries as queries_module
from cqmine.containment import is_diagonally_contained, is_equivalent, minimize
from cqmine.errors import QueryError
from cqmine.evaluation import GroupedSupport, evaluate, support_grouped
from cqmine.generalization import atom_removals, splits
from cqmine.phase1 import (
    MinerConfig,
    MinerState,
    QueryRecord,
    class_of,
    immediate_generalizations,
    parse_key_atom,
    run_phase1,
    specializations,
)
from cqmine.phase2 import RuleConfig, run_phase2
from cqmine.queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SymbolicConstant,
    Variable,
    canonical_form,
    canonical_text,
    fresh_symbolic_constant,
    fresh_variable,
    instance_renderer,
    instantiate,
    parse_query,
    shape,
    substitute_terms,
)
from cqmine.relational import Instance, RelationDecl, Schema
from cqmine.sqlgen import emit_sql

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

VARIABLES = [Variable(f"y{i}") for i in range(4)]
TERMS = st.one_of(
    st.sampled_from(VARIABLES),
    st.sampled_from(VARIABLES),
    st.sampled_from(
        [Constant(value) for value in _oracle.CONSTANT_POOL]
        + [SymbolicConstant(1), SymbolicConstant(2)]
    ),
)


@st.composite
def atoms(draw):
    relation, arity = draw(st.sampled_from(_oracle.RELATIONS))
    return Atom(relation, tuple(draw(TERMS) for _ in range(arity)))


@st.composite
def queries(draw):
    body = draw(st.lists(atoms(), min_size=1, max_size=4))
    body_vars = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    assume(body_vars)
    head = draw(st.lists(st.sampled_from(body_vars), min_size=1, unique=True))
    return ConjunctiveQuery(tuple(head), frozenset(body))


def renaming(data, query):
    """A random injective renaming of the query's variables and placeholders."""
    variables = sorted(query.variables(), key=lambda v: v.name)
    symbolics = sorted(query.symbolic_constants(), key=lambda s: s.index)
    names = data.draw(st.permutations([f"w{i}" for i in range(len(variables))]))
    indices = data.draw(
        st.lists(
            st.integers(1, 9),
            min_size=len(symbolics),
            max_size=len(symbolics),
            unique=True,
        )
    )
    mapping = {v: Variable(name) for v, name in zip(variables, names)}
    mapping.update(
        {s: SymbolicConstant(index) for s, index in zip(symbolics, indices)}
    )
    return mapping


@PROPERTY
@given(st.data())
def test_canonical_text_ignores_variable_and_placeholder_names(data):
    query = data.draw(queries())
    renamed = _oracle.substitute(query, renaming(data, query))
    text, form = canonical_form(query)
    assert canonical_form(renamed) == (text, form)
    assert canonical_form(form)[0] == text
    # the form is built without re-validation; it must equal the checked query
    assert type(form) is ConjunctiveQuery
    assert form == ConjunctiveQuery(form.head, form.body)


# class keys take no schema; only whether a key atom is set matters to them
KEY_ATOM_MODES = {
    "unordered": MinerConfig(minsup=1),
    "key atom": MinerConfig(
        minsup=1, key_atom=Atom("likes", (Variable("k1"), Variable("k2")))
    ),
}


def kind_swaps(query):
    """Copies with one non-head variable made a placeholder, or one
    placeholder made a variable: the same pattern of terms, other kinds."""
    symbol = fresh_symbolic_constant(query.symbolic_constants())
    variable = fresh_variable(v.name for v in query.variables())
    swaps = [(v, symbol) for v in sorted(query.variables() - set(query.head))]
    swaps += [(s, variable) for s in sorted(query.symbolic_constants())]
    for old, new in swaps:
        yield ConjunctiveQuery(query.head, substitute_terms(query.body, {old: new}))


@PROPERTY
@given(st.data(), st.sampled_from(sorted(KEY_ATOM_MODES)))
def test_class_memo_agrees_on_renamed_copies(data, mode):
    config = KEY_ATOM_MODES[mode]
    head_ordered = config.key_atom is not None
    state = MinerState(config, Schema(()))
    # tied bodies make the shape's tie-break by raw names decide
    originals = [data.draw(st.one_of(queries(), tied_queries())) for _ in range(3)]
    copies = []
    for query in originals:
        for _ in range(3):
            mapping = renaming(data, query)
            # a reordered head is another class with a key atom; the memo
            # must keep it apart then and merge it otherwise
            head = data.draw(st.permutations([mapping[v] for v in query.head]))
            body = substitute_terms(query.body, mapping)
            copies.append(ConjunctiveQuery(tuple(head), body))
        copies.extend(kind_swaps(query))
    for query in originals + copies:
        assert class_of(query, state) == canonical_form(
            minimize(query), modulo_head_permutation=not head_ordered
        )
    # equal shapes mean renamings: the raw queries render alike
    texts = {}
    for query in originals + copies:
        text = canonical_form(query, modulo_head_permutation=not head_ordered)[0]
        assert texts.setdefault(shape(query, head_ordered), text) == text


@PROPERTY
@given(st.data())
def test_form_memo_agrees_on_renamed_copies(data):
    # phase 2 keys its walk forms by the same shape, head order kept, so a
    # copy with its head reordered must get a form of its own
    forms, atoms = {}, {}
    originals = [data.draw(st.one_of(queries(), tied_queries())) for _ in range(3)]
    copies = []
    for query in originals:
        for _ in range(3):
            mapping = renaming(data, query)
            head = data.draw(st.permutations([mapping[v] for v in query.head]))
            body = substitute_terms(query.body, mapping)
            copies.append(ConjunctiveQuery(tuple(head), body))
    for raw in originals + copies:
        entry = phase2._form_of(raw, forms, atoms)
        assert entry.form == canonical_form(raw)[1]
        class_text, class_form = canonical_form(minimize(raw))
        assert (entry.class_text, entry.class_form) == (class_text, class_form)
        assert entry.constants == tuple(sorted(class_form.constants()))
        assert entry.steps is None


@st.composite
def tied_queries(draw):
    """Bodies of up to four atoms over three relations, some with their
    mirror atom, so that several atoms often render alike at one position;
    ``like`` is a prefix of ``likes``, yet ``like(`` sorts before ``likes(``."""
    size = draw(st.integers(1, 4))
    body: list[Atom] = []
    while len(body) < size:
        relation = draw(st.sampled_from(["like", "likes", "visits"]))
        args = (draw(TERMS), draw(TERMS))
        body.append(Atom(relation, args))
        if len(body) < 4 and draw(st.booleans()):
            body.append(Atom(relation, args[::-1]))
    body_vars = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    assume(body_vars)
    head = draw(st.lists(st.sampled_from(body_vars), min_size=1, unique=True))
    return ConjunctiveQuery(tuple(head), frozenset(body))


@PROPERTY
@given(tied_queries())
def test_canonical_text_is_the_least_rendering(query):
    for modulo_head_permutation in (False, True):
        text, _ = canonical_form(
            query, modulo_head_permutation=modulo_head_permutation
        )
        assert text == _oracle.least_rendering(query, modulo_head_permutation)


def pinned(query):
    """Each placeholder of ``query`` bound to a constant of its own, which
    no homomorphism may move."""
    return {s: f"#{s.index}" for s in query.symbolic_constants()}


@PROPERTY
@given(st.one_of(queries(), tied_queries()), st.sampled_from(sorted(KEY_ATOM_MODES)))
def test_a_class_key_is_its_representatives_text(query, mode):
    # the writer prints a record's key as its headline, the representative's
    # own canonical text with its head order kept
    modulo = KEY_ATOM_MODES[mode].key_atom is None
    key, representative = canonical_form(
        minimize(query), modulo_head_permutation=modulo
    )
    assert canonical_text(representative) == key


@pytest.mark.parametrize("key_atom", [None, "likes(_,_)", "visits(_,_)"])
def test_every_record_key_is_its_querys_text(beer_instance, key_atom):
    anchor = key_atom and parse_key_atom(key_atom, beer_instance.schema)
    config = MinerConfig(minsup=2, max_atoms=2, key_atom=anchor)
    records = run_phase1(beer_instance, config).frequent_records()
    assert records
    for record in records:
        assert record.key == canonical_text(record.query)


@PROPERTY
@given(queries())
def test_minimize_is_idempotent_and_equivalent(query):
    reduced = minimize(query)
    assert minimize(reduced) == reduced
    assert reduced.head == query.head
    assert reduced.body <= query.body
    # placeholders stay fixed
    assert is_equivalent(
        instantiate(query, pinned(query)), instantiate(reduced, pinned(query))
    )


SCHEMA = Schema(
    tuple(RelationDecl(name, ("a", "b")) for name, _ in _oracle.RELATIONS)
)
# the queries' literal constants and one value no query names
VALUES = [*_oracle.CONSTANT_POOL, "other"]


@st.composite
def instances(draw, min_rows=0):
    pairs = st.tuples(*[st.sampled_from(VALUES)] * 2)
    rows = st.frozensets(pairs, min_size=min_rows, max_size=8)
    return Instance(SCHEMA, {name: draw(rows) for name, _ in _oracle.RELATIONS})


def without_placeholders(query):
    """The query with each placeholder made a variable of its own."""
    mapping = {s: Variable(f"z{s.index}") for s in query.symbolic_constants()}
    return ConjunctiveQuery(query.head, substitute_terms(query.body, mapping))


@PROPERTY
@given(queries(), instances(), st.integers(1, 4))
def test_support_is_the_grouped_count_of_the_empty_assignment(query, instance, minsup):
    plain = without_placeholders(query)
    grouped = support_grouped(plain, instance)
    assert grouped.symbols == ()
    count = _oracle.support_naive(plain, instance.tables)
    assert support(plain, instance) == grouped.counts.get((), 0) == count
    # a threshold drops exactly the assignments counted below it
    for counted in (plain, query):
        every = support_grouped(counted, instance).counts
        assert support_grouped(counted, instance, minsup).counts == {
            values: n for values, n in every.items() if n >= minsup
        }


@st.composite
def disconnected_queries(draw):
    """A body of two or three parts, each of one or two atoms over variables
    and placeholders of its own, four atoms and three placeholders at most.
    Placeholder indices are a drawn permutation, so index order and order
    of first occurrence often differ; a part may have no head variable."""
    body = set()
    for part in range(draw(st.integers(2, 3))):
        own = [Variable(f"p{part}v0"), Variable(f"p{part}v1")]
        terms = st.sampled_from(
            [*own, SymbolicConstant(2 * part + 1), SymbolicConstant(2 * part + 2)]
            + [Constant(VALUES[0])]
        )
        for _ in range(draw(st.integers(1, 2))):
            relation, _ = draw(st.sampled_from(_oracle.RELATIONS))
            body.add(Atom(relation, (draw(terms), draw(terms))))
    assume(len(body) <= 4)
    symbols = sorted(
        {t for atom in body for t in atom.args if isinstance(t, SymbolicConstant)},
        key=lambda s: s.index,
    )
    assume(len(symbols) <= 3)
    indices = draw(st.permutations(range(1, len(symbols) + 1)))
    body = substitute_terms(body, dict(zip(symbols, map(SymbolicConstant, indices))))
    body_vars = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    assume(body_vars)
    head = draw(st.lists(st.sampled_from(body_vars), min_size=1, unique=True))
    return ConjunctiveQuery(tuple(head), body)


@PROPERTY
@given(disconnected_queries(), instances(min_rows=4))
def test_factored_support_is_the_filtered_product(query, instance):
    # the support at every assignment of nonzero support, by enumeration
    every = _oracle.naive_grouped_counts(query, instance.tables, 1)
    # a twin with the placeholder indices reversed, counted first, fills the
    # table of component counts with renamed entries the query may share
    symbols = sorted(query.symbolic_constants(), key=lambda s: s.index)
    twin = ConjunctiveQuery(
        query.head,
        substitute_terms(query.body, dict(zip(symbols, reversed(symbols)))),
    )
    for minsup in (1, 2, 3, 5):
        assert support_grouped(twin, instance, minsup).counts == {
            values[::-1]: n for values, n in every.items() if n >= minsup
        }
        grouped = support_grouped(query, instance, minsup)
        # the factors multiplied out over every combination of their counts
        product = {}
        for parts in itertools.product(*(c.items() for _, c in grouped.factors)):
            values = [""] * len(grouped.symbols)
            count = 1
            for (positions, _), (part, factor) in zip(grouped.factors, parts):
                for position, value in zip(positions, part):
                    values[position] = value
                count *= factor
            if count >= minsup:
                product[tuple(values)] = count
        meeting = {values: n for values, n in every.items() if n >= minsup}
        assert grouped.counts == product == meeting
        # a member's lookup multiplies its factors' counts at its values
        looked_up = support_grouped(query, instance, minsup)
        assert {values: looked_up.count(values) for values in meeting} == meeting


# relations of arity one to three, so an atom can repeat a variable and
# still hold another term
JOIN_SCHEMA = Schema((
    RelationDecl("u", ("a",)),
    RelationDecl("r", ("a", "b")),
    RelationDecl("t", ("a", "b", "c")),
))
# values that the join must keep apart or carry through unchanged: NUL,
# quotes, ``'01'`` next to ``'1'``, the empty string and non-ASCII text
JOIN_VALUES = ["1", "01", "", "\0", "a\0b", "it's", '"', "''", "Zoë", "ß"]


@st.composite
def join_queries(draw):
    """A body of one to four atoms over two variables, two placeholders and
    constants, so that a variable often repeats inside one atom, after an
    earlier atom bound it or not, placeholders are shared between atoms and
    an atom may hold only constants."""
    names = st.sampled_from([*VARIABLES[:2], *PLACEHOLDERS[:2]])
    # a variable or placeholder twice as often as a constant
    terms = st.one_of(names, names, st.sampled_from(JOIN_VALUES).map(Constant))
    body = set()
    for _ in range(draw(st.integers(1, 4))):
        decl = draw(st.sampled_from(JOIN_SCHEMA.relations))
        body.add(Atom(decl.name, tuple(draw(terms) for _ in decl.columns)))
    body_vars = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    assume(body_vars)
    head = draw(st.lists(st.sampled_from(body_vars), min_size=1, unique=True))
    return ConjunctiveQuery(tuple(head), frozenset(body))


@st.composite
def join_instances(draw):
    """One to six rows per relation over a few of ``JOIN_VALUES``, or, now
    and then, none."""
    pool = draw(st.lists(st.sampled_from(JOIN_VALUES), min_size=1, max_size=3, unique=True))
    values = st.sampled_from(pool)
    tables = {}
    for decl in JOIN_SCHEMA.relations:
        rows = st.frozensets(st.tuples(*[values] * decl.arity), min_size=1, max_size=6)
        tables[decl.name] = draw(st.one_of(rows, rows, rows, st.just(frozenset())))
    return Instance(JOIN_SCHEMA, tables)


# an atom that repeats a variable an earlier atom bound, with a row that
# repeats the value and one that does not
BOUND_REPEAT = (
    parse_query("Q(y0) :- r(y0, y1), t(y1, y1, $c1)", JOIN_SCHEMA),
    Instance(JOIN_SCHEMA, {
        "r": frozenset({("1", "01"), ("01", "1")}),
        "t": frozenset({("01", "01", "\0"), ("1", "01", "\0")}),
    }),
)


@PROPERTY
@given(join_queries(), join_instances(), st.integers(1, 3), st.booleans())
@example(*BOUND_REPEAT, 1, False)
def test_the_evaluator_agrees_with_sqlite_and_enumeration(query, instance, minsup, bound):
    # the in-process join against sqlite3 running the rendered SQL, with
    # constants bound or inline, and against brute-force enumeration
    database = _oracle.sqlite_database(instance)
    grouped = _oracle.naive_grouped_counts(query, instance.tables, minsup)
    assert support_grouped(query, instance, minsup).counts == grouped
    assert _oracle.sqlite_counts(database, query, JOIN_SCHEMA, minsup, bound) == grouped
    plain = without_placeholders(query)
    answers = _oracle.eval_naive(plain, instance.tables)
    assert evaluate(plain, instance) == answers
    params = {} if bound else None
    sql = emit_sql(plain, JOIN_SCHEMA, params)
    assert set(database.execute(sql, params or {})) == answers


# values whose quoted texts are prefixes of one another's: in context they
# order as they do bare only once ``(`` follows each
QUOTED_PREFIXES = ["a", "a'", "a'b", "a''", "", "''"]
# values that quoting and joining must carry through unchanged: those, and
# characters below ``)`` and ``,``, and one that reads like a marker of
# ``instance_renderer``
AWKWARD_VALUES = [
    *("p", "it's", "{0}", "}{", "a, b", "q)"),
    *QUOTED_PREFIXES,
    *(" ", "!", "\t", "(", "\0", "\0" + "000"),
]
PLACEHOLDERS = [SymbolicConstant(i) for i in (1, 2, 3)]


@st.composite
def placeholder_queries(draw):
    """A body of one to four atoms with placeholders, over distinct
    relations or with one relation repeated, and several frequent
    assignments drawn from a few values; values repeat often, so atoms
    often collapse."""
    size = draw(st.integers(1, 4))
    if draw(st.booleans()):
        relations = draw(st.permutations(["like", "likes", "visits", "serves"]))
    else:
        relations = [draw(st.sampled_from(["like", "likes"])) for _ in range(size)]
    # mostly no literal constant; else one, or one that renders like a
    # marker of ``instance_renderer``, which only ``canonical_text`` takes
    literals = draw(
        st.sampled_from([[], [], [Constant("it's")], [Constant("\0" + "0")]])
    )
    terms = st.sampled_from([*VARIABLES[:3], *PLACEHOLDERS, *literals])
    body = frozenset(
        Atom(relation, (draw(terms), draw(terms))) for relation in relations[:size]
    )
    body_vars = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    assume(body_vars)
    head = draw(st.lists(st.sampled_from(body_vars), min_size=1, unique=True))
    query = ConjunctiveQuery(tuple(head), body)
    symbols = tuple(sorted(query.symbolic_constants(), key=lambda s: s.index))
    family = draw(st.sampled_from([QUOTED_PREFIXES, AWKWARD_VALUES]))
    pool = draw(st.lists(st.sampled_from(family), min_size=1, max_size=4))
    values = st.sampled_from(pool)
    assignments = draw(
        st.lists(st.tuples(*[values] * len(symbols)), min_size=1, max_size=5, unique=True)
    )
    return query, symbols, assignments


# ``'a'`` is a prefix of ``'a'''`` and ``'a''b'`` bare, yet in context
# ``like(x1, 'a'''), like(x1, 'a')`` is the least rendering
PREFIXED = (
    ConjunctiveQuery(
        (VARIABLES[0],),
        frozenset(Atom("like", (VARIABLES[0], s)) for s in PLACEHOLDERS[:2]),
    ),
    tuple(PLACEHOLDERS[:2]),
    [("a", "a'"), ("a'b", "a")],
)


@PROPERTY
@given(placeholder_queries())
@example(PREFIXED)
def test_text_renderers_give_the_instantiated_canonical_text(drawn):
    query, symbols, assignments = drawn
    counts = {values: i for i, values in enumerate(assignments, start=1)}
    # one factor holds every placeholder in index order, counts descending
    descending = dict(sorted(counts.items(), key=lambda kv: -kv[1]))
    grouped = GroupedSupport(symbols, ((tuple(range(len(symbols))), descending),))
    expected = []
    for values, _ in grouped.sorted_items():
        assignment = dict(zip(symbols, values))
        instance = instantiate(query, assignment)
        text = canonical_form(instance)[0]
        assert text == _oracle.least_rendering(instance, False)
        substitution = {s: Constant(value) for s, value in assignment.items()}
        assert canonical_text(query, substitution) == text
        expected.append(text)
    if query.constants():
        # the renderer's exactness rests on a body without literal constants
        with pytest.raises(QueryError):
            instance_renderer(query, symbols)
        return
    record = QueryRecord(canonical_text(query), query, grouped.best(), 1, grouped)
    assert record.texts == tuple(expected)


@PROPERTY
@given(queries())
def test_minimize_leaves_no_redundant_atom(query):
    # every atom is tried here, those whose terms are all fixed too, and by
    # the oracle's criterion: the body without the atom contains the body
    reduced = instantiate(minimize(query), pinned(query))
    for atom in reduced.body:
        rest = reduced.body - {atom}
        rest_variables = {t for other in rest for t in other.args if t[0] == "v"}
        if rest and set(reduced.head) <= rest_variables:
            smaller = ConjunctiveQuery(reduced.head, rest)
            assert not _oracle.contained_no_symbolics(smaller, reduced), atom


@PROPERTY
@given(queries())
def test_splits_of_minimized_queries_without_placeholders_are_strict(query):
    # why phase 1 checks no split of such a query for strictness
    reduced = minimize(without_placeholders(query))
    for split in splits(reduced, len(reduced.body)):
        assert len(split.body) == len(reduced.body)
        assert not is_diagonally_contained(split, reduced), split


def test_a_split_with_placeholders_can_collapse_back():
    # placeholders move under containment but not under minimization, so
    # phase 1 keeps the strictness check for splits of such queries
    query = parse_query("Q(x1) :- likes($c1, x1), likes($c2, x1)")
    split = parse_query("Q(x1) :- likes($c1, x1), likes($c2, g1)")
    assert minimize(query) == query
    assert split in set(splits(query, len(query.body)))
    assert is_diagonally_contained(split, query)
    state = MinerState(MinerConfig(minsup=1), SCHEMA)
    parents = {key for key, _ in immediate_generalizations(query, state)}
    assert class_of(split, state)[0] not in parents
    assert class_of(parse_query("Q(x1) :- likes($c1, x1)"), state)[0] in parents


@PROPERTY
@given(queries())
def test_both_survivors_of_a_head_join_are_one_class(query):
    # why phase 1 keeps one survivor when it joins two head variables
    assume(query.arity >= 2)
    left, right = query.head[:2]

    def joined(keep, drop):
        head = tuple(v for v in query.head if v != drop)
        return ConjunctiveQuery(head, substitute_terms(query.body, {drop: keep}))

    def key(joined_query):
        state = MinerState(KEY_ATOM_MODES["unordered"], Schema(()))
        return class_of(joined_query, state)[0]

    assert key(joined(left, right)) == key(joined(right, left))


ALGEBRA = (queries_module, containment, generalization, phase1, phase2)


@contextlib.contextmanager
def checked_algebra():
    """Every module of the algebra builds its queries through the checked
    constructor instead of ``unchecked_query``; yields a count of the
    queries built, by the name of the function that built them."""
    builders = Counter()

    def checked(head, body):
        builders[sys._getframe(1).f_code.co_name] += 1
        return ConjunctiveQuery(head, body)

    with contextlib.ExitStack() as stack:
        for module in ALGEBRA:
            stack.enter_context(mock.patch.object(module, "unchecked_query", checked))
        yield builders


@PROPERTY
@given(queries(), st.sampled_from(sorted(KEY_ATOM_MODES)))
def test_the_algebra_builds_valid_queries(query, mode):
    key_atom = KEY_ATOM_MODES[mode].key_atom
    config = MinerConfig(minsup=1, max_atoms=4, key_atom=key_atom)
    with checked_algebra():
        list(atom_removals(query))
        list(splits(query, 4))
        minimize(query)
        instantiate(query, pinned(query))
        state = MinerState(config, SCHEMA)
        specializations(query, state)
        list(immediate_generalizations(class_of(query, state)[1], state))


def test_a_mining_run_builds_valid_queries(beer_instance):
    # phase 2's merges of placeholders and re-openings of constants, too
    with checked_algebra() as builders:
        state = run_phase1(beer_instance, MinerConfig(minsup=2, max_atoms=2))
        run_phase2(state, beer_instance, RuleConfig(Fraction(1, 2)))
    assert {
        "atom_removals",
        "inverse_substitutions",
        "specializations",
        "immediate_generalizations",
        "minimize",
        "instantiate",
        "canonical_form",
        "_consequent_groups",
        "decide",
    } <= set(builders)
