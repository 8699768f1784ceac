"""Differential properties of the two things a queryset compiles once.

(a) The row hydrator compiled per query shape builds exactly the
    instances a field-by-field reference builds — ``field.from_db`` on
    every loaded cell, written out below — for rows SQLite is free to
    hand back: NULLs, NULL and dangling foreign keys, text in an integer
    column, malformed JSON and datetimes.  The hydrator may skip a
    conversion only where it is the identity; this is the test that
    would notice if it skipped anything else.
(b) A compiled-query-cache hit replays binders over fresh values; the
    SQL and parameters must be those of a compile with the cache off.
(c) A compile with the cache off binds through the same binders, so the
    parameters also answer to a field-by-field reference kept here, and
    every statement kind — count, aggregate, values_count, update,
    delete — to the same statement written by hand and run straight on
    the connection: warm, cold and with the cache disabled.
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webstack.orm import (CharField, Count, Database, ForeignKey,
                                IntegerField, Max, Model, Q, Sum, bind,
                                compiled_cache, create_all)
from repro.webstack.orm.fields import identity_type

from .conftest import Author, Book


class Loan(Model):
    """Two FK hops from Author, so ``book__author`` is a two-level
    ``select_related`` with a nullable first hop."""

    book = ForeignKey(Book, null=True, related_name="loans")
    borrower = CharField(max_length=40)
    days = IntegerField(default=0)

    class Meta:
        table_name = "ws_hyd_loan"


MODELS = [Author, Book, Loan]


@pytest.fixture(autouse=True)
def fresh_cache():
    compiled_cache.clear()
    compiled_cache.configure(enabled=True)
    yield
    compiled_cache.clear()
    compiled_cache.configure(enabled=True)


# ----------------------------------------------------------------------
# (a) compiled hydrator == field-by-field reference
# ----------------------------------------------------------------------

def untyped_database():
    """The three tables with no column types or constraints, so a cell
    holds whatever was inserted (SQLite's own typing is per value)."""
    database = Database(":memory:")
    for model in MODELS:
        columns = ", ".join(f'"{f.column}"' for f in model._meta.fields)
        database.execute(
            f'CREATE TABLE "{model._meta.table_name}" ({columns})',
            operation="create", table=model._meta.table_name)
    return database


def insert(database, model, row):
    marks = ", ".join("?" for _ in row)
    columns = ", ".join(f'"{c}"' for c in row)
    database.execute(
        f'INSERT INTO "{model._meta.table_name}" ({columns}) '
        f'VALUES ({marks})', list(row.values()), operation="insert",
        table=model._meta.table_name)


def reference_instance(model, row, database, fields=None):
    obj = model.__new__(model)
    obj._state_db = database
    obj._state_adding = False
    loaded = fields if fields is not None else model._meta.fields
    if fields is not None:
        deferred = ({f.attname for f in model._meta.fields}
                    - {f.attname for f in loaded})
        if deferred:
            obj.__dict__["_deferred_fields"] = deferred
    for field in loaded:
        obj.__dict__[field.attname] = field.from_db(row.get(field.column))
    return obj


def reference_fetch(queryset):
    """What ``QuerySet._fetch`` must return, one field at a time."""
    sql, params, _ = queryset._build_select()
    database = queryset.db
    instances = []
    for raw in database.execute(
            sql, params, operation="select",
            table=queryset.model._meta.table_name).fetchall():
        row = dict(raw)
        obj = reference_instance(queryset.model, row, database,
                                 queryset._projected_fields())
        hydrated = {None: obj}
        for node in queryset._join_plan():
            parent = hydrated.get(node["parent_path"])
            if parent is None:
                hydrated[node["path"]] = None
                continue
            cache = parent.__dict__.setdefault("_fk_cache", {})
            if getattr(parent, node["field"].attname) is None:
                cache[node["field"].name] = None
                hydrated[node["path"]] = None
                continue
            prefix = node["path"] + "__"
            related = reference_instance(
                node["target"],
                {key[len(prefix):]: value for key, value in row.items()
                 if key.startswith(prefix)}, database)
            cache[node["field"].name] = related
            hydrated[node["path"]] = related
        instances.append(obj)
    return instances


def snapshot(obj):
    """An instance's whole state, comparable exactly: ``repr`` keeps
    ``1``, ``1.0`` and ``True`` apart where ``==`` would not, and the
    FK cache is followed by structure (model ``==`` is pk-only)."""
    if obj is None:
        return None
    state = dict(obj.__dict__)
    database = state.pop("_state_db")
    cache = state.pop("_fk_cache", None)
    return (type(obj), id(database),
            {name: ("set", sorted(value)) if type(value) is set
             else repr(value) for name, value in state.items()},
            None if cache is None
            else {name: snapshot(related)
                  for name, related in cache.items()})


def outcome(fetch):
    try:
        return [snapshot(obj) for obj in fetch()]
    except Exception as exc:  # the reference decides what is raised
        return type(exc), str(exc)


nothing = st.none()
integer_cell = st.one_of(
    st.integers(-5, 50), nothing, st.sampled_from(["12", "abc", ""]),
    st.sampled_from([3.0, 3.7]), st.booleans())
text_cell = st.one_of(
    st.text(max_size=8), nothing, st.integers(0, 9),
    st.sampled_from([b"bytes", b"\xff\xfe", 2.5]))
boolean_cell = st.one_of(st.sampled_from([0, 1, 2, "yes", 0.0]), nothing)
float_cell = st.one_of(
    st.floats(allow_nan=False), nothing, st.integers(0, 5),
    st.sampled_from(["2.5", "abc", float("inf")]))
json_cell = st.one_of(
    st.sampled_from(['{"a": [1, 2.0, null]}', "[]", '"text"', "17",
                     "{malformed", "", 17, 1.5]), nothing)
datetime_cell = st.one_of(
    st.datetimes(min_value=dt.datetime(1990, 1, 1),
                 max_value=dt.datetime(2030, 1, 1)).map(
        lambda value: value.isoformat(sep=" ")),
    st.sampled_from(["2009-11-14", "not a date", "", 20091114]), nothing)
foreign_key = st.one_of(st.integers(1, 4), nothing,
                        st.sampled_from([99, "1", "abc"]))

author_rows = st.lists(
    st.fixed_dictionaries({"name": text_cell, "email": text_cell,
                           "active": boolean_cell}), max_size=3)
book_rows = st.lists(
    st.fixed_dictionaries({
        "author_id": foreign_key, "title": text_cell,
        "pages": integer_cell, "rating": float_cell, "tags": json_cell,
        "published": datetime_cell, "summary": text_cell,
        "status": text_cell}), max_size=4)
loan_rows = st.lists(
    st.fixed_dictionaries({"book_id": foreign_key, "borrower": text_cell,
                           "days": integer_cell}), max_size=4)

SHAPES = {
    Author: [()],
    Book: [(), ("author",)],
    Loan: [(), ("book",), ("book__author",)],
}


@st.composite
def queryset_recipes(draw):
    """(model, select_related paths, projection kind, projected names)."""
    model = draw(st.sampled_from(MODELS))
    related = draw(st.sampled_from(SHAPES[model]))
    kind = draw(st.sampled_from(["all", "only", "defer"]))
    names = draw(st.lists(
        st.sampled_from([f.name for f in model._meta.fields
                         if not f.primary_key]), unique=True))
    return model, related, kind, names


def build(recipe, database):
    model, related, kind, names = recipe
    queryset = model.objects.using(database).order_by("id")
    if related:
        queryset = queryset.select_related(*related)
    if kind == "only":
        queryset = queryset.only(*names)
    elif kind == "defer":
        queryset = queryset.defer(*names)
    return queryset


@given(authors=author_rows, books=book_rows, loans=loan_rows,
       recipe=queryset_recipes())
@settings(max_examples=150, deadline=None)
def test_compiled_hydrator_matches_field_by_field_reference(
        authors, books, loans, recipe):
    database = untyped_database()
    try:
        for model, rows in ((Author, authors), (Book, books),
                            (Loan, loans)):
            for pk, row in enumerate(rows, start=1):
                insert(database, model, {"id": pk, **row})
        expected = outcome(lambda: reference_fetch(build(recipe, database)))
        # Twice: the first fetch compiles the hydrator, the second
        # replays the one kept with the cached SQL.
        for _ in range(2):
            assert outcome(build(recipe, database)._fetch) == expected
    finally:
        database.close()


def test_reference_and_hydrator_on_one_row_of_each_kind():
    """The cases the strategies are there to reach, written out, with
    the facts asserted on the reference's own output: converted cells,
    a deferred column, a NULL FK, a dangling FK, a conversion error."""
    database = untyped_database()
    insert(database, Author, {"id": 1, "name": "Ada", "email": None,
                              "active": 1})
    insert(database, Book, {"id": 1, "author_id": 1, "title": "t",
                            "pages": "12", "rating": 4, "tags": "[1]",
                            "published": "2009-11-14", "summary": "",
                            "status": "draft"})
    insert(database, Book, {"id": 2, "author_id": 99, "title": "orphan"})
    insert(database, Loan, {"id": 1, "book_id": 1, "borrower": "x"})
    insert(database, Loan, {"id": 2, "book_id": None, "borrower": "y"})
    insert(database, Loan, {"id": 3, "book_id": 2, "borrower": "z"})
    loans = (Loan.objects.using(database).order_by("id")
             .select_related("book__author").only("borrower"))
    first, second, third = reference_fetch(loans)
    book = first.__dict__["_fk_cache"]["book"]
    assert (book.pages, book.rating, book.tags) == (12, 4.0, [1])
    assert book.published == dt.datetime(2009, 11, 14)
    assert book.__dict__["_fk_cache"]["author"].active is True
    assert first.__dict__["_deferred_fields"] == {"days"}
    assert second.__dict__["_fk_cache"] == {"book": None}
    assert third.book.__dict__["_fk_cache"]["author"].pk is None
    assert [snapshot(obj) for obj in loans] \
        == [snapshot(obj) for obj in (first, second, third)]

    insert(database, Book, {"id": 3, "author_id": 1, "tags": "{bad"})
    books = Book.objects.using(database)
    expected = outcome(lambda: reference_fetch(books))
    assert expected[0].__name__ == "JSONDecodeError"
    assert outcome(books._fetch) == expected
    database.close()


@given(number=st.integers(), text=st.text())
def test_identity_types_really_are_identities(number, text):
    """The table the hydrator trusts: for every field that names an
    identity type, ``from_db`` hands such a value back untouched."""
    samples = {int: number, str: text}
    named = 0
    for model in MODELS:
        for field in model._meta.fields:
            kind = identity_type(field)
            if kind is not None:
                named += 1
                assert field.from_db(samples[kind]) is samples[kind]
    assert named >= 10


def test_overridden_conversion_is_never_skipped():
    class Shouting(CharField):
        def to_python(self, value):
            return super().to_python(value).upper()

    class Masked(CharField):
        def from_db(self, value):
            return "***"

    assert identity_type(CharField()) is str
    assert identity_type(Shouting()) is None
    assert identity_type(Masked()) is None


# ----------------------------------------------------------------------
# (b) cache hit == compile with the cache off
# ----------------------------------------------------------------------

values = {
    "pages": st.integers(-10, 10**6),
    "rating": st.floats(0, 5, allow_nan=False),
    "title": st.text(max_size=12),
    "status": st.sampled_from(["draft", "final"]),
    "author_id": st.integers(1, 50),
}


@st.composite
def lookups(draw):
    """One ``key=value`` filter term and a second value for the same
    key that leaves the queryset's shape unchanged."""
    name = draw(st.sampled_from(sorted(values)))
    choices = ["exact", "ne", "gt", "lte", "in", "range", "isnull"]
    if name in ("title", "status"):
        choices += ["icontains", "startswith", "endswith", "iexact"]
    if name in ("pages", "author_id"):
        choices.append("mod")
    lookup = draw(st.sampled_from(choices))
    value = values[name]
    if lookup == "in":
        size = draw(st.integers(0, 4))
        pair = st.lists(value, min_size=size, max_size=size)
    elif lookup == "range":
        pair = st.tuples(value, value)
    elif lookup == "isnull":
        pair = st.just(draw(st.booleans()))
    elif lookup == "mod":
        size = draw(st.integers(0, 3))
        pair = st.tuples(
            st.integers(1, 7),
            st.lists(st.integers(0, 6), min_size=size, max_size=size,
                     unique=True) if draw(st.booleans())
            else st.integers(0, 6))
    else:
        pair = value
    key = name if lookup == "exact" and draw(st.booleans()) \
        else f"{name}__{lookup}"
    return key, draw(pair), draw(pair)


@st.composite
def shapes(draw):
    """A queryset recipe as a list of steps, each carrying the values
    for a first and a second binding of the same shape."""
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["filter", "exclude", "or"]))
        terms = draw(st.lists(lookups(), min_size=1, max_size=2,
                              unique_by=lambda term: term[0]))
        steps.append((kind, terms))
    order = draw(st.lists(st.sampled_from(
        ["pages", "-pages", "title", "-id", "author_id"]),
        unique=True, max_size=2))
    start = draw(st.one_of(st.none(), st.integers(0, 5)))
    stop = draw(st.one_of(st.none(), st.integers(5, 20)))
    related = draw(st.booleans())
    projection = draw(st.sampled_from([None, "only", "defer"]))
    names = draw(st.lists(st.sampled_from(
        ["title", "pages", "tags", "author", "summary"]), unique=True))
    return steps, order, (start, stop), related, projection, names


def assemble(shape, binding):
    steps, order, (start, stop), related, projection, names = shape
    queryset = Book.objects.all()
    for kind, terms in steps:
        kwargs = {term[0]: term[1 + binding] for term in terms}
        if kind == "filter":
            queryset = queryset.filter(**kwargs)
        elif kind == "exclude":
            queryset = queryset.exclude(**kwargs)
        else:
            combined = Q()
            for key, value in kwargs.items():
                combined = combined | Q(**{key: value})
            queryset = queryset.filter(combined)
    if order:
        queryset = queryset.order_by(*order)
    if related:
        queryset = queryset.select_related("author")
    if projection == "only":
        queryset = queryset.only(*names)
    elif projection == "defer":
        queryset = queryset.defer(*names)
    if start is not None or stop is not None:
        queryset = queryset[start:stop]
    return queryset


@given(shape=shapes())
@settings(max_examples=150, deadline=None)
def test_cache_hit_compiles_what_a_cold_compile_does(shape):
    database = Database(":memory:")
    bind([Author, Book], database)
    try:
        compiled_cache.clear()
        compiled_cache.configure(enabled=True)
        assemble(shape, 0)._build_select()          # warms the shape
        before = compiled_cache.stats()
        hit = assemble(shape, 1)._build_select()[:2]
        after = compiled_cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["compiles"] == before["compiles"]
        compiled_cache.configure(enabled=False)
        cold = assemble(shape, 1)._build_select()[:2]
        assert hit == cold
    finally:
        compiled_cache.configure(enabled=True)
        bind([Author, Book], None)
        database.close()


# ----------------------------------------------------------------------
# (c) parameters == a field-by-field reference; every statement kind ==
#     straight SQL, warm, cold and with the cache disabled
# ----------------------------------------------------------------------

def escaped(raw):
    """*raw* with LIKE's wildcards and the escape character escaped."""
    return (str(raw).replace("\\", "\\\\")
            .replace("%", "\\%").replace("_", "\\_"))


def reference_params(shape, binding):
    """What ``_build_select`` must bind, from the recipe (never from
    the Q tree): one lookup at a time, in the order they were given."""
    params = []
    for _, terms in shape[0]:
        for term in terms:
            name, _, lookup = term[0].partition("__")
            value = term[1 + binding]
            field = Book._meta.field_by_any_name(name)

            def marshal(raw, field=field):
                return field.to_db(field.to_python(raw))

            if lookup == "isnull":
                continue
            if lookup == "in":
                params.extend(marshal(item) for item in value)
            elif lookup == "range":
                params.extend([marshal(value[0]), marshal(value[1])])
            elif lookup == "mod":
                divisor, remainder = value
                if isinstance(remainder, list):
                    residues = sorted({int(r) for r in remainder})
                    if residues:
                        params.extend([int(divisor), *residues])
                else:
                    params.extend([int(divisor), int(remainder)])
            elif lookup == "icontains":
                params.append("%" + escaped(value) + "%")
            elif lookup == "startswith":
                params.append(escaped(value) + "%")
            elif lookup == "endswith":
                params.append("%" + escaped(value))
            else:
                assert lookup in ("", "exact", "iexact", "ne", "gt", "lte")
                params.append(marshal(value))
    return params


@given(shape=shapes())
@settings(max_examples=150, deadline=None)
def test_bound_parameters_match_field_by_field_reference(shape):
    """A cold compile binds through the same binders as a hit, so the
    differential above no longer has an independent side for the
    parameters: this reference is it."""
    compiled_cache.clear()
    for binding in (0, 1, 0):           # a miss, then two hits
        sql, params, _ = assemble(shape, binding)._build_select()
        expected = reference_params(shape, binding)
        assert [repr(p) for p in params] == [repr(p) for p in expected]
        assert sql.count("?") == len(params)
    assert compiled_cache.stats()["compiles"] == 1


integers = st.integers(-5, 45)
#: name -> (values, refinement, the WHERE clause written by hand, its
#: parameters): conditions whose SQL this test knows without the ORM.
CONDITIONS = {
    "at least": (integers, lambda qs, v: qs.filter(pages__gte=v),
                 '"pages" >= ?', lambda v: [v]),
    "status": (st.sampled_from(["draft", "final", "lost"]),
               lambda qs, v: qs.filter(status=v),
               '"status" = ?', lambda v: [v]),
    "one of three": (st.lists(integers, min_size=3, max_size=3),
                     lambda qs, v: qs.filter(pages__in=v),
                     '"pages" IN (?, ?, ?)', list),
    "one of none": (st.just([]), lambda qs, v: qs.filter(pk__in=v),
                    "0 = 1", list),
    "title without": (st.text(alphabet="ab%_\\", max_size=2),
                      lambda qs, v: qs.exclude(title__contains=v),
                      "NOT (\"title\" LIKE ? ESCAPE '\\')",
                      lambda v: ["%" + escaped(v) + "%"]),
    "short or unrated": (
        integers,
        lambda qs, v: qs.filter(Q(pages__lt=v) | Q(rating__isnull=True)),
        '("pages" < ? OR "rating" IS NULL)', lambda v: [v]),
    "residue": (st.tuples(st.integers(1, 5), st.integers(0, 4)),
                lambda qs, v: qs.filter(pages__mod=v),
                '("pages" % ?) = ?', list),
    "rated between": (st.tuples(st.floats(0, 5), st.floats(0, 5)),
                      lambda qs, v: qs.filter(rating__range=v),
                      '"rating" BETWEEN ? AND ?', list),
}
BOOKS = [
    {"id": pk, "author_id": 1, "title": title, "pages": pages,
     "rating": rating, "status": status, "summary": ""}
    for pk, (title, pages, rating, status) in enumerate([
        ("a", 0, None, "draft"), ("ab", 7, 1.5, "final"),
        ("a%b", 12, 4.0, "final"), ("a_b", 12, None, "draft"),
        ("b\\a", 30, 5.0, "final"), ("%", 44, 2.5, "draft"),
        ("", 3, 0.0, "final"), ("ba", 21, 3.5, "draft")], start=1)]


class Rollback(Exception):
    pass


def every_kind(database, names, values):
    """What count, aggregate, values_count, update and delete answer
    for the conditions *names* bound to *values*, each checked against
    the hand-written statement run straight on the connection; the
    two writes are rolled back."""
    queryset = Book.objects.using(database)
    clauses, params = [], []
    for name, value in zip(names, values):
        _, refine, clause, bound = CONDITIONS[name]
        queryset = refine(queryset, value)
        clauses.append(f"({clause})")
        params.extend(bound(value))
    where = " WHERE " + " AND ".join(clauses) if clauses else ""

    def straight(select, tail=""):
        return [tuple(row) for row in database.connection.execute(
            f'SELECT {select} FROM "ws_book"{where}{tail}', params)]

    matching, total, best = straight(
        'COUNT(*), TOTAL("pages"), MAX("rating")')[0]
    by_status = dict(straight('"status", COUNT(*)', ' GROUP BY "status"'))
    answers = {
        "count": queryset.count(),
        "aggregate": queryset.aggregate(
            n=Count("*"), pages=Sum("pages"), best=Max("rating")),
        "values_count": queryset.values_count("status"),
    }
    assert answers == {
        "count": matching,
        "aggregate": {"n": matching, "pages": total, "best": best},
        "values_count": by_status}
    try:
        with database.atomic():
            answers["update"] = queryset.update(summary="touched")
            touched = database.connection.execute(
                'SELECT COUNT(*) FROM "ws_book" WHERE "summary" = ?',
                ["touched"]).fetchone()[0]
            answers["delete"] = queryset.delete()
            left = database.connection.execute(
                'SELECT COUNT(*) FROM "ws_book"').fetchone()[0]
            assert straight("COUNT(*)") == [(0,)]
            raise Rollback
    except Rollback:
        pass
    assert answers["update"] == touched == matching == answers["delete"]
    assert left == len(BOOKS) - matching
    return answers


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_statement_kind_matches_straight_sql_warm_cold_disabled(data):
    names = data.draw(st.lists(st.sampled_from(sorted(CONDITIONS)),
                               max_size=3, unique=True))
    first, second = ([data.draw(CONDITIONS[name][0]) for name in names]
                     for _ in range(2))
    database = Database(":memory:")
    create_all([Author, Book], database)
    try:
        insert(database, Author, {"id": 1, "name": "Ada", "active": 1})
        for row in BOOKS:
            insert(database, Book, row)
        compiled_cache.clear()
        compiled_cache.configure(enabled=True)
        every_kind(database, names, first)           # cold: five compiles
        cold = compiled_cache.stats()
        assert (cold["compiles"], cold["hits"]) == (5, 0)
        warm_answers = every_kind(database, names, second)
        warm = compiled_cache.stats()
        assert (warm["compiles"], warm["hits"]) == (5, 5)
        compiled_cache.configure(enabled=False)
        assert every_kind(database, names, second) == warm_answers
        disabled = compiled_cache.stats()
        assert (disabled["compiles"], disabled["hits"]) == (10, 5)
    finally:
        compiled_cache.configure(enabled=True)
        database.close()
