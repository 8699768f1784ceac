"""Property-based tests (hypothesis) for webstack invariants."""

import datetime as dt
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webstack.auth import hashers
from repro.webstack.orm import Database, Q, bind, create_all
from repro.webstack.templates import Template
from repro.webstack.templates.context import escape

from .conftest import MODELS, Author, Book

# Text safe for storage round-trips (excludes surrogates).
safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60)


@pytest.fixture()
def db():
    database = Database(":memory:")
    create_all(MODELS, database)
    bind(MODELS, database)
    yield database
    bind(MODELS, None)
    database.close()


class TestOrmRoundTrip:
    @given(name=safe_text.filter(lambda s: 0 < len(s.strip())),
           email=st.one_of(st.none(), st.just("a@b.cd")),
           active=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_author_round_trip(self, name, email, active):
        database = Database(":memory:")
        create_all(MODELS, database)
        author = Author(name=name[:60], email=email, active=active)
        author.save(db=database)
        fetched = Author.objects.using(database).get(pk=author.pk)
        assert fetched.name == name[:60]
        assert fetched.email == email
        assert fetched.active is active
        database.close()

    @given(pages=st.integers(min_value=0, max_value=10**6),
           rating=st.one_of(st.none(),
                            st.floats(min_value=0, max_value=5,
                                      allow_nan=False)),
           tags=st.lists(st.text(string.ascii_letters, max_size=8),
                         max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_book_round_trip(self, pages, rating, tags):
        database = Database(":memory:")
        create_all(MODELS, database)
        author = Author(name="x")
        author.save(db=database)
        book = Book(author_id=author.pk, title="t", pages=pages,
                    rating=rating, tags=tags)
        book.save(db=database)
        fetched = Book.objects.using(database).get(pk=book.pk)
        assert fetched.pages == pages
        assert fetched.rating == pytest.approx(rating) \
            if rating is not None else fetched.rating is None
        assert fetched.tags == tags
        database.close()


class TestQueryAlgebra:
    @given(data=st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                                   st.none() | st.integers(min_value=0,
                                                           max_value=5)),
                         min_size=0, max_size=25),
           threshold=st.integers(min_value=0, max_value=50),
           rating=st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_filter_exclude_partition(self, data, threshold, rating):
        """filter(cond) and exclude(cond) partition the table, on a
        nullable column too: a NULL row fails the condition, so
        ``exclude`` keeps it (Django's semantics, not SQL's)."""
        database = Database(":memory:")
        create_all(MODELS, database)
        author = Author(name="x")
        author.save(db=database)
        for pages, stars in data:
            Book(author_id=author.pk, title="t", pages=pages,
                 rating=stars).save(db=database)
        qs = Book.objects.using(database)
        for lookups, holds in (
                ({"pages__gte": threshold}, lambda p, r: p >= threshold),
                ({"rating__gte": rating},
                 lambda p, r: r is not None and r >= rating),
                ({"rating": rating, "pages__lt": threshold},
                 lambda p, r: r == rating and p < threshold),
                ({"rating__in_json": [rating, 0]},
                 lambda p, r: r in (rating, 0))):
            matched = qs.filter(**lookups).count()
            rest = qs.exclude(**lookups).count()
            assert matched + rest == len(data), lookups
            assert matched == sum(1 for row in data if holds(*row))
            assert qs.exclude(Q(**lookups)).count() == rest
            assert qs.filter(~~Q(**lookups)).count() == matched
        database.close()

    @given(data=st.lists(st.integers(min_value=0, max_value=20),
                         min_size=0, max_size=20),
           a=st.integers(min_value=0, max_value=20),
           b=st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_q_or_is_union(self, data, a, b):
        database = Database(":memory:")
        create_all(MODELS, database)
        author = Author(name="x")
        author.save(db=database)
        for pages in data:
            Book(author_id=author.pk, title="t", pages=pages).save(
                db=database)
        qs = Book.objects.using(database)
        or_count = qs.filter(Q(pages=a) | Q(pages=b)).count()
        expected = sum(1 for p in data if p == a or p == b)
        assert or_count == expected
        database.close()

    @given(data=st.lists(st.integers(min_value=0, max_value=100),
                         min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_order_by_sorts(self, data):
        database = Database(":memory:")
        create_all(MODELS, database)
        author = Author(name="x")
        author.save(db=database)
        for pages in data:
            Book(author_id=author.pk, title="t", pages=pages).save(
                db=database)
        ordered = [b.pages for b in
                   Book.objects.using(database).order_by("pages")]
        assert ordered == sorted(data)
        database.close()


class TestTemplateEscaping:
    @given(value=safe_text)
    @settings(max_examples=60, deadline=None)
    def test_no_raw_angle_brackets_survive(self, value):
        out = Template("{{ x }}").render({"x": value})
        assert "<" not in out.replace("&lt;", "")
        assert ">" not in out.replace("&gt;", "")

    @given(value=safe_text)
    @settings(max_examples=60, deadline=None)
    def test_escape_idempotent_via_mark(self, value):
        once = escape(value)
        twice = escape(once)
        assert str(once) == str(twice)

    @given(items=st.lists(st.integers(), max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_for_renders_every_item(self, items):
        out = Template(
            "{% for x in xs %}[{{ x }}]{% endfor %}").render({"xs": items})
        assert out == "".join(f"[{i}]" for i in items)


class TestHasherProperties:
    @given(password=st.text(min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, password):
        stored = hashers.make_password(password, iterations=600)
        assert hashers.check_password(password, stored)

    @given(password=st.text(min_size=1, max_size=20),
           other=st.text(min_size=1, max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_distinct_passwords_fail(self, password, other):
        if password == other:
            return
        stored = hashers.make_password(password, iterations=600)
        assert not hashers.check_password(other, stored)
