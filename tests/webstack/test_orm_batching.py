"""The batch-oriented query layer: eager loading, bulk writes, and the
round-trip counter that keeps call sites honest."""

import pytest

from repro.webstack.orm import FieldError

from .conftest import Author, Book


def _library(db, *, authors=4, books_each=3):
    """A small fixture population: returns (author_list, book_list)."""
    author_objs = [Author(name=f"Author {i:02d}",
                          email=f"a{i}@example.org")
                   for i in range(authors)]
    Author.objects.using(db).bulk_create(author_objs)
    book_objs = []
    for author in author_objs:
        for j in range(books_each):
            book_objs.append(Book(author_id=author.pk,
                                  title=f"{author.name} vol {j}",
                                  pages=100 + j,
                                  summary=f"Summary {author.pk}/{j}"))
    Book.objects.using(db).bulk_create(book_objs)
    return author_objs, book_objs


class TestQueryCounter:
    def test_counts_and_freezes(self, db):
        with db.count_queries() as counter:
            list(Author.objects.using(db).all())
            Author.objects.using(db).create(name="Counted")
        assert counter.count == 2
        assert counter.by_operation == {"select": 1, "insert": 1}
        # Later traffic does not leak into a closed counter.
        list(Author.objects.using(db).all())
        assert counter.count == 2


class TestSelectRelated:
    def test_one_query_replaces_n_plus_one(self, db):
        _library(db, authors=5, books_each=2)
        with db.count_queries() as lazy:
            names = sorted(book.author.name
                           for book in Book.objects.using(db).all())
        # The lazy path pays one SELECT per row on top of the list query.
        assert lazy.count == 1 + 10
        with db.count_queries() as eager:
            eager_names = sorted(
                book.author.name for book in
                Book.objects.using(db).select_related("author"))
        assert eager.count == 1
        assert eager_names == names

    def test_joined_instances_are_real_models(self, db):
        authors, _ = _library(db, authors=2, books_each=1)
        book = (Book.objects.using(db).select_related("author")
                .get(title=f"{authors[0].name} vol 0"))
        author = book.author
        assert isinstance(author, Author)
        assert author.pk == authors[0].pk
        assert author.active is True        # non-text types survive JOIN

    def test_unknown_path_rejected(self, db):
        with pytest.raises(FieldError):
            Book.objects.using(db).select_related("publisher")
        with pytest.raises(FieldError):
            # ``title`` exists but is not a relation.
            Book.objects.using(db).select_related("title")


class TestPrefetchRelated:
    def test_reverse_set_costs_two_queries(self, db):
        _library(db, authors=6, books_each=3)
        with db.count_queries() as counter:
            loaded = list(Author.objects.using(db)
                          .prefetch_related("books"))
            per_author = {a.name: sorted(b.title for b in a.books.all())
                          for a in loaded}
        assert counter.count == 2       # author list + one IN query
        assert all(len(titles) == 3 for titles in per_author.values())

    def test_matches_lazy_loading(self, db):
        _library(db, authors=3, books_each=2)
        lazy = {a.name: sorted(b.title for b in a.books.all())
                for a in Author.objects.using(db).all()}
        eager = {a.name: sorted(b.title for b in a.books.all())
                 for a in Author.objects.using(db)
                 .prefetch_related("books")}
        assert eager == lazy

    def test_empty_reverse_sets_are_primed(self, db):
        Author.objects.using(db).create(name="Unpublished")
        author = (Author.objects.using(db)
                  .prefetch_related("books").get(name="Unpublished"))
        with db.count_queries() as counter:
            assert author.books.count() == 0
        assert counter.count == 0

    def test_unknown_name_rejected(self, db):
        with pytest.raises(FieldError):
            Author.objects.using(db).prefetch_related("reviews")


class TestPrefetchCount:
    def test_all_keeps_the_primed_count_and_refinements_drop_it(self, db):
        _library(db, authors=3, books_each=2)
        authors = list(Author.objects.using(db).prefetch_count("books"))
        with db.count_queries() as counter:
            assert [a.books.count() for a in authors] == [2, 2, 2]
            # all() cannot change the count, so it costs no statement.
            assert [a.books.all().count() for a in authors] == [2, 2, 2]
        assert counter.count == 0
        with db.count_queries() as counter:
            first = authors[0]
            assert first.books.filter(pages=100).count() == 1
            assert first.books.exclude(pages=100).count() == 1
            assert first.books.all()[1:].count() == 1
            assert first.books.all().filter(pages__gt=500).count() == 0
        assert counter.count == 4


class TestProjection:
    def test_only_loads_requested_columns(self, db):
        _library(db, authors=1, books_each=1)
        book = Book.objects.using(db).only("title").first()
        assert "pages" in book._deferred_fields
        assert book.title.endswith("vol 0")

    def test_deferred_column_loads_lazily_on_access(self, db):
        _library(db, authors=1, books_each=1)
        book = Book.objects.using(db).defer("summary").first()
        with db.count_queries() as counter:
            _ = book.title              # loaded column: no round trip
            summary = book.summary      # deferred column: one round trip
        assert counter.count == 1
        assert summary == f"Summary {book.author_id}/0"
        with db.count_queries() as again:
            assert book.summary == summary
        assert again.count == 0         # loaded once, cached after

    def test_pk_always_included(self, db):
        _library(db, authors=1, books_each=1)
        book = Book.objects.using(db).only("title").first()
        assert book.pk is not None


class TestBulkWrites:
    def test_bulk_update_one_round_trip(self, db):
        _, books = _library(db, authors=4, books_each=2)
        for book in books:
            book.pages += 1000
        with db.count_queries() as counter:
            updated = Book.objects.using(db).bulk_update(books, ["pages"])
        assert updated == len(books)
        assert counter.count == 1
        reread = list(Book.objects.using(db).order_by("id"))
        assert [b.pages for b in reread] == [b.pages for b in books]

    def test_bulk_update_rejects_bad_fields(self, db):
        _, books = _library(db, authors=1, books_each=1)
        with pytest.raises(FieldError):
            Book.objects.using(db).bulk_update(books, ["id"])
        with pytest.raises(FieldError):
            Book.objects.using(db).bulk_update(books, ["missing"])

    def test_bulk_create_assigns_pks_in_one_query(self, db):
        authors = [Author(name=f"Batch {i}") for i in range(20)]
        with db.count_queries() as counter:
            created = Author.objects.using(db).bulk_create(authors)
        assert counter.count == 1
        pks = [a.pk for a in created]
        assert None not in pks and len(set(pks)) == 20
        stored = {a.pk: a.name for a in Author.objects.using(db).filter(
            name__istartswith="Batch")}
        assert all(stored[a.pk] == a.name for a in created)


class TestDeclaredIndexes:
    def test_meta_indexes_emitted_by_schema(self, db):
        rows = db.execute(
            "SELECT name FROM sqlite_master WHERE type='index' "
            "AND tbl_name='ws_book'", operation="select",
            table="sqlite_master").fetchall()
        names = {row[0] for row in rows}
        assert "idx_ws_book_status" in names
        assert "idx_ws_book_author_id_status" in names
