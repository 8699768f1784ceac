"""Aggregates (Count/Sum/Avg/Min/Max, GROUP BY) and the Paginator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webstack.orm import (Avg, Count, Database, FieldError, Max,
                                Min, Sum, bind, create_all)
from repro.webstack.pagination import EmptyPage, Paginator
from repro.webstack.templates import Template

from .conftest import Author, Book


@pytest.fixture()
def seeded(db):
    author = Author.objects.create(name="A")
    for index, (pages, status) in enumerate(
            [(10, "draft"), (20, "final"), (30, "final"), (40, "draft"),
             (50, "final")]):
        Book.objects.create(author=author, title=f"b{index}",
                            pages=pages, status=status,
                            rating=float(index))
    return db


class TestAggregates:
    def test_count(self, seeded):
        result = Book.objects.all().aggregate(n=Count("*"))
        assert result == {"n": 5}

    def test_sum(self, seeded):
        result = Book.objects.all().aggregate(total=Sum("pages"))
        assert result["total"] == 150.0

    def test_avg_min_max(self, seeded):
        result = Book.objects.all().aggregate(
            mean=Avg("pages"), lo=Min("pages"), hi=Max("pages"))
        assert result == {"mean": 30.0, "lo": 10, "hi": 50}

    def test_aggregate_respects_filters(self, seeded):
        result = Book.objects.filter(status="final").aggregate(
            total=Sum("pages"), n=Count("*"))
        assert result == {"total": 100.0, "n": 3}

    def test_sum_of_empty_is_zero(self, seeded):
        result = Book.objects.filter(pages__gt=999).aggregate(
            total=Sum("pages"), n=Count("*"))
        assert result == {"total": 0.0, "n": 0}

    def test_values_count_group_by(self, seeded):
        counts = Book.objects.all().values_count("status")
        assert counts == {"draft": 2, "final": 3}

    def test_values_count_with_filter(self, seeded):
        counts = Book.objects.filter(pages__gte=30).values_count(
            "status")
        assert counts == {"draft": 1, "final": 2}

    def test_unknown_field_raises(self, seeded):
        with pytest.raises(FieldError):
            Book.objects.all().aggregate(x=Sum("nonexistent"))

    def test_non_aggregate_rejected(self, seeded):
        with pytest.raises(FieldError):
            Book.objects.all().aggregate(x="pages")

    @given(pages=st.lists(st.integers(min_value=0, max_value=500),
                          min_size=0, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_sum_property(self, pages):
        database = Database(":memory:")
        create_all([Author, Book], database)
        author = Author(name="x")
        author.save(db=database)
        for p in pages:
            Book(author_id=author.pk, title="t", pages=p).save(
                db=database)
        result = Book.objects.using(database).aggregate(
            total=Sum("pages"), n=Count("*"))
        assert result["total"] == float(sum(pages))
        assert result["n"] == len(pages)
        database.close()


class TestPaginator:
    def test_pages_split_evenly(self):
        paginator = Paginator(list(range(10)), per_page=3)
        assert paginator.num_pages == 4
        assert list(paginator.page(1)) == [0, 1, 2]
        assert list(paginator.page(4)) == [9]

    def test_page_indices(self):
        paginator = Paginator(list(range(10)), per_page=3)
        page = paginator.page(2)
        assert page.start_index == 4
        assert page.end_index == 6

    def test_navigation_flags(self):
        paginator = Paginator(list(range(5)), per_page=2)
        assert paginator.page(1).has_next
        assert not paginator.page(1).has_previous
        assert paginator.page(3).has_previous
        assert not paginator.page(3).has_next

    def test_out_of_range_raises(self):
        paginator = Paginator([1, 2], per_page=2)
        with pytest.raises(EmptyPage):
            paginator.page(0)
        with pytest.raises(EmptyPage):
            paginator.page(2)

    def test_get_page_clamps(self):
        paginator = Paginator(list(range(10)), per_page=4)
        assert paginator.get_page(99).number == 3
        assert paginator.get_page(-5).number == 1
        assert paginator.get_page("garbage").number == 1

    def test_empty_list_single_page(self):
        paginator = Paginator([], per_page=10)
        assert paginator.num_pages == 1
        page = paginator.page(1)
        assert list(page) == []
        assert page.start_index == 0

    def test_queryset_pagination_is_lazy(self, seeded):
        paginator = Paginator(Book.objects.order_by("pages"),
                              per_page=2)
        assert paginator.count == 5
        page = paginator.page(2)
        assert [b.pages for b in page] == [30, 40]

    def test_rendered_page_costs_one_count(self, seeded):
        """``page()`` and a pagination footer read ``count`` and
        ``num_pages`` half a dozen times; the table is counted once."""
        footer = Template(
            "{% if page.has_previous %}prev{% endif %} "
            "page {{ page.number }} of {{ page.paginator.num_pages }} "
            "({{ page.start_index }}-{{ page.end_index }} of "
            "{{ page.paginator.count }})"
            "{% if page.has_next %} next{% endif %}")
        with seeded.count_queries() as counter:
            paginator = Paginator(Book.objects.order_by("pages"),
                                  per_page=2)
            page = paginator.get_page(2)
            text = footer.render({"page": page})
        assert text == "prev page 2 of 3 (3-4 of 5) next"
        assert counter.count == 2, repr(counter)    # COUNT + the page

    def test_invalid_per_page(self):
        with pytest.raises(ValueError):
            Paginator([], per_page=0)
