"""QuerySet chaining, lookups, Q expressions, and bulk operations."""

import pytest

from repro.webstack.orm import FieldError, Q, Sum, compiled_cache

from .conftest import Author, Book


@pytest.fixture()
def seeded(db):
    metcalfe = Author.objects.create(name="Metcalfe")
    woitaszek = Author.objects.create(name="Woitaszek")
    Book.objects.create(author=metcalfe, title="MPIKAIA", pages=18,
                        rating=4.5, status="final")
    Book.objects.create(author=metcalfe, title="Kepler pipeline", pages=10,
                        rating=4.0, status="final")
    Book.objects.create(author=woitaszek, title="AMP gateway", pages=8,
                        rating=None, status="draft")
    return db


class TestLookups:
    def test_exact(self, seeded):
        assert Book.objects.filter(title="MPIKAIA").count() == 1

    def test_iexact(self, seeded):
        assert Book.objects.filter(title__iexact="mpikaia").count() == 1

    def test_contains_and_icontains(self, seeded):
        assert Book.objects.filter(title__contains="pipeline").count() == 1
        assert Book.objects.filter(title__icontains="KEPLER").count() == 1

    def test_contains_escapes_wildcards(self, seeded):
        assert Book.objects.filter(title__contains="%").count() == 0

    def test_startswith_endswith(self, seeded):
        assert Book.objects.filter(title__startswith="AMP").count() == 1
        assert Book.objects.filter(title__endswith="pipeline").count() == 1

    def test_comparisons(self, seeded):
        assert Book.objects.filter(pages__gt=8).count() == 2
        assert Book.objects.filter(pages__gte=8).count() == 3
        assert Book.objects.filter(pages__lt=10).count() == 1
        assert Book.objects.filter(pages__lte=10).count() == 2

    def test_in(self, seeded):
        assert Book.objects.filter(pages__in=[8, 18]).count() == 2

    def test_in_empty_matches_nothing(self, seeded):
        assert Book.objects.filter(pages__in=[]).count() == 0

    def test_isnull(self, seeded):
        assert Book.objects.filter(rating__isnull=True).count() == 1
        assert Book.objects.filter(rating__isnull=False).count() == 2

    def test_range(self, seeded):
        assert Book.objects.filter(pages__range=(9, 20)).count() == 2

    def test_pk_alias(self, seeded):
        book = Book.objects.first()
        assert Book.objects.filter(pk=book.pk).count() == 1

    def test_fk_id_lookup(self, seeded):
        author = Author.objects.get(name="Metcalfe")
        assert Book.objects.filter(author_id=author.pk).count() == 2
        assert Book.objects.filter(author=author.pk).count() == 2

    def test_unknown_field_raises(self, seeded):
        with pytest.raises(FieldError):
            list(Book.objects.filter(nonexistent=1))


    @pytest.mark.parametrize("lookup, error", [
        ({"pages__range": (1, 2, 3)}, ValueError),
        ({"pages__mod": (0, 1)}, FieldError),
        ({"pages__in": 5}, TypeError),
        ({"nope__gt": 1}, FieldError)])
    def test_malformed_lookup_raises_the_same_warm_or_cold(
            self, seeded, lookup, error):
        """Each error has one type for every statement kind, before
        and after the well-formed shape beside it is cached."""
        for _ in range(2):
            for terminal in (list, lambda qs: qs.count(),
                             lambda qs: qs.update(pages=1),
                             lambda qs: qs.values_count("status"),
                             lambda qs: qs.delete()):
                with pytest.raises(error):
                    terminal(Book.objects.filter(**lookup))
            assert Book.objects.filter(
                pages__range=(1, 20), pages__mod=(1, 0),
                pages__in=[8, 10]).count() == 2
        assert Book.objects.filter(pages=1).count() == 0


class TestChaining:
    def test_filter_is_lazy_and_immutable(self, seeded):
        base = Book.objects.filter(status="final")
        refined = base.filter(pages__gt=10)
        assert base.count() == 2
        assert refined.count() == 1

    def test_exclude(self, seeded):
        assert Book.objects.exclude(status="draft").count() == 2

    def test_exclude_then_filter(self, seeded):
        qs = Book.objects.exclude(title__contains="AMP").filter(
            pages__gte=10)
        assert qs.count() == 2

    def test_order_by(self, seeded):
        titles = [b.title for b in Book.objects.order_by("pages")]
        assert titles == ["AMP gateway", "Kepler pipeline", "MPIKAIA"]

    def test_order_by_desc(self, seeded):
        titles = [b.title for b in Book.objects.order_by("-pages")]
        assert titles[0] == "MPIKAIA"

    def test_meta_ordering_default(self, seeded):
        names = [a.name for a in Author.objects.all()]
        assert names == sorted(names)

    def test_slicing(self, seeded):
        qs = Book.objects.order_by("pages")
        assert [b.title for b in qs[1:3]] == ["Kepler pipeline", "MPIKAIA"]
        assert qs[0].title == "AMP gateway"

    def test_negative_index_rejected(self, seeded):
        with pytest.raises(ValueError):
            Book.objects.all()[-1]

    def test_first_and_last(self, seeded):
        qs = Book.objects.order_by("pages")
        assert qs.first().title == "AMP gateway"
        assert qs.last().title == "MPIKAIA"

    def test_none(self, seeded):
        assert Book.objects.none().count() == 0

    def test_exists(self, seeded):
        assert Book.objects.filter(status="final").exists()
        assert not Book.objects.filter(status="draft",
                                       pages__gt=100).exists()


class TestSlicedTerminals:
    """LIMIT/OFFSET belongs to a select alone: ``count()`` works the
    slice out from the whole ``COUNT(*)``, every other terminal
    statement refuses a slice it could not honour."""

    def test_count_honours_the_slice(self, seeded):
        finals = Book.objects.filter(status="final")
        assert Book.objects.all()[:2].count() == 2
        assert Book.objects.all()[:5].count() == 3
        assert Book.objects.all()[1:].count() == 2
        assert Book.objects.all()[2:5].count() == 1
        assert Book.objects.all()[7:9].count() == 0
        assert finals[1:2].count() == 1
        for queryset in (Book.objects.all()[:2], Book.objects.all()[2:5],
                         Book.objects.all()[7:], finals[1:]):
            assert queryset.count() == len(list(queryset))

    def test_sliced_count_adds_no_statement_shape(self, seeded):
        assert Book.objects.filter(status="final").count() == 2
        before = compiled_cache.stats()
        assert Book.objects.filter(status="draft")[1:2].count() == 0
        after = compiled_cache.stats()
        assert (after["hits"], after["size"]) \
            == (before["hits"] + 1, before["size"])

    def test_delete_refuses_a_slice(self, seeded):
        with pytest.raises(FieldError, match=r"delete\(\)"):
            Book.objects.filter(status="final")[:1].delete()
        assert Book.objects.count() == 3

    def test_update_refuses_a_slice(self, seeded):
        with pytest.raises(FieldError, match=r"update\(\)"):
            Book.objects.all()[1:].update(pages=1)
        assert Book.objects.filter(pages=1).count() == 0

    def test_aggregate_refuses_a_slice(self, seeded):
        with pytest.raises(FieldError, match=r"aggregate\(\)"):
            Book.objects.all()[:2].aggregate(total=Sum("pages"))

    def test_values_count_refuses_a_slice(self, seeded):
        with pytest.raises(FieldError, match=r"values_count\(\)"):
            Book.objects.all()[:2].values_count("status")
        with pytest.raises(FieldError, match=r"values_count\(\)"):
            Book.objects.all()[:2].distinct_values("status")


class TestQObjects:
    def test_or(self, seeded):
        qs = Book.objects.filter(Q(title="MPIKAIA") | Q(title="AMP gateway"))
        assert qs.count() == 2

    def test_and(self, seeded):
        qs = Book.objects.filter(Q(status="final") & Q(pages__gt=10))
        assert qs.count() == 1

    def test_negation(self, seeded):
        qs = Book.objects.filter(~Q(status="draft"))
        assert qs.count() == 2

    def test_nested(self, seeded):
        cond = (Q(status="draft") | (Q(status="final") & Q(pages__lt=12)))
        assert Book.objects.filter(cond).count() == 2

    def test_combined_with_kwargs(self, seeded):
        qs = Book.objects.filter(Q(pages__gt=5), status="final")
        assert qs.count() == 2

    def test_daemon_active_states_poll(self, seeded):
        """The shape of the GridAMP daemon's job poll query."""
        active = Q(status="draft") | Q(status="final")
        assert Book.objects.filter(active).count() == 3


class TestBulkOps:
    def test_bulk_update(self, seeded):
        updated = Book.objects.filter(status="draft").update(status="final")
        assert updated == 1
        assert Book.objects.filter(status="final").count() == 3

    def test_bulk_update_validates(self, seeded):
        with pytest.raises(Exception):
            Book.objects.all().update(status="not-a-choice")

    def test_bulk_delete(self, seeded):
        deleted = Book.objects.filter(pages__lt=10).delete()
        assert deleted == 1
        assert Book.objects.count() == 2

    def test_values(self, seeded):
        rows = Book.objects.filter(status="final").values("title", "pages")
        assert {r["title"] for r in rows} == {"MPIKAIA", "Kepler pipeline"}

    def test_values_list_flat(self, seeded):
        titles = Book.objects.order_by("title").values_list("title",
                                                            flat=True)
        assert titles == sorted(titles)

    def test_in_bulk(self, seeded):
        ids = Book.objects.values_list("id", flat=True)
        mapping = Book.objects.in_bulk(ids)
        assert set(mapping) == set(ids)
