"""Compiled-query cache: shape keying, binder correctness, bounds.

The cache memoizes SQL *text* per queryset shape and replays recorded
per-parameter binders against fresh values — so every test here drives
the same shape twice with different values and asserts both that the
second run is a cache hit and that its results are exactly what a cold
compile would have produced.
"""

import pytest

from repro.webstack.orm import FieldError, Q, compiled_cache

from .conftest import Author, Book


@pytest.fixture(autouse=True)
def fresh_cache():
    compiled_cache.clear()
    compiled_cache.configure(enabled=True, capacity=512)
    yield
    compiled_cache.clear()
    compiled_cache.configure(enabled=True, capacity=512)


@pytest.fixture()
def authors(db):
    rows = {}
    for name, email, active in [("Ada", "ada@ex.org", True),
                                ("Grace", "grace@ex.org", True),
                                ("Edsger", None, False),
                                ("Annie", "annie@ex.org", True)]:
        rows[name] = Author.objects.create(name=name, email=email,
                                           active=active)
    return rows


def hits():
    return compiled_cache.stats()["hits"]


# ----------------------------------------------------------------------
# Hit/miss semantics and param rebinding
# ----------------------------------------------------------------------

def test_same_shape_hits_and_rebinds_values(authors):
    assert Author.objects.filter(name="Ada").count() == 1
    before = hits()
    # Same shape, different value: must hit AND return the other row.
    assert Author.objects.filter(name="Grace").count() == 1
    assert Author.objects.filter(name="Nobody").count() == 0
    assert hits() == before + 2


def test_select_and_count_are_distinct_shapes(authors):
    list(Author.objects.filter(active=True))
    before = hits()
    # COUNT over the same conditions compiles its own statement.
    Author.objects.filter(active=True).count()
    assert hits() == before
    Author.objects.filter(active=False).count()
    assert hits() == before + 1


def test_fetch_results_identical_on_hit(authors):
    first = [a.name for a in Author.objects.filter(active=True)]
    second = [a.name for a in Author.objects.filter(active=True)]
    assert first == second == ["Ada", "Annie", "Grace"]
    assert hits() >= 1


def test_in_lookup_arity_is_part_of_the_key(authors):
    two = Author.objects.filter(name__in=["Ada", "Grace"]).count()
    size_after_two = compiled_cache.stats()["size"]
    three = Author.objects.filter(
        name__in=["Ada", "Grace", "Annie"]).count()
    assert (two, three) == (2, 3)
    # Different arity → different SQL → a second cache entry.
    assert compiled_cache.stats()["size"] == size_after_two + 1
    before = hits()
    assert Author.objects.filter(
        name__in=["Edsger", "Annie"]).count() == 2
    assert hits() == before + 1


def test_in_json_is_one_shape_for_every_arity(authors):
    """``in_json`` binds the values as one JSON array: any count, one
    cache entry, and the rows ``in`` selects (also under ``exclude``,
    and for an empty list)."""
    ids = sorted(author.pk for author in authors.values())
    assert Author.objects.filter(pk__in_json=ids[:2]).count() == 2
    size = compiled_cache.stats()["size"]
    before = hits()
    for count in (0, 1, 3, 4):
        assert [a.pk for a in Author.objects.filter(
            pk__in_json=ids[:count]).order_by("id")] == ids[:count]
        assert Author.objects.exclude(
            pk__in_json=ids[:count]).count() == len(ids) - count
    assert compiled_cache.stats()["size"] == size + 2   # select, count
    assert hits() == before + 6
    assert Author.objects.filter(
        name__in_json=["Ada", "Annie"]).count() == 2


def test_a_subquery_is_one_shape_and_binds_in_order(authors):
    """``field__in=<queryset>`` compiles into the statement: the inner
    conditions are part of the shape, and their values bind between
    the outer ones, where their marks are."""
    for name, author in authors.items():
        Book.objects.create(author=author, title=name, pages=len(name))

    def books(pages, active, title):
        return Book.objects.filter(
            pages__gte=pages,
            author__in=Author.objects.filter(active=active),
            title__startswith=title)

    assert [b.title for b in books(4, True, "A")] == ["Annie"]
    before = hits()
    assert [b.title for b in books(3, True, "A")] == ["Ada", "Annie"]
    assert [b.title for b in books(6, False, "E")] == ["Edsger"]
    assert [b.title for b in books(0, False, "A")] == []
    assert hits() == before + 3
    _, params, _ = books(6, False, "E")._build_select()
    assert params == [6, 0, "E%"]


def test_a_subquery_selects_its_one_only_column_without_nulls(authors):
    """A queryset narrowed by ``only(name)`` selects that column, and a
    nullable one drops its NULLs: ``IN`` over a set holding NULL would
    be NULL for every non-member, and ``exclude`` would keep none."""
    inactive = Author.objects.filter(active=False).only("email")
    assert Author.objects.filter(email__in=inactive).count() == 0
    assert Author.objects.exclude(email__in=inactive).count() == 4
    everyone = Author.objects.only("email")
    assert Author.objects.exclude(email__in=everyone).count() == 1
    with pytest.raises(FieldError):
        Author.objects.filter(pk__in=Author.objects.all()[:2]).count()


def test_empty_in_shape_matches_nothing_and_caches(authors):
    assert Author.objects.filter(name__in=[]).count() == 0
    before = hits()
    assert Author.objects.filter(name__in=[]).count() == 0
    assert hits() == before + 1


def test_like_escaping_is_replayed_on_hit(db):
    Author.objects.create(name="100% wool")
    Author.objects.create(name="100x wool")
    match = Author.objects.filter(name__contains="0% w")
    assert [a.name for a in match] == ["100% wool"]
    before = hits()
    # Hit path: the wildcard in the value must still be escaped, or
    # this would match both rows.
    again = Author.objects.filter(name__contains="0% w")
    assert [a.name for a in again] == ["100% wool"]
    assert hits() == before + 1


def test_field_marshaling_is_replayed_on_hit(authors):
    # BooleanField marshals Python bools to 0/1; a hit must do the
    # same conversion for the fresh value.
    assert Author.objects.filter(active=True).count() == 3
    before = hits()
    assert Author.objects.filter(active=False).count() == 1
    assert hits() == before + 1


def test_isnull_polarity_is_part_of_the_shape(authors):
    with_email = Author.objects.filter(email__isnull=False).count()
    without = Author.objects.filter(email__isnull=True).count()
    assert (with_email, without) == (3, 1)
    before = hits()
    assert Author.objects.filter(email__isnull=True).count() == 1
    assert hits() == before + 1


def test_range_lookup_rebinds_both_bounds(db):
    author = Author.objects.create(name="A")
    for pages in (50, 150, 250):
        Book.objects.create(author=author, title=f"b{pages}",
                            pages=pages)
    assert Book.objects.filter(pages__range=(0, 100)).count() == 1
    before = hits()
    assert Book.objects.filter(pages__range=(100, 300)).count() == 2
    assert hits() == before + 1


def test_mod_lookup_dedup_and_rebind(db):
    author = Author.objects.create(name="A")
    for pages in range(10):
        Book.objects.create(author=author, title=f"b{pages}",
                            pages=pages)
    # Duplicate remainders dedupe into the same compiled shape.
    first = Book.objects.filter(pages__mod=(3, [0, 1, 1])).count()
    before = hits()
    second = Book.objects.filter(pages__mod=(3, [2, 2, 0])).count()
    assert (first, second) == (7, 7)
    assert hits() == before + 1
    # Scalar-remainder form is its own shape and rebinds too.
    assert Book.objects.filter(pages__mod=(2, 0)).count() == 5
    before = hits()
    assert Book.objects.filter(pages__mod=(5, 1)).count() == 2
    assert hits() == before + 1


def test_mod_invalid_divisor_raises_even_when_shape_is_warm(db):
    author = Author.objects.create(name="A")
    Book.objects.create(author=author, title="b", pages=4)
    assert Book.objects.filter(pages__mod=(2, 0)).count() == 1
    with pytest.raises(FieldError, match="positive divisor"):
        Book.objects.filter(pages__mod=(0, 0)).count()


def test_q_tree_structure_is_part_of_the_shape(authors):
    either = Author.objects.filter(
        Q(name="Ada") | Q(name="Grace")).count()
    assert either == 2
    before = hits()
    assert Author.objects.filter(
        Q(name="Edsger") | Q(name="Annie")).count() == 2
    assert hits() == before + 1
    # AND of the same leaves is a different tree: no false hit.
    assert Author.objects.filter(
        Q(name="Ada") & Q(name="Grace")).count() == 0


def test_exclude_and_negation_shapes(authors):
    assert Author.objects.exclude(name="Ada").count() == 3
    before = hits()
    assert Author.objects.exclude(name="Edsger").count() == 3
    assert hits() == before + 1


# ----------------------------------------------------------------------
# Queryset modifiers in the key
# ----------------------------------------------------------------------

def test_limit_and_offset_are_part_of_the_key(authors):
    names = lambda qs: [a.name for a in qs]  # noqa: E731
    assert names(Author.objects.all()[:2]) == ["Ada", "Annie"]
    assert names(Author.objects.all()[1:3]) == ["Annie", "Edsger"]
    before = hits()
    assert names(Author.objects.all()[:2]) == ["Ada", "Annie"]
    assert hits() == before + 1


def test_order_by_is_part_of_the_key(authors):
    ascending = [a.name for a in Author.objects.order_by("name")]
    descending = [a.name for a in Author.objects.order_by("-name")]
    assert ascending == list(reversed(descending))


def test_projection_is_part_of_the_key(authors):
    full = Author.objects.filter(active=True).first()
    slim = Author.objects.filter(active=True).only("name").first()
    assert full.name == slim.name
    # The deferred column loads lazily — proof the projections differ.
    assert slim.email == full.email


def test_select_related_plan_is_cached_and_hydrates_on_hit(db):
    ada = Author.objects.create(name="Ada")
    Book.objects.create(author=ada, title="Notes", pages=100)
    cold = Book.objects.select_related("author").get(title="Notes")
    assert cold.author.name == "Ada"
    before = hits()
    warm = Book.objects.select_related("author").get(title="Notes")
    assert warm.author.name == "Ada"
    assert hits() >= before + 1
    with db.count_queries() as counter:
        again = Book.objects.select_related("author").get(title="Notes")
        assert again.author.name == "Ada"
    # One round trip: the cached JOIN plan still eager-loads.
    assert counter.count == 1


# ----------------------------------------------------------------------
# Bounds, toggles, stats
# ----------------------------------------------------------------------

def test_capacity_bound_evicts_oldest_shape(authors):
    compiled_cache.configure(capacity=2)
    Author.objects.filter(name="Ada").count()
    Author.objects.filter(active=True).count()
    Author.objects.filter(email__isnull=True).count()
    stats = compiled_cache.stats()
    assert stats["size"] == 2
    assert stats["evictions"] == 1
    # The evicted shape recompiles — correctly.
    assert Author.objects.filter(name="Grace").count() == 1


def test_disabled_cache_still_answers_correctly(authors):
    compiled_cache.configure(enabled=False)
    assert Author.objects.filter(name="Ada").count() == 1
    assert Author.objects.filter(name="Ada").count() == 1
    stats = compiled_cache.stats()
    assert stats["size"] == 0 and stats["hits"] == 0
    assert stats["compiles"] >= 2


def test_hit_rate_reaches_target_on_a_poll_like_sweep(authors):
    """The bench's acceptance shape in miniature: a repeated sweep of
    identical query shapes settles at >= 90% hit rate."""
    for _ in range(20):
        list(Author.objects.filter(active=True).order_by("name"))
        Author.objects.filter(email__isnull=True).count()
    assert compiled_cache.stats()["hit_rate"] >= 0.9


def test_update_delete_paths_are_unaffected(authors):
    """Writes compile through the same cache as reads — the second
    update of a shape is a hit that rebinds both the SET and the WHERE
    values — and signal exactly as before; a row's delete is its own
    statement, outside the cache."""
    from repro.webstack.signals import post_save
    fired = []

    def receiver(sender, **kw):
        fired.append(kw)

    post_save.connect(receiver, sender=Author)
    try:
        Author.objects.filter(name="Ada").update(email="new@ex.org")
        assert fired and fired[-1]["rows"] == 1
        assert Author.objects.get(name="Ada").email == "new@ex.org"
        before = hits()
        Author.objects.filter(name="Grace").update(email="g@ex.org")
        assert hits() == before + 1 and fired[-1]["rows"] == 1
        assert Author.objects.get(name="Ada").email == "new@ex.org"
        assert Author.objects.get(name="Grace").email == "g@ex.org"
        # Setting another column is another statement: no false hit.
        before = hits()
        Author.objects.filter(name="Grace").update(active=False)
        assert hits() == before
    finally:
        post_save.disconnect(receiver)
    Author.objects.get(name="Ada").delete()
    before = hits()
    Author.objects.get(name="Edsger").delete()
    assert hits() == before + 1      # the get(); the DELETE is no entry
    assert sorted(a.name for a in Author.objects.all()) \
        == ["Annie", "Grace"]
