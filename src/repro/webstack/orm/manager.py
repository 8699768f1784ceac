"""Model managers — the ``Model.objects`` entry point."""

from __future__ import annotations

from .query import QuerySet


class Manager:
    """Default per-model accessor producing fresh QuerySets.

    Mirrors the Django manager surface AMP used: ``objects.filter(...)``,
    ``objects.create(...)``, ``objects.get_or_create(...)``.  A manager may
    be bound to a specific role connection with ``using()`` — this is how
    the same model class serves both the portal and the daemon processes.
    """

    def __init__(self):
        self.model = None
        self.name = None

    def contribute_to_class(self, model, name):
        self.model = model
        self.name = name

    def __get__(self, instance, owner):
        if instance is not None:
            raise AttributeError(
                "Manager is not accessible via model instances")
        mgr = Manager()
        mgr.model = owner
        mgr.name = self.name
        return mgr

    # ------------------------------------------------------------------
    def get_queryset(self):
        return QuerySet(self.model)

    def using(self, db):
        return self.get_queryset().using(db)

    def all(self):
        return self.get_queryset()

    def filter(self, *qs, **lookups):
        return self.get_queryset().filter(*qs, **lookups)

    def exclude(self, *qs, **lookups):
        return self.get_queryset().exclude(*qs, **lookups)

    def get(self, *qs, **lookups):
        return self.get_queryset().get(*qs, **lookups)

    def order_by(self, *names):
        return self.get_queryset().order_by(*names)

    def select_related(self, *names):
        return self.get_queryset().select_related(*names)

    def prefetch_related(self, *names):
        return self.get_queryset().prefetch_related(*names)

    def prefetch_count(self, *names):
        return self.get_queryset().prefetch_count(*names)

    def only(self, *names):
        return self.get_queryset().only(*names)

    def defer(self, *names):
        return self.get_queryset().defer(*names)

    def none(self):
        return self.get_queryset().none()

    def count(self):
        return self.get_queryset().count()

    def exists(self):
        return self.get_queryset().exists()

    def first(self):
        return self.get_queryset().first()

    def values(self, *names):
        return self.get_queryset().values(*names)

    def values_list(self, *names, flat=False):
        return self.get_queryset().values_list(*names, flat=flat)

    def in_bulk(self, ids):
        return self.get_queryset().in_bulk(ids)

    def create(self, **kwargs):
        obj = self.model(**kwargs)
        obj.save()
        return obj

    def get_or_create(self, defaults=None, **lookups):
        """Return ``(object, created)`` in one call."""
        try:
            return self.get(**lookups), False
        except self.model.DoesNotExist:
            params = dict(lookups)
            params.update(defaults or {})
            return self.create(**params), True

    def update_or_create(self, defaults=None, **lookups):
        """Return ``(object, created)``, updating an existing match."""
        return self.get_queryset().update_or_create(defaults, **lookups)

    def bulk_update(self, objs, fields, batch_size=None):
        """One CASE-WHEN UPDATE per batch; see QuerySet.bulk_update."""
        return self.get_queryset().bulk_update(objs, fields,
                                               batch_size=batch_size)

    def last(self):
        return self.get_queryset().last()

    def aggregate(self, **named_aggregates):
        return self.get_queryset().aggregate(**named_aggregates)

    def values_count(self, field_name):
        return self.get_queryset().values_count(field_name)

    def bulk_create(self, objects, batch_size=None):
        """INSERT *objects* with multi-row VALUES batches.

        Objects with a preset primary key fall back to per-row inserts
        (they bypass rowid assignment); the common no-pk path costs one
        round trip per batch, with pks recovered from the statement's
        ``lastrowid`` (SQLite assigns consecutive rowids within a single
        multi-row INSERT).
        """
        return self.get_queryset().bulk_create(objects,
                                               batch_size=batch_size)
