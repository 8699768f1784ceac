"""Model managers — the ``Model.objects`` entry point."""

from __future__ import annotations

from .query import QuerySet


class Manager:
    """Default per-model accessor producing fresh QuerySets.

    ``objects.using(db)`` binds a queryset to one role connection —
    how the same model class serves both the portal and the daemon
    processes.  Every public :class:`QuerySet` method is also a manager
    method that runs on ``get_queryset()`` (``objects.filter(...)``,
    ``objects.create(...)``), the way Django's ``from_queryset`` builds
    its managers: one implementation of each, on the queryset.
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


def _on_a_fresh_queryset(name):
    def method(self, *args, **kwargs):
        return getattr(self.get_queryset(), name)(*args, **kwargs)
    method.__name__ = method.__qualname__ = name
    method.__doc__ = getattr(QuerySet, name).__doc__
    return method


for _name, _member in vars(QuerySet).items():
    if callable(_member) and not _name.startswith("_") \
            and not hasattr(Manager, _name):
        setattr(Manager, _name, _on_a_fresh_queryset(_name))
del _name, _member
