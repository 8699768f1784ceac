"""Model base class, metaclass, and the model registry.

The metaclass collects declared :class:`~repro.webstack.orm.fields.Field`
instances into ``Model._meta`` (declaration order preserved), mints the
per-model ``DoesNotExist``/``MultipleObjectsReturned`` exceptions, installs
a default manager, adds reverse accessors for foreign keys, and registers
the model so string-named ``ForeignKey("app.Model")`` references resolve.

Single-table model inheritance is deliberately *not* implemented — the
paper's workflow classes use plain Python inheritance over a single base
table ("the use of inheritance to support AMP's two job types with a
single base class"), which proxy-style subclassing supports (see
``Meta.proxy_of`` in the core models).
"""

from __future__ import annotations

from .exceptions import (FieldError, MultipleObjectsReturned,
                         ObjectDoesNotExist, ValidationError)
from .fields import (AutoField, DateTimeField, Field, ForeignKey,
                     identity_type)
from .manager import Manager

#: Global registry: "ModelName" -> model class.
_model_registry = {}


def get_registered_model(name):
    try:
        return _model_registry[name]
    except KeyError:
        raise FieldError(f"No model registered under name {name!r}")


def clear_registry():
    """Testing hook: forget registered models (does not drop tables)."""
    _model_registry.clear()


class Options:
    """``Model._meta`` — collected schema information for one model."""

    def __init__(self, model_name, meta_cls):
        self.model_name = model_name
        self.fields = []
        self._by_name = {}
        self.table_name = getattr(meta_cls, "table_name", None) \
            or model_name.lower()
        self.ordering = list(getattr(meta_cls, "ordering", []) or [])
        self.unique_together = [tuple(g) for g in
                                getattr(meta_cls, "unique_together", [])]
        # Declarative secondary indexes: a list of field-name tuples
        # (single names accepted), emitted by schema.create_table_sql.
        self.indexes = [(g,) if isinstance(g, str) else tuple(g)
                        for g in getattr(meta_cls, "indexes", []) or []]
        # Reverse relations: related_name -> (referencing model, FK
        # field).  Filled by _install_reverse_accessor; drives
        # prefetch_related for reverse FK sets.
        self.related_objects = {}
        self.verbose_name = getattr(meta_cls, "verbose_name",
                                    model_name.lower())
        self.abstract = bool(getattr(meta_cls, "abstract", False))
        self.database = None   # bound by schema.bind()
        self.pk = None
        self.model = None

    def add_field(self, field):
        self.fields.append(field)
        self.fields.sort(key=lambda f: f._order)
        self._by_name[field.name] = field
        self._by_name[field.attname] = field
        if field.primary_key:
            self.pk = field

    def field_by_any_name(self, name):
        """Look a field up by its name or attname (``fk`` or ``fk_id``)."""
        return self._by_name.get(name)

    def concrete_fields(self):
        return list(self.fields)

    def editable_fields(self):
        return [f for f in self.fields if f.editable and not f.primary_key]

    def foreign_keys(self):
        return [f for f in self.fields if isinstance(f, ForeignKey)]


class ModelMeta(type):
    def __new__(mcs, name, bases, attrs):
        parents = [b for b in bases if isinstance(b, ModelMeta)]
        if not parents:
            return super().__new__(mcs, name, bases, attrs)

        meta_cls = attrs.pop("Meta", None)
        opts = Options(name, meta_cls)

        # Inherit fields from abstract parents (copy, preserving order).
        inherited = []
        for base in parents:
            base_meta = getattr(base, "_meta", None)
            if base_meta is not None and base_meta.abstract:
                inherited.extend(base_meta.fields)

        module = attrs.get("__module__")
        new_cls = super().__new__(mcs, name, bases, {
            k: v for k, v in attrs.items()
            if not isinstance(v, (Field, Manager))})
        new_cls._meta = opts
        opts.model = new_cls

        for field in inherited:
            clone = _copy_field(field)
            clone.contribute_to_class(new_cls, field.name)

        declared_fields = [(k, v) for k, v in attrs.items()
                           if isinstance(v, Field)]
        declared_fields.sort(key=lambda kv: kv[1]._order)
        for fname, field in declared_fields:
            field.contribute_to_class(new_cls, fname)

        if not opts.abstract and opts.pk is None:
            pk = AutoField()
            pk.contribute_to_class(new_cls, "id")

        # Per-model exceptions.
        new_cls.DoesNotExist = type(
            "DoesNotExist", (ObjectDoesNotExist,), {"__module__": module})
        new_cls.MultipleObjectsReturned = type(
            "MultipleObjectsReturned", (MultipleObjectsReturned,),
            {"__module__": module})

        # Managers.
        managers = [(k, v) for k, v in attrs.items()
                    if isinstance(v, Manager)]
        if not managers and not opts.abstract:
            managers = [("objects", Manager())]
        for mname, manager in managers:
            manager.contribute_to_class(new_cls, mname)
            setattr(new_cls, mname, manager)

        if not opts.abstract:
            _model_registry[name] = new_cls
            for fk in opts.foreign_keys():
                _install_reverse_accessor(new_cls, fk)

        return new_cls


def _copy_field(field):
    import copy
    clone = copy.copy(field)
    clone._order = field._order
    return clone


def _install_reverse_accessor(model, fk):
    """Add ``target.<related_name>`` returning referencing rows.

    The accessor returns a queryset; when the instance was loaded via
    ``prefetch_related``, the queryset's result cache is primed from the
    prefetched rows so iterating or counting it issues no query.  Via
    ``prefetch_count`` only its ``count()`` is primed.
    """
    related_name = fk.related_name or model.__name__.lower() + "_set"

    def accessor(self, _model=model, _fk=fk, _name=related_name):
        qs = _model.objects.using(self._state_db).filter(
            **{_fk.attname: self.pk})
        prefetched = self.__dict__.get("_prefetched_objects")
        if prefetched is not None and _name in prefetched:
            qs._result_cache = list(prefetched[_name])
            qs._sticky_cache = True
        counted = self.__dict__.get("_prefetched_counts")
        if counted is not None and _name in counted:
            qs._known_count = counted[_name]
        return qs

    target = fk.to
    if isinstance(target, str):
        # Deferred: install once the target registers.
        _pending_reverse.setdefault(target, []).append(
            (related_name, accessor, model, fk))
    else:
        target._meta.related_objects[related_name] = (model, fk)
        setattr(target, related_name, property(accessor))


_pending_reverse = {}


def resolve_pending_relations():
    """Install reverse accessors whose targets registered late."""
    for target_name, accessors in list(_pending_reverse.items()):
        target = _model_registry.get(target_name)
        if target is None:
            continue
        for related_name, accessor, model, fk in accessors:
            target._meta.related_objects[related_name] = (model, fk)
            setattr(target, related_name, property(accessor))
        del _pending_reverse[target_name]


class Model(metaclass=ModelMeta):
    """Base class for all persistent objects.

    Instances track which role connection loaded them (``_state_db``) so
    related-object traversal and ``save()`` stay within the same role —
    an object the portal read cannot silently write through the daemon's
    credentials.
    """

    class Meta:
        abstract = True

    def __init__(self, **kwargs):
        self._state_db = kwargs.pop("_db", None)
        self._state_adding = True
        meta = self._meta
        for field in meta.fields:
            if field.attname in kwargs:
                setattr(self, field.attname, kwargs.pop(field.attname))
            elif isinstance(field, ForeignKey) and field.name in kwargs:
                setattr(self, field.name, kwargs.pop(field.name))
            elif field.has_default():
                setattr(self, field.attname, field.get_default())
            else:
                setattr(self, field.attname, None)
        if kwargs:
            raise TypeError(
                f"{type(self).__name__} got unexpected field(s): "
                f"{sorted(kwargs)}")

    # ------------------------------------------------------------------
    @property
    def pk(self):
        return getattr(self, self._meta.pk.attname)

    @pk.setter
    def pk(self, value):
        setattr(self, self._meta.pk.attname, value)

    @classmethod
    def _compile_hydrator(cls, index_of, fields=None):
        """Compile ``hydrate(row, db) -> instance`` for one row layout.

        ``index_of(column)`` is the column's position in the rows this
        hydrator will read, or None when the statement does not return
        it (the attribute is then None).  *fields* restricts hydration
        to a projection (``only()``/``defer()``); the rest become
        deferred attributes that load lazily on first access.

        Everything that depends only on the query's shape is decided
        here, once.  Per cell, ``field.from_db`` is skipped only where
        it is the identity (None, or :func:`identity_type`).
        """
        loaded = fields if fields is not None else cls._meta.fields
        deferred = frozenset(f.attname for f in cls._meta.fields) \
            - {f.attname for f in loaded}
        cells, absent = [], []
        for field in loaded:
            index = index_of(field.column)
            if index is None:
                absent.append(field.attname)
            else:
                cells.append((field.attname, index, identity_type(field),
                              field.from_db))
        new = cls.__new__

        def hydrate(row, db):
            obj = new(cls)
            state = obj.__dict__
            state["_state_db"] = db
            state["_state_adding"] = False
            if deferred:
                state["_deferred_fields"] = set(deferred)
            for attname, index, same_type, from_db in cells:
                value = row[index]
                if value is not None and type(value) is not same_type:
                    value = from_db(value)
                state[attname] = value
            for attname in absent:
                state[attname] = None
            return obj

        return hydrate

    def __getattr__(self, name):
        # Only reached when normal lookup fails: deferred columns
        # (only()/defer() projections) load lazily, one column fetch.
        deferred = self.__dict__.get("_deferred_fields")
        if deferred and name in deferred:
            self._load_deferred(name)
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _load_deferred(self, name):
        meta = self._meta
        field = meta.field_by_any_name(name)
        db = self._db_for_write()
        cur = db.execute(
            f'SELECT "{field.column}" FROM "{meta.table_name}" '
            f'WHERE "{meta.pk.column}" = ?',
            [meta.pk.to_db(self.pk)], operation="select",
            table=meta.table_name)
        row = cur.fetchone()
        value = field.from_db(row[0]) if row is not None else None
        self.__dict__["_deferred_fields"].discard(name)
        object.__setattr__(self, field.attname, value)

    def _db_for_write(self):
        db = self._state_db or self._meta.database
        if db is None:
            raise FieldError(
                f"No database bound for {type(self).__name__}")
        return db

    # ------------------------------------------------------------------
    def full_clean(self):
        """Validate every field; collect all errors before raising."""
        errors = {}
        for field in self._meta.fields:
            if field.primary_key and getattr(self, field.attname) is None:
                continue
            if isinstance(field, DateTimeField) and (field.auto_now or
                                                     field.auto_now_add):
                continue
            try:
                cleaned = field.clean(getattr(self, field.attname))
                if cleaned is not None:
                    setattr(self, field.attname, cleaned)
            except ValidationError as exc:
                if exc.error_dict:
                    for k, v in exc.error_dict.items():
                        errors.setdefault(k, []).extend(v)
                else:
                    errors.setdefault(field.name, []).extend(exc.messages)
        if errors:
            raise ValidationError(errors)

    def save(self, db=None, force_insert=False):
        """INSERT or UPDATE this instance after full validation.

        The strict-marshaling guarantee: nothing reaches the table without
        passing every field's ``clean()``.
        """
        if db is not None:
            self._state_db = db
        database = self._db_for_write()
        meta = self._meta
        self.full_clean()

        adding = force_insert or self.pk is None or self._state_adding
        columns, values = [], []
        for field in meta.fields:
            if isinstance(field, AutoField):
                continue
            if isinstance(field, DateTimeField):
                value = field.pre_save(self, adding)
            else:
                value = getattr(self, field.attname)
            columns.append(field.column)
            values.append(field.to_db(value))

        if adding:
            col_sql = ", ".join(f'"{c}"' for c in columns)
            marks = ", ".join("?" for _ in columns)
            if self.pk is not None:
                col_sql = f'"{meta.pk.column}", ' + col_sql if columns else \
                    f'"{meta.pk.column}"'
                marks = "?, " + marks if columns else "?"
                values = [meta.pk.to_db(self.pk)] + values
            sql = (f'INSERT INTO "{meta.table_name}" ({col_sql}) '
                   f'VALUES ({marks})')
            cur = database.execute(sql, values, operation="insert",
                                   table=meta.table_name)
            if self.pk is None:
                self.pk = cur.lastrowid
            self._state_adding = False
        else:
            sets = ", ".join(f'"{c}" = ?' for c in columns)
            sql = (f'UPDATE "{meta.table_name}" SET {sets} '
                   f'WHERE "{meta.pk.column}" = ?')
            database.execute(sql, values + [meta.pk.to_db(self.pk)],
                             operation="update", table=meta.table_name)
        from ..signals import post_save
        post_save.send(type(self), instance=self, created=adding,
                       db=database)
        return self

    def delete(self):
        database = self._db_for_write()
        meta = self._meta
        deleted_pk = self.pk
        database.execute(
            f'DELETE FROM "{meta.table_name}" WHERE "{meta.pk.column}" = ?',
            [meta.pk.to_db(self.pk)], operation="delete",
            table=meta.table_name)
        self.pk = None
        self._state_adding = True
        from ..signals import post_delete
        post_delete.send(type(self), instance=self, pk=deleted_pk,
                         db=database)

    def refresh_from_db(self):
        fresh = type(self).objects.using(self._db_for_write()).get(pk=self.pk)
        for field in self._meta.fields:
            setattr(self, field.attname, getattr(fresh, field.attname))
        self.__dict__.pop("_fk_cache", None)
        self.__dict__.pop("_prefetched_objects", None)
        self.__dict__.pop("_prefetched_counts", None)
        self.__dict__.pop("_deferred_fields", None)
        self._state_adding = False
        return self

    # ------------------------------------------------------------------
    def __eq__(self, other):
        return (type(self) is type(other) and self.pk is not None
                and self.pk == other.pk)

    def __hash__(self):
        if self.pk is None:
            return object.__hash__(self)
        return hash((type(self).__name__, self.pk))

    def __repr__(self):
        return f"<{type(self).__name__}: pk={self.pk}>"
