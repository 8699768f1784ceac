"""Typed model fields with strict validation.

The AMP paper stresses that *all* user input is marshaled through database
tables "with strict data type constraints" before the GridAMP daemon ever
regenerates input files from it.  Fields are therefore not passive column
declarations: every assignment that reaches ``save()`` passes through
``clean()``, which coerces and validates, and the generated DDL carries the
matching SQL constraints (NOT NULL, UNIQUE, CHECK for choices).
"""

from __future__ import annotations

import datetime as _dt
import json
import re

from .exceptions import ValidationError

#: Sentinel distinguishing "no default provided" from "default is None".
NOT_PROVIDED = object()

_EMAIL_RE = re.compile(r"^[^@\s]+@[^@\s]+\.[^@\s]+$")


class Field:
    """Base class for model columns.

    Parameters
    ----------
    null:
        Whether SQL NULL is permitted.
    default:
        Default value (or zero-argument callable producing one).
    unique:
        Add a UNIQUE constraint.
    primary_key:
        Use this column as the primary key.
    choices:
        Optional sequence of ``(value, label)`` pairs; values outside the
        set fail validation and are excluded by a CHECK constraint.
    db_index:
        Create a secondary index for this column.
    verbose_name:
        Human-readable name used by forms and the admin.
    help_text:
        Description surfaced in forms and the admin.
    editable:
        Whether the field appears in generated forms / the admin change
        view.  Auto-managed columns set this to False.
    """

    #: SQLite storage class for the column.
    db_type = "TEXT"
    #: Python type produced by ``to_python`` (documentation/introspection).
    python_type = str

    # Creation counter preserves declaration order across metaclass
    # collection, exactly as Django does.
    _creation_counter = 0

    def __init__(self, *, null=False, default=NOT_PROVIDED, unique=False,
                 primary_key=False, choices=None, db_index=False,
                 verbose_name=None, help_text="", editable=True):
        self.null = null
        self.default = default
        self.unique = unique
        self.primary_key = primary_key
        self.choices = list(choices) if choices else None
        self.db_index = db_index
        self.verbose_name = verbose_name
        self.help_text = help_text
        self.editable = editable
        self.name = None          # set by contribute_to_class
        self.model = None
        self.attname = None       # attribute name on instances
        self.column = None        # database column name
        self._order = Field._creation_counter
        Field._creation_counter += 1

    # ------------------------------------------------------------------
    # Metaclass wiring
    # ------------------------------------------------------------------
    def contribute_to_class(self, model, name):
        """Attach this field to *model* under attribute *name*."""
        self.name = name
        self.attname = name
        self.column = name
        self.model = model
        if self.verbose_name is None:
            self.verbose_name = name.replace("_", " ")
        model._meta.add_field(self)

    # ------------------------------------------------------------------
    # Value handling
    # ------------------------------------------------------------------
    def has_default(self):
        return self.default is not NOT_PROVIDED

    def get_default(self):
        if not self.has_default():
            return None
        return self.default() if callable(self.default) else self.default

    def to_python(self, value):
        """Coerce a raw value to the field's Python type.

        Subclasses override; raising :class:`ValidationError` here is the
        canonical way to reject garbage.
        """
        return value

    def from_db(self, value):
        """Convert a value read from SQLite into the Python type."""
        if value is None:
            return None
        return self.to_python(value)

    def to_db(self, value):
        """Convert a Python value into something sqlite3 can bind."""
        return value

    def clean(self, value):
        """Full validation pipeline: coerce, then check constraints."""
        if value is None:
            if self.null or self.primary_key or self.has_default():
                return None
            raise ValidationError({self.name or "?": "This field cannot be null."})
        value = self.to_python(value)
        self.validate(value)
        return value

    def clean_to_db(self, value):
        """``(clean(value), to_db(...))``: what one write stores and
        binds, encoded once."""
        value = self.clean(value)
        return value, self.to_db(value)

    def validate(self, value):
        if self.choices is not None:
            allowed = [c[0] for c in self.choices]
            if value not in allowed:
                raise ValidationError(
                    {self.name or "?": f"Value {value!r} is not a valid choice."})

    # ------------------------------------------------------------------
    # Schema generation
    # ------------------------------------------------------------------
    def db_column_sql(self):
        """Return the column definition fragment for CREATE TABLE."""
        parts = [f'"{self.column}"', self.db_type]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        if not self.null and not self.primary_key:
            parts.append("NOT NULL")
        if self.unique and not self.primary_key:
            parts.append("UNIQUE")
        if self.choices is not None:
            quoted = ", ".join(_sql_literal(c[0]) for c in self.choices)
            parts.append(f'CHECK ("{self.column}" IN ({quoted}))')
        return " ".join(parts)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}: {self.name}>"


def _sql_literal(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class AutoField(Field):
    """Integer primary key assigned by SQLite's rowid machinery."""

    db_type = "INTEGER"
    python_type = int

    def __init__(self, **kw):
        kw.setdefault("primary_key", True)
        kw.setdefault("editable", False)
        super().__init__(**kw)

    def to_python(self, value):
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValidationError({self.name or "?": f"{value!r} is not an integer."})

    def db_column_sql(self):
        return f'"{self.column}" INTEGER PRIMARY KEY AUTOINCREMENT'


class IntegerField(Field):
    db_type = "INTEGER"
    python_type = int

    def __init__(self, *, min_value=None, max_value=None, **kw):
        super().__init__(**kw)
        self.min_value = min_value
        self.max_value = max_value

    def to_python(self, value):
        if isinstance(value, bool):
            raise ValidationError({self.name or "?": "Booleans are not integers."})
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValidationError({self.name or "?": f"{value!r} is not an integer."})

    def validate(self, value):
        super().validate(value)
        if self.min_value is not None and value < self.min_value:
            raise ValidationError(
                {self.name or "?": f"Value {value} below minimum {self.min_value}."})
        if self.max_value is not None and value > self.max_value:
            raise ValidationError(
                {self.name or "?": f"Value {value} above maximum {self.max_value}."})


class FloatField(Field):
    db_type = "REAL"
    python_type = float

    def __init__(self, *, min_value=None, max_value=None, **kw):
        super().__init__(**kw)
        self.min_value = min_value
        self.max_value = max_value

    def to_python(self, value):
        if isinstance(value, bool):
            raise ValidationError({self.name or "?": "Booleans are not floats."})
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValidationError({self.name or "?": f"{value!r} is not a float."})
        if value != value:  # NaN: never a legitimate marshaled science input
            raise ValidationError({self.name or "?": "NaN is not permitted."})
        return value

    def validate(self, value):
        super().validate(value)
        if self.min_value is not None and value < self.min_value:
            raise ValidationError(
                {self.name or "?": f"Value {value} below minimum {self.min_value}."})
        if self.max_value is not None and value > self.max_value:
            raise ValidationError(
                {self.name or "?": f"Value {value} above maximum {self.max_value}."})


class BooleanField(Field):
    db_type = "INTEGER"
    python_type = bool

    def to_python(self, value):
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            if value.lower() in ("true", "1", "yes", "on"):
                return True
            if value.lower() in ("false", "0", "no", "off", ""):
                return False
        raise ValidationError({self.name or "?": f"{value!r} is not a boolean."})

    def to_db(self, value):
        if value is None:
            return None
        return 1 if value else 0

    def from_db(self, value):
        if value is None:
            return None
        return bool(value)


class CharField(Field):
    db_type = "TEXT"
    python_type = str

    def __init__(self, *, max_length=255, **kw):
        super().__init__(**kw)
        self.max_length = max_length

    def to_python(self, value):
        if isinstance(value, (bytes, bytearray)):
            value = value.decode("utf-8")
        if not isinstance(value, str):
            value = str(value)
        return value

    def validate(self, value):
        super().validate(value)
        if self.max_length is not None and len(value) > self.max_length:
            raise ValidationError(
                {self.name or "?":
                 f"Length {len(value)} exceeds max_length {self.max_length}."})

    def db_column_sql(self):
        sql = super().db_column_sql()
        if self.max_length is not None:
            sql += f' CHECK (LENGTH("{self.column}") <= {self.max_length})'
        return sql


class TextField(CharField):
    """Unbounded text."""

    def __init__(self, **kw):
        kw.setdefault("max_length", None)
        super().__init__(**kw)


class EmailField(CharField):
    def validate(self, value):
        super().validate(value)
        if value and not _EMAIL_RE.match(value):
            raise ValidationError(
                {self.name or "?": f"{value!r} is not a valid e-mail address."})


class DateTimeField(Field):
    """Timezone-naive UTC timestamps stored as ISO-8601 text.

    ``auto_now_add`` stamps creation time; ``auto_now`` re-stamps on every
    save.  AMP's provenance metadata (when a simulation was submitted, when
    a job last changed state) uses these.
    """

    db_type = "TEXT"
    python_type = _dt.datetime

    def __init__(self, *, auto_now=False, auto_now_add=False, **kw):
        if auto_now or auto_now_add:
            kw.setdefault("editable", False)
            kw.setdefault("null", True)
        super().__init__(**kw)
        self.auto_now = auto_now
        self.auto_now_add = auto_now_add

    def to_python(self, value):
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, str):
            try:
                return _dt.datetime.fromisoformat(value)
            except ValueError:
                raise ValidationError(
                    {self.name or "?": f"{value!r} is not an ISO datetime."})
        raise ValidationError({self.name or "?": f"{value!r} is not a datetime."})

    def to_db(self, value):
        if value is None:
            return None
        if isinstance(value, _dt.datetime):
            return value.isoformat(sep=" ")
        return str(value)

    def pre_save(self, instance, add):
        """Apply auto_now/auto_now_add stamping; returns the value to store."""
        if self.auto_now or (self.auto_now_add and add):
            value = _dt.datetime.utcnow()
            setattr(instance, self.attname, value)
            return value
        return getattr(instance, self.attname)


class JSONField(Field):
    """Arbitrary JSON-serialisable payloads stored as text.

    Used for unstructured daemon bookkeeping (e.g. the plain-text transient
    status messages shown next to a job).
    """

    db_type = "TEXT"
    python_type = object

    def to_python(self, value):
        if isinstance(value, str):
            try:
                return json.loads(value)
            except json.JSONDecodeError:
                raise ValidationError(
                    {self.name or "?": "Value is not valid JSON."})
        return value

    def from_db(self, value):
        if value is None:
            return None
        return json.loads(value)

    def to_db(self, value):
        if value is None:
            return None
        return json.dumps(value, sort_keys=True)

    def clean(self, value):
        return self.clean_to_db(value)[0]

    def clean_to_db(self, value):
        """Validation is the encoding: the text a write binds is the
        one ``json.dumps`` that proved the value serialisable."""
        if value is None:
            return super().clean(value), None
        try:
            return value, json.dumps(value, sort_keys=True)
        except (TypeError, ValueError):
            raise ValidationError(
                {self.name or "?": "Value is not JSON-serialisable."})


class ForeignKey(Field):
    """Reference to another model's primary key.

    Access via the attribute name returns the related *instance* (fetched
    lazily and cached); the raw id is available at ``<name>_id``.

    Parameters
    ----------
    to:
        Target model class.
    on_delete:
        ``"CASCADE"`` or ``"PROTECT"`` or ``"SET_NULL"``; enforced by the
        generated REFERENCES clause.
    related_name:
        Name of the reverse accessor added to the target model (a manager
        returning the referencing rows).
    """

    db_type = "INTEGER"

    def __init__(self, to, *, on_delete="CASCADE", related_name=None, **kw):
        super().__init__(**kw)
        self.to = to
        self.on_delete = on_delete
        self.related_name = related_name

    def contribute_to_class(self, model, name):
        self.name = name
        self.attname = name + "_id"
        self.column = name + "_id"
        self.model = model
        if self.verbose_name is None:
            self.verbose_name = name.replace("_", " ")
        model._meta.add_field(self)
        setattr(model, name, _ForwardRelationDescriptor(self))

    def to_python(self, value):
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValidationError(
                {self.name or "?": f"{value!r} is not a valid foreign key id."})

    def db_column_sql(self):
        target = self.to
        action = {"CASCADE": "CASCADE", "PROTECT": "RESTRICT",
                  "SET_NULL": "SET NULL"}[self.on_delete]
        sql = super().db_column_sql()
        sql += (f' REFERENCES "{target._meta.table_name}"'
                f'("{target._meta.pk.column}") ON DELETE {action}')
        return sql


#: ``to_python`` implementations that return *every* value of exactly
#: the mapped type unchanged.  Keyed by the function itself, so a
#: subclass that overrides ``to_python`` is not in the table.  Floats
#: are absent (NaN raises); booleans, datetimes and JSON are stored as
#: another type, so reading them always converts.
_IDENTITY_TO_PYTHON = {
    AutoField.to_python: int,
    IntegerField.to_python: int,
    ForeignKey.to_python: int,
    CharField.to_python: str,
}


def identity_type(field):
    """The exact type whose values ``field.from_db`` returns unchanged,
    or None when there is no such type (row hydration then converts
    every non-NULL cell)."""
    cls = type(field)
    if cls.from_db is not Field.from_db:
        return None
    return _IDENTITY_TO_PYTHON.get(cls.to_python)


class _ForwardRelationDescriptor:
    """Instance attribute that lazily resolves a ForeignKey to its object."""

    def __init__(self, field):
        self.field = field

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        cache = instance.__dict__.setdefault("_fk_cache", {})
        if self.field.name in cache:
            return cache[self.field.name]
        fk_id = getattr(instance, self.field.attname, None)
        if fk_id is None:
            return None
        target = self.field.to
        obj = target.objects.using(instance._state_db).get(pk=fk_id)
        cache[self.field.name] = obj
        return obj

    def __set__(self, instance, value):
        cache = instance.__dict__.setdefault("_fk_cache", {})
        if value is None:
            setattr(instance, self.field.attname, None)
            cache.pop(self.field.name, None)
        elif hasattr(value, "pk"):
            setattr(instance, self.field.attname, value.pk)
            cache[self.field.name] = value
        else:
            # Raw id assignment through the relation name.
            setattr(instance, self.field.attname, int(value))
            cache.pop(self.field.name, None)
