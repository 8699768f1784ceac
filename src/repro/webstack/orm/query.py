"""Lazy QuerySets, Q expressions, and the SQL compiler.

The subset of the Django query API implemented here is exactly the subset
the AMP gateway exercises: chained ``filter``/``exclude`` with field
lookups, ``get``/``first``/``count``/``exists``, ``order_by``, slicing,
``values``/``values_list``, bulk ``update``/``delete``, and ``Q`` objects
for OR'd conditions (the daemon's "jobs in any active state" poll).

QuerySets are lazy and immutable: every refinement returns a clone, and
SQL executes only on iteration or a terminal method.

Batch-oriented access (the set-oriented idiom grid gateways need — see
SDSS/SkyServer, "When Database Systems Meet the Grid"):

- ``select_related("fk__nested_fk")`` — LEFT JOINs eager-load forward
  foreign keys in the same round trip as the base rows;
- ``prefetch_related(name)`` — one batched ``IN``-query per relation
  loads forward FKs or reverse FK sets for *every* fetched row;
- ``prefetch_count(name)`` — one grouped ``COUNT(*)`` per reverse
  relation, for pages that print how many rows there are and never
  read them;
- ``only()``/``defer()`` — column projection (unloaded columns load
  lazily on first access);
- ``bulk_update(objs, fields)`` — one CASE-WHEN UPDATE per batch instead
  of one UPDATE per object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .aggregates import run_aggregate, run_values_count
from .exceptions import FieldError

#: lookup name -> SQL template fragment (``{col}`` is the quoted —
#: possibly table-qualified — column reference; one param).
_LOOKUPS = {
    "exact": '{col} = ?',
    "iexact": 'LOWER({col}) = LOWER(?)',
    "ne": '{col} != ?',
    "gt": '{col} > ?',
    "gte": '{col} >= ?',
    "lt": '{col} < ?',
    "lte": '{col} <= ?',
    "contains": '{col} LIKE ? ESCAPE \'\\\'',
    "icontains": 'LOWER({col}) LIKE LOWER(?) ESCAPE \'\\\'',
    "startswith": '{col} LIKE ? ESCAPE \'\\\'',
    "istartswith": 'LOWER({col}) LIKE LOWER(?) ESCAPE \'\\\'',
    "endswith": '{col} LIKE ? ESCAPE \'\\\'',
}


def _like_escape(value):
    return (str(value).replace("\\", "\\\\")
            .replace("%", r"\%").replace("_", r"\_"))


# ----------------------------------------------------------------------
# Compiled-query cache
# ----------------------------------------------------------------------
#
# SQL string-building is pure: the text depends only on the statement's
# *shape* — model, statement kind, lookup keys (and, for variadic
# lookups like ``in``, the parameter count), ordering, projection,
# joins, limit/offset — never on the bound values.  Hot paths (daemon
# poll sweeps, API pagination, portal stats) issue the same shapes over
# and over, so compilation is memoized per shape.  One walk of the
# conditions yields the shape and the raw values; the SQL and one
# *binder* (converter function) per ``?`` are emitted from the shape
# alone, so key, text and binders cannot disagree, and the parameters
# are always the binders applied to the walked values.  Because the SQL
# text is byte-identical call after call, sqlite3's per-connection
# prepared-statement cache reuses the prepared statement too.

_ALL_LOOKUPS = frozenset(_LOOKUPS) | {"in", "isnull", "range", "mod"}


def _split_lookup(name):
    """``field__lookup`` -> ``(field_name, lookup)``; a name with no
    known lookup suffix is an ``exact`` match on the whole name."""
    field_name, sep, lookup = name.rpartition("__")
    if sep and lookup in _ALL_LOOKUPS:
        return field_name, lookup
    return name, "exact"


def _shape_q(q, values):
    """The one walk of a Q tree: appends raw parameter values to
    *values* (one per ``?`` that ``QueryCompiler.compile_lookup`` emits
    for the leaf, in order) and returns a hashable shape tuple.  Every
    check that needs a lookup's *value* lives here, because the
    compiler never sees one."""
    children = []
    for kind, payload in q.children:
        if kind == "leaf":
            leaf = []
            for key, value in payload.items():
                lookup = _split_lookup(key)[1]
                if lookup == "in":
                    if not isinstance(value, (list, tuple)):
                        # Materialize sets/generators once so every
                        # later walk of this queryset sees the same
                        # elements in the same order.
                        value = list(value)
                        payload[key] = value
                    leaf.append((key, "in", len(value)))
                    values.extend(value)
                elif lookup == "isnull":
                    leaf.append((key, "isnull", bool(value)))
                elif lookup == "range":
                    lo, hi = value
                    leaf.append((key, "range"))
                    values.extend((lo, hi))
                elif lookup == "mod":
                    # ``field__mod=(divisor, remainder)`` or
                    # ``field__mod=(divisor, [r0, r1, ...])`` —
                    # residue-class membership, the primitive behind
                    # sliced (partitioned) sweeps over integer keys.
                    divisor, remainder = value
                    divisor = int(divisor)
                    if divisor <= 0:
                        raise FieldError(
                            "mod lookup needs a positive divisor")
                    if isinstance(remainder,
                                  (list, tuple, set, frozenset)):
                        remainders = sorted({int(r) for r in remainder})
                        leaf.append((key, "mod", len(remainders)))
                        if remainders:
                            # An empty residue set compiles to the
                            # constant "0 = 1" with no parameters.
                            values.append(divisor)
                            values.extend(remainders)
                    else:
                        leaf.append((key, "mod", None))
                        values.append(divisor)
                        values.append(int(remainder))
                else:
                    leaf.append((key, lookup))
                    values.append(value)
            children.append(("leaf", tuple(leaf)))
        else:
            children.append(("node", _shape_q(payload, values)))
    return (q.connector, q.negated, tuple(children))


def _shape_conditions(conditions):
    """Shape + flat raw values for a conditions list (see _shape_q)."""
    values = []
    shape = tuple(_shape_q(q, values) for q in conditions)
    return shape, values


class CompiledQueryCache:
    """Bounded, thread-safe LRU of compiled statement shapes.

    One global instance (``compiled_cache``) serves every model and
    every connection: compiled SQL is independent of which role runs
    it.  Entries are keyed by the model *class object* (so a freshly
    defined test model never collides with a prior one) plus the
    statement kind and the full structural shape.  ``stats()`` exposes
    hits/misses/compiles — ``bench_db_router.py`` pins the poll-sweep
    hit rate against it.  Disabled, it keeps nothing, so every
    statement compiles: the cold reference of the differential tests.
    """

    def __init__(self, capacity=512):
        self.capacity = int(capacity)
        self.enabled = True
        self._entries = OrderedDict()   # least recently used first
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.compiles = 0           # SQL builds: one per miss
        self.evictions = 0

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        with self._lock:
            if not self.enabled:
                return
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.compiles = self.evictions = 0

    def configure(self, *, capacity=None, enabled=None):
        with self._lock:
            if capacity is not None:
                self.capacity = int(capacity)
            if enabled is not None:
                self.enabled = bool(enabled)
                if not self.enabled:
                    self._entries.clear()

    def stats(self):
        total = self.hits + self.misses
        return {"hits": self.hits, "misses": self.misses,
                "compiles": self.compiles, "evictions": self.evictions,
                "size": len(self._entries),
                "hit_rate": self.hits / total if total else 0.0}


#: The process-wide compiled-query cache.
compiled_cache = CompiledQueryCache()


class Q:
    """A composable filter condition.

    ``Q(state="RUNNING") | Q(state="QUEUED")`` compiles to an OR group;
    ``~Q(...)`` negates.  Leaves hold keyword lookups in Django syntax
    (``field``, ``field__lookup``).
    """

    AND = "AND"
    OR = "OR"

    def __init__(self, **lookups):
        self.children = [("leaf", lookups)] if lookups else []
        self.connector = self.AND
        self.negated = False

    def _combine(self, other, connector):
        if not isinstance(other, Q):
            raise TypeError("Q objects can only combine with Q objects")
        combined = Q()
        combined.connector = connector
        for q in (self, other):
            if not q.children:
                continue
            combined.children.append(("node", q))
        return combined

    def __and__(self, other):
        return self._combine(other, self.AND)

    def __or__(self, other):
        return self._combine(other, self.OR)

    def __invert__(self):
        clone = Q()
        clone.children = list(self.children)
        clone.connector = self.connector
        clone.negated = not self.negated
        return clone

    def is_empty(self):
        return not self.children


class QueryCompiler:
    """Compiles condition shapes and queryset state into SQL.

    It is handed shapes, never Q objects or lookup values: what it
    emits depends on nothing the cache key does not hold.  When
    *base_alias* is set (a JOIN query), every base-table column
    reference is qualified with it so joined tables sharing column
    names (every table has ``id``) stay unambiguous.
    """

    def __init__(self, model, base_alias=None):
        self.model = model
        self.meta = model._meta
        self.base_alias = base_alias

    def qualify(self, column):
        """Return the quoted (and qualified, under a JOIN) column ref."""
        if self.base_alias:
            return f'"{self.base_alias}"."{column}"'
        return f'"{column}"'

    # -- condition compilation -----------------------------------------
    def resolve_column(self, name):
        """Map a lookup path like ``name`` or ``name__lookup`` to a column."""
        field_name, lookup = _split_lookup(name)
        if field_name == "pk":
            return self.meta.pk.column, self.meta.pk, lookup
        field = self.meta.field_by_any_name(field_name)
        if field is None:
            raise FieldError(
                f"Unknown field {field_name!r} for model "
                f"{self.model.__name__}; choices are "
                f"{sorted(f.name for f in self.meta.fields)}")
        return field.column, field, lookup

    def compile_lookup(self, key, lookup, detail=None):
        """Compile one leaf of a shape; returns ``(sql, binders)``, one
        binder per ``?`` for the raw value the shape walk collected
        there.  *detail* is the parameter count of ``in``/``mod`` (None
        for a scalar remainder) or the polarity of ``isnull``."""
        col, field, _ = self.resolve_column(key)
        ref = self.qualify(col)
        marshal = lambda v: field.to_db(field.to_python(v))  # noqa: E731
        if lookup == "isnull":
            return (f'{ref} IS NULL' if detail else f'{ref} IS NOT NULL'), []
        if lookup in ("in", "mod") and detail == 0:
            return "0 = 1", []  # an empty IN or residue set matches nothing
        if lookup == "in":
            marks = ", ".join("?" * detail)
            return f'{ref} IN ({marks})', [marshal] * detail
        if lookup == "range":
            return f'{ref} BETWEEN ? AND ?', [marshal, marshal]
        if lookup == "mod":
            if detail is None:
                return f'({ref} % ?) = ?', [int, int]
            marks = ", ".join("?" * detail)
            return f'({ref} % ?) IN ({marks})', [int] * (1 + detail)
        if lookup in ("contains", "icontains"):
            binder = lambda v: f"%{_like_escape(v)}%"  # noqa: E731
        elif lookup in ("startswith", "istartswith"):
            binder = lambda v: f"{_like_escape(v)}%"  # noqa: E731
        elif lookup == "endswith":
            binder = lambda v: f"%{_like_escape(v)}"  # noqa: E731
        else:
            binder = marshal
        return _LOOKUPS[lookup].format(col=ref), [binder]

    def compile_q(self, shape):
        """Compile one Q tree's shape; returns (sql, binders)."""
        connector, negated, children = shape
        fragments, binders = [], []
        for kind, payload in children:
            if kind == "leaf":
                sub = []
                for leaf in payload:
                    sql, b = self.compile_lookup(*leaf)
                    sub.append(sql)
                    binders.extend(b)
                if sub:
                    fragments.append("(" + " AND ".join(sub) + ")")
            else:
                sql, b = self.compile_q(payload)
                if sql:
                    fragments.append("(" + sql + ")")
                    binders.extend(b)
        sql = f" {connector} ".join(fragments)
        if sql and negated:
            sql = f"NOT ({sql})"
        return sql, binders

    def compile_where(self, shapes):
        """Compile the shapes of a conditions list, AND'ed together —
        the tree a Q holding each condition as a child would have."""
        sql, binders = self.compile_q(
            (Q.AND, False, tuple(("node", shape) for shape in shapes)))
        return (" WHERE " + sql if sql else ""), binders

    def compile_order(self, order_by):
        if not order_by:
            order_by = self.meta.ordering
        if not order_by:
            return ""
        terms = []
        for name in order_by:
            desc = name.startswith("-")
            col, _, _ = self.resolve_column(name.lstrip("-"))
            ref = self.qualify(col)
            terms.append(f'{ref} DESC' if desc else f'{ref} ASC')
        return " ORDER BY " + ", ".join(terms)


class QuerySet:
    """A lazy, chainable view over one model's table."""

    #: Set on querysets returned by reverse-relation accessors whose
    #: result cache was primed by ``prefetch_related`` — their ``all()``
    #: serves the cache (the related-manager contract) instead of
    #: cloning into a fresh round trip.
    _sticky_cache = False

    #: Set on querysets returned by reverse-relation accessors whose
    #: size ``prefetch_count`` already read: ``count()`` answers it.
    _known_count = None

    def __init__(self, model, db=None):
        self.model = model
        self._db = db
        self._conditions = []      # list of Q (AND'ed)
        self._order_by = []
        self._limit = None
        self._offset = None
        self._select_related = ()   # FK paths to JOIN-load
        self._prefetch_related = () # relation names to batch-load
        self._prefetch_count = ()   # reverse relations to batch-count
        self._only = None           # field-name allowlist (None = all)
        self._defer = frozenset()   # field-name denylist
        self._result_cache = None

    # ------------------------------------------------------------------
    @property
    def db(self):
        db = self._db or self.model._meta.database
        if db is None:
            raise FieldError(
                f"No database bound for {self.model.__name__}; call "
                "schema.bind(models, db) or pass .using(db)")
        return db

    def _clone(self):
        clone = QuerySet(self.model, self._db)
        clone._conditions = list(self._conditions)
        clone._order_by = list(self._order_by)
        clone._limit = self._limit
        clone._offset = self._offset
        clone._select_related = self._select_related
        clone._prefetch_related = self._prefetch_related
        clone._prefetch_count = self._prefetch_count
        clone._only = None if self._only is None else set(self._only)
        clone._defer = self._defer
        return clone

    def using(self, db):
        clone = self._clone()
        clone._db = db
        return clone

    # -- refinement ------------------------------------------------------
    def filter(self, *qs, **lookups):
        clone = self._clone()
        for q in qs:
            if not isinstance(q, Q):
                raise TypeError("positional arguments must be Q objects")
            if not q.is_empty():
                clone._conditions.append(q)
        if lookups:
            clone._conditions.append(Q(**lookups))
        return clone

    def exclude(self, *qs, **lookups):
        combined = Q()
        combined.children = [("node", q) for q in qs]
        if lookups:
            combined.children.append(("leaf", lookups))
        if not combined.children:
            return self._clone()
        clone = self._clone()
        clone._conditions.append(~combined)
        return clone

    def order_by(self, *names):
        clone = self._clone()
        clone._order_by = list(names)
        return clone

    def all(self):
        if self._sticky_cache and self._result_cache is not None:
            return self
        clone = self._clone()
        # The one refinement that cannot change the count, so the one
        # that keeps a ``prefetch_count`` answer.
        clone._known_count = self._known_count
        return clone

    def none(self):
        clone = self._clone()
        clone._conditions.append(Q(pk__in=[]))
        return clone

    # -- batch-oriented refinement ---------------------------------------
    def select_related(self, *names):
        """Eager-load forward FK paths with LEFT JOINs (one round trip).

        Paths may be nested (``"simulation__owner"``).  Each named
        relation — and every intermediate hop — is hydrated into the
        per-instance FK cache, so attribute traversal afterwards issues
        no queries.
        """
        clone = self._clone()
        merged = dict.fromkeys(self._select_related)
        for name in names:
            self._validate_related_path(name)
            merged[name] = None
        clone._select_related = tuple(merged)
        return clone

    def prefetch_related(self, *names):
        """Batch-load relations with one ``IN``-query per relation name.

        Accepts forward FK names (primes each instance's FK cache) and
        reverse relation names declared via ``related_name`` (primes the
        reverse accessor's result cache, so ``obj.things`` iterates and
        counts without touching the database).
        """
        from .fields import ForeignKey
        clone = self._clone()
        merged = dict.fromkeys(self._prefetch_related)
        meta = self.model._meta
        for name in names:
            field = meta.field_by_any_name(name)
            if not isinstance(field, ForeignKey) \
                    and name not in meta.related_objects:
                raise FieldError(
                    f"Cannot prefetch {name!r} on {self.model.__name__}; "
                    f"choices are "
                    f"{sorted([f.name for f in meta.foreign_keys()] + list(meta.related_objects))}")
            merged[name] = None
        clone._prefetch_related = tuple(merged)
        return clone

    def prefetch_count(self, *names):
        """Batch-count reverse relations with one grouped query each.

        ``obj.things.count()`` then answers from the primed number.
        For a page that prints how many related rows exist and never
        reads them: the question goes to the data, no related row is
        loaded.  (Any refinement of ``obj.things`` queries as usual.)
        """
        clone = self._clone()
        merged = dict.fromkeys(self._prefetch_count)
        for name in names:
            if name not in self.model._meta.related_objects:
                raise FieldError(
                    f"Cannot count {name!r} on {self.model.__name__}; "
                    f"choices are "
                    f"{sorted(self.model._meta.related_objects)}")
            merged[name] = None
        clone._prefetch_count = tuple(merged)
        return clone

    def only(self, *names):
        """Load just *names* (plus pk and JOINed FK columns) from SQL.

        Unloaded columns are deferred: touching one later triggers a
        single-column fetch for that instance.  Use for listings that
        render a few columns of wide rows (e.g. ``Simulation.results``).
        """
        clone = self._clone()
        for name in names:
            self._validate_field_name(name, "only()")
        clone._only = set(names)
        return clone

    def defer(self, *names):
        """Complement of :meth:`only`: load everything except *names*."""
        clone = self._clone()
        for name in names:
            self._validate_field_name(name, "defer()")
        clone._defer = self._defer | frozenset(names)
        return clone

    def _validate_field_name(self, name, where):
        if self.model._meta.field_by_any_name(name) is None:
            raise FieldError(
                f"Unknown field {name!r} in {where} for "
                f"{self.model.__name__}")

    def _validate_related_path(self, path):
        from .fields import ForeignKey
        model = self.model
        for part in path.split("__"):
            field = model._meta.field_by_any_name(part)
            if not isinstance(field, ForeignKey):
                raise FieldError(
                    f"select_related path {path!r}: {part!r} is not a "
                    f"foreign key on {model.__name__}")
            model = field.resolve_target()

    # -- execution ---------------------------------------------------------
    def _join_plan(self):
        """Expand select_related paths into an ordered list of joins.

        Each node: path, alias, parent alias/path, FK field, target model.
        Shared prefixes join once (``"a__b"`` and ``"a__c"`` produce
        three joins, not four).
        """
        plan, by_path = [], {}
        for raw in self._select_related:
            parent_model, parent_alias, walked = self.model, "t0", []
            for part in raw.split("__"):
                walked.append(part)
                key = "__".join(walked)
                node = by_path.get(key)
                if node is None:
                    field = parent_model._meta.field_by_any_name(part)
                    node = {
                        "path": key,
                        "parent_path": "__".join(walked[:-1]) or None,
                        "alias": f"sr{len(plan) + 1}",
                        "parent_alias": parent_alias,
                        "field": field,
                        "target": field.resolve_target(),
                    }
                    by_path[key] = node
                    plan.append(node)
                parent_model, parent_alias = node["target"], node["alias"]
        return plan

    def _projected_fields(self):
        """Fields to SELECT for the base model; None means all of them."""
        meta = self.model._meta
        if self._only is None and not self._defer:
            return None
        deferred = {meta.field_by_any_name(n) for n in self._defer}
        if self._only is not None:
            wanted = {meta.field_by_any_name(n)
                      for n in self._only} - deferred
        else:
            wanted = set(meta.fields) - deferred
        join_fks = {meta.field_by_any_name(p.split("__")[0])
                    for p in self._select_related}
        return [field for field in meta.fields
                if field.primary_key or field in wanted
                or field in join_fks]

    def _compiled(self, kind, extra, emit, base_alias=None):
        """The one place a statement is compiled: ``(sql, params, entry)``.

        One walk of the conditions gives their shape and raw values;
        the cache key is that shape plus *extra*, whatever else the
        text depends on (ordering, projection, an UPDATE's columns).
        On a miss the WHERE and its binders are compiled from the shape
        and ``emit(compiler, where)`` builds the statement around it,
        returning the entry to keep: a dict with at least ``"sql"``.
        *params* are always the entry's binders over the walked values.
        """
        if kind not in ("select", "count") and (
                self._limit is not None or self._offset):
            # These statements carry no LIMIT/OFFSET: ``qs[:10].delete()``
            # would delete every row the conditions match.
            raise FieldError(f"{kind}() cannot follow a slice")
        shape, raw_values = _shape_conditions(self._conditions)
        key = (self.model, kind, shape, *extra)
        entry = compiled_cache.get(key)
        if entry is None:
            compiler = QueryCompiler(self.model, base_alias=base_alias)
            where, binders = compiler.compile_where(shape)
            entry = emit(compiler, where)
            entry["binders"] = binders
            compiled_cache.compiles += 1
            compiled_cache.put(key, entry)
        # strict: a walk and a compile that disagreed would fail here
        # rather than bind a shifted value.
        params = [bind(v) for bind, v
                  in zip(entry["binders"], raw_values, strict=True)]
        return entry["sql"], params, entry

    def _build_select(self):
        """Compile this queryset; returns (sql, params, compiled).

        *compiled* is what depends only on the queryset's shape — the
        compiled-cache entry: the join ``plan``, the base-model
        projection ``fields`` (None = every column) and the row
        ``hydrator`` once a fetch has compiled one.
        """
        return self._compiled(
            "select",
            (tuple(self._order_by), self._limit, self._offset,
             self._select_related,
             None if self._only is None else frozenset(self._only),
             self._defer),
            self._emit_select,
            base_alias="t0" if self._select_related else None)

    def _emit_select(self, compiler, where):
        meta = self.model._meta
        plan = self._join_plan()
        fields = self._projected_fields()
        base_fields = fields if fields is not None else meta.fields
        if plan:
            cols = [f'"t0"."{f.column}" AS "{f.column}"'
                    for f in base_fields]
            for node in plan:
                prefix = node["path"]
                for f in node["target"]._meta.fields:
                    cols.append(f'"{node["alias"]}"."{f.column}" '
                                f'AS "{prefix}__{f.column}"')
            sql = (f'SELECT {", ".join(cols)} '
                   f'FROM "{meta.table_name}" "t0"')
            for node in plan:
                tmeta = node["target"]._meta
                sql += (f' LEFT JOIN "{tmeta.table_name}" '
                        f'"{node["alias"]}" ON '
                        f'"{node["parent_alias"]}".'
                        f'"{node["field"].column}" = '
                        f'"{node["alias"]}"."{tmeta.pk.column}"')
        else:
            if fields is not None:
                col_sql = ", ".join(f'"{f.column}"' for f in base_fields)
            else:
                col_sql = "*"
            sql = f'SELECT {col_sql} FROM "{meta.table_name}"'
        sql += where + compiler.compile_order(self._order_by)
        if self._limit is not None or self._offset is not None:
            sql += f" LIMIT {self._limit if self._limit is not None else -1}"
            if self._offset:
                sql += f" OFFSET {self._offset}"
        return {"sql": sql, "plan": plan, "fields": fields,
                "hydrator": None}

    def _row_hydrator(self, compiled, columns):
        """``hydrate(row, db) -> instance`` for rows laid out as
        *columns* (the cursor's column names): compiled on the first
        fetch of a query shape, kept with its SQL and replayed after.

        Per row it hydrates the base instance, then each
        ``select_related`` node in plan order into its parent's FK
        cache; a NULL foreign key caches None and leaves everything
        below it unhydrated.
        """
        kept = compiled["hydrator"]
        if kept is not None and kept[0] == columns:
            return kept[1]
        index = {}
        for position, column in enumerate(columns):
            index.setdefault(column, position)
        base = self.model._compile_hydrator(index.get,
                                            compiled["fields"])
        slots, steps = {None: 0}, []
        for node in compiled["plan"]:
            prefix = node["path"] + "__"
            steps.append((
                slots[node["parent_path"]], node["field"].name,
                node["field"].attname,
                node["target"]._compile_hydrator(
                    lambda column, prefix=prefix:
                    index.get(prefix + column))))
            slots[node["path"]] = len(steps)

        def hydrate_joined(row, db):
            objs = [base(row, db)]
            for parent_slot, name, attname, related_from in steps:
                parent = objs[parent_slot]
                related = None
                if parent is not None:
                    state = parent.__dict__
                    if state[attname] is not None:
                        related = related_from(row, db)
                    state.setdefault("_fk_cache", {})[name] = related
                objs.append(related)
            return objs[0]

        hydrate = hydrate_joined if steps else base
        # One assignment, so a concurrent fetch reads a matching pair.
        compiled["hydrator"] = (columns, hydrate)
        return hydrate

    def _fetch(self):
        if self._result_cache is not None:
            return self._result_cache
        sql, params, compiled = self._build_select()
        db = self.db
        # A JOIN reads the joined tables too: the role must hold SELECT
        # on every one of them, not just the base table.
        for node in compiled["plan"]:
            db.check_permission("select", node["target"]._meta.table_name)
        cur = db.execute(sql, params, operation="select",
                         table=self.model._meta.table_name)
        hydrate = self._row_hydrator(
            compiled, tuple(column[0] for column in cur.description))
        instances = [hydrate(row, db) for row in cur.fetchall()]
        if instances:
            if self._prefetch_related:
                self._do_prefetch(instances)
            if self._prefetch_count:
                self._do_prefetch_count(instances)
        self._result_cache = instances
        return self._result_cache

    def _do_prefetch(self, instances):
        """One IN-query per prefetch name, priming per-instance caches."""
        from .fields import ForeignKey
        meta = self.model._meta
        for name in self._prefetch_related:
            field = meta.field_by_any_name(name)
            if isinstance(field, ForeignKey):
                target = field.resolve_target()
                ids = sorted({getattr(obj, field.attname)
                              for obj in instances} - {None})
                related = {}
                if ids:
                    related = {obj.pk: obj for obj in
                               target.objects.using(self.db).filter(
                                   pk__in=ids)}
                for obj in instances:
                    cache = obj.__dict__.setdefault("_fk_cache", {})
                    cache[field.name] = related.get(
                        getattr(obj, field.attname))
            else:
                related_model, fk = meta.related_objects[name]
                pks = [obj.pk for obj in instances if obj.pk is not None]
                groups = {}
                for rel in related_model.objects.using(self.db).filter(
                        **{fk.attname + "__in": pks}):
                    groups.setdefault(getattr(rel, fk.attname),
                                      []).append(rel)
                for obj in instances:
                    store = obj.__dict__.setdefault(
                        "_prefetched_objects", {})
                    store[name] = groups.get(obj.pk, [])

    def _do_prefetch_count(self, instances):
        """One GROUP BY per counted relation, priming per-instance
        counts (0 for an instance no related row points at)."""
        pks = [obj.pk for obj in instances if obj.pk is not None]
        for name in self._prefetch_count:
            related_model, fk = self.model._meta.related_objects[name]
            counts = related_model.objects.using(self.db).filter(
                **{fk.attname + "__in": pks}).values_count(fk.attname)
            for obj in instances:
                obj.__dict__.setdefault("_prefetched_counts", {})[name] \
                    = counts.get(obj.pk, 0)

    def __iter__(self):
        return iter(self._fetch())

    def __len__(self):
        return len(self._fetch())

    def __bool__(self):
        return bool(self._fetch())

    def __getitem__(self, item):
        if isinstance(item, slice):
            if (item.start or 0) < 0 or (item.stop is not None and item.stop < 0):
                raise ValueError("Negative slicing is not supported")
            clone = self._clone()
            clone._offset = (self._offset or 0) + (item.start or 0)
            if item.stop is not None:
                clone._limit = item.stop - (item.start or 0)
            return clone
        if item < 0:
            raise ValueError("Negative indexing is not supported")
        return self._fetch()[item]

    # -- terminal methods --------------------------------------------------
    def get(self, *qs, **lookups):
        results = list(self.filter(*qs, **lookups)[:2])
        if not results:
            raise self.model.DoesNotExist(
                f"{self.model.__name__} matching query does not exist "
                f"({lookups!r})")
        if len(results) > 1:
            raise self.model.MultipleObjectsReturned(
                f"get() returned more than one {self.model.__name__}")
        return results[0]

    def first(self):
        results = list(self[:1])
        return results[0] if results else None

    def last(self):
        order = self._order_by or self.model._meta.ordering or ["pk"]
        flipped = [n[1:] if n.startswith("-") else "-" + n for n in order]
        return self.order_by(*flipped).first()

    def count(self):
        """Rows this queryset would fetch; a slice is applied to the
        unsliced ``COUNT(*)``, so it adds no statement shape."""
        if self._result_cache is not None:
            return len(self._result_cache)
        total = self._known_count
        if total is None:
            table = self.model._meta.table_name
            sql, params, _ = self._compiled(
                "count", (), lambda compiler, where: {
                    "sql": f'SELECT COUNT(*) FROM "{table}"' + where})
            total = self.db.execute(sql, params, operation="select",
                                    table=table).fetchone()[0]
        rows = max(total - (self._offset or 0), 0)
        return rows if self._limit is None else min(self._limit, rows)

    def exists(self):
        if self._result_cache is not None:
            return bool(self._result_cache)
        return bool(list(self[:1]))

    def delete(self):
        """Delete matching rows; returns number deleted."""
        table = self.model._meta.table_name
        sql, params, _ = self._compiled(
            "delete", (), lambda compiler, where: {
                "sql": f'DELETE FROM "{table}"' + where})
        cur = self.db.execute(sql, params, operation="delete", table=table)
        if cur.rowcount:
            from ..signals import post_delete
            post_delete.send(self.model, instance=None,
                             rows=cur.rowcount, db=self.db)
        return cur.rowcount

    def update(self, **values):
        """Bulk UPDATE of matching rows; returns number updated.

        Values pass through the same field ``clean()`` pipeline as
        ``save()`` — the strict-typing guarantee holds for bulk writes too.
        """
        if not values:
            return 0
        meta = self.model._meta
        columns, params = [], []
        for name, value in values.items():
            field = meta.field_by_any_name(name)
            if field is None:
                raise FieldError(f"Unknown field {name!r} in update()")
            cleaned = field.clean(value)
            columns.append(field.column)
            params.append(field.to_db(cleaned))
        sql, wparams, _ = self._compiled(
            "update", columns, lambda compiler, where: {
                "sql": f'UPDATE "{meta.table_name}" SET '
                       + ", ".join(f'"{c}" = ?' for c in columns)
                       + where})
        cur = self.db.execute(sql, params + wparams, operation="update",
                              table=meta.table_name)
        if cur.rowcount:
            from ..signals import post_save
            post_save.send(self.model, instance=None, created=False,
                           rows=cur.rowcount, db=self.db)
        return cur.rowcount

    #: Keep one statement comfortably inside SQLite's bound-parameter
    #: ceiling (999 on the oldest deployments still in the wild).
    _BULK_PARAM_BUDGET = 900

    def bulk_update(self, objs, fields, batch_size=None):
        """Write *fields* of *objs* back in one UPDATE per batch.

        Compiles ``SET col = CASE pk WHEN ? THEN ? ... END`` so a poll
        cycle's accumulated state changes cost one round trip instead of
        one per row.  Values pass through ``clean()`` exactly as
        ``save()`` would, and ``auto_now`` timestamp columns are
        re-stamped automatically (matching ``save()`` semantics).
        Returns the number of rows matched.
        """
        from .fields import DateTimeField
        meta = self.model._meta
        objs = [obj for obj in objs if obj.pk is not None]
        if not objs:
            return 0
        field_list = []
        for name in fields:
            field = meta.field_by_any_name(name)
            if field is None:
                raise FieldError(
                    f"Unknown field {name!r} in bulk_update()")
            if field.primary_key:
                raise FieldError("bulk_update() cannot write the primary key")
            if field not in field_list:
                field_list.append(field)
        for field in meta.fields:
            if isinstance(field, DateTimeField) and field.auto_now \
                    and field not in field_list:
                field_list.append(field)
        if not field_list:
            return 0
        if batch_size is None:
            per_row = 2 * len(field_list) + 1
            batch_size = max(1, self._BULK_PARAM_BUDGET // per_row)
        total = 0
        for start in range(0, len(objs), batch_size):
            chunk = objs[start:start + batch_size]
            sets, params = [], []
            for field in field_list:
                whens = []
                for obj in chunk:
                    if isinstance(field, DateTimeField) and field.auto_now:
                        value = field.pre_save(obj, False)
                    else:
                        value = field.clean(getattr(obj, field.attname))
                        setattr(obj, field.attname, value)
                    whens.append("WHEN ? THEN ?")
                    params.extend([meta.pk.to_db(obj.pk),
                                   field.to_db(value)])
                sets.append(
                    f'"{field.column}" = CASE "{meta.pk.column}" '
                    + " ".join(whens) + f' ELSE "{field.column}" END')
            marks = ", ".join("?" for _ in chunk)
            sql = (f'UPDATE "{meta.table_name}" SET ' + ", ".join(sets)
                   + f' WHERE "{meta.pk.column}" IN ({marks})')
            params.extend(meta.pk.to_db(obj.pk) for obj in chunk)
            cur = self.db.execute(sql, params, operation="update",
                                  table=meta.table_name)
            total += cur.rowcount
        if total:
            from ..signals import post_save
            post_save.send(self.model, instance=None, created=False,
                           instances=objs, rows=total, db=self.db)
        return total

    def bulk_create(self, objects, batch_size=None):
        """Create *objects* with multi-row INSERT batches."""
        return self._bulk_insert(list(objects), batch_size=batch_size)

    def _bulk_insert(self, objs, batch_size=None):
        """Multi-row INSERT backing ``bulk_create``.

        Every object passes ``full_clean()`` first — the strict
        marshaling guarantee is identical to ``save()``.  Objects with a
        preset pk are saved row-at-a-time (explicit rowids don't compose
        with multi-row assignment); the rest insert in batches and
        recover their pks from ``lastrowid``.
        """
        from .fields import AutoField, DateTimeField
        meta = self.model._meta
        if not objs:
            return objs
        columns = [f for f in meta.fields if not isinstance(f, AutoField)]
        fresh = []
        for obj in objs:
            if obj.pk is not None or not columns:
                obj.save(db=self.db, force_insert=True)
            else:
                fresh.append(obj)
        if not fresh:
            return objs
        if batch_size is None:
            batch_size = max(1, self._BULK_PARAM_BUDGET
                             // max(len(columns), 1))
        col_sql = ", ".join(f'"{f.column}"' for f in columns)
        row_marks = "(" + ", ".join("?" for _ in columns) + ")"
        for start in range(0, len(fresh), batch_size):
            chunk = fresh[start:start + batch_size]
            params = []
            for obj in chunk:
                obj.full_clean()
                for field in columns:
                    if isinstance(field, DateTimeField):
                        value = field.pre_save(obj, True)
                    else:
                        value = getattr(obj, field.attname)
                    params.append(field.to_db(value))
            sql = (f'INSERT INTO "{meta.table_name}" ({col_sql}) VALUES '
                   + ", ".join([row_marks] * len(chunk)))
            cur = self.db.execute(sql, params, operation="insert",
                                  table=meta.table_name)
            for offset, obj in enumerate(chunk):
                obj.pk = cur.lastrowid - len(chunk) + 1 + offset
                obj._state_adding = False
                obj._state_db = self.db
        from ..signals import post_save
        post_save.send(self.model, instance=None, created=True,
                       instances=fresh, rows=len(fresh), db=self.db)
        return objs

    def values(self, *names):
        """Return a list of dicts restricted to *names* (or all fields)."""
        meta = self.model._meta
        if not names:
            names = [f.attname for f in meta.fields]
        rows = []
        for obj in self._fetch():
            rows.append({n: getattr(obj, n if n != "pk" else meta.pk.attname)
                         for n in names})
        return rows

    def values_list(self, *names, flat=False):
        rows = self.values(*names)
        if flat:
            if len(names) != 1:
                raise FieldError("flat=True requires exactly one field")
            return [r[names[0]] for r in rows]
        return [tuple(r[n] for n in names) for r in rows]

    def in_bulk(self, ids):
        objs = self.filter(pk__in=list(ids))
        return {obj.pk: obj for obj in objs}

    def create(self, **kwargs):
        """Create and save an instance through this queryset's database."""
        obj = self.model(**kwargs)
        obj.save(db=self.db)
        return obj

    def get_or_create(self, defaults=None, **lookups):
        try:
            return self.get(**lookups), False
        except self.model.DoesNotExist:
            params = dict(lookups)
            params.update(defaults or {})
            return self.create(**params), True

    def update_or_create(self, defaults=None, **lookups):
        """Update the matching row with *defaults*, or create it.

        Returns ``(object, created)``.
        """
        defaults = defaults or {}
        try:
            obj = self.get(**lookups)
            for key, value in defaults.items():
                setattr(obj, key, value)
            obj.save(db=self.db)
            return obj, False
        except self.model.DoesNotExist:
            params = dict(lookups)
            params.update(defaults)
            return self.create(**params), True

    def distinct_values(self, field_name):
        """Sorted distinct values of one column."""
        return sorted(run_values_count(self, field_name),
                      key=lambda v: (v is None, v))

    def aggregate(self, **named_aggregates):
        """Run aggregates (Count/Sum/Avg/Min/Max) over this queryset."""
        return run_aggregate(self, named_aggregates)

    def values_count(self, field_name):
        """GROUP BY *field_name*; returns ``{value: count}``."""
        return run_values_count(self, field_name)

    def __repr__(self):  # pragma: no cover
        preview = list(self[:4])
        suffix = ", ..." if len(preview) > 3 else ""
        inner = ", ".join(repr(o) for o in preview[:3])
        return f"<QuerySet [{inner}{suffix}]>"
