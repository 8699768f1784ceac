"""Schema generation — the ORM's ``syncdb`` equivalent.

The paper's authors were initially "skeptical that the ORM would be
sufficiently robust" to own the schema, then found they could reproduce
their hand-written schema "with perfect table/field/type correspondence,
including our desired permissions scheme, all from within Django's ORM",
and rebuild it on demand (including sample data) for test databases.
:func:`create_all` + :func:`bind` provide exactly that workflow.
"""

from __future__ import annotations

from .exceptions import FieldError


def create_table_sql(model):
    """Return the CREATE TABLE (+ index) statements for *model*."""
    meta = model._meta
    columns = [f.db_column_sql() for f in meta.fields]
    constraints = []
    for group in meta.unique_together:
        cols = ", ".join(f'"{meta.field_by_any_name(n).column}"'
                         for n in group)
        constraints.append(f"UNIQUE ({cols})")
    body = ",\n    ".join(columns + constraints)
    statements = [
        f'CREATE TABLE IF NOT EXISTS "{meta.table_name}" (\n    {body}\n)']
    for field in meta.fields:
        if field.db_index and not field.unique and not field.primary_key:
            statements.append(
                f'CREATE INDEX IF NOT EXISTS '
                f'"idx_{meta.table_name}_{field.column}" '
                f'ON "{meta.table_name}" ("{field.column}")')
    # Declarative composite/secondary indexes from Meta.indexes.
    for group in meta.indexes:
        columns = []
        for name in group:
            field = meta.field_by_any_name(name)
            if field is None:
                raise FieldError(
                    f"Meta.indexes names unknown field {name!r} on "
                    f"{model.__name__}")
            columns.append(field.column)
        index_name = f'idx_{meta.table_name}_' + "_".join(columns)
        cols_sql = ", ".join(f'"{c}"' for c in columns)
        statements.append(
            f'CREATE INDEX IF NOT EXISTS "{index_name}" '
            f'ON "{meta.table_name}" ({cols_sql})')
    return statements


def topological_order(models):
    """Order models so FK targets are created before referers."""
    remaining = list(models)
    ordered, placed = [], set()
    guard = 0
    while remaining:
        guard += 1
        if guard > len(models) ** 2 + 10:
            # FK cycle: SQLite tolerates forward references in DDL, so
            # just emit the rest in declaration order.
            ordered.extend(remaining)
            break
        model = remaining.pop(0)
        deps = {fk.to for fk in model._meta.foreign_keys()}
        deps.discard(model)
        if all(d in placed or d not in models for d in deps):
            ordered.append(model)
            placed.add(model)
        else:
            remaining.append(model)
    return ordered


def create_all(models, db):
    """Create tables for *models* on *db* (requires the ``create`` grant)."""
    for model in topological_order(list(models)):
        for sql in create_table_sql(model):
            db.execute(sql, operation="create",
                       table=model._meta.table_name)


def bind(models, db):
    """Set the default database used by these models' managers.

    Per-call ``using()`` overrides remain available; binding just sets the
    fallback so application code reads naturally.
    """
    for model in models:
        model._meta.database = db
