"""Aggregate queries: Count/Sum/Avg/Min/Max over QuerySets.

Usage mirrors Django's ``aggregate()``::

    Simulation.objects.filter(state="DONE").aggregate(
        total=Count("id"), su=Sum("su_used"))

and per-column ``values_count()`` provides the GROUP BY the portal's
statistics page needs.
"""

from __future__ import annotations

from .exceptions import FieldError


class Aggregate:
    """Base aggregate: SQL function over one column."""

    function = None

    def __init__(self, field_name):
        self.field_name = field_name

    def sql(self, compiler):
        if self.field_name == "*":
            return f"{self.function}(*)"
        column, _, _ = compiler.resolve_column(self.field_name)
        return f'{self.function}("{column}")'

    def convert(self, value):
        return value


class Count(Aggregate):
    function = "COUNT"

    def convert(self, value):
        return int(value or 0)


class Sum(Aggregate):
    function = "TOTAL"   # SQLite TOTAL: 0.0 instead of NULL on empty

    def convert(self, value):
        return float(value or 0.0)


class Avg(Aggregate):
    function = "AVG"


class Min(Aggregate):
    function = "MIN"


class Max(Aggregate):
    function = "MAX"


def run_aggregate(queryset, named_aggregates):
    """Execute aggregates over *queryset*; returns {name: value}."""
    if not named_aggregates:
        raise FieldError("aggregate() requires at least one aggregate")
    extra = []
    for name, aggregate in named_aggregates.items():
        if not isinstance(aggregate, Aggregate):
            raise FieldError(
                f"aggregate {name!r} is not an Aggregate instance")
        # The class decides the SQL function: it is part of the key.
        extra.append((type(aggregate), aggregate.field_name))
    table = queryset.model._meta.table_name

    def emit(compiler, where):
        selects = ", ".join(aggregate.sql(compiler)
                            for aggregate in named_aggregates.values())
        return {"sql": f'SELECT {selects} FROM "{table}"' + where}

    sql, params, _ = queryset._compiled("aggregate", extra, emit)
    row = queryset.db.execute(sql, params, operation="select",
                              table=table).fetchone()
    return {name: aggregate.convert(row[index]) for index, (name, aggregate)
            in enumerate(named_aggregates.items())}


def run_values_count(queryset, field_name):
    """GROUP BY *field_name* with counts; returns {value: count}."""
    table = queryset.model._meta.table_name

    def emit(compiler, where):
        column, field, _ = compiler.resolve_column(field_name)
        return {"sql": f'SELECT "{column}", COUNT(*) FROM "{table}"'
                       + where + f' GROUP BY "{column}"',
                "field": field}

    sql, params, entry = queryset._compiled(
        "values_count", (field_name,), emit)
    cursor = queryset.db.execute(sql, params, operation="select", table=table)
    field = entry["field"]
    return {field.from_db(value): int(count)
            for value, count in cursor.fetchall()}
