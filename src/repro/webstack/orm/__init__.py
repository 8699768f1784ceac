"""A from-scratch Django-style ORM over SQLite.

This package is the substrate standing in for the Django ORM the AMP
paper built on: declarative models with strictly-typed fields, lazy
chainable QuerySets, per-role database connections with table grants, and
on-demand schema generation.  It works identically inside the web portal
and inside standalone programs (the GridAMP daemon) — the property the
paper calls out as the reason a single code base could serve both.
"""

from .aggregates import Avg, Count, Max, Min, Sum
from .connection import (Database, DeploymentDatabases, Grant, RoleRegistry,
                         shared_memory_uri)
from .exceptions import (ConnectionError, FieldError, IntegrityError,
                         MultipleObjectsReturned, ObjectDoesNotExist,
                         ORMError, PermissionDenied, ValidationError)
from .fields import (AutoField, BooleanField, CharField, DateTimeField,
                     EmailField, Field, FloatField, ForeignKey, IntegerField,
                     JSONField, TextField)
from .manager import Manager
from .models import Model, clear_registry, get_registered_model
from .query import CompiledQueryCache, Q, QuerySet, compiled_cache
from .schema import (bind, create_all, create_table_sql, drop_all,
                     required_grants, topological_order)

__all__ = [
    "AutoField", "Avg", "BooleanField", "CharField", "CompiledQueryCache",
    "ConnectionError", "Count", "Database", "Max", "Min", "Sum",
    "DateTimeField", "DeploymentDatabases", "EmailField", "Field",
    "FieldError", "FloatField", "ForeignKey", "Grant", "IntegerField",
    "IntegrityError", "JSONField", "Manager", "Model",
    "MultipleObjectsReturned", "ORMError", "ObjectDoesNotExist",
    "PermissionDenied", "Q", "QuerySet", "RoleRegistry", "TextField",
    "ValidationError", "bind", "clear_registry", "compiled_cache",
    "create_all", "create_table_sql", "drop_all", "get_registered_model",
    "required_grants", "shared_memory_uri", "topological_order",
]
