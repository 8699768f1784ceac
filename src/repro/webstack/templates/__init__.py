"""A from-scratch Django-style template engine.

Implements the template-language subset the AMP portal uses: variable
interpolation with filters, ``{% if %}``/``{% for %}`` control flow,
``{% block %}``/``{% extends %}`` inheritance, ``{# #}`` comments, and
autoescaping (always on) with safe-string marks.
"""

from .context import Context, SafeString, VariableDoesNotExist, escape, mark_safe
from .engine import Engine, Template
from .filters import FILTERS, get_filter
from .lexer import TemplateSyntaxError, tokenize

__all__ = [
    "Context", "Engine", "FILTERS", "SafeString", "Template",
    "TemplateSyntaxError", "VariableDoesNotExist", "escape", "get_filter",
    "mark_safe", "tokenize",
]
