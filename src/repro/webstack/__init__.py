"""webstack — a from-scratch Django-style web framework.

This package is the reproduction's stand-in for the Django framework the
AMP paper built on (Django itself is unavailable in this environment; see
DESIGN.md §2).  It is the size of the portal: each part below has a
caller in the portal, the daemon or the benchmark.

- a SQLite-backed ORM with strictly-typed fields, lazy QuerySets, and
  role-scoped connections with table grants (``webstack.orm``),
- HTTP request/response objects, URL routing, declarative forms, and a
  template engine with the tags and filters the portal's pages use
  (``if``, ``for``, ``block``, ``extends``; always autoescaped),
- the auth framework (users, PBKDF2 hashing, sessions, login),
- an admin interface (sign-in, model index, changelist, change and add
  views) for the operators' own deployment,
- a WSGI-callable :class:`~repro.webstack.application.WebApplication`
  plus an in-process test client.

Crucially — and this is the paper's architectural point — the ORM and
models work identically *outside* any web context, so the GridAMP daemon
imports the very same model definitions the portal serves.
"""

from . import admin, auth, forms, orm, signals, templates
from .application import WebApplication, render
from .pagination import (CursorPage, CursorPaginator, EmptyPage,
                         InvalidCursor, Page, Paginator)
from .http import (Http404, HttpRequest, HttpResponse,
                   HttpResponseBadRequest, HttpResponseForbidden,
                   HttpResponseNotFound, HttpResponseRedirect,
                   HttpResponseServerError, JsonResponse)
from .testclient import Client
from .urls import URLResolver, path

__all__ = [
    "Client", "Http404", "HttpRequest", "HttpResponse",
    "HttpResponseBadRequest", "HttpResponseForbidden",
    "HttpResponseNotFound", "HttpResponseRedirect",
    "HttpResponseServerError", "JsonResponse",
    "CursorPage", "CursorPaginator", "EmptyPage", "InvalidCursor",
    "Page", "Paginator", "URLResolver", "WebApplication",
    "admin", "auth", "forms", "orm", "path", "render",
    "signals", "templates",
]
