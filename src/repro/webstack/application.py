"""The web application object: middleware pipeline + URL dispatch + WSGI.

A :class:`WebApplication` is the webstack's "project": it owns the URL
resolver, the template engine, an ordered middleware list, and the
database connection its views use.  It is callable as a WSGI app and
drivable in-process by the test client — no socket required, which is how
the integration tests exercise the full portal.
"""

from __future__ import annotations

from .http import (Http404, HttpRequest, HttpResponse,
                   HttpResponseNotFound, HttpResponseServerError)
from .orm.exceptions import DatabaseUnavailable, DeadlineExceeded
from .signals import request_finished, request_started
from .templates import Context, Engine
from .urls import URLResolver


class WebApplication:
    """A routable, middleware-wrapped web application.

    Parameters
    ----------
    urlpatterns:
        List of :func:`~repro.webstack.urls.path` entries.
    engine:
        Template :class:`~repro.webstack.templates.Engine` views render
        through.
    middleware:
        Objects with optional ``process_request(request)`` and
        ``process_response(request, response)`` methods, applied in order
        (and reverse order for responses).
    db:
        The role-scoped database views should use; exposed as
        ``request.db``.

    An unhandled exception answers a generic 500 page: no traceback
    ever reaches a browser.
    """

    def __init__(self, urlpatterns, *, engine=None, middleware=(),
                 db=None):
        self.resolver = URLResolver(urlpatterns)
        self.engine = engine or Engine()
        self.middleware = list(middleware)
        self.db = db

    # ------------------------------------------------------------------
    def handle(self, request):
        """Process one :class:`HttpRequest` into an :class:`HttpResponse`."""
        request.app = self
        request.db = self.db
        request_started.send(self, request=request)
        try:
            response = self._handle_inner(request)
        except Exception as exc:  # noqa: BLE001 - the framework boundary
            response = self._response_for_exception(request, exc)
        for mw in reversed(self.middleware):
            if hasattr(mw, "process_response"):
                # A response-phase failure (say, a session save against
                # a database that just went down) must not abort the
                # rest of the chain: the outer middleware still has to
                # run — the admission gate releases its in-flight
                # ticket here, and a skipped release would permanently
                # shrink the worker's capacity.
                try:
                    response = mw.process_response(request, response)
                except Exception as exc:  # noqa: BLE001
                    response = self._response_for_exception(request, exc)
        request_finished.send(self, request=request, response=response)
        return response

    def _response_for_exception(self, request, exc):
        """Convert an exception from a view or middleware into the
        user-facing error response (called from an ``except`` block)."""
        if isinstance(exc, Http404):
            return self._error_response(
                HttpResponseNotFound, "404 Not Found", str(exc))
        if isinstance(exc, DeadlineExceeded):
            # An over-budget request: stop working on it and say so in
            # plain language instead of holding the worker.  The serving
            # tier's deadline middleware counts these and rewrites the
            # body for API clients.
            request.deadline_exceeded = True
            return HttpResponse(
                ("<html><body><h1>This page took too long</h1>"
                 "<p>Building this page took longer than the time "
                 "available for one request. Please try again; if this "
                 "keeps happening, the site is likely under heavy "
                 "load.</p></body></html>"), status=504)
        if isinstance(exc, DatabaseUnavailable):
            # The database did not answer.  The cache middleware may
            # still replace this with a recent saved copy of the page.
            request.database_unavailable = True
            response = HttpResponse(
                ("<html><body><h1>Please try again shortly</h1>"
                 "<p>The information this page needs is temporarily "
                 "unavailable. Nothing you submitted has been lost. "
                 "Please try again in a moment.</p></body></html>"),
                status=503)
            response["Retry-After"] = "15"
            return response
        return self._error_response(
            HttpResponseServerError, "500 Server Error",
            "An internal error occurred.")

    def _handle_inner(self, request):
        for mw in self.middleware:
            if hasattr(mw, "process_request"):
                short_circuit = mw.process_request(request)
                if short_circuit is not None:
                    return short_circuit
        match = getattr(request, "_route_match", None)
        if match is None:   # no middleware resolved it eagerly
            match = self.resolver.resolve_route(request.path)
        route, route_name, kwargs = match
        request.resolver_kwargs = kwargs
        request.route_name = route_name
        view = route.view
        response = view(request, **kwargs)
        if not isinstance(response, HttpResponse):
            raise TypeError(
                f"View {getattr(view, '__name__', view)!r} returned "
                f"{type(response).__name__}, not HttpResponse")
        return response

    @staticmethod
    def _error_response(cls, title, detail):
        body = (f"<html><head><title>{title}</title></head>"
                f"<body><h1>{title}</h1><pre>{detail}</pre></body></html>")
        return cls(body.encode("utf-8"))

    # ------------------------------------------------------------------
    def render(self, request, template_name, data=None, status=200):
        """Shortcut used by views: render a template to a response."""
        context_data = dict(data or {})
        context_data.setdefault("request", request)
        context_data.setdefault("user", getattr(request, "user", None))
        context = Context(context_data)
        content = self.engine.get_template(template_name).render(
            context=context)
        return HttpResponse(content, status=status)

    # -- WSGI ------------------------------------------------------------
    def __call__(self, environ, start_response):
        request = HttpRequest(environ)
        response = self.handle(request)
        status = f"{response.status_code} {response.reason_phrase}"
        start_response(status, response.wsgi_headers())
        return [response.content]


def render(request, template_name, data=None, status=200):
    """Module-level render shortcut (requires ``request.app``)."""
    return request.app.render(request, template_name, data, status=status)
