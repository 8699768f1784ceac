"""Reusable middleware.

:class:`SSLRequiredMiddleware` implements the portal's §4.2 posture:
"AMP uses Django's SSL authentication and session management support to
ensure that all activities performed by registered users is encrypted."
Anonymous browsing of public pages over plain HTTP is permitted, but any
request that carries (or would establish) a session is redirected to the
HTTPS origin, and session cookies are only ever set with the Secure flag
over HTTPS.

:class:`ObservabilityMiddleware` is the webstack's instrumentation
boundary: installed first in the pipeline, it records per-route request
counters and latency/DB-round-trip histograms into an
:class:`~repro.obs.Observability` registry.
"""

from __future__ import annotations

from .http import HttpResponseRedirect


class SSLRequiredMiddleware:
    """Redirect session-bearing or auth-area requests to HTTPS.

    Parameters
    ----------
    protected_prefixes:
        Path prefixes that always require HTTPS (the auth and
        submission areas).  Defaults cover the AMP portal layout.
    """

    def __init__(self, protected_prefixes=("/accounts/", "/submit/",
                                           "/admin/")):
        self.protected_prefixes = tuple(protected_prefixes)

    def _needs_ssl(self, request):
        if request.COOKIES.get("sessionid"):
            return True       # an established session must stay encrypted
        return any(request.path.startswith(prefix)
                   for prefix in self.protected_prefixes)

    def process_request(self, request):
        if request.is_secure or not self._needs_ssl(request):
            return None
        secure_url = f"https://{request.get_host()}{request.path}"
        query = request.META.get("QUERY_STRING")
        if query:
            secure_url += f"?{query}"
        response = HttpResponseRedirect(secure_url)
        response.status_code = 301   # permanent: clients should learn
        return response


class ObservabilityMiddleware:
    """Per-route request metrics: count, latency, and query round trips.

    Routes are labelled by resolver name (``request.route_name``), not
    raw path, to keep metric cardinality bounded; requests that never
    reached the resolver (middleware short-circuits, 404s) fall under
    ``<unrouted>``.  Latency reads the injected clock — under the sim
    clock a request that performs no virtual work measures 0.0s, which
    is exactly right for deterministic replay.  Query counts come from
    the connection's ``queries_executed`` counter, the batch layer's
    round-trip budget made continuously visible.

    Parameters
    ----------
    obs:
        The :class:`~repro.obs.Observability` facade.
    db:
        The role-scoped :class:`~repro.webstack.orm.Database` whose
        query counter the per-request histogram reads.
    """

    def __init__(self, obs, db):
        self.obs = obs
        self.db = db

    @staticmethod
    def resolve_route(request):
        """Stamp ``request.route_name`` (and cache the full match) now,
        before any later middleware can short-circuit.

        Without this, responses produced by middleware — SSL redirects,
        rate-limit 429s, cache hits — never reach the URL resolver and
        every route's latency collapses into one ``<unrouted>`` bucket.
        The resolved triple is cached on the request so the application
        dispatch reuses it instead of resolving twice.
        """
        from .http import Http404
        app = getattr(request, "app", None)
        if app is None or getattr(request, "_route_match", None):
            return
        try:
            match = app.resolver.resolve_route(request.path)
        except Http404:
            return
        request._route_match = match
        request.route_name = match[1]

    def process_request(self, request):
        request._obs_started_at = self.obs.clock.now
        request._obs_queries_before = self.db.queries_executed
        self.resolve_route(request)
        return None

    def process_response(self, request, response):
        from ..obs.registry import QUERY_COUNT_BUCKETS
        route = getattr(request, "route_name", None) or "<unrouted>"
        status = str(response.status_code)
        metrics = self.obs.metrics
        metrics.counter(
            "http_requests_total",
            help="Requests by route and status").labels(
            route=route, status=status).inc()
        started = getattr(request, "_obs_started_at", None)
        if started is None:
            return response
        metrics.histogram(
            "http_request_seconds",
            help="Request latency (virtual seconds)").labels(
            route=route).observe(self.obs.clock.now - started)
        metrics.histogram(
            "http_request_queries",
            help="Database round trips per request",
            buckets=QUERY_COUNT_BUCKETS).labels(route=route).observe(
            self.db.queries_executed - request._obs_queries_before)
        return response
