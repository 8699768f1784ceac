"""Admission control and request deadlines for the serving tier.

Overload protection happens *before* any database work: the admission
gate decides, from the number of requests already in flight in this
worker, whether one more can be served within a useful time — and sheds
the excess with a fast, plain-language 503 + ``Retry-After`` instead of
letting it queue unboundedly in the kernel backlog.  Shedding is
priority-aware: the supervisor's probes (``/healthz``, ``/readyz``,
``/metrics``) and cheap API reads keep capacity that expensive HTML
renders have already lost, so the tier stays observable and scriptable
while it is saturated.

Every *admitted* request then gets a time budget (server default,
client-overridable via the ``X-Request-Budget-Ms`` header, clamped to a
server-side range).  The deadline is stamped on the request and
enforced at the ORM connection layer: the middleware installs a
``deadline_hook`` on the portal's database connection that raises
:class:`~repro.webstack.orm.exceptions.DeadlineExceeded` once the
budget is spent, so an over-budget request returns a plain-language 504
instead of pinning its worker.  Cache fills inherit the ambient hook —
a read-through fill can never outlive the request that triggered it.

Everything reads the injected clock, so under the sim clock both the
gate and the deadlines are fully deterministic (twin soak runs are
byte-stable).
"""

from __future__ import annotations

import math
import threading

#: Priority classes, best first.  CRITICAL is the supervisor's and the
#: scraper's traffic — it must survive saturation; INTERACTIVE covers
#: cheap JSON/suggest reads; BULK is the expensive HTML renders that
#: overload sheds first.
PRIORITY_CRITICAL = "critical"
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BULK = "bulk"

#: Route name -> priority class.  Routes not listed default to
#: INTERACTIVE; the expensive HTML renders are enumerated as BULK.
DEFAULT_ROUTE_CLASSES = {
    "metrics": PRIORITY_CRITICAL,
    "healthz": PRIORITY_CRITICAL,
    "readyz": PRIORITY_CRITICAL,
    "api-sim-list": PRIORITY_INTERACTIVE,
    "api-campaign-detail": PRIORITY_INTERACTIVE,
    "star-suggest": PRIORITY_INTERACTIVE,
    "home": PRIORITY_BULK,
    "star-list": PRIORITY_BULK,
    "star-detail": PRIORITY_BULK,
    "sim-list": PRIORITY_BULK,
    "sim-detail": PRIORITY_BULK,
    "sim-hr": PRIORITY_BULK,
    "sim-echelle": PRIORITY_BULK,
    "sim-hr-svg": PRIORITY_BULK,
    "sim-echelle-svg": PRIORITY_BULK,
    "statistics": PRIORITY_BULK,
}


class AdmissionPolicy:
    """Capacity shape for one worker's admission gate.

    Parameters
    ----------
    max_inflight:
        Requests this worker will hold in flight at once (its admitted
        capacity — everything past it is shed, whatever its class).
    shares:
        Fraction of ``max_inflight`` each priority class may use.
        CRITICAL gets the whole capacity; lower classes are cut off
        earlier, which is what reserves headroom for probes and API
        reads under saturation.
    retry_after_s:
        The ``Retry-After`` a shed request of each class is told.
        Deterministic by design (no live estimate): the point is a
        fast, honest "come back soon", not a queueing model.
    degraded_bulk_share:
        Extra multiplier applied to the BULK share while the health
        tracker reports degraded — a browning-out tier admits even
        fewer expensive renders so the capacity it has left goes to
        cheap and critical traffic.
    """

    def __init__(self, *, max_inflight=8,
                 shares=None, retry_after_s=None,
                 degraded_bulk_share=0.5):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = int(max_inflight)
        self.shares = dict(shares or {
            PRIORITY_CRITICAL: 1.0,
            PRIORITY_INTERACTIVE: 0.75,
            PRIORITY_BULK: 0.5,
        })
        self.retry_after_s = dict(retry_after_s or {
            PRIORITY_CRITICAL: 1,
            PRIORITY_INTERACTIVE: 2,
            PRIORITY_BULK: 5,
        })
        self.degraded_bulk_share = float(degraded_bulk_share)

    def limit_for(self, priority, *, degraded=False):
        share = self.shares.get(priority, self.shares[PRIORITY_BULK])
        if degraded and priority == PRIORITY_BULK:
            share *= self.degraded_bulk_share
        limit = int(self.max_inflight * share)
        # CRITICAL traffic is never limited below one slot: the
        # supervisor must always be able to probe a live worker.
        if priority == PRIORITY_CRITICAL:
            limit = max(1, limit)
        return limit


class AdmissionTicket:
    """Proof one request holds an in-flight slot (released exactly once)."""

    __slots__ = ("priority", "route", "_released")

    def __init__(self, priority, route):
        self.priority = priority
        self.route = route
        self._released = False


class AdmissionController:
    """The per-worker concurrency gate.

    Tracks requests in flight (by priority class) and admits a new one
    only while the class's limit has headroom.  The controller never
    queues: a request that cannot be admitted is shed immediately, so
    the decision costs a dict lookup and a comparison — overload makes
    the tier *faster* at saying no, not slower at saying yes.

    ``health`` (optional) is a :class:`~repro.serve.health.HealthTracker`;
    while it reports degraded, BULK admission tightens further.
    """

    def __init__(self, clock, *, obs, policy=None, health=None):
        self.clock = clock
        self.policy = policy or AdmissionPolicy()
        self.route_classes = dict(DEFAULT_ROUTE_CLASSES)
        self.obs = obs
        self.health = health
        self._inflight = {PRIORITY_CRITICAL: 0, PRIORITY_INTERACTIVE: 0,
                          PRIORITY_BULK: 0}
        self.admitted_total = 0
        self.shed_total = 0
        # The in-process tier may serve from several threads, so the
        # read-modify-write on the inflight counts is locked (a prefork
        # worker's single thread pays one uncontended acquire).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def classify(self, route):
        return self.route_classes.get(route, PRIORITY_INTERACTIVE)

    @property
    def inflight(self):
        return sum(self._inflight.values())

    def try_admit(self, route):
        """Returns ``(ticket, 0)`` on admission, ``(None, retry_after_s)``
        on shed (counting and event-logging the shed)."""
        priority = self.classify(route)
        degraded = self.health is not None and self.health.degraded
        limit = self.policy.limit_for(priority, degraded=degraded)
        with self._lock:
            inflight = self.inflight
            admitted = inflight < limit
            if admitted:
                self._inflight[priority] += 1
                self.admitted_total += 1
            else:
                self.shed_total += 1
        if not admitted:
            retry_after = self.policy.retry_after_s.get(priority, 5)
            self.obs.metrics.counter(
                "serve_shed_total",
                help="Requests shed by admission control, by route "
                     "and priority class").labels(
                route=route or "<unrouted>", priority=priority).inc()
            self.obs.events.emit(
                "serve.shed", route=route, priority=priority,
                inflight=inflight, retry_after_s=retry_after)
            return None, retry_after
        self._gauge()
        return AdmissionTicket(priority, route), 0

    def release(self, ticket):
        if ticket is None:
            return
        with self._lock:
            if ticket._released:
                return
            ticket._released = True
            self._inflight[ticket.priority] -= 1
        self._gauge()

    def _gauge(self):
        self.obs.metrics.gauge(
            "serve_inflight",
            help="Requests currently admitted and in flight in "
                 "this worker").set(self.inflight)


class AdmissionMiddleware:
    """Shed excess load with a fast, jargon-free 503 before any DB work.

    Installed right after the observability middleware, so shed
    requests keep their route label and their (near-zero) latency
    sample — the shed path is the cheapest response the tier can send.
    """

    def __init__(self, admission):
        self.admission = admission

    def process_request(self, request):
        from ..webstack.http import HttpResponse, JsonResponse
        from ..webstack.middleware import ObservabilityMiddleware
        ObservabilityMiddleware.resolve_route(request)
        route = getattr(request, "route_name", None)
        ticket, retry_after = self.admission.try_admit(route)
        if ticket is not None:
            request._admission_ticket = ticket
            return None
        wait = max(1, int(math.ceil(retry_after)))
        if request.path.startswith("/api/"):
            response = JsonResponse({"error": {
                "message": ("This service is receiving more requests "
                            "than it can answer right now. Please wait "
                            f"{wait} seconds and try again."),
                "retry_after_seconds": wait,
            }}, status=503)
        else:
            response = HttpResponse(
                ("<html><body><h1>Please try again in a moment</h1>"
                 "<p>The site is receiving more requests than it can "
                 f"answer right now. Please wait {wait} seconds and "
                 "reload the page.</p></body></html>"),
                status=503)
        response["Retry-After"] = str(wait)
        return response

    def process_response(self, request, response):
        self.admission.release(getattr(request, "_admission_ticket",
                                       None))
        return response


# ----------------------------------------------------------------------
# Request deadlines
# ----------------------------------------------------------------------

class DeadlinePolicy:
    """Budget shape: server default, clamped client override."""

    #: Request header carrying the client's budget, in milliseconds.
    HEADER = "HTTP_X_REQUEST_BUDGET_MS"

    def __init__(self, *, default_budget_s=15.0, min_budget_s=0.5,
                 max_budget_s=60.0):
        self.default_budget_s = float(default_budget_s)
        self.min_budget_s = float(min_budget_s)
        self.max_budget_s = float(max_budget_s)

    def budget_for(self, request):
        raw = request.META.get(self.HEADER)
        if raw:
            try:
                requested = float(raw) / 1000.0
            except (TypeError, ValueError):
                requested = self.default_budget_s
            return min(self.max_budget_s,
                       max(self.min_budget_s, requested))
        return self.default_budget_s

    def clamped_to_watchdog(self, watchdog_s, *, margin_s=5.0):
        """Return a policy whose budgets always expire before a
        per-request watchdog of *watchdog_s* seconds hard-kills the
        worker: a request legitimately granted the maximum budget must
        get the clean 504 the deadline machinery promises, never a
        dropped connection and a respawn.  ``None``/0 (watchdog
        disabled) returns this policy unchanged."""
        if not watchdog_s or watchdog_s <= 0:
            return self
        ceiling = max(0.1, watchdog_s - min(margin_s,
                                            watchdog_s * 0.25))
        return DeadlinePolicy(
            default_budget_s=min(self.default_budget_s, ceiling),
            min_budget_s=min(self.min_budget_s, ceiling),
            max_budget_s=min(self.max_budget_s, ceiling))


class DeadlineMiddleware:
    """Give every request a time budget, enforced at the ORM layer.

    ``process_request`` stamps ``request.deadline_at`` /
    ``request.budget_s`` and installs the connection ``deadline_hook``;
    the paired :class:`DeadlineScopeMiddleware` — appended *innermost*
    in the pipeline — clears the hook the moment the view returns, so
    post-view work (session saves, cache fills of the frozen response)
    is never torn down mid-write.  ``process_response`` accounts 504s
    (``serve_deadline_exceeded_total`` + ``serve.deadline_exceeded``)
    and rewrites the body as JSON for API clients.

    One worker serves one request at a time (the prefork model), so a
    single hook slot on the shared connection is race-free.
    """

    def __init__(self, clock, db, *, obs, policy=None):
        self.clock = clock
        self.db = db
        self.policy = policy or DeadlinePolicy()
        self.obs = obs

    def process_request(self, request):
        from ..webstack.orm.exceptions import DeadlineExceeded
        budget = self.policy.budget_for(request)
        deadline_at = self.clock.now + budget
        request.budget_s = budget
        request.deadline_at = deadline_at
        clock = self.clock

        def hook(operation, table):
            if clock.now > deadline_at:
                raise DeadlineExceeded(
                    "This request ran out of its "
                    f"{budget:g} second time budget before the page "
                    "could be built. Please try again.")

        self.db.deadline_hook = hook
        return None

    def process_response(self, request, response):
        # The scope middleware normally cleared the hook already; this
        # is the backstop for requests short-circuited before the view.
        self.db.deadline_hook = None
        deadline_at = getattr(request, "deadline_at", None)
        if deadline_at is not None and response.status_code < 500:
            remaining_ms = max(0.0, deadline_at - self.clock.now) * 1000
            response["X-Request-Budget-Remaining-Ms"] = \
                str(int(remaining_ms))
        if response.status_code != 504:
            return response
        route = getattr(request, "route_name", None) or "<unrouted>"
        self.obs.metrics.counter(
            "serve_deadline_exceeded_total",
            help="Requests that exhausted their time budget, by "
                 "route").labels(route=route).inc()
        self.obs.events.emit(
            "serve.deadline_exceeded", route=route,
            budget_s=getattr(request, "budget_s", None))
        if request.path.startswith("/api/"):
            from ..webstack.http import JsonResponse
            budget = getattr(request, "budget_s", None)
            response = JsonResponse({"error": {
                "message": ("This request ran out of its time budget "
                            "before an answer could be built. Please "
                            "try again, or allow more time with the "
                            "X-Request-Budget-Ms header."),
                "budget_seconds": budget,
            }}, status=504)
        return response


class DeadlineScopeMiddleware:
    """Disarm the deadline hook as soon as the view returns.

    Appended *last* (innermost), so in the reversed response chain it
    runs first — before the auth middleware saves sessions and before
    the cache middleware stores the rendered page.  An over-budget
    request still 504s out of its view; what it never does is explode
    mid-teardown.
    """

    def __init__(self, db):
        self.db = db

    def process_response(self, request, response):
        self.db.deadline_hook = None
        return response
