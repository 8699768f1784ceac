"""Database health tracking, brownout degradation, and liveness probes.

The portal's availability is the product: when the database behind it
sickens, the tier must *brown out* — keep answering cheaply and
honestly — rather than black out.  Three pieces:

- :class:`HealthTracker` — a sliding window over per-statement
  latency/error signals (fed by the connection ``statement_observer``
  installed with :meth:`HealthTracker.attach`, which wraps the actual
  execution — genuine sqlite failures and real latency count).  Too
  many errors or slow statements flip the tier into **degraded** mode
  (``serve_degraded`` gauge, ``serve.degraded.enter``/``exit``
  events); a quiet period followed by a healthy statement flips it
  back.
- :class:`BrownoutMiddleware` — while degraded, expensive HTML routes
  that have no cached copy return a friendly "reduced service" page
  instead of hammering a sick database (cached — even stale — copies
  are served by the cache middleware before this runs).
- :func:`build_health_routes` — ``/healthz`` (liveness: the process
  answers) and ``/readyz`` (readiness: an actual database probe plus
  the tracker's verdict), the supervisor-facing split between "alive"
  and "fit to serve".
"""

from __future__ import annotations

from collections import deque


def _signals_db_sickness(error):
    """True for failures that mean the database itself is sick.

    Connection-level errors (``DatabaseUnavailable`` among them) and
    raw sqlite errors count; constraint violations are
    application-level and deadline exhaustion is a per-request budget,
    so neither feeds the degradation window.
    """
    import sqlite3
    from ..webstack.orm.exceptions import ConnectionError, IntegrityError
    if isinstance(error, IntegrityError):
        return False
    return isinstance(error, (ConnectionError, sqlite3.Error))


class HealthTracker:
    """Degradation state machine over DB error/latency signals.

    Enter: once at least ``min_samples`` of the last ``window``
    statements are recorded and the bad fraction (errors + statements
    slower than ``slow_statement_s``) reaches ``error_threshold``, the
    tier enters degraded mode.

    Exit: while degraded, the first *healthy* statement observed after
    ``recovery_after_s`` of error silence exits it (half-open
    discipline: recovery is proven by real traffic or a readiness
    probe, never by the mere passage of time).

    All decisions read the injected clock — deterministic under the
    sim clock, honest under a wall clock.
    """

    def __init__(self, clock, *, obs, window=10, min_samples=4,
                 error_threshold=0.5, slow_statement_s=1.0,
                 recovery_after_s=5.0):
        self.clock = clock
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.error_threshold = float(error_threshold)
        self.slow_statement_s = float(slow_statement_s)
        self.recovery_after_s = float(recovery_after_s)
        self.obs = obs
        self._outcomes = deque(maxlen=self.window)
        self.degraded = False
        self.degraded_since = None
        self.last_error_at = None
        self.enter_count = 0
        self._gauge()

    # -- signal intake -------------------------------------------------
    def record_db_ok(self, latency_s=0.0):
        healthy = latency_s <= self.slow_statement_s
        self._outcomes.append(healthy)
        if not healthy:
            self.last_error_at = self.clock.now
            self._maybe_enter()
        elif self.degraded:
            quiet_since = self.last_error_at if self.last_error_at \
                is not None else -float("inf")
            if self.clock.now - quiet_since >= self.recovery_after_s:
                self._exit()
        else:
            self._maybe_enter()

    def record_db_error(self):
        self._outcomes.append(False)
        self.last_error_at = self.clock.now
        self._maybe_enter()

    # -- state machine -------------------------------------------------
    def _maybe_enter(self):
        if self.degraded or len(self._outcomes) < self.min_samples:
            return
        bad = sum(1 for ok in self._outcomes if not ok)
        if bad / len(self._outcomes) >= self.error_threshold:
            self.degraded = True
            self.degraded_since = self.clock.now
            self.enter_count += 1
            self._gauge()
            self.obs.events.emit("serve.degraded.enter",
                                 bad=bad, window=len(self._outcomes))

    def _exit(self):
        was_degraded_for = None
        if self.degraded_since is not None:
            was_degraded_for = self.clock.now - self.degraded_since
        self.degraded = False
        self.degraded_since = None
        self._outcomes.clear()
        self._gauge()
        self.obs.events.emit("serve.degraded.exit",
                             degraded_for_s=was_degraded_for)

    def _gauge(self):
        self.obs.metrics.gauge(
            "serve_degraded",
            help="1 while the tier serves in degraded (brownout) "
                 "mode").set(1 if self.degraded else 0)

    # -- wiring --------------------------------------------------------
    def attach(self, db):
        """Wire this tracker into *db* as its ``statement_observer``,
        so every statement the connection actually runs feeds the
        latency/error window: genuine sqlite errors and real execution
        time."""
        clock = self.clock

        def begin(operation, table):
            started = clock.now

            def finish(error):
                if error is None:
                    self.record_db_ok(clock.now - started)
                elif _signals_db_sickness(error):
                    self.record_db_error()
                # Anything else — deadline exhaustion, permission or
                # constraint violations — says nothing about database
                # health: no sample.

            return finish

        db.statement_observer = begin
        return self

    def probe(self, db):
        """One trivial statement through the hooks; True when the
        database answered (the readiness check's evidence).  *Any*
        failure — unavailable database, raw sqlite error, spent deadline —
        means not-ready: the caller must get the structured 503, never
        an unhandled traceback."""
        try:
            db.ping()
        except Exception:  # noqa: BLE001 - not-ready, whatever broke
            return False
        return True

    def readiness(self):
        """``(ready, reason)`` — *reason* is plain language."""
        if self.degraded:
            return False, ("The service is temporarily running in "
                           "reduced mode while its database recovers.")
        return True, "ready"


#: Routes the brownout refuses while degraded when no cached copy is on
#: hand: the expensive HTML renders (the cache middleware serves warm
#: or stale copies of these *before* this middleware runs).
DEFAULT_BROWNOUT_ROUTES = frozenset({
    "home", "star-list", "star-detail", "sim-list", "sim-detail",
    "sim-hr", "sim-echelle", "sim-hr-svg", "sim-echelle-svg",
    "statistics",
})


class BrownoutMiddleware:
    """While degraded, answer expensive routes cheaply and honestly.

    Sits *after* the cache middleware (so fresh and stale cached copies
    win) and *before* auth/views (so the sick database is spared the
    render).  Cheap routes, probes, and the API pass through — the
    brownout narrows service, it does not close it.
    """

    #: Seconds a refused client is asked to wait before retrying.
    RETRY_AFTER_S = 15

    def __init__(self, health, *, obs):
        self.health = health
        self.routes = DEFAULT_BROWNOUT_ROUTES
        self.obs = obs

    def process_request(self, request):
        if not self.health.degraded:
            return None
        from ..webstack.http import HttpResponse
        from ..webstack.middleware import ObservabilityMiddleware
        ObservabilityMiddleware.resolve_route(request)
        route = getattr(request, "route_name", None)
        if route not in self.routes:
            return None
        self.obs.metrics.counter(
            "serve_brownout_total",
            help="Expensive requests refused while degraded, by "
                 "route").labels(route=route).inc()
        self.obs.events.emit("serve.brownout", route=route)
        response = HttpResponse(
            ("<html><body><h1>Reduced service</h1>"
             "<p>The site is temporarily showing only its most "
             "essential pages while a problem is fixed. Your "
             "simulations keep running. Please try this page again "
             f"in {self.RETRY_AFTER_S} seconds.</p></body></html>"),
            status=503)
        response["Retry-After"] = str(self.RETRY_AFTER_S)
        response["X-Degraded"] = "1"
        return response


def build_health_routes(health, db):
    """``/healthz`` + ``/readyz`` url patterns for the portal site.

    Liveness (``/healthz``) answers 200 whenever the process can run a
    view at all — a supervisor uses it to decide *restart*.  Readiness
    (``/readyz``) probes the database through the resilience hooks and
    reports the tracker's verdict — a load balancer uses it to decide
    *route traffic here*.  Both are exempt from rate limiting, caching,
    and (being CRITICAL class) admission shedding.
    """
    from ..webstack.http import HttpResponse, JsonResponse
    from ..webstack.urls import path

    def healthz(request):
        return HttpResponse("ok\n", content_type="text/plain")

    def readyz(request):
        probe_ok = health.probe(db)
        routes = {"database": probe_ok}
        ready, reason = health.readiness()
        if ready and probe_ok:
            return JsonResponse({"ready": True, "degraded": False,
                                 "routes": routes})
        if not probe_ok:
            reason = "The service cannot reach its database right now."
        response = JsonResponse(
            {"ready": False, "degraded": health.degraded,
             "reason": reason, "routes": routes}, status=503)
        response["Retry-After"] = str(
            max(1, int(health.recovery_after_s)))
        return response

    return [
        path("healthz", healthz, name="healthz"),
        path("readyz", readyz, name="readyz"),
    ]
