"""repro.serve — the portal's production serving tier.

What the paper left to "Apache + mod_python on a departmental server",
grown into a real subsystem (see DESIGN.md §10):

- :mod:`repro.serve.workers` — a prefork multi-worker WSGI runner:
  one listening socket, N forked worker processes with their own
  per-role database connections, a supervisor that respawns dead
  workers (with crash-loop backoff), per-request watchdogs, and
  graceful drain on shutdown;
- :mod:`repro.serve.cache` — a read-through response cache (per-worker
  L1 LRU over a shared store) with per-route TTLs, *targeted* write
  invalidation driven by the ORM's post-save/post-delete signals, and
  a stale-grace window for brownout serving;
- :mod:`repro.serve.ratelimit` — per-route token buckets returning
  plain-language 429s with ``Retry-After``;
- :mod:`repro.serve.admission` — per-worker admission control (shed
  excess load *before* any database work, by priority class) and
  per-request deadlines enforced at the connection layer;
- :mod:`repro.serve.health` — database health tracking, brownout
  degradation, and the ``/healthz``/``/readyz`` probe endpoints;
- :mod:`repro.serve.api` — helpers for the JSON campaign API (error
  bodies, parameter-sweep validation/expansion).

Every portal application is built behind the tier — every layer,
always on, in the order :class:`ServingTier` writes down.
:class:`ServeConfig` holds the four values that differ between
deployments; its defaults are the in-process deployment's.
"""

from __future__ import annotations

from ..webstack.auth import AuthMiddleware
from ..webstack.middleware import (ObservabilityMiddleware,
                                   SSLRequiredMiddleware)
from .admission import (AdmissionController, AdmissionMiddleware,
                        AdmissionPolicy, DEFAULT_ROUTE_CLASSES,
                        DeadlineMiddleware, DeadlinePolicy,
                        DeadlineScopeMiddleware, PRIORITY_BULK,
                        PRIORITY_CRITICAL, PRIORITY_INTERACTIVE)
from .cache import (CacheMiddleware, CacheRule, DEFAULT_CACHE_RULES,
                    EXEMPT_ROUTES, InMemorySharedStore, PortalCache,
                    SqliteSharedStore)
from .health import (BrownoutMiddleware, DEFAULT_BROWNOUT_ROUTES,
                     HealthTracker, build_health_routes)
from .ratelimit import (DEFAULT_POLICY, DEFAULT_RATE_POLICIES,
                        RateLimiter, RateLimitMiddleware, RatePolicy)
from .workers import (PreforkServer, WATCHDOG_EXIT, WallClock,
                      mark_worker_process)

__all__ = [
    "AdmissionController", "AdmissionMiddleware", "AdmissionPolicy",
    "BrownoutMiddleware", "CacheMiddleware", "CacheRule",
    "DEFAULT_BROWNOUT_ROUTES", "DEFAULT_CACHE_RULES", "DEFAULT_POLICY",
    "DEFAULT_RATE_POLICIES", "DEFAULT_ROUTE_CLASSES",
    "DeadlineMiddleware", "DeadlinePolicy", "DeadlineScopeMiddleware",
    "EXEMPT_ROUTES", "HealthTracker", "InMemorySharedStore",
    "PRIORITY_BULK", "PRIORITY_CRITICAL", "PRIORITY_INTERACTIVE",
    "PortalCache", "PreforkServer", "RateLimiter",
    "RateLimitMiddleware", "RatePolicy", "ServeConfig", "ServingTier",
    "SqliteSharedStore", "WATCHDOG_EXIT", "WallClock",
    "build_health_routes", "mark_worker_process",
]


class ServeConfig:
    """What differs between two deployments of the serving tier.

    Parameters
    ----------
    clock:
        Clock the cache TTLs, rate-limit buckets, deadlines and health
        window are measured against.  ``None`` inherits the
        deployment's virtual clock (tests and benches advance it
        explicitly).  Real-HTTP serving — the prefork runner — must
        pass a :class:`WallClock`: a deployment's
        :class:`~repro.hpc.simclock.SimClock` never advances on its
        own, so under it token buckets would never refill and cached
        entries would never expire.
    shared_store:
        Cross-worker cache store (None = in-memory, per-process).
    worker_index:
        This process's worker number, stamped on the
        ``serve_worker_up`` gauge (the in-process tier is worker 0).
    watchdog_s:
        The server's per-request watchdog, when one is armed: deadline
        budgets (including the maximum a client may request via
        ``X-Request-Budget-Ms``) are clamped below it, so an
        over-budget request gets its clean 504 before the watchdog
        hard-kills the worker mid-response.
    """

    def __init__(self, *, clock=None, shared_store=None, worker_index=0,
                 watchdog_s=None):
        self.clock = clock
        self.shared_store = shared_store
        self.worker_index = worker_index
        self.watchdog_s = watchdog_s


class ServingTier:
    """The one serving pipeline on the portal-role connection *db*:
    the portal's observability, SSL and auth middleware with the tier's
    layers around them, plus the ``/healthz`` + ``/readyz`` routes.

    Every layer is always on; a test that needs a different policy
    sets it on the built component (``rate_limiter.policies``,
    ``serve_health.min_samples``, a middleware's ``policy``, ...).
    """

    def __init__(self, config, db, *, clock, obs):
        if config.clock is not None:
            clock = config.clock
        # Attaching feeds the tracker real per-statement signals.
        self.serve_health = HealthTracker(clock, obs=obs).attach(db)
        self.admission = AdmissionController(
            clock, obs=obs, health=self.serve_health)
        self.rate_limiter = RateLimiter(clock, obs=obs)
        self.serve_cache = PortalCache(
            clock, shared=config.shared_store,
            obs=obs).connect_invalidation()
        #: ``/healthz`` + ``/readyz``, mounted beside the portal's routes.
        self.routes = build_health_routes(self.serve_health, db)
        self.middleware = [
            # First: request metrics see sheds, 429s and redirects too.
            ObservabilityMiddleware(obs, db),
            # Shed and throttle before any database work.
            AdmissionMiddleware(self.admission),
            RateLimitMiddleware(self.rate_limiter),
            SSLRequiredMiddleware(),
            DeadlineMiddleware(
                clock, db, obs=obs,
                policy=DeadlinePolicy().clamped_to_watchdog(
                    config.watchdog_s)),
            # Fresh and stale cached copies win over the brownout page;
            # both spare a sick database the session lookup and render.
            CacheMiddleware(self.serve_cache, health=self.serve_health),
            BrownoutMiddleware(self.serve_health, obs=obs),
            AuthMiddleware(db),
            # Innermost: first in the reversed response chain, so the
            # deadline hook is disarmed before session saves / cache
            # fills.
            DeadlineScopeMiddleware(db),
        ]
        mark_worker_process(obs, config.worker_index)
