"""Assemble the portal: project settings + installed applications.

The Django-style "project": one engine with the shared template set, the
auth middleware on the portal-role database, and the four applications'
URL patterns composed into one site.  The public deployment mounts *no*
admin routes — the admin runs only on the developers' environment with
the admin role (see :func:`build_admin_app`).
"""

from __future__ import annotations

from ...webstack import WebApplication, path, render
from ...webstack.auth import AuthMiddleware
from ...webstack.templates import Engine
from ..models import (MachineRecord, SIM_DONE, Simulation, Star)
from .apps import accounts, api, feeds, results, stars, submit
from .captcha import amp_question_bank
from .templates import TEMPLATES


class PortalContext:
    """What the applications need from the deployment (no grid objects —
    by construction, the portal cannot reach the grid; the observability
    facade is read/emit-only and carries no credentials)."""

    def __init__(self, catalog, machine_display_names,
                 default_machine_name, question_bank=None, obs=None,
                 clock=None):
        self.catalog = catalog
        self.machine_display_names = dict(machine_display_names)
        self.default_machine_name = default_machine_name
        self.question_bank = question_bank or amp_question_bank()
        self.obs = obs
        #: The deployment's virtual clock (read-only): the statistics
        #: page computes lease expiry / heartbeat ages against it.
        self.clock = clock

    def machine_records(self, db):
        return list(MachineRecord.objects.using(db).order_by("name"))


def home_view(request):
    # The list prints describe() and the star's name: JOIN the star and
    # leave the wide JSON columns in the database.
    recent = list(Simulation.objects.using(request.db).filter(
        state=SIM_DONE).order_by("-id").select_related("star")
        .defer("results", "parameters", "config")[:10])
    return render(request, "home.html", {
        "recent": recent,
        "star_count": Star.objects.using(request.db).count(),
        "sim_count": Simulation.objects.using(request.db).count(),
    })


def build_portal_app(deployment, *, debug=False, serve=None):
    """The public portal WebApplication, bound to the portal role.

    Parameters
    ----------
    serve:
        Serving-tier assembly: ``None``/``False`` for the bare portal
        (the seed behaviour), ``True`` for the default
        :class:`~repro.serve.ServeConfig`, or an explicit config.  When
        enabled, the pipeline becomes observability → admission gate →
        rate limiter → SSL → deadlines → response cache → brownout →
        auth → deadline scope, ``/healthz`` + ``/readyz`` are mounted,
        and the returned app exposes ``serve_cache`` /
        ``rate_limiter`` / ``admission`` / ``serve_health`` for tests
        and teardown.
    """
    from ..catalog import StarCatalog
    ctx = PortalContext(
        catalog=StarCatalog(deployment.databases.portal,
                            deployment.simbad),
        machine_display_names={
            name: record.display_name
            for name, record in deployment.machine_records.items()},
        default_machine_name=_default_machine(deployment),
        obs=getattr(deployment, "obs", None),
        clock=getattr(deployment, "clock", None))
    urlpatterns = [path("", home_view, name="home")]
    urlpatterns += accounts.build_routes(ctx)
    urlpatterns += stars.build_routes(ctx)
    urlpatterns += results.build_routes(ctx)
    urlpatterns += submit.build_routes(ctx)
    urlpatterns += feeds.build_routes(ctx)
    # The JSON API mounts unconditionally: its endpoints are plain
    # views, inert until a client calls them.
    urlpatterns += api.build_routes(ctx)
    engine = Engine(templates=dict(TEMPLATES))
    from ...webstack.middleware import (ObservabilityMiddleware,
                                        SSLRequiredMiddleware)
    middleware = []
    if ctx.obs is not None:
        # First in the pipeline: request metrics see redirects and
        # errors from the inner middleware/views too.
        middleware.append(ObservabilityMiddleware(
            ctx.obs, db=deployment.databases.portal))
    serve_cache = rate_limiter = admission = serve_health = None
    if serve:
        from ...serve import (AdmissionController, AdmissionMiddleware,
                              BrownoutMiddleware, CacheMiddleware,
                              DeadlineMiddleware, DeadlineScopeMiddleware,
                              HealthTracker, PortalCache, RateLimiter,
                              RateLimitMiddleware, ServeConfig,
                              WallClock, build_health_routes,
                              mark_worker_process)
        config = serve if isinstance(serve, ServeConfig) else ServeConfig()
        # The config's clock wins: real-HTTP serving passes a
        # WallClock there, because the deployment's SimClock only
        # advances when harness code advances it — inheriting it in a
        # prefork worker would freeze TTLs and rate-limit refills.
        if config.clock is not None:
            clock = config.clock
        else:
            clock = ctx.clock if ctx.clock is not None else WallClock()
        portal_db = deployment.databases.portal
        if config.health:
            health_kwargs = {}
            for attr, kwarg in (
                    ("health_window", "window"),
                    ("health_error_threshold", "error_threshold"),
                    ("health_min_samples", "min_samples"),
                    ("health_recovery_s", "recovery_after_s"),
                    ("health_slow_statement_s", "slow_statement_s")):
                value = getattr(config, attr)
                if value is not None:
                    health_kwargs[kwarg] = value
            serve_health = HealthTracker(clock, obs=ctx.obs,
                                         **health_kwargs)
            # Even with no injector configured, attaching feeds the
            # tracker real per-statement signals.
            serve_health.attach(portal_db, injector=config.db_fault)
            urlpatterns += build_health_routes(serve_health, portal_db)
        elif config.db_fault is not None:
            # No health tracker to wrap it, but the chaos injector
            # still applies (deadline tests run with health off).
            portal_db.fault_hook = config.db_fault
        if config.admission:
            admission = AdmissionController(
                clock, policy=config.admission_policy,
                route_classes=config.route_classes, obs=ctx.obs,
                health=serve_health)
            middleware.append(AdmissionMiddleware(admission))
        if config.ratelimit:
            rate_limiter = RateLimiter(
                clock, policies=config.rate_policies,
                default=config.rate_default, obs=ctx.obs)
            middleware.append(RateLimitMiddleware(rate_limiter))
    middleware.append(SSLRequiredMiddleware())
    if serve:
        if config.deadlines:
            middleware.append(DeadlineMiddleware(
                clock, portal_db, policy=config.deadline_policy,
                obs=ctx.obs))
        if config.cache:
            serve_cache = PortalCache(
                clock, shared=config.shared_store,
                l1_capacity=config.l1_capacity, obs=ctx.obs,
                stale_grace_s=config.stale_grace_s
                if config.health else 0.0).connect_invalidation()
            middleware.append(CacheMiddleware(
                serve_cache, rules=config.cache_rules,
                health=serve_health))
        if serve_health is not None:
            middleware.append(BrownoutMiddleware(
                serve_health, routes=config.brownout_routes,
                obs=ctx.obs))
        mark_worker_process(ctx.obs, config.worker_index)
    middleware.append(AuthMiddleware(deployment.databases.portal))
    if serve and config.deadlines:
        # Innermost: first in the reversed response chain, so the
        # deadline hook is disarmed before session saves / cache fills.
        middleware.append(DeadlineScopeMiddleware(portal_db))
    app = WebApplication(
        urlpatterns, engine=engine, middleware=middleware,
        db=deployment.databases.portal, debug=debug)
    app.serve_cache = serve_cache
    app.rate_limiter = rate_limiter
    app.admission = admission
    app.serve_health = serve_health
    return app


def _default_machine(deployment):
    """Production machine selection (the paper chose Kraken)."""
    from ...hpc.machines import select_production_machine
    try:
        return select_production_machine(deployment.machines).name
    except ValueError:
        return deployment.machines[0].name


def build_admin_app(deployment):
    """The developers' (non-public) admin application: full-privilege
    role, auto-generated CRUD over every core model."""
    from ...webstack.admin import AdminSite
    from ...webstack.auth import User
    from ..models import CORE_MODELS
    site = AdminSite(deployment.databases.admin,
                     title="AMP gateway administration")
    site.register(User)
    for model in CORE_MODELS:
        site.register(model)
    return WebApplication(
        site.routes(),
        middleware=[AuthMiddleware(deployment.databases.admin)],
        db=deployment.databases.admin), site
