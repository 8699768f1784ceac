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
        ``None`` for the bare portal (routes + observability + SSL +
        auth), or a :class:`~repro.serve.ServeConfig` for the serving
        tier: :class:`~repro.serve.ServingTier` wraps the same three
        middleware in its one pipeline and mounts ``/healthz`` +
        ``/readyz``.  Either way the returned app carries
        ``serve_cache`` / ``rate_limiter`` / ``admission`` /
        ``serve_health`` (``None`` on the bare portal) for tests and
        teardown.
    """
    from ..catalog import StarCatalog
    portal_db = deployment.databases.portal
    ctx = PortalContext(
        catalog=StarCatalog(portal_db, deployment.simbad),
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
    middleware = [SSLRequiredMiddleware(), AuthMiddleware(portal_db)]
    if ctx.obs is not None:
        # First in the pipeline: request metrics see redirects and
        # errors from the inner middleware/views too.
        middleware.insert(0, ObservabilityMiddleware(
            ctx.obs, db=portal_db))
    tier = None
    if serve is not None:
        from ...serve import ServingTier
        tier = ServingTier(serve, portal_db, middleware,
                           clock=ctx.clock, obs=ctx.obs)
        urlpatterns += tier.routes
        middleware = tier.middleware
    app = WebApplication(
        urlpatterns, engine=engine, middleware=middleware,
        db=portal_db, debug=debug)
    for handle in ("serve_cache", "rate_limiter", "admission",
                   "serve_health"):
        setattr(app, handle, getattr(tier, handle, None))
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
