"""Assemble the portal: project settings + installed applications.

The Django-style "project": one engine with the shared template set, the
auth middleware on the portal-role database, and the four applications'
URL patterns composed into one site.  The public deployment mounts *no*
admin routes — the admin runs only on the developers' environment with
the admin role (see :func:`build_admin_app`).  Importing this module
loads everything a portal worker serves with, which is why the prefork
supervisor imports it (for :func:`build_prefork_app_factory`) before it
forks: the workers share those pages.
"""

from __future__ import annotations

import os
import sqlite3

from ...serve import (DbFaultInjector, ServeConfig, ServingTier,
                      SqliteSharedStore, WallClock)
from ...webstack import WebApplication, path, render
from ...webstack.auth import AuthMiddleware
from ...webstack.middleware import (ObservabilityMiddleware,
                                    SSLRequiredMiddleware)
from ...webstack.templates import Engine
from ..models import (MachineRecord, SIM_DONE, Simulation, Star)
from ..security import open_role
from .apps import accounts, api, feeds, results, stars, submit
from .captcha import amp_question_bank
from .runtime import PortalRuntime
from .templates import TEMPLATES


class PortalContext:
    """What the applications need from the deployment (no grid objects —
    by construction, the portal cannot reach the grid; the observability
    facade is read/emit-only and carries no credentials)."""

    def __init__(self, catalog, machine_display_names,
                 default_machine_name, *, obs, clock, question_bank=None):
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


def build_portal_app(runtime, *, debug=False, serve=None):
    """The public portal WebApplication, bound to the portal role.

    *runtime* is a :class:`~repro.core.portal.runtime.PortalRuntime`
    (an ``AMPDeployment`` is one): its ``portal_db``, ``catalog``,
    ``obs`` and ``clock`` are all the portal is handed.  The machine
    names on the forms, and which one is the default, are read from
    the back-end registry ``init_db`` wrote.

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
    portal_db = runtime.portal_db
    machines = list(MachineRecord.objects.using(portal_db)
                    .order_by("name"))
    ctx = PortalContext(
        catalog=runtime.catalog,
        machine_display_names={
            record.name: record.display_name for record in machines},
        default_machine_name=next(
            (record.name for record in machines if record.production),
            None),
        obs=runtime.obs, clock=runtime.clock)
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
    # Observability first in the pipeline: request metrics see
    # redirects and errors from the inner middleware/views too.
    middleware = [ObservabilityMiddleware(ctx.obs, portal_db),
                  SSLRequiredMiddleware(), AuthMiddleware(portal_db)]
    tier = None
    if serve is not None:
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


def _init_db_in_child(database_path):
    """Run ``init_db`` in a short-lived forked child, so that the seed
    tables, machine specs and all they import (numpy among them) never
    load into the supervisor the workers fork from."""
    pid = os.fork()
    if pid == 0:   # pragma: no cover - child process
        status = 1
        try:
            from ..bootstrap import init_db
            init_db(database_path)
            status = 0
        finally:
            os._exit(status)
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
        raise RuntimeError(f"init_db failed on {database_path!r}")


def build_prefork_app_factory(database_path, cache_path, *,
                              db_fault_trigger=None, watchdog_s=None):
    """Worker app factory for real-HTTP prefork serving.

    Returns an ``app_factory(index)`` that builds one
    :class:`PortalRuntime` per worker — a portal-role connection opened
    after the fork, so none crosses a process boundary — over the one
    file at *database_path*: a signup or campaign POST handled by one
    worker is immediately visible through every other.  A file without
    the schema is initialised first, in a forked child.  The serving
    tier runs on a :class:`~repro.serve.WallClock`: under the runtime's
    stopped clock cache TTLs and rate-limit refills would freeze.

    Parameters
    ----------
    db_fault_trigger:
        Optional path of a *trigger file*: while it exists, every
        worker's database statements fail as if the database were
        down (the cross-process chaos switch the prefork readiness
        test uses).
    watchdog_s:
        The server's per-request watchdog, when one is armed (see
        :class:`~repro.serve.ServeConfig`).
    """
    connection = sqlite3.connect(database_path)
    try:
        initialised = connection.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'amp_machine'"
        ).fetchone()
    finally:
        connection.close()
    if not initialised:
        _init_db_in_child(database_path)

    def app_factory(index):
        clock = WallClock()
        db_fault = None
        if db_fault_trigger is not None:
            db_fault = DbFaultInjector(clock,
                                       trigger_file=db_fault_trigger)
        runtime = PortalRuntime(open_role(database_path, "portal"))
        return runtime.build_portal(serve=ServeConfig(
            clock=clock,
            shared_store=SqliteSharedStore(cache_path),
            worker_index=index,
            db_fault=db_fault,
            watchdog_s=watchdog_s))

    return app_factory
