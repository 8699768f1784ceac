"""The portal process: Figure 2's public web server, and nothing else.

"The portal has *no* grid connectivity; it only reads/writes a shared
SQL database."  :class:`PortalRuntime` is that sentence as a process:
one ``portal``-role connection, the models bound to it, the catalog
service, an observability facade and the web application
(:mod:`~repro.core.portal.site`, imported when it is first built, so
that composing a runtime into a daemon-side process costs no portal
code).  Nothing on this side imports :mod:`repro.grid`,
:mod:`repro.hpc`, :mod:`repro.science`, :mod:`repro.sched` or numpy —
a prefork worker loads the portal, not the gateway.
"""

from __future__ import annotations

from ...obs import Observability
from ...webstack.orm import bind
from ..catalog import SimbadService, StarCatalog
from ..models import ALL_MODELS


class StoppedClock:
    """What a portal process knows of the daemon's virtual time:
    nothing, so it reads 0.0 forever.  The statistics page ages lease
    rows against it (as it did against each worker's private,
    never-advanced ``SimClock``); serving is timed by the
    :class:`~repro.serve.WallClock` in its ``ServeConfig``."""

    now = 0.0


class PortalRuntime:
    """Everything a portal process holds, over the portal-role *db*.
    A prefork worker builds it with a private :class:`StoppedClock`
    and observability facade; ``AMPDeployment`` hands it its own."""

    def __init__(self, db, *, clock=None, obs=None):
        self.portal_db = db
        self.clock = clock if clock is not None else StoppedClock()
        if obs is None:
            obs = Observability(self.clock)
            obs.observe_database(db)
        self.obs = obs
        bind(ALL_MODELS, db)
        self.simbad = SimbadService()
        self.catalog = StarCatalog(db, self.simbad)
        self.portal_app = None   # built lazily by build_portal()

    def build_portal(self, *, serve=None):
        """Construct (once) the public portal web application, behind
        the serving tier.

        ``serve`` is the :class:`~repro.serve.ServeConfig` to build
        with; without one the tier runs on ``ServeConfig()``.  The app
        is cached: later calls without ``serve`` return it, and a call
        whose ``serve`` is not what it was built with raises instead
        of handing back a differently built app.
        """
        if self.portal_app is None:
            from ...serve import ServeConfig
            from .site import build_portal_app
            self._portal_serve = serve or ServeConfig()
            self.portal_app = build_portal_app(self,
                                               serve=self._portal_serve)
        elif serve and serve is not self._portal_serve:
            raise ValueError(
                f"the portal is already built with "
                f"serve={self._portal_serve!r}; it cannot be rebuilt "
                f"with serve={serve!r}")
        return self.portal_app

    @property
    def serve_cache(self):
        """The portal's response cache, once the portal is built."""
        return getattr(self.portal_app, "serve_cache", None)

    def close(self):
        cache = self.serve_cache
        if cache is not None:
            cache.close()   # detach ORM signal receivers
        self.portal_db.close()
