"""Wire a complete in-process AMP deployment (Figure 2).

One :class:`AMPDeployment` assembles every component of the paper's
architecture with the separations intact:

- a shared database with three role-scoped connections,
- the public **portal** web application (webstack) using the portal role
  — no grid objects are ever handed to it,
- the **GridAMP daemon** using the daemon role, holding the community
  credential and the command-line grid clients,
- the **grid fabric**: GRAM/GridFTP services fronting simulated TeraGrid
  resources with the AMP runtime deployed,
- notifications, catalog seeds, allocations, and the external monitor.

Everything shares one virtual clock, so examples/tests/benches drive
weeks of gateway operation in milliseconds.
"""

from __future__ import annotations

from ..grid.breaker import BreakerRegistry
from ..grid.clients import GridClients
from ..grid.fabric import build_fabric
from ..hpc.machines import TABLE1_MACHINES, DISPLAY_NAMES
from ..hpc.simclock import SimClock
from ..obs import Observability
from ..webstack.auth import create_superuser, create_user
from ..webstack.orm import DeploymentDatabases, bind, create_all
from .catalog import SimbadService, StarCatalog
from .daemon import ExternalMonitor, GridAMPDaemon
from .models import (ALL_MODELS, AllocationRecord, MachineRecord,
                     SubmitAuthorization, UserProfile)
from .notifications import Mailer
from .remote import deploy_amp
from .security import build_role_registry

DEFAULT_PROJECT = "TG-AST090056"


class AMPDeployment:
    def __init__(self, *, machines=None, su_grant=5_000_000.0,
                 seed_catalog=True, observability=True,
                 placement_policy="least-wait", database_uri=None,
                 slow_statement_s=None):
        self.machines = list(machines or TABLE1_MACHINES)
        self.machine_specs = {m.name: m for m in self.machines}
        self.placement_policy = placement_policy
        self.clock = SimClock()

        # One observability facade for every layer: metrics registry,
        # tracer, and structured event log, all on the shared sim clock.
        # ``observability=False`` swaps in the no-op variant (the
        # overhead bench's uninstrumented baseline); event subscribers
        # (breaker-transition notifications) run either way.
        self.obs = Observability(self.clock, enabled=observability)

        # Shared database, role-scoped connections.  ``database_uri``
        # points several deployments (e.g. prefork worker processes)
        # at one file-backed store; schema creation, catalog seeding,
        # and machine registration are all idempotent, so opening an
        # already-populated database loads rows instead of
        # duplicating them.
        self.databases = DeploymentDatabases(build_role_registry(),
                                             uri=database_uri)
        create_all(ALL_MODELS, self.databases.admin)
        bind(ALL_MODELS, self.databases.admin)
        self._observe_databases(slow_statement_s=slow_statement_s)

        # Grid fabric + AMP runtime on every resource.
        self.fabric = build_fabric(self.machines, self.clock)
        for name in self.fabric.resource_names():
            deploy_amp(self.fabric.resource(name))

        # The daemon host: clients + credential live here only.  The
        # breaker registry rides with the clients so every command the
        # daemon shells out is health-checked per resource.
        self.breakers = BreakerRegistry(self.clock, obs=self.obs)
        self.clients = GridClients(self.fabric, gateway_name="AMP",
                                   breakers=self.breakers, obs=self.obs)
        self.mailer = Mailer(self.clock)
        self.daemon = GridAMPDaemon(self.databases.daemon, self.clients,
                                    self.clock, self.mailer,
                                    self.machine_specs, obs=self.obs,
                                    placement_policy=placement_policy)
        self.monitor = ExternalMonitor(self.daemon, self.mailer,
                                       clock=self.clock, obs=self.obs)

        #: Fleet slots (``start_fleet``): index -> daemon or None
        #: (killed).  Empty until a fleet is started.
        self.fleet = {}
        self.fleet_n_slices = 0
        self.fleet_lease_ttl_s = 0.0

        # Catalog (portal-side service, portal role).
        self.simbad = SimbadService()
        self.catalog = StarCatalog(self.databases.portal, self.simbad)
        if seed_catalog:
            self.catalog.seed()

        # Back-end registry rows (admin-managed).
        self._register_machines(su_grant)

        self.portal_app = None   # built lazily by build_portal()

    # ------------------------------------------------------------------
    def _observe_databases(self, *, slow_statement_s=None):
        """Per-role query counters: the three "servers" become visible.

        Each role connection reports every executed statement into
        ``db_queries_total{role,operation}`` — the portal's and daemon's
        round-trip budgets, continuously measured rather than only
        asserted in tests.  ``slow_statement_s`` arms the slow-statement
        log: statements over the threshold emit ``db.slow_statement``
        events carrying the placeholder SQL (parameter values are never
        interpolated into it, so nothing sensitive leaks) and count
        into ``db_slow_statements_total{role}``.
        """
        if not self.obs.enabled:
            return
        family = self.obs.metrics.counter(
            "db_queries_total",
            help="ORM statements by connection role and operation")
        slow_family = None
        if slow_statement_s is not None:
            slow_family = self.obs.metrics.counter(
                "db_slow_statements_total",
                help="Statements slower than the slow-statement "
                     "threshold, by role")
        for role in ("admin", "portal", "daemon"):
            db = getattr(self.databases, role)
            db.on_execute = (
                lambda operation, table, _role=role:
                family.labels(role=_role, operation=operation).inc())
            if slow_statement_s is not None:
                db.slow_statement_s = float(slow_statement_s)

                def on_slow(sql, duration_s, operation, table,
                            _role=role):
                    slow_family.labels(role=_role).inc()
                    self.obs.events.emit(
                        "db.slow_statement", role=_role, sql=sql,
                        duration_s=duration_s, operation=operation,
                        table=table,
                        threshold_s=float(slow_statement_s))
                db.on_slow_statement = on_slow

    # ------------------------------------------------------------------
    def _register_machines(self, su_grant):
        """Ensure the back-end registry rows exist (idempotent).

        A deployment opening an already-seeded shared database — a
        prefork worker after the supervisor created it — loads the
        existing machine and allocation rows instead of inserting
        duplicates.
        """
        admin = self.databases.admin
        self.machine_records = {}
        self.allocations = {}
        existing = {record.name: record
                    for record in MachineRecord.objects.using(admin)}
        existing_allocations = {
            allocation.machine_id: allocation
            for allocation in AllocationRecord.objects.using(
                admin).filter(project=DEFAULT_PROJECT)}
        for machine in self.machines:
            record = existing.get(machine.name)
            if record is None:
                record = MachineRecord(
                    name=machine.name,
                    display_name=DISPLAY_NAMES.get(machine.name,
                                                   machine.name.title()),
                    site=machine.site, enabled=True,
                    backend=getattr(machine, "backend", "gram"),
                    default_walltime_s=min(6 * 3600.0,
                                           machine.max_walltime_s))
                record.save(db=admin)
            self.machine_records[machine.name] = record
            allocation = existing_allocations.get(record.pk)
            if allocation is None:
                allocation = AllocationRecord(
                    project=DEFAULT_PROJECT, machine_id=record.pk,
                    su_granted=su_grant)
                allocation.save(db=admin)
            self.allocations[machine.name] = allocation

    # ------------------------------------------------------------------
    def create_astronomer(self, username, email=None, password="pw",
                          machines=None, *, approve=True,
                          notify_on_completion=True,
                          notify_each_transition=False):
        """Create an approved gateway user authorized on *machines*."""
        admin = self.databases.admin
        user = create_user(admin, username, email or f"{username}@ucar.edu",
                           password, is_active=approve)
        profile = UserProfile(
            user_id=user.pk, institution="NCAR",
            provenance={"requested_via": "portal",
                        "approved_by": "gateway-admin"},
            notify_on_completion=notify_on_completion,
            notify_each_transition=notify_each_transition)
        profile.save(db=admin)
        for name in (machines or self.machine_specs):
            auth = SubmitAuthorization(
                user_id=user.pk,
                machine_id=self.machine_records[name].pk,
                allocation_id=self.allocations[name].pk, active=True)
            auth.save(db=admin)
        return user

    def create_admin(self, username="gateway-admin", password="adminpw"):
        return create_superuser(self.databases.admin, username,
                                f"{username}@ucar.edu", password)

    # ------------------------------------------------------------------
    def build_portal(self, *, debug=False, serve=None):
        """Construct (once) the public portal web application.

        ``serve`` is a :class:`~repro.serve.ServeConfig` for the
        serving tier; the default ``None`` builds the bare pipeline.
        The app is cached: later calls without ``serve`` return it,
        and a call whose ``serve`` is not what it was built with
        raises instead of handing back a differently built app.
        """
        if self.portal_app is None:
            from .portal.site import build_portal_app
            self.portal_app = build_portal_app(self, debug=debug,
                                               serve=serve)
            self._portal_serve = serve
        elif serve is not None and serve is not self._portal_serve:
            raise ValueError(
                f"the portal is already built with "
                f"serve={self._portal_serve!r}; it cannot be rebuilt "
                f"with serve={serve!r}")
        return self.portal_app

    @property
    def serve_cache(self):
        """The portal's response cache, when the serving tier is on."""
        return getattr(self.portal_app, "serve_cache", None)

    def run_daemon_until_idle(self, *, poll_interval_s=300.0,
                              max_polls=100_000):
        return self.daemon.run(poll_interval_s=poll_interval_s,
                               max_polls=max_polls)

    # ------------------------------------------------------------------
    def restart_daemon(self):
        """Replace the daemon process after a crash (kill → new boot).

        Everything host-local to the dead process is rebuilt from
        scratch — breaker registry, grid clients (and with them the
        credential cache), workflows, retry tracker, monitor — while
        everything durable (database, fabric, observability store,
        mailer) carries over, exactly the split a real daemon bounce
        has.  The new :class:`GridAMPDaemon` runs its reconciliation
        sweep in ``__init__``; the dead process's event-log subscriber
        is detached first so notifications don't double-deliver.
        """
        old = self.daemon
        self.obs.events.unsubscribe("breaker.transition",
                                    old._on_breaker_event)
        self.breakers = BreakerRegistry(self.clock, obs=self.obs)
        self.clients = GridClients(self.fabric, gateway_name="AMP",
                                   breakers=self.breakers, obs=self.obs)
        self.daemon = GridAMPDaemon(self.databases.daemon, self.clients,
                                    self.clock, self.mailer,
                                    self.machine_specs, obs=self.obs,
                                    placement_policy=self.placement_policy)
        self.monitor = ExternalMonitor(self.daemon, self.mailer,
                                       clock=self.clock, obs=self.obs)
        return self.daemon

    # ------------------------------------------------------------------
    # Daemon fleet: lease-partitioned instances (kill/restart harness)
    # ------------------------------------------------------------------
    def start_fleet(self, n, *, n_slices=None, lease_ttl_s=7200.0):
        """Boot *n* lease-partitioned daemon instances.

        Each instance is a separate "process": its own breaker
        registry (tagged with its instance id), grid clients, retry
        tracker, and lease manager — while the database, fabric,
        clock, mailer, and observability store are the shared durable
        world.  The pre-existing singleton daemon is retired (its
        event subscriber detached) so notifications don't
        double-deliver; drive the fleet with ``poll_fleet_once`` /
        ``run_fleet_until_idle``.
        """
        self.obs.events.unsubscribe("breaker.transition",
                                    self.daemon._on_breaker_event)
        self.fleet_n_slices = int(n_slices or n)
        self.fleet_lease_ttl_s = float(lease_ttl_s)
        self.fleet = {}
        for index in range(n):
            self._spawn_fleet_daemon(index)
        return [self.fleet[index] for index in range(n)]

    def _spawn_fleet_daemon(self, index):
        from .leases import LeaseManager
        instance = f"daemon-{index}"
        breakers = BreakerRegistry(self.clock, obs=self.obs,
                                   origin=instance)
        clients = GridClients(self.fabric, gateway_name="AMP",
                              breakers=breakers, obs=self.obs)
        leases = LeaseManager(self.databases.daemon, self.clock,
                              owner=instance,
                              n_slices=self.fleet_n_slices,
                              ttl_s=self.fleet_lease_ttl_s,
                              obs=self.obs, fabric=self.fabric)
        daemon = GridAMPDaemon(self.databases.daemon, clients,
                               self.clock, self.mailer,
                               self.machine_specs, obs=self.obs,
                               placement_policy=self.placement_policy,
                               instance_id=instance, leases=leases)
        self.fleet[index] = daemon
        return daemon

    def kill_daemon(self, index):
        """Simulate ``kill -9`` of one fleet member.

        All process-local state vanishes (the slot goes to ``None``);
        the instance's leases stay in the database until they expire,
        at which point surviving peers steal the slices and adopt the
        dead owner's uncommitted intents.  Returns the dead daemon
        (tests inspect its in-memory state post-mortem).
        """
        daemon = self.fleet.get(index)
        if daemon is None:
            return None
        self.obs.events.unsubscribe("breaker.transition",
                                    daemon._on_breaker_event)
        self.fleet[index] = None
        return daemon

    def restart_fleet_daemon(self, index):
        """Boot a replacement process for one fleet slot.

        The replacement carries the same instance id, so it may
        *reclaim* its dead incarnation's unexpired leases immediately
        (bumping the fencing token) and replay their intents through
        the takeover path.
        """
        if self.fleet.get(index) is not None:
            self.kill_daemon(index)
        return self._spawn_fleet_daemon(index)

    def poll_fleet_once(self, *, on_crash="kill"):
        """One fleet round: every live instance polls, in index order.

        A :class:`~repro.grid.faults.DaemonCrash` fired by the fault
        harness mid-poll kills that instance (slot → ``None``) and the
        round continues with its peers — the in-process analogue of a
        process dying while the rest of the fleet keeps running.  Pass
        ``on_crash="raise"`` to propagate instead.  Crashed indexes
        land in ``fleet_crashes``.
        """
        from ..grid.faults import DaemonCrash
        transitions = 0
        crashed = []
        for index in sorted(self.fleet):
            daemon = self.fleet[index]
            if daemon is None:
                continue
            try:
                transitions += daemon.poll_once()
            except DaemonCrash:
                if on_crash != "kill":
                    raise
                self.kill_daemon(index)
                crashed.append(index)
        self.fleet_crashes = crashed
        return transitions

    def run_fleet_until_idle(self, *, poll_interval_s=300.0,
                             max_rounds=100_000, on_crash="kill"):
        """Drive fleet rounds in virtual time until no work remains.

        Stops when every live instance agrees there is nothing left
        (the pending count is a global database read, identical from
        any instance) or when the whole fleet is dead.  Returns the
        number of rounds driven.
        """
        rounds = 0
        while rounds < max_rounds:
            alive = [d for d in self.fleet.values() if d is not None]
            if not alive or alive[0].pending_count() == 0:
                break
            self.clock.advance(poll_interval_s)
            self.poll_fleet_once(on_crash=on_crash)
            rounds += 1
        return rounds

    def close(self):
        cache = self.serve_cache
        if cache is not None:
            cache.close()   # detach ORM signal receivers
        self.databases.close()


def build_prefork_app_factory(database_path, cache_path, *,
                              db_fault_trigger=None, watchdog_s=None):
    """Worker app factory for real-HTTP prefork serving.

    Creates and seeds one file-backed deployment database up front —
    in the supervisor, before any fork — then returns an
    ``app_factory(index)`` whose per-worker deployments all open *that*
    database.  Every worker therefore reads and writes the same rows
    (a signup or campaign POST handled by one worker is immediately
    visible through every other), while each still opens its own
    SQLite connections after the fork, so none crosses a process
    boundary.  The serving tier is measured against a
    :class:`~repro.serve.WallClock`: a worker's private SimClock never
    advances while serving real HTTP, which would freeze cache TTLs
    and rate-limit refills.

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
    AMPDeployment(database_uri=database_path).close()

    def app_factory(index):
        from ..serve import (DbFaultInjector, ServeConfig,
                             SqliteSharedStore, WallClock)
        deployment = AMPDeployment(database_uri=database_path)
        clock = WallClock()
        db_fault = None
        if db_fault_trigger is not None:
            db_fault = DbFaultInjector(clock,
                                       trigger_file=db_fault_trigger)
        return deployment.build_portal(serve=ServeConfig(
            clock=clock,
            shared_store=SqliteSharedStore(cache_path),
            worker_index=index,
            db_fault=db_fault,
            watchdog_s=watchdog_s))

    return app_factory
