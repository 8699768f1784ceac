"""Wire an AMP deployment along the paper's architecture line (Figure 2).

One constructor per database role — three "servers" whose only meeting
point is the shared database:

- :func:`init_db` — the deploy step, the only code that opens the
  ``admin`` role: schema, catalog seed, back-end registry and
  allocations, the production-machine choice;
- :class:`~repro.core.portal.runtime.PortalRuntime` — the public
  **portal** on the ``portal`` role; never handed a grid object;
- :class:`DaemonRuntime` — the **GridAMP daemon** host on the ``daemon``
  role: community credential, command-line grid clients, the simulated
  grid fabric with the AMP runtime deployed, notifications, monitor.

:class:`AMPDeployment` is all three in one process on one virtual
clock, so examples/tests/benches drive weeks of gateway operation in
milliseconds; ``cli init-db`` / ``serve`` / ``daemon`` run them as the
separate processes the paper deploys.
"""

from __future__ import annotations

from ..grid.breaker import BreakerRegistry
from ..grid.clients import GridClients
from ..grid.fabric import build_fabric
from ..hpc.machines import (DISPLAY_NAMES, TABLE1_MACHINES,
                            select_production_machine)
from ..hpc.simclock import SimClock
from ..obs import Observability
from ..science.observations import BRIGHT_TARGETS, kepler_input_catalog
from ..webstack.auth import create_superuser, create_user
from ..webstack.orm import DeploymentDatabases, bind, create_all
from .daemon import (DEFAULT_POLL_INTERVAL_S, ExternalMonitor,
                     GridAMPDaemon, instance_name)
from .leases import LeaseManager
from .models import (ALL_MODELS, AllocationRecord, MachineRecord, Star,
                     SubmitAuthorization, UserProfile)
from .notifications import Mailer
from .portal.runtime import PortalRuntime
from .remote import deploy_amp
from .security import build_role_registry, open_role

DEFAULT_PROJECT = "TG-AST090056"


def init_db(uri):
    """Initialise the deployment database at *uri* (run once; running
    it again changes no row)."""
    admin = open_role(uri, "admin")
    try:
        _install(admin)
    finally:
        admin.close()


def _install(admin, machines=TABLE1_MACHINES, su_grant=5_000_000.0,
             seed_catalog=True):
    """Everything ``init_db`` does, on the open admin connection;
    returns the machine and allocation rows by machine name."""
    create_all(ALL_MODELS, admin)
    if seed_catalog:
        _seed_catalog(admin)
    return _register_machines(admin, machines, su_grant)


def _seed_catalog(admin):
    """Load the bright-target and Kepler catalogs: one query finds the
    names already there, one batched INSERT creates the rest."""
    qs = Star.objects.using(admin)
    wanted = {name: Star(name=name, hd_number=entry["hd"], source="local")
              for name, entry in BRIGHT_TARGETS.items()}
    for kic_name in kepler_input_catalog():
        wanted.setdefault(
            kic_name, Star(name=kic_name,
                           kic_number=int(kic_name.split()[1]),
                           in_kepler_catalog=True, source="local"))
    existing = set(
        qs.filter(name__in=sorted(wanted)).only("name")
        .values_list("name", flat=True))
    missing = [star for name, star in sorted(wanted.items())
               if name not in existing]
    if missing:
        qs.bulk_create(missing)


def _register_machines(admin, machines, su_grant):
    """Ensure the back-end registry rows exist (idempotent): rows
    already there are loaded instead of duplicated.  Last, the
    production machine — the paper chose Kraken — is marked, which is
    how a portal process, carrying no machine specs, knows its default.
    """
    machine_records = {}
    allocations = {}
    existing = {record.name: record
                for record in MachineRecord.objects.using(admin)}
    existing_allocations = {
        allocation.machine_id: allocation
        for allocation in AllocationRecord.objects.using(
            admin).filter(project=DEFAULT_PROJECT)}
    for machine in machines:
        record = existing.get(machine.name)
        if record is None:
            record = MachineRecord(
                name=machine.name,
                display_name=DISPLAY_NAMES.get(machine.name,
                                               machine.name.title()),
                site=machine.site, enabled=True,
                default_walltime_s=min(6 * 3600.0,
                                       machine.max_walltime_s))
            record.save(db=admin)
        machine_records[machine.name] = record
        allocation = existing_allocations.get(record.pk)
        if allocation is None:
            allocation = AllocationRecord(
                project=DEFAULT_PROJECT, machine_id=record.pk,
                su_granted=su_grant)
            allocation.save(db=admin)
        allocations[machine.name] = allocation
    if not any(record.production for record in existing.values()):
        try:
            chosen = select_production_machine(machines).name
        except ValueError:
            chosen = machines[0].name
        machine_records[chosen].production = True
        machine_records[chosen].save(db=admin)
    return machine_records, allocations


class DaemonRuntime:
    """The daemon host: everything that may touch the grid, over the
    daemon-role *db*.  ``cli daemon`` builds it with a private clock
    and observability facade; :class:`AMPDeployment` hands it its own.
    The simulated grid fabric lives in this object's memory, so one
    daemon *process* per database is what can run; the host runs a
    fleet of lease-partitioned daemon instances inside this process —
    a fleet of one (``daemon-0`` holding slice 0 of 1) being the
    paper's single daemon.
    """

    def __init__(self, db, machines=None, *, clock=None, obs=None,
                 placement_policy="least-wait"):
        self.daemon_db = db
        self.machines = list(machines or TABLE1_MACHINES)
        self.machine_specs = {m.name: m for m in self.machines}
        self.placement_policy = placement_policy
        self.clock = clock if clock is not None else SimClock()
        if obs is None:
            obs = Observability(self.clock)
            obs.observe_database(db)
        self.obs = obs
        bind(ALL_MODELS, db)

        # Grid fabric + AMP runtime on every resource.
        self.fabric = build_fabric(self.machines, self.clock)
        for name in self.fabric.resource_names():
            deploy_amp(self.fabric.resource(name))
        self.mailer = Mailer(self.clock)
        #: Fleet slots: index -> daemon, or None once killed.
        self.fleet = {}
        #: Indexes whose daemon crashed during the last fleet round.
        self.fleet_crashes = []
        self.start_fleet(1)
        self.monitor = ExternalMonitor(self.fleet, self.mailer,
                                       clock=self.clock, obs=self.obs)

    # ``daemon``, ``clients`` and ``breakers`` name fleet slot 0: the
    # whole daemon when the fleet is the paper's fleet of one.
    @property
    def daemon(self):
        return self.fleet[0]

    @property
    def clients(self):
        return self.daemon.clients

    @property
    def breakers(self):
        return self.clients.breakers

    # ------------------------------------------------------------------
    # The daemon fleet: lease-partitioned instances, and the
    # kill/restart harness around them
    # ------------------------------------------------------------------
    def start_fleet(self, n, *, n_slices=None, lease_ttl_s=7200.0):
        """(Re)boot the host with *n* lease-partitioned daemon
        instances over *n_slices* work slices (default: one each).

        Each instance is a separate "process": its own breaker
        registry (tagged with its instance id), grid clients, retry
        tracker, and lease manager — while the database, fabric,
        clock, mailer, and observability store are the shared durable
        world.  Instances already running are killed first.
        """
        for index in list(self.fleet):
            self.kill_daemon(index)
        self.fleet.clear()
        self.fleet_n_slices = int(n_slices or n)
        self.fleet_lease_ttl_s = float(lease_ttl_s)
        return [self._spawn_daemon(index) for index in range(n)]

    def _spawn_daemon(self, index):
        """Boot the daemon process of one fleet slot.  Everything
        host-local to a daemon process is built here and only here: the
        clients and credential, the breaker registry that rides with
        them so every command the daemon shells out is health-checked
        per resource, and the lease manager."""
        instance = instance_name(index)
        leases = LeaseManager(self.daemon_db, self.clock,
                              owner=instance,
                              n_slices=self.fleet_n_slices,
                              ttl_s=self.fleet_lease_ttl_s,
                              obs=self.obs, fabric=self.fabric)
        breakers = BreakerRegistry(self.clock, obs=self.obs,
                                   origin=instance)
        clients = GridClients(self.fabric, gateway_name="AMP",
                              breakers=breakers, obs=self.obs)
        self.fleet[index] = GridAMPDaemon(
            self.daemon_db, clients, self.clock, self.mailer,
            self.machine_specs, instance, leases, self.obs,
            self.placement_policy)
        return self.fleet[index]

    def kill_daemon(self, index):
        """Simulate ``kill -9`` of one fleet member.

        All process-local state vanishes (the slot goes to ``None``);
        the instance's leases stay in the database until they expire,
        at which point surviving peers steal the slices and adopt the
        dead owner's uncommitted intents.  The dead process's event-log
        subscriber is detached so notifications don't double-deliver.
        Returns the dead daemon (tests inspect its in-memory state
        post-mortem).
        """
        daemon = self.fleet.get(index)
        if daemon is None:
            return None
        self.obs.events.unsubscribe("breaker.transition",
                                    daemon._on_breaker_event)
        self.fleet[index] = None
        return daemon

    def restart_daemon(self, index=0):
        """Replace one slot's daemon process after a crash (kill → new
        boot).

        Everything host-local to the dead process is rebuilt from
        scratch — breaker registry, grid clients (and with them the
        credential cache), workflows, retry tracker, lease manager —
        while everything durable (database, fabric, observability
        store, mailer) carries over, exactly the split a real daemon
        bounce has.  The replacement carries the same instance id, so
        its boot sweep *reclaims* its dead incarnation's unexpired
        leases immediately (bumping the fencing token) and replays
        their intents through the takeover path.
        """
        self.kill_daemon(index)
        return self._spawn_daemon(index)

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
        self.fleet_crashes = []
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
                self.fleet_crashes.append(index)
        return transitions

    def run_daemon_until_idle(self, *,
                              poll_interval_s=DEFAULT_POLL_INTERVAL_S,
                              max_polls=100_000):
        """Drive fleet rounds in virtual time until no work remains.

        Repeatedly: advance the clock one poll interval (processing all
        due grid/scheduler events), then poll every live instance.
        Stops when nothing a daemon can make progress on remains (the
        pending count is a global database read, identical from any
        instance), when the whole fleet is dead, or after *max_polls*
        rounds.  A daemon crash propagates to the caller, who decides
        on the restart.  Returns the number of rounds driven.
        """
        rounds = 0
        while rounds < max_polls:
            alive = [d for d in self.fleet.values() if d is not None]
            if not alive or alive[0].pending_count() == 0:
                break
            self.clock.advance(poll_interval_s)
            self.poll_fleet_once(on_crash="raise")
            rounds += 1
        return rounds

    def close(self):
        self.daemon_db.close()


class AMPDeployment(PortalRuntime, DaemonRuntime):
    """``init_db`` + both runtimes in one process, sharing one virtual
    clock, one observability facade and one :class:`DeploymentDatabases`
    (three role connections behind one write gate).  ``database_uri``
    points several deployments at one file-backed store: every
    ``init_db`` step is idempotent, so an already-populated database
    loads rows instead of duplicating them.  The models end up bound to
    the ``admin`` connection, the developers' default; the runtimes
    themselves always name their own role's connection.
    """

    def __init__(self, *, machines=None, su_grant=5_000_000.0,
                 seed_catalog=True, placement_policy="least-wait",
                 database_uri=None, slow_statement_s=None):
        clock = SimClock()
        obs = Observability(clock)
        self.databases = DeploymentDatabases(build_role_registry(),
                                             uri=database_uri)
        for role in ("admin", "portal", "daemon"):
            obs.observe_database(getattr(self.databases, role),
                                 slow_statement_s)
        machines = list(machines or TABLE1_MACHINES)
        self.machine_records, self.allocations = _install(
            self.databases.admin, machines, su_grant, seed_catalog)
        PortalRuntime.__init__(self, self.databases.portal,
                               clock=clock, obs=obs)
        DaemonRuntime.__init__(self, self.databases.daemon, machines,
                               clock=clock, obs=obs,
                               placement_policy=placement_policy)
        bind(ALL_MODELS, self.databases.admin)

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

    def close(self):
        PortalRuntime.close(self)   # response cache, portal connection
        self.databases.close()
