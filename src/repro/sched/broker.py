"""The resource broker: automatic multi-site placement with failover.

The daemon consults the broker in a dedicated poll phase *before* any
workflow advances: every QUEUED simulation carrying the portal's
``MACHINE_AUTO`` sentinel is matched to the best eligible machine and
its estimated SU cost is booked in the ledger — write-ahead, so the
reservation row is durable before the simulation is stamped.  The same
sweep handles **failover**: broker-placed work still sitting QUEUED on
a machine whose circuit breaker has opened (or that an administrator
disabled) is re-placed onto the next-best site, old reservation
released, new one booked.

Eligibility per (simulation, machine):

1. the machine row is enabled;
2. its circuit breaker is CLOSED (``BreakerRegistry.placeable`` — a
   HALF_OPEN machine must finish its probe before taking new load);
3. the owner holds an active :class:`SubmitAuthorization` for it;
4. the estimated SU cost fits ``granted − used − already-reserved``.

Among eligible sites the configured policy (least-wait, round-robin,
pack-by-allocation) expresses preference; within one sweep each
placement bumps the chosen machine's *virtual* queue depth so the next
simulation sees the load this sweep is already creating — that is what
spreads a burst of fifty submissions across sites instead of piling
them all on the instantaneous winner.

The sweep is set-oriented end to end: a bounded number of round trips
(≤ 8) regardless of how many simulations or machines are involved, and
a constant 1 query on an idle steady-state poll.
"""

from __future__ import annotations

from ..core.models import (AllocationRecord, KIND_DIRECT, MACHINE_AUTO,
                           MachineRecord, ReservationRecord, SIM_QUEUED,
                           Simulation, SubmitAuthorization)
from ..hpc.accounting import cpu_hours
from .policy import CandidateSite, PlacementPolicy, get_policy
from .predictor import estimate_queue_wait_s

#: Portal-visible refusal messages (plain language — the same no-jargon
#: rule the mailer enforces).  Keyed by refusal reason.
REFUSAL_MESSAGES = {
    "allocation": (
        "Your simulation is waiting for computing time to become "
        "available on the participating facilities; it will start "
        "automatically."),
    "unavailable": (
        "All computing facilities are temporarily unavailable; your "
        "simulation will start automatically once one recovers."),
    "unauthorized": (
        "Your account is not yet set up to run on the computing "
        "facilities.  The gateway administrators have been notified."),
}


class ResourceBroker:
    """Database-backed placement engine (one per daemon process)."""

    def __init__(self, db, machine_specs, clock, *, breakers, obs,
                 fabric, policy, ledger):
        self.db = db
        self.machine_specs = machine_specs
        self.clock = clock
        self.breakers = breakers
        self.obs = obs
        self.fabric = fabric
        self.policy = (policy if isinstance(policy, PlacementPolicy)
                       else get_policy(policy))
        self.ledger = ledger

    # ------------------------------------------------------------------
    def _crash_check(self, op, when):
        """Fault-harness hook, same contract as the workflow layer's."""
        schedule = getattr(self.fabric, "crash_schedule", None)
        if schedule is not None:
            schedule.check(op, when)

    def _placeable(self, record):
        """May the broker place *new* work on this machine row?"""
        return record.enabled and self.breakers.placeable(record.name)

    def estimate_su(self, simulation, spec):
        """Deterministic SU-cost estimate for one simulation on *spec*.

        Direct runs charge one core for the machine's measured
        benchmark time (exactly what CLEANUP will settle).  For
        optimization runs the estimate anchors on the same benchmark:
        each GA evaluates its population across the requested
        processors, so one iteration costs about one benchmark
        wall-time across ``processors`` cores.
        """
        if simulation.kind == KIND_DIRECT:
            core_seconds = spec.stellar_benchmark_s
        else:
            cfg = simulation.config or {}
            processors = int(cfg.get("processors", 128))
            n_ga = int(cfg.get("n_ga_runs", 4))
            iterations = int(cfg.get("iterations", 200))
            population = int(cfg.get("population_size", 126)) or 1
            rounds = max(1.0, iterations * (population / 126.0) / 100.0)
            core_seconds = n_ga * processors * rounds \
                * spec.stellar_benchmark_s
        return cpu_hours(1, core_seconds) * spec.su_charge_factor

    # ------------------------------------------------------------------
    def place_pending(self, slice_filter):
        """One placement sweep; returns a summary dict.

        Write ordering (the crash-safety contract): new reservation
        rows ``bulk_create`` first, then released rows, then the
        simulation stamps — a crash at any boundary leaves rows the
        boot reconciliation adopts or releases deterministically, and
        never a stamped simulation without its reservation.

        *slice_filter* (``(n_slices, [indexes])``) scopes both the
        pending set and the reservation read to the calling daemon
        instance's leased residue classes: two daemons placing AUTO
        work concurrently operate on provably disjoint simulations, so
        no reservation can be double-booked across owners (the unique
        ``reservation_key`` backstops even that).
        """
        summary = {"placed": 0, "migrated": 0, "refused": 0,
                   "adopted": 0}
        pending = list(Simulation.objects.using(self.db)
                       .filter(state=SIM_QUEUED,
                               machine_name=MACHINE_AUTO,
                               pk__mod=slice_filter)
                       .select_related("owner").order_by("id"))
        if not pending and not self.breakers.open_resources():
            return summary           # steady state: one query, done

        machines = {r.name: r for r in
                    MachineRecord.objects.using(self.db).all()}
        machines_by_pk = {r.pk: r for r in machines.values()}
        reservations = self.ledger.active_reservations(slice_filter)
        allocations = {a.pk: a for a in
                       AllocationRecord.objects.using(self.db).all()}
        reserved_by_alloc = self.ledger.reserved_by_allocation()

        # Failover candidates: broker-placed work still QUEUED on a
        # machine that is no longer placeable.  Manual submissions are
        # never overridden — a user's explicit choice rides the retry
        # and hold machinery instead.
        active_by_sim = {}
        for row in reservations:
            active_by_sim[row.simulation_id] = row
        migrating = []
        for row in reservations:
            simulation = row.simulation
            if (simulation.state == SIM_QUEUED
                    and simulation.machine_name == row.machine_name
                    and row is active_by_sim[simulation.pk]):
                record = machines.get(row.machine_name)
                if record is None or not self._placeable(record):
                    migrating.append(row)

        if not pending and not migrating:
            return summary

        # One authorization query covers every owner in the sweep.
        owner_ids = sorted({s.owner_id for s in pending}
                           | {row.simulation.owner_id
                              for row in migrating})
        auths_by_owner = {}
        for auth in SubmitAuthorization.objects.using(self.db).filter(
                user_id__in=owner_ids, active=True):
            auths_by_owner.setdefault(auth.user_id, []).append(auth)

        #: Load this sweep is itself creating, per machine.
        virtual_depth = {}
        new_rows, released, stamped, refusals = [], [], [], []

        def candidates_for(simulation, *, exclude=()):
            sites = []
            for auth in auths_by_owner.get(simulation.owner_id, []):
                allocation = allocations.get(auth.allocation_id)
                if allocation is None:
                    continue
                record = machines_by_pk.get(auth.machine_id)
                if record is None or record.name in exclude:
                    continue
                if not self._placeable(record):
                    continue
                spec = self.machine_specs.get(record.name)
                if spec is None:
                    continue
                estimated = self.estimate_su(simulation, spec)
                available = (allocation.su_granted - allocation.su_used
                             - reserved_by_alloc.get(allocation.pk, 0.0))
                if estimated > available:
                    continue
                depth = (record.queue_depth
                         + virtual_depth.get(record.name, 0))
                wait = estimate_queue_wait_s(
                    spec, queue_depth=depth,
                    utilisation=record.utilisation)
                sites.append(CandidateSite(
                    machine_name=record.name, record=record, spec=spec,
                    allocation=allocation,
                    estimated_wait_s=wait,
                    estimated_su=estimated,
                    su_available=available))
            return sites

        def book(simulation, site, attempt):
            row = self.ledger.build_reservation(
                simulation, site.allocation, site.machine_name,
                policy_name=self.policy.name,
                estimated_su=site.estimated_su, attempt=attempt)
            new_rows.append(row)
            reserved_by_alloc[site.allocation.pk] = (
                reserved_by_alloc.get(site.allocation.pk, 0.0)
                + site.estimated_su)
            virtual_depth[site.machine_name] = (
                virtual_depth.get(site.machine_name, 0) + 1)
            return row

        def refuse(simulation, reason):
            summary["refused"] += 1
            message = REFUSAL_MESSAGES[reason]
            if simulation.status_message != message:
                simulation.status_message = message
                refusals.append(simulation)
                self._emit("sched.refusal", simulation=simulation.pk,
                           trace_id=simulation.correlation_id,
                           reason=reason)
                self._count("sched_refusals_total",
                            "Placements refused, by reason",
                            reason=reason)

        # Attempt numbering is durable: count *all* reservation rows a
        # simulation ever had, in one grouped query.
        sim_ids = sorted({s.pk for s in pending}
                         | {row.simulation_id for row in migrating})
        attempts = {}
        if sim_ids:
            for row in (ReservationRecord.objects.using(self.db)
                        .filter(simulation_id__in=sim_ids)
                        .only("simulation_id")):
                attempts[row.simulation_id] = (
                    attempts.get(row.simulation_id, 0) + 1)

        def next_attempt(simulation_pk):
            attempts[simulation_pk] = attempts.get(simulation_pk, 0) + 1
            return attempts[simulation_pk]

        # -- new placements -------------------------------------------
        for simulation in pending:
            row = active_by_sim.get(simulation.pk)
            if row is not None:
                # A crash landed between reservation and stamp: adopt
                # the durable decision instead of re-deciding.
                simulation.machine_name = row.machine_name
                stamped.append(simulation)
                summary["adopted"] += 1
                continue
            if not auths_by_owner.get(simulation.owner_id):
                refuse(simulation, "unauthorized")
                continue
            sites = candidates_for(simulation)
            if not sites:
                healthy = any(self._placeable(r)
                              for r in machines.values())
                refuse(simulation,
                       "allocation" if healthy else "unavailable")
                continue
            site = self.policy.choose(simulation, sites)
            row = book(simulation, site, next_attempt(simulation.pk))
            simulation.machine_name = site.machine_name
            simulation.status_message = ""
            stamped.append(simulation)
            summary["placed"] += 1
            self._emit("sched.placement", simulation=simulation.pk,
                       trace_id=simulation.correlation_id,
                       machine=site.machine_name,
                       policy=self.policy.name,
                       attempt=row.attempt,
                       estimated_su=round(site.estimated_su, 6),
                       estimated_wait_s=round(site.estimated_wait_s, 3))
            self._count("sched_placements_total",
                        "Broker placements, by machine and policy",
                        machine=site.machine_name,
                        policy=self.policy.name)

        # -- failover migration ---------------------------------------
        for row in migrating:
            simulation = row.simulation
            from_machine = row.machine_name
            # The old hold is released either way; free it before the
            # funding check so the re-placement may reuse its own SUs.
            reserved_by_alloc[row.allocation_id] = max(
                0.0, reserved_by_alloc.get(row.allocation_id, 0.0)
                - row.estimated_su)
            sites = candidates_for(simulation,
                                   exclude=(from_machine,))
            if sites:
                site = self.policy.choose(simulation, sites)
                book(simulation, site, next_attempt(simulation.pk))
                released.append(self.ledger.release(
                    row, f"migrated to {site.machine_name}"))
                simulation.machine_name = site.machine_name
                simulation.status_message = ""
                to_machine = site.machine_name
            else:
                # Nowhere to go: back to the AUTO pool — a later sweep
                # places it the moment a facility recovers.
                released.append(self.ledger.release(row, "no site"))
                simulation.machine_name = MACHINE_AUTO
                simulation.status_message = \
                    REFUSAL_MESSAGES["unavailable"]
                to_machine = ""
            stamped.append(simulation)
            summary["migrated"] += 1
            self._emit("sched.migration", simulation=simulation.pk,
                       trace_id=simulation.correlation_id,
                       from_machine=from_machine,
                       to_machine=to_machine)
            self._count("sched_migrations_total",
                        "Failover migrations of QUEUED work",
                        from_machine=from_machine)

        # -- durable writes, in crash-safe order ----------------------
        self._crash_check("reserve", "before")
        if new_rows:
            ReservationRecord.objects.using(self.db).bulk_create(
                new_rows)
        self._crash_check("reserve", "after")
        if released:
            ReservationRecord.objects.using(self.db).bulk_update(
                released, self.ledger.RESERVATION_FIELDS)
        if stamped or refusals:
            Simulation.objects.using(self.db).bulk_update(
                stamped + refusals, ["machine_name", "status_message"])
        if summary["placed"] or summary["migrated"] or summary["adopted"]:
            self.obs.metrics.gauge(
                "sched_reserved_su",
                help="SUs held by active reservations").set(
                round(sum(reserved_by_alloc.values()), 6))
        return summary

    # ------------------------------------------------------------------
    def _emit(self, kind, **fields):
        self.obs.events.emit(kind, **fields)

    def _count(self, name, help_text, **labels):
        self.obs.metrics.counter(name, help=help_text).labels(
            **labels).inc()
