"""The GridAMP workflow daemon.

"The GridAMP daemon manages the workflow of AMP simulations on remote
grid resources.  It reads simulation information from the centralized
database, performs the necessary grid client actions, and updates the
database accordingly."  (§4.4)

The poll cycle implements the paper's two-level status management,
both levels in the database:

1. **Generic grid-job update** — every non-terminal
   :class:`~repro.core.models.GridJobRecord` has its GRAM state
   refreshed through the command-line clients, "identical for all grid
   jobs regardless of purpose [...] or execution method"; no callbacks
   fire here.  The machine's ``qstat``, taken first in every poll,
   lists the state of each of the gateway's jobs still queued or
   running there, and level 1's SELECT excludes every job listed in
   the state its row records: only a job whose listed state differs
   or that has left the listing is loaded and sent
   ``globus-job-status`` (a machine with no listing has every job
   polled).  So a recorded state is at most one poll interval stale,
   and a poll loads and polls the jobs that changed, not every job in
   flight.
2. **Workflow advancement** — each active simulation's workflow manager
   "simply retrieves the last-known status of the appropriate job and
   waits or proceeds accordingly."  A simulation that can only wait —
   its state's check reads a job still in flight — is *waiting*, a
   condition each workflow states in SQL; level 2's SELECT leaves the
   waiting simulations out but for those whose job level 1 just
   re-polled, and advances the rest.

Database access is *set-oriented* end to end: each phase loads its
working set in one JOIN-backed query (``select_related``/
``prefetch_related``) and writes accumulated state changes back with one
``bulk_update``, so a poll costs a bounded number of round trips
regardless of how many jobs and simulations are in flight.  The
budget, per poll:

- lease sweep: one SELECT (three statements when a renewal is due);
- telemetry: one SELECT, plus one ``bulk_update`` of the machine rows;
- level 1: one SELECT, plus one ``bulk_update`` when a job changed;
- placement and hold recovery: one SELECT each while nothing is
  unplaced or recoverable;
- level 2: one ``COUNT`` for the active gauge and one SELECT, plus one
  prefetch of jobs when it loads a simulation.

A scan poll — no job changed, every simulation waiting — is therefore
eight statements that hydrate no job and no simulation, however many
are in flight.  A working poll adds one Listing 1 step per (kind,
state) group level 2 loaded, run over the whole group
(:meth:`~repro.core.workflow.base.WorkflowManager.advance`):

- each journaled operation of the step — a submit, one rank of
  uploads, a download — costs one SELECT of attempt numbers and one
  INSERT of its intents, committed before its first command; then one
  INSERT of the job records it created and one UPDATE settling its
  entries, in the next transaction;
- QUEUED adds one SELECT of the owners' authorizations, CLEANUP the
  SU charges (a SELECT of reservations, a SELECT of authorizations and
  an UPDATE of the allocations);
- the step ends in one transaction: the last settles, one UPDATE per
  set of simulation columns written (the survivors' ``state`` and
  ``status_message``), the charges;
- the mail after it: one SELECT of the owners' profiles, and one of
  the stars for runs that reached DONE.

A direct run's steps cost 7, 9, 6, 10 and 6 statements and 2, 3, 2, 3
and 1 commits (QUEUED through CLEANUP) for a group of one or of any
size, plus one INSERT or UPDATE wherever a group outgrows one
statement's bound parameters (42 intents, 69 settles): at 100 direct
runs in step a transition costs 0.23 statements and 0.05 commits
(``tests/core/test_query_batching.py::TestWorkingPollBudget``).
A group whose step raises outside every simulation's own share is
abandoned as a crash there would leave it, and the poll goes on with
the next group (:meth:`GridAMPDaemon._abandon`, DESIGN.md §6).

This module keeps the poll loop, boot recovery and telemetry.  The
write-ahead protocol lives in :mod:`repro.core.journal`: the daemon
builds one :class:`~repro.core.journal.OperationJournal`, its workflows
send every grid side effect through it, and boot, takeover and the
``reconcile_pending`` phase call its ``reconcile(scope)``.

Daemon failures are detected *externally*: :class:`ExternalMonitor`
watches the heartbeat the poll loop stamps.
"""

from __future__ import annotations

import traceback

from ..grid.breaker import CLOSED, BreakerEvent
from ..grid.retry import RetryPolicy, RetryTracker
from ..hpc.simclock import sim_datetime
from ..obs.registry import QUERY_COUNT_BUCKETS
from ..webstack.orm import Q
from .journal import OperationJournal
from .models import (GRAM_IN_FLIGHT, GRAM_STATES, GridJobRecord,
                     HOLD_RESOURCE, KIND_DIRECT, KIND_OPTIMIZATION,
                     SIM_ACTIVE_STATES, SIM_HOLD, Simulation)
from .notifications import NotificationPolicy
from .workflow import DirectRunWorkflow, OptimizationWorkflow

DEFAULT_POLL_INTERVAL_S = 300.0


def instance_name(index):
    """The instance id of fleet slot *index*; the same name across
    restarts, which is what lets a replacement reclaim its leases."""
    return f"daemon-{index}"


class GridAMPDaemon:
    def __init__(self, db, clients, clock, mailer, machine_specs,
                 instance_id, leases, obs):
        self.db = db
        self.clients = clients
        self.clock = clock
        self.mailer = mailer
        self.policy = NotificationPolicy(mailer, db)
        #: Fleet identity: ``instance_id`` names this process among its
        #: peers and ``leases`` (a :class:`~repro.core.leases
        #: .LeaseManager`) partitions the work.  The paper's single
        #: daemon is ``daemon-0`` holding slice 0 of 1.
        self.instance_id = instance_id
        self.leases = leases
        #: The observability facade every layer below shares; the
        #: host built *clients* and its breaker registry over the same
        #: one.
        self.obs = obs
        #: One retry tracker (budget policy + backoff event log) shared
        #: by both workflow kinds, so operator tooling sees one timeline.
        self.retry = RetryTracker(RetryPolicy(), clock, obs=self.obs)
        #: The write-ahead journal every workflow's grid side effects
        #: go through; its ``blocked`` set freezes the simulations whose
        #: intents a transient lookup could not resolve.
        self.journal = OperationJournal(
            db, clients, clock, clients.fabric.crash_schedule, self.obs)
        # The resource broker and its SU ledger (imported lazily:
        # repro.sched sits above the core package in the import graph).
        # CLEANUP settles reservations through the same ledger.
        from ..sched.broker import ResourceBroker
        from ..sched.ledger import SULedger
        self.ledger = SULedger(db, clock, self.obs)
        self.broker = ResourceBroker(
            db, machine_specs, clock, breakers=clients.breakers,
            obs=self.obs, crash_schedule=clients.fabric.crash_schedule,
            ledger=self.ledger)
        collaborators = (db, clients, self.policy, machine_specs,
                         self.retry, self.obs, self.ledger, self.journal)
        self.workflows = {
            KIND_DIRECT: DirectRunWorkflow(*collaborators),
            KIND_OPTIMIZATION: OptimizationWorkflow(*collaborators),
        }
        #: Simulations of a group whose step failed outside any one
        #: simulation's share: each advances alone next time it loads.
        self.isolated = set()
        self.heartbeat = clock.now
        self.poll_count = 0
        # Breaker transitions reach the administrators through the event
        # log — the breaker emits exactly once, notifications subscribe.
        self.obs.events.subscribe("breaker.transition",
                                  self._on_breaker_event)
        #: Boot-time crash recovery: rehydrate escalation state, then
        #: take over whatever slices the first lease sweep acquires.
        self.last_recovery = self._boot_recovery()

    # ------------------------------------------------------------------
    # Crash recovery: state rehydration and slice takeover
    # ------------------------------------------------------------------
    def _boot_recovery(self):
        """The restart sweep, run once from ``__init__``: a boot is the
        takeover of whatever the first lease sweep acquires.

        A daemon booting alone claims every slice; a bounced one
        reclaims its dead incarnation's (same instance id, fencing
        token + 1) and replays their intents; one joining live peers
        acquires only what is free, so it never replays a *live*
        owner's in-flight work.

        Order matters: breakers are restored *before* the journal is
        reconciled so that lookups against a machine that was provably
        down before the crash stay suppressed (→ the affected
        simulations hold instead of hammering a sick resource), and the
        retry tracker is rehydrated so escalation state survives the
        bounce — a daemon restart must never hand out refreshed budgets.
        """
        metrics = self.obs.metrics
        with self.obs.tracer.span("daemon.recovery") as span:
            breakers_restored = self._restore_breakers()
            retries_restored = self._restore_retry_state()
            acquired, _ = self.leases.sweep()
            summary = self._lease_takeover(acquired)
            summary["breakers_restored"] = breakers_restored
            summary["retries_restored"] = retries_restored
            for key, value in sorted(summary.items()):
                span.set_attr(key, value)
            metrics.counter(
                "daemon_recovery_sweeps_total",
                help="Boot-time journal reconciliation sweeps").inc()
            metrics.counter(
                "daemon_recovery_intents_total",
                help="Uncommitted journal intents found at boot").inc(
                summary["intents"])
            for outcome in ("replayed", "adopted", "verified",
                            "reissued", "held"):
                if summary[outcome]:
                    metrics.counter(
                        "daemon_recovery_operations_total",
                        help="Journal intents resolved at boot, "
                             "by outcome").labels(
                        outcome=outcome).inc(summary[outcome])
            self.obs.events.emit("daemon.recovery", **summary)
        return summary

    def _restore_breakers(self):
        """Rehydrate circuit breakers from persisted machine telemetry."""
        from .models import MachineRecord
        breakers = self.clients.breakers
        restored = 0
        for record in MachineRecord.objects.using(self.db).all():
            state = record.breaker_state or CLOSED
            if state == CLOSED and not record.breaker_failures:
                continue
            breakers.restore(record.name, state,
                             failures=record.breaker_failures,
                             opened_at=record.breaker_opened_at)
            restored += 1
        return restored

    def _restore_retry_state(self):
        """Rebuild the retry tracker's event log from durable rows."""
        simulations = Simulation.objects.using(self.db).filter(
            state__in=list(SIM_ACTIVE_STATES) + [SIM_HOLD])
        return self.retry.rehydrate(simulations)

    # ------------------------------------------------------------------
    def update_grid_jobs(self, slice_filter, listings):
        """Level 1: refresh the GRAM state of the in-flight grid jobs
        that changed, in the leased slices.

        *listings* is :meth:`update_machine_telemetry`'s answer.  Each
        machine and listed state adds a term to the SELECT's
        ``exclude``, so a job listed in the state its row records is
        never hydrated; every other job — its listed state differs, it
        has left the listing, or its machine has no listing — is
        re-polled with ``globus-job-status`` under its owner's proxy
        and its simulation's correlation id, and recorded as a
        ``daemon.job_poll`` span.  The answer brings a finished job's
        final state and ``FAILED`` reason; changes flush in one
        ``bulk_update``.  Returns the pks of the re-polled jobs.
        """
        listed = Q()
        for machine, states in sorted(listings.items()):
            for state, gram_ids in sorted(states.items()):
                listed |= Q(resource=machine, state=state,
                            gram_job_id__in_json=gram_ids)
        polled = list(GridJobRecord.objects.using(self.db)
                      .filter(state__in=list(GRAM_IN_FLIGHT),
                              simulation_id__mod=slice_filter,
                              gram_job_id__isnull=False)
                      .exclude(listed)
                      .select_related("simulation__owner")
                      .only("simulation", "resource", "gram_job_id",
                            "state", "failure_reason",
                            "simulation__owner__username",
                            "simulation__owner__email"))
        changed = []
        for record in polled:
            owner = record.simulation.owner
            self.clients.ensure_proxy(owner.username, owner.email)
            result = self.clients.job_status(
                record.resource, record.gram_job_id,
                trace_id=record.simulation.correlation_id)
            if not result.ok:
                # Transient poll failures are silent (retried next cycle);
                # administrators can read the command log.
                continue
            state, _, reason = result.stdout.partition(" ")
            if state not in GRAM_STATES:
                # Garbage from the status client is a transient too:
                # keep the last-known state and retry next cycle.
                continue
            if state != record.state or reason:
                record.state = state
                if reason:
                    record.failure_reason = reason
                changed.append(record)
        if changed:
            GridJobRecord.objects.using(self.db).bulk_update(
                changed, ["state", "failure_reason"])
        for record in polled:
            # Recorded once the poll is done: the virtual clock has not
            # moved since, so it spans the same instant.
            with self.obs.tracer.span(
                    "daemon.job_poll",
                    trace_id=record.simulation.correlation_id,
                    attrs={"job": record.pk, "resource": record.resource}):
                pass
        return [record.pk for record in polled]

    def advance_simulations(self, slice_filter, repolled):
        """Level 2: run each active simulation's workflow.

        One query loads, with their jobs, the active simulations but
        the waiting ones: each workflow's ``waiting_condition``, over
        the in-flight jobs not in *repolled* — so a simulation whose
        job level 1 just re-polled is advanced like any other, and a
        scan poll loads none.  *repolled* is None while the journal has
        blocked simulations: its sweep may have written any job, so
        every active simulation is loaded.

        The loaded simulations advance set at a time: one
        ``workflow.advance`` per (kind, state) group, in the order each
        group's first simulation was loaded.  Within a group a defect in
        one simulation's processing holds that simulation alone
        (administrators are notified with the traceback); a defect in
        the group's shared code is :meth:`_abandon`'s.
        """
        active = Simulation.objects.using(self.db).filter(
            state__in=list(SIM_ACTIVE_STATES), pk__mod=slice_filter)
        # Each instance's share of the partition; the children sum to
        # the deployment-wide total.
        self.obs.metrics.gauge(
            "daemon_active_simulations",
            help="Simulations in active workflow states, per daemon "
                 "instance").labels(instance=self.instance_id).set(
            active.count())
        waiting = Q()
        if repolled is not None:
            jobs = (GridJobRecord.objects
                    .filter(state__in=list(GRAM_IN_FLIGHT))
                    .exclude(pk__in_json=repolled))
            for workflow in self.workflows.values():
                waiting |= workflow.waiting_condition(self.clock.now, jobs)
        groups = {}
        for simulation in (active.exclude(waiting)
                           .select_related("owner", "observation")
                           .prefetch_related("grid_jobs")
                           .order_by("id")):
            alone = simulation.pk in self.isolated
            groups.setdefault((simulation.kind, simulation.state,
                               simulation.pk if alone else None),
                              []).append(simulation)
            self.isolated.discard(simulation.pk)
        transitions = 0
        for (kind, _, _), group in groups.items():
            workflow = self.workflows[kind]
            try:
                transitions += len(workflow.advance(group))
            except Exception:  # noqa: BLE001 - daemon survival boundary
                self._abandon(workflow, group, traceback.format_exc())
        return transitions

    def _abandon(self, workflow, group, detail):
        """A group's step raised outside every simulation's own share.

        The step ended as a crash would (its queued writes dropped), so
        its simulations wait for the next poll's ``reconcile_pending``
        to settle their intents against the fabric; after that, each
        advances alone, so a defect that repeats holds only its own
        simulation, as a group of one is held here.
        """
        error = detail.splitlines()[-1]
        for simulation in group:
            self.journal.blocked.add(simulation.pk)
            self.obs.events.emit(
                "daemon.error", simulation=simulation.pk,
                trace_id=simulation.correlation_id, error=error)
        if len(group) > 1:
            self.isolated.update(simulation.pk for simulation in group)
        else:
            try:
                # As committed: the step may have changed the copy.
                workflow.hold(Simulation.objects.using(self.db).get(
                    pk=group[0].pk), f"internal daemon error:\n{detail}")
                return              # the hold's mail carries the detail
            except Exception:  # noqa: BLE001 - the mail below says why
                detail += "\nand holding it failed:\n" + (
                    traceback.format_exc())
        self.mailer.notify_admin(
            "Daemon error advancing " + ", ".join(
                f"#{simulation.pk}" for simulation in group), detail)

    def update_machine_telemetry(self, publish):
        """Take each machine's ``qstat``: return its job listing and,
        when *publish*, write its queue depth/utilisation into the DB.

        This is the only channel through which the grid-blind portal
        learns about congestion *and resource health* — the daemon
        measures (qstat over the fork service, breaker snapshots from
        the client toolkit) and writes; the portal reads.  Every lease
        holder lists, for its own jobs; only the slice-0 owner
        publishes, so machine rows are written once per fleet round.
        Unparsable qstat output is treated exactly like an unreachable
        machine: the stale-but-sane values stay until a clean sample
        arrives.  All sampled machines flush in one ``bulk_update``.

        The qstat probe doubles as the circuit breaker's health check:
        it is the first command against each machine in every poll, so
        while a breaker is open the client suppresses it, and once the
        cooldown elapses it is the half-open probe that closes the
        breaker after recovery.

        Returns ``{machine: {state: [gram_id, ...]}}`` for each machine
        whose answer parsed in full (see :func:`parse_queue_status`); a
        machine missing from it has its jobs polled one by one.
        """
        from .models import MachineRecord
        self.clients.ensure_proxy("amp-operations")
        # Telemetry rows are stamped from the *sim* clock (mapped onto
        # the fixed epoch), never the host's wall clock: staleness logic
        # and replayed fault schedules must agree on what "now" is.
        now = sim_datetime(self.clock.now)
        metrics = self.obs.metrics
        listings, changed = {}, []
        for record in MachineRecord.objects.using(self.db).all():
            result = self.clients.queue_status(record.name)
            sample, listing = (parse_queue_status(result.stdout)
                               if result.ok else (None, None))
            if listing is not None:
                listings[record.name] = listing
            if not publish:
                continue
            dirty = self._refresh_breaker_columns(record)
            if sample is not None:
                record.queue_depth, record.utilisation = sample
                record.telemetry_updated = now
                metrics.gauge(
                    "machine_queue_depth",
                    help="Remote queue depth per facility").labels(
                    machine=record.name).set(record.queue_depth)
                metrics.gauge(
                    "machine_utilisation",
                    help="Remote utilisation per facility").labels(
                    machine=record.name).set(record.utilisation)
                dirty = True
            if dirty:
                changed.append(record)
        if changed:
            MachineRecord.objects.using(self.db).bulk_update(
                changed,
                ["queue_depth", "utilisation", "telemetry_updated",
                 "breaker_state", "breaker_failures",
                 "breaker_opened_at"])
        return listings

    def _refresh_breaker_columns(self, record):
        """Sync one machine row with its breaker snapshot; True when the
        row changed."""
        state, failures, opened_at = \
            self.clients.breakers.snapshot(record.name)
        if (record.breaker_state, record.breaker_failures,
                record.breaker_opened_at) == (state, failures, opened_at):
            return False
        record.breaker_state = state
        record.breaker_failures = failures
        record.breaker_opened_at = opened_at
        return True

    def _on_breaker_event(self, record):
        """Event-log subscriber: one admin mail per breaker transition.

        The breaker's ``_transition`` is the single emission point;
        delivery happens here the moment the transition fires, so the
        mail timeline matches the event log exactly (no poll-phase lag,
        no double bookkeeping).

        Every instance has its own breaker registry but all share one
        event bus, so each subscriber delivers mail only for
        transitions its own registry emitted (the ``origin`` tag) —
        otherwise N instances would send N copies of every alert.
        """
        fields = record.fields
        if fields.get("origin", "") != self.instance_id:
            return
        self.policy.on_breaker_transition(BreakerEvent(
            time=record.time, resource=fields["resource"],
            from_state=fields["from_state"],
            to_state=fields["to_state"], reason=fields["reason"]))

    def recover_resource_holds(self, slice_filter):
        """Auto-resume simulations held for an exhausted retry budget
        once their machine's breaker closes again.

        A *model* hold still needs an administrator (§4.4); a *resource*
        hold only ever needed the machine back.  Recovery flows through
        ``resume()``, so the simulation re-enters the stage it held in
        with a fresh retry budget.
        """
        breakers = self.clients.breakers
        held = (Simulation.objects.using(self.db)
                .filter(state=SIM_HOLD, hold_category=HOLD_RESOURCE,
                        pk__mod=slice_filter)
                .select_related("owner", "observation"))
        resumed = 0
        for simulation in held:
            if breakers.state_of(simulation.machine_name) != CLOSED:
                continue
            self.workflows[simulation.kind].resume(simulation)
            self.policy.on_auto_resume(simulation)
            resumed += 1
        return resumed

    def poll_once(self):
        """One poll cycle under a ``daemon.poll`` root span.

        Each phase gets a child span annotated with the database round
        trips it cost (the ORM's query counter read before/after), and
        the whole poll feeds the ``daemon_poll_queries`` histogram — the
        batch layer's bounded-budget claim, continuously measured.
        """
        tracer = self.obs.tracer
        queries_before = self.db.queries_executed
        with tracer.span("daemon.poll",
                         attrs={"poll": self.poll_count,
                                "instance": self.instance_id}) as poll_span:
            transitions = 0
            # Lease protocol first: renew, claim/steal, rebalance.
            # Everything after this acts only on the owned slices.
            acquired, dropped = self._phase("acquire_leases",
                                            self.leases.sweep)
            if dropped:
                self.journal.unblock(self.leases.n_slices, dropped)
            if acquired:
                self._phase("lease_takeover",
                            lambda: self._lease_takeover(acquired))
            slice_filter = self.leases.slice_filter()
            poll_span.set_attr("slices", len(slice_filter[1]))
            if slice_filter[1]:
                # Every holder lists each machine's queue before level 1
                # reads it; one telemetry publisher per fleet — the
                # slice-0 owner — so machine rows aren't rewritten N
                # times per round.
                listings = self._phase(
                    "update_machine_telemetry",
                    lambda: self.update_machine_telemetry(
                        0 in slice_filter[1]))
                repolled = self._phase(
                    "update_grid_jobs",
                    lambda: self.update_grid_jobs(slice_filter, listings))
                if self.journal.blocked:
                    # Intents a transient lookup could not resolve at
                    # boot/takeover: retry the sweep until every blocked
                    # simulation is provably settled (steady-state polls
                    # skip this).
                    self._phase(
                        "reconcile_pending",
                        lambda: self.journal.reconcile(slice_filter))
                    # It may have written any of their jobs: load all.
                    repolled = None
                # Placement runs after the telemetry refresh (fresh
                # queue depths and breaker columns) and before any
                # workflow may advance a newly placed simulation out of
                # QUEUED.
                self._phase(
                    "place_simulations",
                    lambda: self.broker.place_pending(slice_filter))
                self._phase(
                    "recover_resource_holds",
                    lambda: self.recover_resource_holds(slice_filter))
                transitions = self._phase(
                    "advance_simulations",
                    lambda: self.advance_simulations(slice_filter,
                                                     repolled))
            poll_span.set_attr("transitions", transitions)
        self.heartbeat = self.clock.now
        self.poll_count += 1
        metrics = self.obs.metrics
        metrics.counter("daemon_polls_total",
                        help="Completed daemon poll cycles").inc()
        metrics.histogram(
            "daemon_poll_queries",
            help="Database round trips per poll cycle",
            buckets=QUERY_COUNT_BUCKETS).observe(
            self.db.queries_executed - queries_before)
        metrics.gauge(
            "daemon_instance_heartbeat",
            help="Virtual time of each daemon instance's last "
                 "completed poll").labels(
            instance=self.instance_id).set(self.heartbeat)
        return transitions

    def _lease_takeover(self, slices):
        """Crash recovery: adopt freshly acquired slices, at boot and
        whenever a poll's sweep claims or steals one.

        Runs the journal's decision table scoped to the just-claimed
        residue classes — replaying a dead owner's uncommitted intents
        (safe across owners: the ``amp-sim-{pk}-{phase}-{attempt}``
        keys are process-independent and stamped on the remote jobs as
        ``clientTag``).  Reservations need no replay: placement and
        settlement each commit in one transaction, and the placement
        sweep releases the holds nobody will spend.
        """
        scope = (self.leases.n_slices, sorted(slices))
        self.leases.crash_schedule.check("takeover", "before")
        summary = self.journal.reconcile(scope)
        self.leases.crash_schedule.check("takeover", "after")
        self.obs.events.emit("daemon.takeover",
                             instance=self.instance_id,
                             slices=list(scope[1]), **summary)
        self.obs.metrics.counter(
            "daemon_lease_takeovers_total",
            help="Slice adoptions (scoped journal replays) by daemon "
                 "instances").inc()
        return summary

    def _phase(self, name, fn):
        """Run one poll phase inside its span, annotating query cost."""
        queries_before = self.db.queries_executed
        with self.obs.tracer.span(f"daemon.{name}") as span:
            result = fn()
            span.set_attr("queries",
                          self.db.queries_executed - queries_before)
        return result

    # ------------------------------------------------------------------
    def active_count(self):
        return Simulation.objects.using(self.db).filter(
            state__in=list(SIM_ACTIVE_STATES)).count()

    def recoverable_hold_count(self):
        """Resource holds the daemon itself will resume on recovery."""
        return Simulation.objects.using(self.db).filter(
            state=SIM_HOLD, hold_category=HOLD_RESOURCE).count()

    def pending_count(self):
        """Simulations the daemon still owes progress to: the active
        set plus auto-resumable resource holds (a permanent hold —
        model failure — genuinely waits for an administrator)."""
        return self.active_count() + self.recoverable_hold_count()


def parse_queue_status(stdout):
    """``(sample, listing)`` from a ``qstat`` answer: *sample* is the
    first line's ``(depth, utilisation)``, *listing* ``{state:
    [gram_id, ...]}`` from the lines after it.  Either is None when its
    lines do not parse, and a listing needs a sample: an answer whose
    first line is garbage lists nothing."""
    head, *lines = stdout.split("\n")
    depth_text, _, utilisation_text = head.partition(" ")
    try:
        depth = int(depth_text)
        utilisation = float(utilisation_text)
    except ValueError:
        return None, None
    if depth < 0 or utilisation != utilisation:
        return None, None
    listing = {}
    for line in lines:
        gram_id, _, state = line.partition(" ")
        if state not in GRAM_IN_FLIGHT or not gram_id.isdecimal():
            listing = None
            break
        listing.setdefault(state, []).append(int(gram_id))
    return (depth, min(max(utilisation, 0.0), 1.0)), listing


class ExternalMonitor:
    """The out-of-band watchdog for the daemons themselves (§4.4).

    "failures of the GridAMP daemon itself are monitored externally and
    immediately brought to the attention of the gateway administrators."

    It watches fleet slots (slot index → daemon, or ``None`` once that
    process died), so it sees the daemons that exist now — a bounced
    one included — rather than whichever object was alive when it was
    built.

    The staleness reference is the *injected* clock — the same sim
    clock the daemons stamp their heartbeats from, never any wall-clock
    path — so monitoring behaves identically under replayed fault
    schedules.  Every check also publishes the heartbeat age as a
    gauge, and a stale heartbeat is a ``monitor.stale`` structured
    event alongside the admin mail.
    """

    def __init__(self, fleet, mailer, *, clock, obs, stale_after_s=1800.0):
        self.fleet = fleet
        self.mailer = mailer
        self.stale_after_s = stale_after_s
        self.clock = clock
        self.obs = obs
        self.alerts = []

    def heartbeat_ages(self):
        """``{instance: virtual seconds since it last completed a
        poll}``; ``None`` for a dead slot, which nothing will ever
        stamp again."""
        now = self.clock.now
        return {instance_name(index):
                None if daemon is None else now - daemon.heartbeat
                for index, daemon in sorted(self.fleet.items())}

    def heartbeat_age(self):
        """The age of the live instance that has been quiet longest."""
        return max((age for age in self.heartbeat_ages().values()
                    if age is not None), default=0.0)

    def check(self):
        """Alert when any instance is dead or its heartbeat stale;
        returns health."""
        ages = self.heartbeat_ages()
        age = self.heartbeat_age()
        stale = [instance for instance, seconds in ages.items()
                 if seconds is None or seconds > self.stale_after_s]
        self.obs.metrics.gauge(
            "daemon_heartbeat_age_seconds",
            help="Monitor-observed age of the oldest live daemon "
                 "heartbeat").set(age)
        if stale:
            self.obs.events.emit("monitor.stale", age=age,
                                 threshold=self.stale_after_s,
                                 instances=stale)
            message = self.mailer.notify_admin(
                "GridAMP daemon heartbeat stale",
                f"No heartbeat from {', '.join(stale)}: oldest live "
                f"heartbeat {age:.0f}s ago "
                f"(threshold {self.stale_after_s:.0f}s)")
            self.alerts.append(message)
        return not stale
