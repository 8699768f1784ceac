"""The GridAMP workflow daemon.

"The GridAMP daemon manages the workflow of AMP simulations on remote
grid resources.  It reads simulation information from the centralized
database, performs the necessary grid client actions, and updates the
database accordingly."  (§4.4)

The poll cycle implements the paper's two-level status management:

1. **Generic grid-job update** — every non-terminal
   :class:`~repro.core.models.GridJobRecord` is polled through the
   command-line clients and its GRAM state stored, "identical for all
   grid jobs regardless of purpose [...] or execution method"; no
   callbacks fire here.
2. **Workflow advancement** — each active simulation's workflow manager
   "simply retrieves the last-known status of the appropriate job and
   waits or proceeds accordingly."

Database access is *set-oriented* end to end: each phase loads its
working set in one JOIN-backed query (``select_related``/
``prefetch_related``) and writes accumulated state changes back with one
``bulk_update``, so a steady-state poll costs a bounded number of round
trips regardless of how many jobs and simulations are in flight.

Daemon failures are detected *externally*: :class:`ExternalMonitor`
watches the heartbeat the poll loop stamps.
"""

from __future__ import annotations

from ..grid.breaker import CLOSED, BreakerEvent
from ..grid.retry import RetryPolicy, RetryTracker
from ..hpc.simclock import sim_datetime
from ..obs.registry import QUERY_COUNT_BUCKETS
from .models import (GRAM_STATES, GridJobRecord, HOLD_RESOURCE,
                     JOURNAL_ABORTED, JOURNAL_COMMITTED, JOURNAL_INTENT,
                     JOURNAL_OP_CANCEL, JOURNAL_OP_STAGE_IN,
                     JOURNAL_OP_STAGE_OUT, JOURNAL_OP_SUBMIT,
                     KIND_DIRECT, KIND_OPTIMIZATION, OUTCOME_ADOPTED,
                     OUTCOME_REISSUED, OUTCOME_REPLAYED, OUTCOME_VERIFIED,
                     OperationRecord, SIM_ACTIVE_STATES, SIM_HOLD,
                     Simulation)
from .notifications import NotificationPolicy
from .workflow import DirectRunWorkflow, OptimizationWorkflow

DEFAULT_POLL_INTERVAL_S = 300.0


def instance_name(index):
    """The instance id of fleet slot *index*; the same name across
    restarts, which is what lets a replacement reclaim its leases."""
    return f"daemon-{index}"


class GridAMPDaemon:
    def __init__(self, db, clients, clock, mailer, machine_specs,
                 instance_id, leases, obs, placement_policy):
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
        #: Simulations frozen behind an unresolved journal intent (a
        #: transient fabric lookup proved nothing either way).  One set
        #: shared with every workflow so ``advance`` honours it.
        self.blocked_sims = set()
        # The resource broker and its SU ledger (imported lazily:
        # repro.sched sits above the core package in the import graph).
        # CLEANUP settles reservations through the same ledger.
        from ..sched.broker import ResourceBroker
        from ..sched.ledger import SULedger
        self.ledger = SULedger(db, clock, self.obs)
        self.broker = ResourceBroker(
            db, machine_specs, clock, breakers=clients.breakers,
            obs=self.obs,
            fabric=clients.fabric, policy=placement_policy,
            ledger=self.ledger)
        collaborators = (db, clients, self.policy, machine_specs,
                         self.retry, self.obs, self.ledger,
                         self.blocked_sims)
        self.workflows = {
            KIND_DIRECT: DirectRunWorkflow(*collaborators),
            KIND_OPTIMIZATION: OptimizationWorkflow(*collaborators),
        }
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
    # Crash recovery: journal reconciliation and state rehydration
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

    def reconcile_journal(self, slice_filter):
        """Resolve every uncommitted journal intent against the fabric.

        The decision table (per intent, see DESIGN.md §6):

        - **replayed** — the database already holds the side effect's
          record (crash landed between the job-record save and the
          journal commit); re-point the entry and move on.
        - **adopted** — GRAM holds a job carrying the intent's
          ``clientTag``: the submission happened but its record was
          lost; adopt the orphan as a fresh :class:`GridJobRecord`.
        - **verified** — the staged file's remote size/digest matches
          the journaled payload: the upload landed intact.
        - **reissued** — the fabric provably has no trace (no tagged
          job / file absent or mismatched / a side-effect-free
          download): abort the intent and let the workflow re-issue
          under the next attempt's key.
        - **held** — a transient lookup proved nothing either way; the
          simulation is frozen (``blocked_sims``) until a later sweep
          can decide.

        Access is set-oriented: one SELECT for the intents, one for
        already-recorded jobs, one for cancel targets, then bulk
        writes — bounded round trips however long the backlog is.

        *slice_filter* scopes the sweep to leased residue classes: a
        takeover replays only the adopted slices' intents, and the
        blocked set is cleared only within scope so holds owned by
        other slices survive untouched.
        """
        intents = list(OperationRecord.objects.using(self.db)
                       .filter(state=JOURNAL_INTENT,
                               simulation_id__mod=slice_filter)
                       .select_related("simulation__owner")
                       .order_by("id"))
        summary = {"intents": len(intents), "replayed": 0, "adopted": 0,
                   "verified": 0, "reissued": 0, "held": 0}
        self._unblock(*slice_filter)
        if not intents:
            return summary
        submit_keys = [e.idempotency_key for e in intents
                       if e.op == JOURNAL_OP_SUBMIT]
        existing_jobs = {}
        if submit_keys:
            existing_jobs = {
                record.idempotency_key: record
                for record in GridJobRecord.objects.using(self.db)
                .filter(idempotency_key__in=submit_keys)}
        cancel_ids = [e.job_record_id for e in intents
                      if e.op == JOURNAL_OP_CANCEL
                      and e.job_record_id is not None]
        cancel_jobs = {}
        if cancel_ids:
            cancel_jobs = {record.pk: record
                           for record in GridJobRecord.objects
                           .using(self.db).filter(id__in=cancel_ids)}
        settled, adoptions, finalized = [], [], []
        for entry in intents:
            owner = entry.simulation.owner
            self.clients.ensure_proxy(owner.username, owner.email)
            outcome = self._reconcile_entry(entry, existing_jobs,
                                            cancel_jobs, adoptions,
                                            finalized)
            if outcome is None:
                self.blocked_sims.add(entry.simulation_id)
                summary["held"] += 1
                continue
            summary[outcome] += 1
            if outcome != OUTCOME_ADOPTED:
                settled.append(entry)
        if adoptions:
            GridJobRecord.objects.using(self.db).bulk_create(
                [record for _, record in adoptions])
            for entry, record in adoptions:
                self._settle_entry(entry, JOURNAL_COMMITTED,
                                   OUTCOME_ADOPTED,
                                   gram_job_id=record.gram_job_id,
                                   job_record_id=record.pk)
                settled.append(entry)
        if finalized:
            GridJobRecord.objects.using(self.db).bulk_update(
                finalized, ["state", "failure_reason"])
        if settled:
            OperationRecord.objects.using(self.db).bulk_update(
                settled, ["state", "outcome", "resolved_at",
                          "gram_job_id", "job_record_id", "detail"])
        if summary["replayed"] or summary["verified"]:
            self.obs.events.emit("journal.replayed",
                                 replayed=summary["replayed"],
                                 verified=summary["verified"])
        if summary["adopted"]:
            self.obs.events.emit("journal.orphans_adopted",
                                 count=summary["adopted"])
        return summary

    def _settle_entry(self, entry, state, outcome, **updates):
        for name, value in updates.items():
            setattr(entry, name, value)
        entry.state = state
        entry.outcome = outcome
        entry.resolved_at = self.clock.now

    def _reconcile_entry(self, entry, existing_jobs, cancel_jobs,
                         adoptions, finalized):
        """Apply the decision table to one intent.

        Returns the outcome string, or None when a transient lookup
        means the entry cannot be resolved yet (→ hold the simulation).
        """
        if entry.op == JOURNAL_OP_SUBMIT:
            record = existing_jobs.get(entry.idempotency_key)
            if record is not None:
                # The job record made it to the database; only the
                # journal commit was lost.
                self._settle_entry(entry, JOURNAL_COMMITTED,
                                   OUTCOME_REPLAYED,
                                   gram_job_id=record.gram_job_id,
                                   job_record_id=record.pk)
                return OUTCOME_REPLAYED
            result = self.clients.job_lookup(
                entry.resource, entry.idempotency_key)
            if not result.ok:
                return None
            if result.stdout:
                gram_id_text, _, gram_state = result.stdout.partition(" ")
                record = GridJobRecord(
                    simulation_id=entry.simulation_id,
                    purpose=entry.purpose, ga_index=entry.ga_index,
                    sequence=entry.sequence, resource=entry.resource,
                    service=entry.service,
                    gram_job_id=int(gram_id_text), rsl=entry.rsl,
                    idempotency_key=entry.idempotency_key,
                    state=(gram_state if gram_state in GRAM_STATES
                           else "PENDING"))
                adoptions.append((entry, record))
                return OUTCOME_ADOPTED
            self._settle_entry(entry, JOURNAL_ABORTED, OUTCOME_REISSUED)
            return OUTCOME_REISSUED
        if entry.op == JOURNAL_OP_STAGE_IN:
            result = self.clients.stage_stat(entry.resource,
                                             entry.remote_path)
            if not result.ok:
                return None
            expected = f"{entry.payload_size} {entry.payload_digest}"
            if result.stdout == expected:
                self._settle_entry(entry, JOURNAL_COMMITTED,
                                   OUTCOME_VERIFIED)
                return OUTCOME_VERIFIED
            # Absent or partial/mismatched: the upload provably did not
            # land intact — re-issue.
            self._settle_entry(entry, JOURNAL_ABORTED, OUTCOME_REISSUED,
                               detail=result.stdout[:200])
            return OUTCOME_REISSUED
        if entry.op == JOURNAL_OP_STAGE_OUT:
            # Downloads have no remote side effect; re-issuing is free.
            self._settle_entry(entry, JOURNAL_ABORTED, OUTCOME_REISSUED)
            return OUTCOME_REISSUED
        if entry.op == JOURNAL_OP_CANCEL:
            # Cancels are idempotent on the fabric: re-issue, then
            # finalise the revoked record exactly as the dead process
            # would have, *before* the first poll can misread the raw
            # GRAM "cancelled" reason as a model failure.
            result = self.clients.job_cancel(entry.resource,
                                                    entry.gram_job_id)
            if not result.ok and result.transient:
                return None
            job = cancel_jobs.get(entry.job_record_id)
            if job is not None and not job.is_terminal:
                job.state = "FAILED"
                job.failure_reason = OptimizationWorkflow._SURPLUS
                finalized.append(job)
            self._settle_entry(entry, JOURNAL_COMMITTED,
                               OUTCOME_REPLAYED)
            return OUTCOME_REPLAYED
        # Unknown op (forward compatibility): hold rather than guess.
        return None

    # ------------------------------------------------------------------
    def update_grid_jobs(self, slice_filter):
        """Level 1: refresh every in-flight grid job's GRAM state.

        One JOIN-backed SELECT loads every record with its simulation
        and owner; state changes accumulate and flush in one
        ``bulk_update`` — two round trips however many jobs are active.
        Only jobs of the leased slices are polled.
        """
        active = (GridJobRecord.objects.using(self.db)
                  .filter(state__in=["UNSUBMITTED", "PENDING", "ACTIVE"],
                          simulation_id__mod=slice_filter)
                  .select_related("simulation__owner"))
        changed = []
        for record in active:
            if record.gram_job_id is None:
                continue
            owner = record.simulation.owner
            self.clients.ensure_proxy(owner.username, owner.email)
            # The job poll runs inside a span carrying the simulation's
            # correlation id, so the grid command it issues is traceable
            # back to the portal submission that caused it.
            with self.obs.tracer.span(
                    "daemon.job_poll",
                    trace_id=record.simulation.correlation_id,
                    attrs={"job": record.pk,
                           "resource": record.resource}):
                result = self.clients.job_status(
                    record.resource, record.gram_job_id)
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

    def advance_simulations(self, slice_filter):
        """Level 2: run each active simulation's workflow.

        A defect in one simulation's processing must not take the whole
        daemon down with it: unexpected exceptions hold that simulation
        (administrators are notified with the traceback) and the loop
        continues — the per-simulation analogue of the paper's "daemon
        failures are monitored externally" posture.
        """
        import traceback
        transitions = 0
        active = (Simulation.objects.using(self.db)
                  .filter(state__in=list(SIM_ACTIVE_STATES),
                          pk__mod=slice_filter)
                  .select_related("owner", "observation")
                  .prefetch_related("grid_jobs")
                  .order_by("id"))
        active_seen = 0
        for simulation in active:
            active_seen += 1
            workflow = self.workflows[simulation.kind]
            # One span per advance, under the simulation's correlation
            # id: the nested grid commands inherit the trace ambiently.
            with self.obs.tracer.span(
                    "sim.advance", trace_id=simulation.correlation_id,
                    attrs={"simulation": simulation.pk,
                           "state": simulation.state}) as span:
                try:
                    if workflow.advance(simulation):
                        transitions += 1
                        span.set_attr("advanced_to", simulation.state)
                except Exception:  # noqa: BLE001 - daemon survival boundary
                    detail = traceback.format_exc()
                    self.obs.events.emit(
                        "daemon.error", simulation=simulation.pk,
                        trace_id=simulation.correlation_id,
                        error=detail.splitlines()[-1])
                    try:
                        workflow.hold(simulation,
                                      f"internal daemon error:\n{detail}")
                    except Exception:  # noqa: BLE001 - last resort
                        self.mailer.notify_admin(
                            f"Daemon error on simulation "
                            f"#{simulation.pk}", detail)
        # Each instance's share of the partition; the children sum to
        # the deployment-wide total.
        self.obs.metrics.gauge(
            "daemon_active_simulations",
            help="Simulations in active workflow states, per daemon "
                 "instance").labels(instance=self.instance_id).set(
            active_seen)
        return transitions

    def update_machine_telemetry(self):
        """Publish per-machine queue depth/utilisation into the DB.

        This is the only channel through which the grid-blind portal
        learns about congestion *and resource health* — the daemon
        measures (qstat over the fork service, breaker snapshots from
        the client toolkit) and writes; the portal reads.  Unparsable
        qstat output is treated exactly like an unreachable machine: the
        stale-but-sane values stay until a clean sample arrives.  All
        sampled machines flush in one ``bulk_update``.

        The qstat probe doubles as the circuit breaker's health check:
        while a breaker is open the client suppresses the command, and
        once the cooldown elapses this per-poll sample is the natural
        half-open probe that closes the breaker after recovery.
        """
        from .models import MachineRecord
        self.clients.ensure_proxy("amp-operations")
        # Telemetry rows are stamped from the *sim* clock (mapped onto
        # the fixed epoch), never the host's wall clock: staleness logic
        # and replayed fault schedules must agree on what "now" is.
        now = sim_datetime(self.clock.now)
        metrics = self.obs.metrics
        changed = []
        for record in MachineRecord.objects.using(self.db).all():
            result = self.clients.queue_status(record.name)
            dirty = self._refresh_breaker_columns(record)
            if result.ok:
                depth_text, _, utilisation_text = \
                    result.stdout.partition(" ")
                try:
                    depth = int(depth_text)
                    utilisation = float(utilisation_text)
                except ValueError:
                    depth = None      # malformed output: keep stale values
                if depth is not None and depth >= 0 \
                        and utilisation == utilisation:
                    record.queue_depth = depth
                    record.utilisation = min(max(utilisation, 0.0), 1.0)
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
                self._unblock(self.leases.n_slices, dropped)
            if acquired:
                self._phase("lease_takeover",
                            lambda: self._lease_takeover(acquired))
            slice_filter = self.leases.slice_filter()
            poll_span.set_attr("slices", len(slice_filter[1]))
            if slice_filter[1]:
                self._phase("update_grid_jobs",
                            lambda: self.update_grid_jobs(slice_filter))
                if 0 in slice_filter[1]:
                    # One telemetry publisher per fleet — the slice-0
                    # owner — so machine rows aren't rewritten N times
                    # per round.
                    self._phase("update_machine_telemetry",
                                self.update_machine_telemetry)
                if self.blocked_sims:
                    # Intents a transient lookup could not resolve at
                    # boot/takeover: retry the sweep until every blocked
                    # simulation is provably settled (steady-state polls
                    # skip this).
                    self._phase(
                        "reconcile_pending",
                        lambda: self.reconcile_journal(slice_filter))
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
                    lambda: self.advance_simulations(slice_filter))
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

    def _unblock(self, divisor, remainders):
        """Forget the blocked simulations of these residue classes."""
        scoped = set(remainders)
        self.blocked_sims -= {pk for pk in self.blocked_sims
                              if pk % divisor in scoped}

    def _lease_takeover(self, slices):
        """Crash recovery: adopt freshly acquired slices, at boot and
        whenever a poll's sweep claims or steals one.

        Runs the journal and ledger decision tables scoped to the
        just-claimed residue classes — replaying a dead owner's
        uncommitted intents (safe across owners: the
        ``amp-sim-{pk}-{phase}-{attempt}`` keys are process-independent
        and stamped on the remote jobs as ``clientTag``) and adopting
        reservations it left between write and stamp.
        """
        scope = (self.leases.n_slices, sorted(slices))
        self.leases._crash_check("takeover", "before")
        summary = self.reconcile_journal(scope)
        adopted, released = self.ledger.reconcile(scope)
        self.leases._crash_check("takeover", "after")
        summary["reservations_adopted"] = adopted
        summary["reservations_released"] = released
        if adopted:
            self.obs.metrics.counter(
                "sched_reservations_adopted_total",
                help="Reservations adopted by takeover "
                     "reconciliation").inc(adopted)
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
