"""The operation journal: the daemon's grid side effects, written ahead.

Every side-effecting grid call (submit, stage-in, stage-out, cancel)
goes through :meth:`OperationJournal.call`, a *batch* of operations of
one kind — every simulation of a workflow step due for it, or one.  The
batch's INTENT rows land in the database, in one transaction, *before*
its first command goes out; its commands run in order, each between
the crash schedule's two checks; then every entry is settled, and the
call's consequences (the job records, the revoked jobs) written, in
the next transaction the daemon commits — the next batch's intents or
the end of the step — together with every other write queued since
(:meth:`OperationJournal.defer`).  So writes with no command between
them share one transaction, and a daemon that dies between a command
and that commit leaves INTENT rows behind, never a consequence without
its settle; :meth:`OperationJournal.reconcile` asks the fabric — per
row — whether the side effect happened (adopt/verify) or provably did
not (re-issue).  The idempotency key doubles as the GRAM
``clientTag``, which is what makes orphaned jobs findable after the
fact.  (DESIGN.md §6.)
"""

from __future__ import annotations

from .models import (GRAM_STATES, GridJobRecord, JOB_REVOKED,
                     JOURNAL_ABORTED, JOURNAL_COMMITTED, JOURNAL_INTENT,
                     JOURNAL_OP_CANCEL, JOURNAL_OP_STAGE_IN,
                     JOURNAL_OP_STAGE_OUT, JOURNAL_OP_SUBMIT,
                     OUTCOME_ADOPTED, OUTCOME_COMMITTED, OUTCOME_FAILED,
                     OUTCOME_REISSUED, OUTCOME_REPLAYED, OUTCOME_TRANSIENT,
                     OUTCOME_VERIFIED, OperationRecord)

#: The columns every settle writes, in one ``bulk_update`` per batch
#: (a batch adds the columns its ``record`` returned).
SETTLED_COLUMNS = ["state", "outcome", "resolved_at", "gram_job_id",
                   "job_record_id", "detail"]


class ModelFailure(Exception):
    """A model-processing failure: the simulation must HOLD (§4.4)."""


def idempotency_key(simulation_pk, phase, attempt):
    """The deterministic identity of one side-effecting grid operation.

    ``amp-sim-{pk}-{phase}-{attempt}``: stable across daemon restarts
    (``attempt`` is derived from the durable journal, never from
    in-memory state), unique per retry, and carried onto the remote
    side (the RSL ``clientTag``) so an orphaned GRAM job can be matched
    back to the intent that produced it.
    """
    return f"amp-sim-{int(simulation_pk)}-{phase}-{int(attempt)}"


class Operation:
    """One side effect of a journal batch: ``command(key)`` on behalf
    of *simulation* under *phase*.  *intent* holds the row's own
    columns, a callable one called with the key (a submit's RSL carries
    it as ``clientTag``)."""

    __slots__ = ("simulation", "phase", "command", "intent")

    def __init__(self, simulation, phase, command, **intent):
        self.simulation = simulation
        self.phase = phase
        self.command = command
        self.intent = intent


class OperationJournal:
    """One daemon process's journal; a restart builds a fresh one.
    *clients*' methods are looked up at each call, never bound early,
    so wrappers installed on them after boot see these commands too."""

    def __init__(self, db, clients, clock, crash_schedule, obs):
        self.db = db
        self.clients = clients
        self.clock = clock
        self.crash_schedule = crash_schedule
        self.obs = obs
        #: Simulations frozen behind an intent a transient lookup could
        #: not resolve: ``advance`` leaves them alone until a later
        #: :meth:`reconcile` of their slice decides.
        self.blocked = set()
        #: Writes waiting for the next transaction (:meth:`defer`).
        self._deferred = []
        #: What to announce once that transaction commits
        #: (:meth:`after_commit`).
        self._announcements = []

    def defer(self, write):
        """Queue ``write()`` for the next transaction this journal
        commits: the next batch's intents, or :meth:`flush`.  A write
        already queued is not queued twice."""
        if write not in self._deferred:
            self._deferred.append(write)

    def after_commit(self, announce):
        """Call ``announce()`` once the next transaction has committed:
        the events and mail of a write queued with :meth:`defer`, so
        nobody hears of a write that never landed."""
        self._announcements.append(announce)

    def flush(self):
        """Commit every queued write in one transaction (none: no
        statement), then announce them."""
        if self._deferred:
            with self.db.atomic():
                self._run_deferred()
        self._announce()

    def discard(self):
        """Forget every queued write and its announcements: what a
        daemon that died here would have lost.  The intents already
        committed stay for :meth:`reconcile`."""
        self._deferred, self._announcements = [], []

    def _run_deferred(self):
        writes, self._deferred = self._deferred, []
        for write in writes:
            write()

    def _announce(self):
        announcements, self._announcements = self._announcements, []
        for announce in announcements:
            announce()

    def call(self, op, operations, classify, record=None):
        """Run *operations* write-ahead as one batch of *op*; returns
        each one's outcome, in order.

        The attempt counts durable rows, never memory: a bounced daemon
        derives the key the dead one would have.  ``classify(
        simulation, raw)`` returning None settles the entry ABORTED
        ``transient`` (outcome None), raising :class:`ModelFailure`
        ABORTED ``failed`` (outcome: the exception); the retry
        machinery owns what happens next.  Otherwise the entry commits,
        and ``record(result, entry)`` returns ``(outcome, job,
        columns)``: the outcome (an exception, when what the command
        returned is unusable), the :class:`GridJobRecord` the operation
        created (unsaved) or changed (or None), and the columns to
        settle with; without *record* the outcome is the result.  Any
        other exception ``classify`` or ``record`` raises is the
        outcome as well, and leaves its entry an INTENT for
        :meth:`reconcile`.  Settles and jobs are written by the next
        transaction (:meth:`defer`).
        """
        if not operations:
            return []
        entries = self._intents(op, operations)
        with self.db.atomic():
            self._run_deferred()
            OperationRecord.objects.using(self.db).bulk_create(entries)
        self._announce()
        outcomes, settled, jobs, columns_set = [], [], [], set()
        for operation, entry in zip(operations, entries):
            self.crash_schedule.check(op, "before")
            raw = operation.command(entry.idempotency_key)
            self.crash_schedule.check(op, "after")
            try:
                result = classify(operation.simulation, raw)
                if result is None:
                    settled.append(self._settle(
                        entry, JOURNAL_ABORTED, OUTCOME_TRANSIENT))
                    outcomes.append(None)
                    continue
                value, job, columns = (record(result, entry) if record
                                       else (result, None, {}))
            except ModelFailure as exc:
                settled.append(self._settle(
                    entry, JOURNAL_ABORTED, OUTCOME_FAILED,
                    detail=str(exc)[:500]))
                outcomes.append(exc)
                continue
            except Exception as exc:  # noqa: BLE001 - the caller's to hold
                outcomes.append(exc)
                continue
            settled.append(self._settle(entry, JOURNAL_COMMITTED,
                                        OUTCOME_COMMITTED, **columns))
            columns_set.update(columns)
            if job is not None:
                jobs.append((entry, job))
            outcomes.append(value)
        fields = SETTLED_COLUMNS + sorted(columns_set)
        self.defer(lambda: self._write_settles(settled, jobs, fields))
        return outcomes

    def _intents(self, op, operations):
        """The unsaved INTENT rows of a batch, numbered past the
        attempts its (simulation, phase) pairs already have — read in
        one SELECT."""
        attempts = {}
        for row in (OperationRecord.objects.using(self.db)
                    .filter(op=op, simulation_id__in_json=sorted(
                        {o.simulation.pk for o in operations}),
                            phase__in_json=sorted(
                                {o.phase for o in operations}))
                    .only("simulation", "phase")):
            key = (row.simulation_id, row.phase)
            attempts[key] = attempts.get(key, 0) + 1
        entries = []
        for operation in operations:
            simulation = operation.simulation
            pair = (simulation.pk, operation.phase)
            attempts[pair] = attempt = attempts.get(pair, 0) + 1
            key = idempotency_key(simulation.pk, operation.phase, attempt)
            entries.append(OperationRecord(
                simulation_id=simulation.pk, op=op, phase=operation.phase,
                attempt=attempt, idempotency_key=key,
                resource=simulation.machine_name, state=JOURNAL_INTENT,
                intent_at=self.clock.now,
                **{name: value(key) if callable(value) else value
                   for name, value in operation.intent.items()}))
        return entries

    def _write_settles(self, settled, jobs, fields):
        """A batch's consequences, then its settles: new job records in
        one INSERT, changed ones in one UPDATE, every entry in one."""
        created = [job for _, job in jobs if job.pk is None]
        changed = [job for _, job in jobs if job.pk is not None]
        records = GridJobRecord.objects.using(self.db)
        if created:
            records.bulk_create(created)
        if changed:
            records.bulk_update(changed, ["state", "failure_reason"])
        for entry, job in jobs:
            entry.gram_job_id = job.gram_job_id
            entry.job_record_id = job.pk
        if settled:
            OperationRecord.objects.using(self.db).bulk_update(
                settled, fields)

    @staticmethod
    def job_record(entry, gram_job_id, state):
        """The unsaved job record a submit *entry* describes: what the
        submit records, and what adoption rebuilds for an orphan."""
        return GridJobRecord(
            simulation_id=entry.simulation_id, purpose=entry.purpose,
            ga_index=entry.ga_index, sequence=entry.sequence,
            resource=entry.resource, service=entry.service,
            gram_job_id=gram_job_id, rsl=entry.rsl,
            idempotency_key=entry.idempotency_key, state=state)

    def _settle(self, entry, state, outcome, **columns):
        for name, value in columns.items():
            setattr(entry, name, value)
        entry.state = state
        entry.outcome = outcome
        entry.resolved_at = self.clock.now
        return entry

    def unblock(self, divisor, remainders):
        """Forget the blocked simulations of these residue classes."""
        scoped = set(remainders)
        self.blocked -= {pk for pk in self.blocked
                         if pk % divisor in scoped}

    def reconcile(self, scope):
        """Resolve every uncommitted intent of *scope* against the
        fabric; returns the count of intents and of each outcome.

        The decision table (per intent, see DESIGN.md §6):

        - **replayed** — a cancel: re-issued (cancels are idempotent on
          the fabric) and its revoked job record finalised.
        - **adopted** — GRAM holds a job carrying the intent's
          ``clientTag``: the submission happened but the daemon died
          before its record committed; adopt the orphan as a fresh
          :class:`GridJobRecord`.
        - **verified** — the staged file's remote size/digest matches
          the journaled payload: the upload landed intact.
        - **reissued** — the fabric provably has no trace (no tagged
          job / file absent or mismatched / a side-effect-free
          download): abort the intent and let the workflow re-issue
          under the next attempt's key.
        - **held** — a transient lookup proved nothing either way; the
          simulation is frozen (:attr:`blocked`) until a later
          reconcile can decide.

        Access is set-oriented: one SELECT for the intents, one for
        cancel targets, then bulk writes in one transaction — bounded
        round trips however long the backlog is.

        *scope* is ``(divisor, remainders)``, the leased residue
        classes: a takeover replays only the adopted slices' intents,
        and the blocked set is cleared only within scope so holds owned
        by other slices survive untouched.
        """
        intents = list(OperationRecord.objects.using(self.db)
                       .filter(state=JOURNAL_INTENT,
                               simulation_id__mod=scope)
                       .select_related("simulation__owner")
                       .order_by("id"))
        summary = {"intents": len(intents), "replayed": 0, "adopted": 0,
                   "verified": 0, "reissued": 0, "held": 0}
        self.unblock(*scope)
        if not intents:
            return summary
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
            outcome = self._decide(entry, cancel_jobs, adoptions,
                                   finalized)
            if outcome is None:
                self.blocked.add(entry.simulation_id)
                summary["held"] += 1
                continue
            summary[outcome] += 1
            if outcome != OUTCOME_ADOPTED:
                settled.append(entry)
        with self.db.atomic():
            if adoptions:
                GridJobRecord.objects.using(self.db).bulk_create(
                    [record for _, record in adoptions])
                for entry, record in adoptions:
                    self._settle(entry, JOURNAL_COMMITTED, OUTCOME_ADOPTED,
                                 gram_job_id=record.gram_job_id,
                                 job_record_id=record.pk)
                    settled.append(entry)
            if finalized:
                GridJobRecord.objects.using(self.db).bulk_update(
                    finalized, ["state", "failure_reason"])
            if settled:
                OperationRecord.objects.using(self.db).bulk_update(
                    settled, SETTLED_COLUMNS)
        if summary["replayed"] or summary["verified"]:
            self.obs.events.emit("journal.replayed",
                                 replayed=summary["replayed"],
                                 verified=summary["verified"])
        if summary["adopted"]:
            self.obs.events.emit("journal.orphans_adopted",
                                 count=summary["adopted"])
        return summary

    def _decide(self, entry, cancel_jobs, adoptions, finalized):
        """Apply the decision table to one intent.

        Returns the outcome string, or None when a transient lookup
        means the entry cannot be resolved yet (→ hold the simulation).
        """
        if entry.op == JOURNAL_OP_SUBMIT:
            # The job record commits with the journal entry, so an
            # INTENT row means no record: ask GRAM by the tag.
            result = self.clients.job_lookup(
                entry.resource, entry.idempotency_key)
            if not result.ok:
                return None
            if result.stdout:
                gram_id_text, _, answer = result.stdout.partition(" ")
                gram_state, _, reason = answer.partition(" ")
                record = self.job_record(
                    entry, int(gram_id_text),
                    gram_state if gram_state in GRAM_STATES
                    else "PENDING")
                record.failure_reason = reason
                adoptions.append((entry, record))
                return OUTCOME_ADOPTED
            self._settle(entry, JOURNAL_ABORTED, OUTCOME_REISSUED)
            return OUTCOME_REISSUED
        if entry.op == JOURNAL_OP_STAGE_IN:
            result = self.clients.stage_stat(entry.resource,
                                             entry.remote_path)
            if not result.ok:
                return None
            expected = f"{entry.payload_size} {entry.payload_digest}"
            if result.stdout == expected:
                self._settle(entry, JOURNAL_COMMITTED, OUTCOME_VERIFIED)
                return OUTCOME_VERIFIED
            # Absent or partial/mismatched: the upload provably did not
            # land intact — re-issue.
            self._settle(entry, JOURNAL_ABORTED, OUTCOME_REISSUED,
                         detail=result.stdout[:200])
            return OUTCOME_REISSUED
        if entry.op == JOURNAL_OP_STAGE_OUT:
            # Downloads have no remote side effect; re-issuing is free.
            self._settle(entry, JOURNAL_ABORTED, OUTCOME_REISSUED)
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
                job.failure_reason = JOB_REVOKED
                finalized.append(job)
            self._settle(entry, JOURNAL_COMMITTED, OUTCOME_REPLAYED)
            return OUTCOME_REPLAYED
        # Unknown op (forward compatibility): hold rather than guess.
        return None
