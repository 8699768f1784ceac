"""The operation journal: the daemon's grid side effects, written ahead.

Every side-effecting grid call (submit, stage-in, stage-out, cancel)
goes through :meth:`OperationJournal.call`: an INTENT row lands in the
database *before* the command goes out, and is marked COMMITTED in
one transaction with the call's consequence (the job record, the
revoked job).  A daemon that dies between the two leaves an INTENT row
behind, and never a consequence without its commit;
:meth:`OperationJournal.reconcile` asks the fabric — per row — whether
the side effect happened (adopt/verify) or provably did not
(re-issue).  The idempotency key doubles as the GRAM ``clientTag``,
which is what makes orphaned jobs findable after the fact.  Each of
the two windows checks the crash schedule, so the fault harness can
kill the daemon there.  (DESIGN.md §6.)
"""

from __future__ import annotations

from .models import (GRAM_STATES, GridJobRecord, JOB_REVOKED,
                     JOURNAL_ABORTED, JOURNAL_COMMITTED, JOURNAL_INTENT,
                     JOURNAL_OP_CANCEL, JOURNAL_OP_STAGE_IN,
                     JOURNAL_OP_STAGE_OUT, JOURNAL_OP_SUBMIT,
                     OUTCOME_ADOPTED, OUTCOME_COMMITTED, OUTCOME_FAILED,
                     OUTCOME_REISSUED, OUTCOME_REPLAYED, OUTCOME_TRANSIENT,
                     OUTCOME_VERIFIED, OperationRecord)
from .workflow.base import ModelFailure


def idempotency_key(simulation_pk, phase, attempt):
    """The deterministic identity of one side-effecting grid operation.

    ``amp-sim-{pk}-{phase}-{attempt}``: stable across daemon restarts
    (``attempt`` is derived from the durable journal, never from
    in-memory state), unique per retry, and carried onto the remote
    side (the RSL ``clientTag``) so an orphaned GRAM job can be matched
    back to the intent that produced it.
    """
    return f"amp-sim-{int(simulation_pk)}-{phase}-{int(attempt)}"


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

    def call(self, simulation, op, phase, command, classify, record=None,
             **intent):
        """Run ``command(key)`` write-ahead; returns *record*'s value,
        or None when the command failed transiently.

        The attempt counts durable rows, never memory: a bounced daemon
        derives the key the dead one would have.  *intent* holds the
        row's own columns, a callable one called with the key (a
        submit's RSL carries it as ``clientTag``).  ``classify(
        simulation, raw)`` returning None settles the entry ABORTED
        ``transient``, raising :class:`ModelFailure` ABORTED ``failed``;
        the retry machinery owns what happens next.  Otherwise
        ``record(result, entry)`` writes the consequence and returns
        ``(value, columns to commit with)``, inside the transaction
        that commits the entry; without it the value is the result.
        """
        attempt = OperationRecord.objects.using(self.db).filter(
            simulation_id=simulation.pk, op=op, phase=phase).count() + 1
        key = idempotency_key(simulation.pk, phase, attempt)
        entry = OperationRecord(
            simulation_id=simulation.pk, op=op, phase=phase,
            attempt=attempt, idempotency_key=key,
            resource=simulation.machine_name, state=JOURNAL_INTENT,
            intent_at=self.clock.now,
            **{name: value(key) if callable(value) else value
               for name, value in intent.items()})
        entry.save(db=self.db)
        self.crash_schedule.check(op, "before")
        raw = command(key)
        self.crash_schedule.check(op, "after")
        try:
            result = classify(simulation, raw)
        except ModelFailure as exc:
            self._settle(entry, JOURNAL_ABORTED, OUTCOME_FAILED,
                         detail=str(exc)[:500]).save(db=self.db)
            raise
        if result is None:
            self._settle(entry, JOURNAL_ABORTED,
                         OUTCOME_TRANSIENT).save(db=self.db)
            return None
        with self.db.atomic():
            value, columns = (record(result, entry) if record
                              else (result, {}))
            self._settle(entry, JOURNAL_COMMITTED, OUTCOME_COMMITTED,
                         **columns).save(db=self.db)
        return value

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
