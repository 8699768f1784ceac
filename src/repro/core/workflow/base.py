"""The GridAMP workflow manager base class.

This is the paper's Listing 1 made executable.  The workflow is "a list
of stages with function pointers that must return [True] to proceed to
the next state":

    self.workflow = {
        'QUEUED':  ([check_queued_sim, submit_pre_job],             'PREJOB'),
        'PREJOB':  ([check_pre_job,   submit_work_job],             'RUNNING'),
        'RUNNING': ([check_work_job,  submit_post_job],             'POSTJOB'),
        'POSTJOB': ([check_post_job,  postprocess, submit_cleanup], 'CLEANUP'),
        'CLEANUP': ([check_cleanup,   close_simulation],            'DONE'),
    }

"If the job is in a particular state, all of the functions in the
subsequent list are called.  If all return True, then the job is set to
the indicated next state."  Here the list runs over a set: the daemon
hands :meth:`WorkflowManager.advance` every simulation it loaded in one
state, each function takes the simulations still passing and returns
those for which it is True, and the survivors move on together — so
each grid operation is one journal batch and each step one state write,
however many simulations take it.

The base class owns everything generic — job queuing, stage-in,
stage-out, transient handling, hold/resume, accounting — while derived
classes implement only GRAM job generation and model postprocessing
("the derived classes are very small and contain only model-specific
execution and postprocessing code").
"""

from __future__ import annotations

import posixpath
import re
import traceback

from ...grid.gridftp import checksum
from ...grid.retry import classify_operation
from ...grid.rsl import fork_spec, format_rsl
from ...hpc.accounting import cpu_hours
from ...webstack.orm import Q
from ..journal import ModelFailure, Operation
from ..models import (AllocationRecord, GridJobRecord, HOLD_MODEL,
                      HOLD_RESOURCE, JOB_CLEANUP, JOB_POSTJOB, JOB_PREJOB,
                      JOURNAL_OP_STAGE_IN, JOURNAL_OP_STAGE_OUT,
                      JOURNAL_OP_SUBMIT, MACHINE_AUTO, SIM_HOLD,
                      Simulation, SubmitAuthorization)
from ..remote import CLEANUP_SH, POSTJOB_SH, PREJOB_SH, output_tarball_path
from ..staging import StagingError

#: User-visible plain-text message for transient conditions.  Grid
#: jargon is forbidden here (the mailer enforces the same rule).
TRANSIENT_MESSAGE = ("The computing facility is temporarily unavailable; "
                     "processing will resume automatically.")

#: User-visible message when the retry budget is exhausted: still no
#: grid jargon, and no implication the user must act.
BUDGET_EXHAUSTED_MESSAGE = (
    "The computing facility has been unavailable for an extended "
    "period.  Your simulation is paused and will resume automatically "
    "once the facility recovers.")


class WorkflowManager:
    """Base workflow manager: all routine functionality.

    Parameters
    ----------
    db:
        The daemon's role-scoped database connection.
    clients:
        The :class:`~repro.grid.clients.GridClients` toolkit.
    policy:
        A :class:`~repro.core.notifications.NotificationPolicy`.
    machine_specs:
        ``{name: MachineSpec}`` for walltime and SU arithmetic.
    retry:
        A :class:`~repro.grid.retry.RetryTracker` (shared across the
        daemon's workflows so one policy and one event log cover every
        simulation).
    obs:
        An :class:`~repro.obs.Observability` facade; state transitions,
        holds, and resumes are emitted as correlation-id-tagged
        structured events and counted.
    ledger:
        The daemon's :class:`~repro.sched.ledger.SULedger`: CLEANUP
        settles the broker's reservation through it instead of
        double-charging.
    journal:
        The daemon's :class:`~repro.core.journal.OperationJournal`:
        every side-effecting grid call goes through its ``call``, every
        write through its transactions, and a simulation in its
        ``blocked`` set is frozen until reconciliation settles its
        intent.
    """

    def __init__(self, db, clients, policy, machine_specs, retry, obs,
                 ledger, journal):
        self.db = db
        self.clients = clients
        self.policy = policy
        self.machine_specs = machine_specs
        self.retry = retry
        self.obs = obs
        self.ledger = ledger
        self.journal = journal
        self.workflow = {
            "QUEUED": ([self.check_queued_sim, self.submit_pre_job],
                       "PREJOB"),
            "PREJOB": ([self.check_pre_job, self.submit_work_job],
                       "RUNNING"),
            "RUNNING": ([self.check_work_job, self.submit_post_job],
                        "POSTJOB"),
            "POSTJOB": ([self.check_post_job, self.postprocess,
                         self.submit_cleanup], "CLEANUP"),
            "CLEANUP": ([self.check_cleanup, self.close_simulation],
                        "DONE"),
        }
        #: The ``sim.advance`` span of each simulation of the running
        #: step, by pk.
        self._spans = {}
        #: ``{simulation: {field, ...}}`` changed since the journal's
        #: last transaction, written by its next one.
        self._dirty = {}

    #: The job purpose each state's check waits on.  While the
    #: simulation's job of that purpose is in flight the check returns
    #: False and touches nothing, so ``advance`` does no more than
    #: refresh the owner's proxy (see :meth:`waiting_condition`).  A
    #: check with side effects of its own declares nothing.
    waits_on = {"PREJOB": JOB_PREJOB, "POSTJOB": JOB_POSTJOB,
                "CLEANUP": JOB_CLEANUP}

    # ------------------------------------------------------------------
    # The engine
    # ------------------------------------------------------------------
    def ready(self, simulation):
        """``advance``'s guards: False while the simulation may not act."""
        if simulation.state not in self.workflow:
            return False
        if simulation.machine_name == MACHINE_AUTO:
            return False            # awaiting broker placement
        if simulation.pk in self.journal.blocked:
            return False            # unresolved journal intent: frozen
        return self.retry_due(simulation)   # False: backing off

    def waiting_condition(self, now, jobs):
        """The simulations of this kind whose ``advance`` can do nothing
        but refresh the owner's proxy, as one queryset condition: at
        virtual time *now* every guard of :meth:`ready` passes (the
        caller owns the journal's), no retry count is there to clear,
        and the state's check waits on one of *jobs*, a
        ``GridJobRecord`` queryset.  Each purpose in :attr:`waits_on`
        has one job per simulation: a ``submit_*`` step submits it once.
        """
        states = Q()
        for state, purpose in sorted(self.waits_on.items()):
            states |= Q(state=state, pk__in=jobs.filter(
                purpose=purpose).only("simulation"))
        return (Q(kind=self.kind, retry_counts__isnull=True,
                  retry_not_before__lte=now + 1e-9)
                & ~Q(machine_name=MACHINE_AUTO) & states)

    def advance(self, simulations):
        """Run the current state's function list over *simulations*, a
        group in one state; returns those that transitioned.

        Listing 1, set at a time: each function takes the simulations
        still passing and returns those that pass, and the survivors
        move to the next state together.  Each simulation has one
        ``sim.advance`` span under its correlation id, and its share of
        every function — its guards, its proxy, its checks, its grid
        commands, the columns it queues — runs inside it.  A failure
        there drops only its own simulation (a model failure or an
        unexpected exception holds it, a transient backs it off); what
        the step writes commits with the next journal batch's intents
        or, at the end, in the transaction that records the
        transitions.  An exception in the step's set-wide code leaves
        the step as a crash would: its queued writes are dropped, its
        committed intents left to reconciliation, and it propagates.
        """
        tracer = self.obs.tracer
        self._spans = {simulation.pk: tracer.span(
            "sim.advance", trace_id=simulation.correlation_id,
            attrs={"simulation": simulation.pk,
                   "state": simulation.state})
            for simulation in simulations}
        try:
            passing = self.each(simulations, self.ready)
            if not passing:
                return []
            state = passing[0].state
            functions, next_state = self.workflow[state]
            # Every cycle acts under a fresh SAML-attributed proxy for
            # the simulation's owner (proxies are short-lived by design).
            passing = self.each(passing, self._refresh_proxy)
            for fn in functions:
                if not passing:
                    break
                passing = fn(passing)
            return self._transition(passing, state, next_state)
        except Exception:
            self._drop_queued()
            raise
        finally:
            for span in self._spans.values():
                tracer.finish(span)
            self._spans = {}

    def each(self, simulations, fn):
        """The simulations for which ``fn(simulation)``, run in each
        one's span, is true; one it raises for is held (:meth:`_fail`)
        and drops out."""
        return [simulation for simulation, passed
                in self.gather(simulations, fn) if passed]

    def gather(self, simulations, fn):
        """``[(simulation, fn(simulation)), ...]`` as :meth:`each` runs
        it, for the simulations it does not raise for."""
        values = []
        for simulation in simulations:
            try:
                values.append((simulation,
                               self._within(simulation, fn, simulation)))
            except Exception as exc:  # noqa: BLE001 - held, see _fail
                self._fail(simulation, exc)
        return values

    def _within(self, simulation, fn, *args):
        span = self._spans.get(simulation.pk)
        return (fn(*args) if span is None
                else self.obs.tracer.resume(span, fn, *args))

    def _refresh_proxy(self, simulation):
        owner = simulation.owner
        return self._grid_call(simulation, self.clients.ensure_proxy(
            owner.username, owner.email)) is not None

    def _fail(self, simulation, exc):
        """Hold *simulation* for *exc*: a model failure with its
        message; anything else is a defect in its processing, held as
        an internal daemon error with the traceback, which the hold's
        mail brings the administrators — a defect in one simulation
        must not take the whole daemon down with it (the per-simulation
        analogue of the paper's "daemon failures are monitored
        externally" posture).  A hold writes nothing yet, so it cannot
        fail on the database the way a save could."""
        if isinstance(exc, (ModelFailure, StagingError)):
            self._hold(simulation, str(exc))
            return
        detail = "".join(traceback.format_exception(exc))
        self.obs.events.emit(
            "daemon.error", simulation=simulation.pk,
            trace_id=simulation.correlation_id,
            error=detail.splitlines()[-1])
        self._hold(simulation, f"internal daemon error:\n{detail}")

    def _transition(self, simulations, old_state, next_state):
        """Move the step's survivors to *next_state* in the transaction
        that commits the step's last writes; then events and mail."""
        for simulation in simulations:
            simulation.state = next_state
            simulation.status_message = ""
            self._touch(simulation, "state", "status_message")
            self._spans[simulation.pk].set_attr("advanced_to", next_state)
        self.journal.flush()
        if not simulations:
            return simulations
        for simulation in simulations:
            self.obs.events.emit(
                "sim.transition", simulation=simulation.pk,
                trace_id=simulation.correlation_id,
                from_state=old_state, to_state=next_state,
                machine=simulation.machine_name)
        self.obs.metrics.counter(
            "sim_transitions_total",
            help="Workflow state transitions").labels(
            to_state=next_state).inc(len(simulations))
        self.policy.on_transition(simulations, old_state, next_state)
        return simulations

    def _drop_queued(self):
        """Forget the writes queued since the last transaction, as a
        crash would (:meth:`~repro.core.journal.OperationJournal
        .discard`)."""
        self._dirty = {}
        self.journal.discard()

    def _touch(self, simulation, *fields):
        """Queue *fields* of *simulation* for the journal's next
        transaction, each value validated here: a value its column
        refuses raises in this simulation's share of the step, not in
        the write the whole step shares."""
        meta = Simulation._meta
        for name in fields:
            field = meta.field_by_any_name(name)
            field.clean(getattr(simulation, field.attname))
        self.journal.defer(self._write_simulations)
        self._dirty.setdefault(simulation, set()).update(fields)

    def _write_simulations(self):
        """The queued simulation columns: one UPDATE per set of
        columns."""
        dirty, self._dirty = self._dirty, {}
        groups = {}
        for simulation, fields in dirty.items():
            groups.setdefault(tuple(sorted(fields)), []).append(simulation)
        for fields, simulations in groups.items():
            Simulation.objects.using(self.db).bulk_update(simulations,
                                                          fields)

    # ------------------------------------------------------------------
    # Hold / resume (model failures and exhausted retry budgets)
    # ------------------------------------------------------------------
    def hold(self, simulation, reason, category=HOLD_MODEL):
        """Hold *simulation* now, outside any step (a step holds
        through :meth:`_hold` and writes with its next transaction)."""
        try:
            self._hold(simulation, reason, category)
            self.journal.flush()
        except Exception:
            self._drop_queued()
            raise

    def _hold(self, simulation, reason, category=HOLD_MODEL):
        """Queue the hold; its event and mail follow its commit."""
        from_state = simulation.state
        simulation.state_before_hold = from_state
        simulation.state = SIM_HOLD
        simulation.hold_reason = reason
        simulation.hold_category = category
        self._touch(simulation, "state", "state_before_hold",
                    "hold_reason", "hold_category")

        def announce():
            self.obs.events.emit(
                "sim.hold", simulation=simulation.pk,
                trace_id=simulation.correlation_id,
                from_state=from_state, category=category,
                reason=reason.splitlines()[0] if reason else "")
            self.obs.metrics.counter(
                "sim_holds_total", help="Simulations held by category"
            ).labels(category=category).inc()
            self.policy.on_hold(simulation, reason, category=category)
        self.journal.after_commit(announce)

    def resume(self, simulation):
        """Release a held simulation (administrator action, or the
        daemon's automatic recovery of resource holds).

        "Once the problem has been resolved, the workflow resumes
        automatically" — the state returns to where it held and the next
        daemon poll retries the failed step.  The retry bookkeeping is
        cleared too: a resumed simulation starts with a *fresh* budget,
        otherwise one attempt after resume would immediately re-exhaust
        it.
        """
        if simulation.state != SIM_HOLD:
            raise ValueError(
                f"Simulation #{simulation.pk} is not held")
        simulation.state = simulation.state_before_hold or "QUEUED"
        simulation.state_before_hold = ""
        simulation.hold_reason = ""
        simulation.hold_category = ""
        simulation.retry_counts = None
        simulation.retry_not_before = 0.0
        simulation.save(db=self.db)
        self.obs.events.emit(
            "sim.resume", simulation=simulation.pk,
            trace_id=simulation.correlation_id,
            to_state=simulation.state)

    # ------------------------------------------------------------------
    # Grid-call plumbing: transient vs permanent classification, retry
    # budgets, and backoff
    # ------------------------------------------------------------------
    def retry_due(self, simulation):
        """False while the simulation is inside its backoff window."""
        not_before = simulation.retry_not_before or 0.0
        return self.retry.clock.now + 1e-9 >= not_before

    def _grid_call(self, simulation, result):
        """Interpret a command-line result.

        OK → the result (and the operation's consecutive-failure count
        resets).  Transient → burn one unit of the per-simulation retry
        budget, schedule the next attempt with exponential backoff, tell
        the administrators (with the copy-pasteable command line), and
        return None so the caller retries once the backoff elapses; an
        exhausted budget escalates to HOLD with a user-readable reason.
        Permanent → ModelFailure (→ HOLD; administrators debug
        interactively).
        """
        operation = classify_operation(result.argv)
        if result.ok:
            self._clear_retries(simulation, operation)
            return result
        if result.transient:
            self._record_transient(simulation, operation, result)
            return None
        raise ModelFailure(
            f"command failed: {result.command_line}: {result.stderr}")

    def _clear_retries(self, simulation, operation):
        counts = simulation.retry_counts
        if counts and operation in counts:
            counts = dict(counts)
            del counts[operation]
            simulation.retry_counts = counts or None
            simulation.retry_not_before = 0.0
            self._touch(simulation, "retry_counts", "retry_not_before")

    def _record_transient(self, simulation, operation, result):
        counts = dict(simulation.retry_counts or {})
        attempt = counts.get(operation, 0) + 1
        counts[operation] = attempt
        simulation.retry_counts = counts
        self._touch(simulation, "retry_counts")
        if self.retry.exhausted(attempt):
            # The budget is spent: this is no longer a silent transient.
            detail = (f"budget exhausted after {attempt} attempts: "
                      f"{result.command_line}\n{result.stderr}")
            self.journal.after_commit(
                lambda: self.policy.on_budget_exhausted(
                    simulation, operation, attempt, detail))
            self._hold(simulation, BUDGET_EXHAUSTED_MESSAGE,
                       category=HOLD_RESOURCE)
            return
        simulation.retry_not_before = self.retry.next_retry(
            simulation.pk, operation, attempt)
        simulation.status_message = TRANSIENT_MESSAGE
        self._touch(simulation, "retry_not_before", "status_message")
        detail = (f"retryable (attempt {attempt}/"
                  f"{self.retry.policy.max_attempts}): "
                  f"{result.command_line}\n{result.stderr}")
        self.journal.after_commit(
            lambda: self.policy.on_transient(simulation, detail))

    @staticmethod
    def _phase_slug(text):
        """A deterministic, key-safe slug for path-derived phases."""
        return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")

    # ------------------------------------------------------------------
    # Job-record helpers
    # ------------------------------------------------------------------
    def _jobs(self, simulation, purpose, ga_index=None):
        """Job records for *simulation*, ordered (sequence, id).

        When the daemon loaded the simulation with
        ``prefetch_related("grid_jobs")`` the prefetched set is filtered
        in memory — the poll cycle's per-simulation job checks then cost
        zero round trips.  Returns a list (prefetched) or queryset.
        """
        prefetched = simulation.__dict__.get("_prefetched_objects")
        if prefetched is not None and "grid_jobs" in prefetched:
            jobs = [job for job in prefetched["grid_jobs"]
                    if job.purpose == purpose
                    and (ga_index is None or job.ga_index == ga_index)]
            jobs.sort(key=lambda job: (job.sequence, job.pk))
            return jobs
        qs = GridJobRecord.objects.using(self.db).filter(
            simulation_id=simulation.pk, purpose=purpose)
        if ga_index is not None:
            qs = qs.filter(ga_index=ga_index)
        return qs.order_by("sequence", "id")

    def _latest_job(self, simulation, purpose, ga_index=None):
        jobs = list(self._jobs(simulation, purpose, ga_index))
        return jobs[-1] if jobs else None

    @staticmethod
    def _remember_job(simulation, record):
        """Keep a prefetched grid_jobs set coherent with a new submit."""
        prefetched = simulation.__dict__.get("_prefetched_objects")
        if prefetched is not None and "grid_jobs" in prefetched:
            prefetched["grid_jobs"].append(record)

    def _check_job(self, simulation, record, *, label):
        """Generic completion check on a job record (last-known state)."""
        if record is None:
            return False
        if record.state == "DONE":
            return True
        if record.state == "FAILED":
            raise ModelFailure(
                f"{label} job #{record.pk} failed: "
                f"{record.failure_reason or 'unknown'}")
        return False

    def _check_jobs(self, simulations, purpose, label):
        """The simulations whose latest *purpose* job is DONE."""
        return self.each(simulations, lambda simulation: self._check_job(
            simulation, self._latest_job(simulation, purpose), label=label))

    # ------------------------------------------------------------------
    # Journaled grid calls
    # ------------------------------------------------------------------
    def _journal(self, op, operations, record=None):
        """Send *operations* through the journal as one batch, each
        command acting for its simulation — in its span, under its
        owner's proxy; returns each one's outcome
        (:meth:`~repro.core.journal.OperationJournal.call`)."""
        for operation in operations:
            operation.command = self._acting_for(operation.simulation,
                                                 operation.command)
        return self.journal.call(op, operations, self._grid_call, record)

    def _acting_for(self, simulation, command):
        owner = simulation.owner

        def act(key):
            self.clients.ensure_proxy(owner.username, owner.email)
            return command(key)
        return lambda key: self._within(simulation, act, key)

    def _batch(self, op, operations, record=None):
        """:meth:`_journal` over a set: the simulation of each operation
        that failed is held (:meth:`_fail`), its outcome None."""
        values = []
        for operation, outcome in zip(
                operations, self._journal(op, operations, record)):
            if isinstance(outcome, Exception):
                self._fail(operation.simulation, outcome)
                outcome = None
            values.append(outcome)
        return values

    def _single(self, op, operation, record=None):
        """:meth:`_journal` for one simulation's own sequence of calls,
        run inside :meth:`each`: a failure raises there."""
        outcome, = self._journal(op, [operation], record)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _submission(self, simulation, purpose, spec, *, service,
                    ga_index=0, sequence=0):
        """The one submission path (fork and batch).

        The journal's key is stamped into the RSL as ``clientTag``
        *before* the intent row is written, so whatever GRAM ends up
        holding is findable by the exact key the journal recorded.
        """
        def tagged(key):
            return {**spec, "clientTag": key}

        phase = (purpose if service == "fork"
                 else f"{purpose}-{ga_index}-{sequence}")
        return Operation(
            simulation, phase,
            lambda key: self.clients.submit_job(
                simulation.machine_name, tagged(key), service=service),
            purpose=purpose, ga_index=ga_index, sequence=sequence,
            service=service, rsl=lambda key: format_rsl(tagged(key)))

    def _record_submission(self, result, entry):
        job = self.journal.job_record(entry, int(result.stdout), "PENDING")
        return job, job, {}

    def _submit_each(self, simulations, purpose, spec_for, *,
                     service="fork"):
        """Submit a *purpose* job, ``spec_for(simulation)`` its RSL, for
        each simulation that has none yet, in one journal batch; returns
        the simulations that have one."""
        due = [simulation for simulation in simulations
               if self._latest_job(simulation, purpose) is None]
        operations = [self._submission(simulation, purpose, spec,
                                       service=service)
                      for simulation, spec in self.gather(due, spec_for)]
        submitted = set()
        for operation, job in zip(operations, self._batch(
                JOURNAL_OP_SUBMIT, operations, self._record_submission)):
            if job is not None:
                self._remember_job(operation.simulation, job)
                submitted.add(operation.simulation.pk)
        waiting = {simulation.pk for simulation in due} - submitted
        return [simulation for simulation in simulations
                if simulation.pk not in waiting]

    def _submit_batch(self, simulation, purpose, spec, *, ga_index=0,
                      sequence=0):
        """One batch job for one simulation (:meth:`_single`)."""
        job = self._single(
            JOURNAL_OP_SUBMIT,
            self._submission(simulation, purpose, spec, service="batch",
                             ga_index=ga_index, sequence=sequence),
            self._record_submission)
        if job is not None:
            self._remember_job(simulation, job)
        return job

    def _fork_spec(self, simulation, executable, arguments=()):
        return fork_spec(executable, directory=simulation.remote_directory,
                         arguments=list(arguments))

    def _stage_in(self, simulations, files_for):
        """Upload each simulation's regenerated input files,
        ``files_for(simulation)``; returns the simulations whose every
        upload landed (a transient drops one until a later poll).

        One journal batch per file rank, so each simulation uploads its
        files in order and stops at its first transient.  Each file is
        journaled with its payload size and digest so a restart can
        re-verify a maybe-partial transfer with one remote ``stat``
        instead of re-uploading blindly.
        """
        pending = [(simulation, sorted(files.items())) for simulation, files
                   in self.gather(simulations, files_for)]
        rank = 0
        while True:
            operations = [self._upload(simulation, *files[rank])
                          for simulation, files in pending
                          if rank < len(files)]
            if not operations:
                return [simulation for simulation, _ in pending]
            failed = {operation.simulation.pk for operation, result in zip(
                operations, self._batch(JOURNAL_OP_STAGE_IN, operations))
                      if result is None}
            pending = [(simulation, files) for simulation, files in pending
                       if simulation.pk not in failed]
            rank += 1

    def _upload(self, simulation, rel_path, content):
        remote_path = posixpath.join(simulation.remote_directory, rel_path)
        data = (content.encode("utf-8")
                if isinstance(content, str) else content)
        return Operation(
            simulation, f"stagein-{self._phase_slug(rel_path)}",
            lambda _key: self.clients.stage_in(
                simulation.machine_name, remote_path, content),
            remote_path=remote_path, payload_size=len(data),
            payload_digest=checksum(data))

    def _download(self, simulation, remote_path):
        """The operation downloading one file.

        Downloads are side-effect-free on the fabric, but they are
        journaled anyway: the intent row is what lets reconciliation
        distinguish "crashed mid-download" (harmless, re-issue) from
        "crashed mid-upload" (must verify) without guessing.
        """
        rel = remote_path
        if rel.startswith(simulation.remote_directory):
            rel = rel[len(simulation.remote_directory):]
        return Operation(
            simulation, f"stageout-{self._phase_slug(rel)}",
            lambda _key: self.clients.stage_out(simulation.machine_name,
                                                remote_path),
            remote_path=remote_path)

    @staticmethod
    def _record_download(result, _entry):
        return result.data, None, {
            "payload_size": len(result.data),
            "payload_digest": checksum(result.data)}

    def _stage_out(self, simulation, remote_path):
        """One simulation's download (:meth:`_single`); None on
        transient."""
        return self._single(JOURNAL_OP_STAGE_OUT,
                            self._download(simulation, remote_path),
                            self._record_download)

    def machine_spec(self, simulation):
        try:
            return self.machine_specs[simulation.machine_name]
        except KeyError:
            raise ModelFailure(
                f"Unknown machine {simulation.machine_name!r}")

    def _authorizations(self, simulations):
        """``{(user_id, machine name): authorization}`` over the active
        submit authorizations of the owners of *simulations*, machine and
        allocation joined, in one SELECT."""
        found = {}
        for auth in (SubmitAuthorization.objects.using(self.db)
                     .filter(user_id__in_json=sorted(
                         {simulation.owner_id for simulation in simulations}),
                             active=True)
                     .select_related("machine", "allocation")):
            found.setdefault((auth.user_id, auth.machine.name), auth)
        return found

    # ------------------------------------------------------------------
    # QUEUED
    # ------------------------------------------------------------------
    def check_queued_sim(self, simulations):
        """Verify each owner may run on its machine with SUs remaining."""
        authorizations = self._authorizations(simulations)

        def check(simulation):
            self.machine_spec(simulation)
            auth = authorizations.get((simulation.owner_id,
                                       simulation.machine_name))
            if auth is None:
                raise ModelFailure(
                    f"User {simulation.owner_id} is not authorized to "
                    f"submit to {simulation.machine_name}")
            if auth.allocation.su_remaining <= 0:
                raise ModelFailure(
                    f"Allocation {auth.allocation.project} on "
                    f"{simulation.machine_name} is exhausted")
            return True
        return self.each(simulations, check)

    def submit_pre_job(self, simulations):
        return self._submit_each(
            simulations, JOB_PREJOB,
            lambda simulation: self._fork_spec(
                simulation, PREJOB_SH, self.prejob_arguments(simulation)))

    # ------------------------------------------------------------------
    # PREJOB
    # ------------------------------------------------------------------
    def check_pre_job(self, simulations):
        return self._stage_in(
            self._check_jobs(simulations, JOB_PREJOB, "pre-job"),
            self.input_files)

    # ------------------------------------------------------------------
    # POSTJOB / CLEANUP
    # ------------------------------------------------------------------
    def submit_post_job(self, simulations):
        return self._submit_each(
            simulations, JOB_POSTJOB,
            lambda simulation: self._fork_spec(simulation, POSTJOB_SH))

    def check_post_job(self, simulations):
        return self._check_jobs(simulations, JOB_POSTJOB, "post-job")

    def submit_cleanup(self, simulations):
        # The tarball must be safely downloaded (postprocess) before the
        # cleanup stage removes the execution environment.
        return self._submit_each(
            simulations, JOB_CLEANUP,
            lambda simulation: self._fork_spec(simulation, CLEANUP_SH))

    def check_cleanup(self, simulations):
        return self._check_jobs(simulations, JOB_CLEANUP, "cleanup")

    def close_simulation(self, simulations):
        """Final bookkeeping: charge SUs against the allocations, in the
        transaction that records the step's transitions."""
        charges = self.gather(simulations, self._consumed_su)
        if charges:
            self.journal.defer(lambda: self._charge_allocations(charges))
        return [simulation for simulation, _ in charges]

    def _consumed_su(self, simulation):
        spec = self.machine_spec(simulation)
        core_seconds = self.consumed_core_seconds(simulation)
        if core_seconds <= 0:
            return 0.0
        return cpu_hours(1, core_seconds) * spec.su_charge_factor

    def _charge_allocations(self, charges):
        """Broker-placed work settles through the ledger (idempotently:
        a re-run after a crash finds the reservation already settled and
        charges nothing); the rest is charged to the owner's allocation
        on its machine, in one UPDATE."""
        settled = self.ledger.settle(charges)
        legacy = [(simulation, sus) for simulation, sus in charges
                  if simulation.pk not in settled and sus > 0]
        if not legacy:
            return
        authorizations = self._authorizations(
            [simulation for simulation, _ in legacy])
        allocations = {}
        for simulation, sus in legacy:
            auth = authorizations.get((simulation.owner_id,
                                       simulation.machine_name))
            if auth is not None:
                allocation = allocations.setdefault(auth.allocation_id,
                                                    auth.allocation)
                allocation.su_used = allocation.su_used + sus
        if allocations:
            AllocationRecord.objects.using(self.db).bulk_update(
                list(allocations.values()), ["su_used"])

    # ------------------------------------------------------------------
    # Postprocess (shared shell; derived classes interpret)
    # ------------------------------------------------------------------
    def postprocess(self, simulations):
        """Download each output tarball and interpret it as it lands,
        so one tarball at a time is in memory; a simulation whose
        tarball does not interpret, or whose results its column
        refuses, is held."""
        by_pk = {simulation.pk: simulation for simulation in simulations}

        def interpret(result, entry):
            tarball, _, columns = self._record_download(result, entry)
            simulation = by_pk[entry.simulation_id]
            try:
                simulation.results = self.interpret_results(simulation,
                                                             tarball)
                self._touch(simulation, "results")
            except Exception as exc:  # noqa: BLE001 - held by _batch
                return exc, None, columns
            return simulation, None, columns

        operations = [
            self._download(simulation,
                           output_tarball_path(simulation.remote_directory))
            for simulation in simulations]
        return [simulation for simulation in self._batch(
            JOURNAL_OP_STAGE_OUT, operations, interpret)
                if simulation is not None]

    # ------------------------------------------------------------------
    # Derived-class interface (model-specific)
    # ------------------------------------------------------------------
    def prejob_arguments(self, simulation):
        return []

    def input_files(self, simulation):
        raise NotImplementedError

    def submit_work_job(self, simulations):
        """The simulations whose work jobs are submitted."""
        raise NotImplementedError

    def check_work_job(self, simulations):
        """The simulations whose work is done."""
        raise NotImplementedError

    def interpret_results(self, simulation, tarball):
        raise NotImplementedError

    def consumed_core_seconds(self, simulation):
        """Core-seconds to charge; derived classes refine."""
        return 0.0
