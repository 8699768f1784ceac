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
the indicated next state."

The base class owns everything generic — job queuing, stage-in,
stage-out, transient handling, hold/resume, accounting — while derived
classes implement only GRAM job generation and model postprocessing
("the derived classes are very small and contain only model-specific
execution and postprocessing code").
"""

from __future__ import annotations

import posixpath
import re

from ...grid.gridftp import checksum
from ...grid.retry import classify_operation
from ...grid.rsl import fork_spec, format_rsl
from ...hpc.accounting import cpu_hours
from ...webstack.orm import Q
from ..models import (GridJobRecord, HOLD_MODEL, HOLD_RESOURCE,
                      JOB_CLEANUP, JOB_POSTJOB, JOB_PREJOB,
                      JOURNAL_OP_STAGE_IN, JOURNAL_OP_STAGE_OUT,
                      JOURNAL_OP_SUBMIT, MACHINE_AUTO, SIM_DONE, SIM_HOLD,
                      SubmitAuthorization)
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


class ModelFailure(Exception):
    """A model-processing failure: the simulation must HOLD (§4.4)."""


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
        every side-effecting grid call goes through its ``call``, and a
        simulation in its ``blocked`` set is frozen until reconciliation
        settles its intent.
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

    def advance(self, simulation):
        """Run the current state's function list; transition if all pass.

        Returns True when a state transition happened.
        """
        if not self.ready(simulation):
            return False
        # Every cycle acts under a fresh SAML-attributed proxy for the
        # simulation's owner (proxies are short-lived by design).
        owner = simulation.owner
        return self.proceed(
            simulation, self.clients.ensure_proxy(owner.username,
                                                  owner.email))

    def proceed(self, simulation, refresh):
        """``advance`` past its guards, with the owner's proxy
        *refresh* already issued; True when a transition happened."""
        functions, next_state = self.workflow[simulation.state]
        try:
            if self._grid_call(simulation, refresh) is None:
                return False
            for fn in functions:
                if not fn(simulation):
                    return False
        except (ModelFailure, StagingError) as exc:
            self.hold(simulation, str(exc))
            return False
        old_state = simulation.state
        simulation.state = next_state
        simulation.status_message = ""
        simulation.save(db=self.db)
        self.obs.events.emit(
            "sim.transition", simulation=simulation.pk,
            trace_id=simulation.correlation_id,
            from_state=old_state, to_state=next_state,
            machine=simulation.machine_name)
        self.obs.metrics.counter(
            "sim_transitions_total",
            help="Workflow state transitions").labels(
            to_state=next_state).inc()
        self.policy.on_transition(simulation, old_state, next_state)
        return True

    def run_to_completion(self, simulation):
        """Keep advancing while progress is possible (tests/benches)."""
        while simulation.state not in (SIM_DONE, SIM_HOLD):
            if not self.advance(simulation):
                break
        return simulation.state

    # ------------------------------------------------------------------
    # Hold / resume (model failures and exhausted retry budgets)
    # ------------------------------------------------------------------
    def hold(self, simulation, reason, category=HOLD_MODEL):
        simulation.state_before_hold = simulation.state
        simulation.state = SIM_HOLD
        simulation.hold_reason = reason
        simulation.hold_category = category
        simulation.save(db=self.db)
        self.obs.events.emit(
            "sim.hold", simulation=simulation.pk,
            trace_id=simulation.correlation_id,
            from_state=simulation.state_before_hold, category=category,
            reason=reason.splitlines()[0] if reason else "")
        self.obs.metrics.counter(
            "sim_holds_total", help="Simulations held by category"
        ).labels(category=category).inc()
        self.policy.on_hold(simulation, reason, category=category)

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
            simulation.save(db=self.db)

    def _record_transient(self, simulation, operation, result):
        counts = dict(simulation.retry_counts or {})
        attempt = counts.get(operation, 0) + 1
        counts[operation] = attempt
        simulation.retry_counts = counts
        if self.retry.exhausted(attempt):
            # The budget is spent: this is no longer a silent transient.
            self.policy.on_budget_exhausted(
                simulation, operation, attempt,
                f"budget exhausted after {attempt} attempts: "
                f"{result.command_line}\n{result.stderr}")
            self.hold(simulation, BUDGET_EXHAUSTED_MESSAGE,
                      category=HOLD_RESOURCE)
            return
        simulation.retry_not_before = self.retry.next_retry(
            simulation.pk, operation, attempt)
        simulation.status_message = TRANSIENT_MESSAGE
        simulation.save(db=self.db)
        self.policy.on_transient(
            simulation,
            f"retryable (attempt {attempt}/"
            f"{self.retry.policy.max_attempts}): "
            f"{result.command_line}\n{result.stderr}")

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

    def _submit_fork(self, simulation, purpose, executable, arguments=()):
        """Submit a fork-service script and record it."""
        spec = fork_spec(executable,
                         directory=simulation.remote_directory,
                         arguments=list(arguments))
        return self._journaled_submit(simulation, purpose, spec,
                                      service="fork", phase=purpose)

    def _submit_batch(self, simulation, purpose, spec, *, ga_index=0,
                      sequence=0):
        return self._journaled_submit(
            simulation, purpose, spec, service="batch",
            ga_index=ga_index, sequence=sequence,
            phase=f"{purpose}-{ga_index}-{sequence}")

    def _journaled_submit(self, simulation, purpose, spec, *, service,
                          phase, ga_index=0, sequence=0):
        """The single submission path (fork and batch).

        The journal's key is stamped into the RSL as ``clientTag``
        *before* the intent row is written, so whatever GRAM ends up
        holding is findable by the exact key the journal recorded.
        """
        def tagged(key):
            return {**spec, "clientTag": key}

        def record(result, entry):
            job = self.journal.job_record(entry, int(result.stdout),
                                          "PENDING")
            job.save(db=self.db)
            self._remember_job(simulation, job)
            return job, {"gram_job_id": job.gram_job_id,
                         "job_record_id": job.pk}

        return self.journal.call(
            simulation, JOURNAL_OP_SUBMIT, phase,
            lambda key: self.clients.submit_job(
                simulation.machine_name, tagged(key), service=service),
            self._grid_call, record, purpose=purpose, ga_index=ga_index,
            sequence=sequence, service=service,
            rsl=lambda key: format_rsl(tagged(key)))

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

    def _stage_in(self, simulation, files):
        """Upload regenerated input files; False on transient.

        Each file is journaled with its payload size and digest so a
        restart can re-verify a maybe-partial transfer with one remote
        ``stat`` instead of re-uploading blindly.
        """
        directory = simulation.remote_directory
        for rel_path, content in sorted(files.items()):
            remote_path = posixpath.join(directory, rel_path)
            data = (content.encode("utf-8")
                    if isinstance(content, str) else content)
            if self.journal.call(
                    simulation, JOURNAL_OP_STAGE_IN,
                    f"stagein-{self._phase_slug(rel_path)}",
                    lambda _key: self.clients.stage_in(
                        simulation.machine_name, remote_path, content),
                    self._grid_call, remote_path=remote_path,
                    payload_size=len(data),
                    payload_digest=checksum(data)) is None:
                return False
        return True

    def _stage_out(self, simulation, remote_path):
        """Download one file; None on transient.

        Downloads are side-effect-free on the fabric, but they are
        journaled anyway: the intent row is what lets reconciliation
        distinguish "crashed mid-download" (harmless, re-issue) from
        "crashed mid-upload" (must verify) without guessing.
        """
        rel = remote_path
        if rel.startswith(simulation.remote_directory):
            rel = rel[len(simulation.remote_directory):]

        def record(result, _entry):
            return result.data, {"payload_size": len(result.data),
                                 "payload_digest": checksum(result.data)}

        return self.journal.call(
            simulation, JOURNAL_OP_STAGE_OUT,
            f"stageout-{self._phase_slug(rel)}",
            lambda _key: self.clients.stage_out(simulation.machine_name,
                                                remote_path),
            self._grid_call, record, remote_path=remote_path)

    def machine_spec(self, simulation):
        try:
            return self.machine_specs[simulation.machine_name]
        except KeyError:
            raise ModelFailure(
                f"Unknown machine {simulation.machine_name!r}")

    # ------------------------------------------------------------------
    # QUEUED
    # ------------------------------------------------------------------
    def check_queued_sim(self, simulation):
        """Verify the owner may run on this machine with SUs remaining."""
        self.machine_spec(simulation)
        auths = SubmitAuthorization.objects.using(self.db).filter(
            user_id=simulation.owner_id, active=True).select_related(
            "machine", "allocation")
        for auth in auths:
            if auth.machine.name == simulation.machine_name:
                if auth.allocation.su_remaining <= 0:
                    raise ModelFailure(
                        f"Allocation {auth.allocation.project} on "
                        f"{simulation.machine_name} is exhausted")
                return True
        raise ModelFailure(
            f"User {simulation.owner_id} is not authorized to submit to "
            f"{simulation.machine_name}")

    def submit_pre_job(self, simulation):
        if self._latest_job(simulation, JOB_PREJOB) is not None:
            return True
        record = self._submit_fork(simulation, JOB_PREJOB, PREJOB_SH,
                                   arguments=self.prejob_arguments(
                                       simulation))
        return record is not None

    # ------------------------------------------------------------------
    # PREJOB
    # ------------------------------------------------------------------
    def check_pre_job(self, simulation):
        record = self._latest_job(simulation, JOB_PREJOB)
        if not self._check_job(simulation, record, label="pre-job"):
            return False
        return self._stage_in(simulation, self.input_files(simulation))

    # ------------------------------------------------------------------
    # POSTJOB / CLEANUP
    # ------------------------------------------------------------------
    def submit_post_job(self, simulation):
        if self._latest_job(simulation, JOB_POSTJOB) is not None:
            return True
        record = self._submit_fork(simulation, JOB_POSTJOB, POSTJOB_SH)
        return record is not None

    def check_post_job(self, simulation):
        record = self._latest_job(simulation, JOB_POSTJOB)
        return self._check_job(simulation, record, label="post-job")

    def submit_cleanup(self, simulation):
        # The tarball must be safely downloaded (postprocess) before the
        # cleanup stage removes the execution environment.
        if self._latest_job(simulation, JOB_CLEANUP) is not None:
            return True
        record = self._submit_fork(simulation, JOB_CLEANUP, CLEANUP_SH)
        return record is not None

    def check_cleanup(self, simulation):
        record = self._latest_job(simulation, JOB_CLEANUP)
        return self._check_job(simulation, record, label="cleanup")

    def close_simulation(self, simulation):
        """Final bookkeeping: charge SUs against the allocation."""
        self._charge_allocation(simulation)
        return True

    def _charge_allocation(self, simulation):
        spec = self.machine_spec(simulation)
        core_seconds = self.consumed_core_seconds(simulation)
        sus = 0.0
        if core_seconds > 0:
            sus = cpu_hours(1, core_seconds) * spec.su_charge_factor
        # Broker-placed work settles through the ledger (idempotently:
        # a re-run after a crash finds the reservation already settled
        # and charges nothing).  True means the ledger owned it.
        if self.ledger.settle(simulation, sus):
            return
        if sus <= 0:
            return
        for auth in SubmitAuthorization.objects.using(self.db).filter(
                user_id=simulation.owner_id, active=True).select_related(
                "machine", "allocation"):
            if auth.machine.name == simulation.machine_name:
                allocation = auth.allocation
                allocation.su_used = allocation.su_used + sus
                allocation.save(db=self.db)
                break

    # ------------------------------------------------------------------
    # Postprocess (shared shell; derived classes interpret)
    # ------------------------------------------------------------------
    def postprocess(self, simulation):
        tarball = self._stage_out(
            simulation, output_tarball_path(simulation.remote_directory))
        if tarball is None:
            return False
        results = self.interpret_results(simulation, tarball)
        simulation.results = results
        simulation.save(db=self.db)
        return True

    # ------------------------------------------------------------------
    # Derived-class interface (model-specific)
    # ------------------------------------------------------------------
    def prejob_arguments(self, simulation):
        return []

    def input_files(self, simulation):
        raise NotImplementedError

    def submit_work_job(self, simulation):
        raise NotImplementedError

    def check_work_job(self, simulation):
        raise NotImplementedError

    def interpret_results(self, simulation, tarball):
        raise NotImplementedError

    def consumed_core_seconds(self, simulation):
        """Core-seconds to charge; derived classes refine."""
        return 0.0
