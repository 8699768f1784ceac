"""Model-based test of the operation journal (hypothesis).

A random interleaving of journaled submits, uploads, downloads and
cancels for three simulations on two machines — one simulation at a
time, or a batch across all three — crash points armed before or after
a command (a batch's k-th one included) or a death inside a batch's
consequence write (a crash restarts the daemon: a fresh journal whose
boot reconciles every slice), outages that make commands and
reconciliation lookups transient, clock advances, and reconciles of
one slice or all must keep the journal's invariants:

* after a reconcile, every INTENT row of its scope is settled or its
  simulation is blocked — and because a restart reconciles and a
  blocked simulation issues nothing, every INTENT row's simulation is
  blocked after every step;
* the attempts for each (simulation, op, phase) run 1…n with no gaps;
* every idempotency key is unique;
* no INTENT row shares its key with a job record, even the instant a
  crash lands, before any recovery: the consequences commit with the
  settles;
* at most one committed submit, one job record and one GRAM job carry
  any one tag.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule)

from repro.core import AMPDeployment, KIND_DIRECT, Simulation, Star
from repro.core.journal import Operation, OperationJournal
from repro.core.models import (GRAM_IN_FLIGHT, GridJobRecord, JOB_MODEL,
                               JOB_REVOKED, JOURNAL_COMMITTED,
                               JOURNAL_INTENT, JOURNAL_OP_CANCEL,
                               JOURNAL_OP_STAGE_IN, JOURNAL_OP_STAGE_OUT,
                               JOURNAL_OP_SUBMIT, JOURNAL_OPS,
                               OperationRecord)
from repro.core.workflow import ModelFailure
from repro.grid import DaemonCrash, FaultInjector
from repro.grid.gram import AppExecution
from repro.grid.gridftp import checksum
from repro.grid.rsl import batch_spec, format_rsl
from repro.webstack.orm.query import QuerySet

pytestmark = pytest.mark.recovery

MACHINES = ("kraken", "frost")
N_SIMULATIONS = 3
#: (divisor, remainders): one slice of two, the other, or everything.
SCOPES = ((1, (0,)), (2, (0,)), (2, (1,)))
#: A batch executable that computes for half an hour and writes nothing.
IDLE = "/usr/local/amp/bin/idle.sh"
simulations = st.integers(0, N_SIMULATIONS - 1)


def classify(_simulation, result):
    """The workflows' transient/permanent triage, minus retry budgets."""
    if result.ok:
        return result
    if result.transient:
        return None
    raise ModelFailure(result.stderr)


class JournalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.deployment = AMPDeployment(seed_catalog=False)
        deployment = self.deployment
        self.db = deployment.databases.daemon
        self.clients = deployment.clients
        owner = deployment.create_astronomer("journal")
        star = Star(name="Journal Star", hd_number=186427)
        star.save(db=deployment.databases.admin)
        Simulation.objects.using(deployment.databases.portal).bulk_create([
            Simulation(star_id=star.pk, owner_id=owner.pk,
                       kind=KIND_DIRECT,
                       machine_name=MACHINES[index % len(MACHINES)],
                       parameters={"mass": 1.0, "z": 0.018, "y": 0.27,
                                   "alpha": 2.1, "age": 4.0})
            for index in range(N_SIMULATIONS)])
        self.simulations = list(Simulation.objects.using(self.db)
                                .select_related("owner").order_by("id"))
        for machine in MACHINES:
            deployment.fabric.resource(machine).install_application(
                IDLE, lambda _resource, **_: AppExecution(runtime_s=1800.0))
        for simulation in self.simulations:       # what a pre-job does
            deployment.fabric.resource(
                simulation.machine_name).filesystem.mkdir(
                simulation.remote_directory)
        self.injector = FaultInjector(deployment.fabric, deployment.clock)
        self.outages = {}
        self.restart()

    def teardown(self):
        self.deployment.close()

    # ------------------------------------------------------------------
    def restart(self):
        """A bounced daemon: a fresh journal, whose boot reconciles
        every slice."""
        deployment = self.deployment
        self.journal = OperationJournal(
            self.db, self.clients, deployment.clock,
            deployment.fabric.crash_schedule, deployment.obs)
        self.reconcile(SCOPES[0])

    def _journal(self, op, operations, record=None, dies=False):
        """One batch of the unblocked simulations' *operations*, settled
        by the transaction that ends a step — or a daemon dying inside
        that transaction, after the batch's job records are written."""
        operations = [operation for operation in operations
                      if operation.simulation.pk not in self.journal.blocked]
        if not operations:
            return                      # frozen: issues nothing
        owner = operations[0].simulation.owner
        self.clients.ensure_proxy(owner.username, owner.email)
        bulk_update = QuerySet.bulk_update

        def dying(queryset, objs, fields, **kwargs):
            if queryset.model is OperationRecord:
                raise DaemonCrash(op, "inside")
            return bulk_update(queryset, objs, fields, **kwargs)

        try:
            self.journal.call(op, operations, classify, record)
            if dies:
                QuerySet.bulk_update = dying
            try:
                self.journal.flush()
            finally:
                QuerySet.bulk_update = bulk_update
        except DaemonCrash:
            # What the dead process left, before any recovery runs.
            self.no_intent_shares_its_key_with_a_job()
            self.restart()

    def _intents(self):
        return list(OperationRecord.objects.using(self.db)
                    .filter(state=JOURNAL_INTENT))

    # ------------------------------------------------------------------
    def _submission(self, index, sequence):
        simulation = self.simulations[index]
        spec = batch_spec(IDLE, count=1, max_wall_time_s=3600.0,
                          directory=simulation.remote_directory)
        return Operation(
            simulation, f"{JOB_MODEL}-0-{sequence}",
            lambda key: self.clients.submit_job(
                simulation.machine_name, {**spec, "clientTag": key}),
            purpose=JOB_MODEL, sequence=sequence, service="batch",
            rsl=lambda key: format_rsl({**spec, "clientTag": key}))

    @staticmethod
    def _record_submission(result, entry):
        job = OperationJournal.job_record(entry, int(result.stdout),
                                          "PENDING")
        return job, job, {}

    def _upload(self, index, name, content):
        simulation = self.simulations[index]
        path = f"{simulation.remote_directory}/{name}"
        data = content.encode("utf-8")
        return Operation(simulation, f"stagein-{name}",
                         lambda _key: self.clients.stage_in(
                             simulation.machine_name, path, content),
                         remote_path=path, payload_size=len(data),
                         payload_digest=checksum(data))

    def _download(self, index, name):
        simulation = self.simulations[index]
        path = f"{simulation.remote_directory}/{name}"
        return Operation(simulation, f"stageout-{name}",
                         lambda _key: self.clients.stage_out(
                             simulation.machine_name, path),
                         remote_path=path)

    @rule(index=simulations, sequence=st.integers(0, 1))
    def submit(self, index, sequence, dies=False):
        self._journal(JOURNAL_OP_SUBMIT, [self._submission(index, sequence)],
                      self._record_submission, dies)

    @rule(index=simulations, sequence=st.integers(0, 1))
    def submit_dying_in_its_record(self, index, sequence):
        """The daemon dies inside the consequence write: the job record
        is written, the journal entry not yet settled."""
        self.submit(index, sequence, dies=True)

    @rule(index=simulations, name=st.sampled_from(["amp_in", "params"]),
          content=st.sampled_from(["1.0", "1.04 0.27"]))
    def stage_in(self, index, name, content):
        self._journal(JOURNAL_OP_STAGE_IN,
                      [self._upload(index, name, content)])

    @rule(index=simulations, name=st.sampled_from(["amp_in", "params"]))
    def stage_out(self, index, name):
        self._journal(JOURNAL_OP_STAGE_OUT, [self._download(index, name)])

    @rule(op=st.sampled_from([JOURNAL_OP_SUBMIT, JOURNAL_OP_STAGE_IN,
                              JOURNAL_OP_STAGE_OUT]),
          crash=st.sampled_from([None, "before", "after", "inside"]),
          k=st.integers(0, N_SIMULATIONS - 1), sequence=st.integers(0, 1))
    def batch(self, op, crash, k, sequence):
        """One batch across the three simulations, the daemon killed
        before or after its k-th command or inside its consequence
        write — or not at all."""
        indexes = range(N_SIMULATIONS)
        if op == JOURNAL_OP_SUBMIT:
            operations = [self._submission(index, sequence)
                          for index in indexes]
            record = self._record_submission
        elif op == JOURNAL_OP_STAGE_IN:
            operations = [self._upload(index, "amp_in", "1.0")
                          for index in indexes]
            record = None
        else:
            operations = [self._download(index, "params")
                          for index in indexes]
            record = None
        if crash in ("before", "after"):
            self.injector.crash(op, when=crash, skip=k)
        self._journal(op, operations, record, dies=crash == "inside")

    @rule(index=simulations)
    def cancel(self, index):
        simulation = self.simulations[index]
        job = (GridJobRecord.objects.using(self.db)
               .filter(simulation_id=simulation.pk,
                       state__in=list(GRAM_IN_FLIGHT))
               .order_by("-id").first())
        if job is None:
            return

        def revoke(_result, _entry):
            job.state = "FAILED"
            job.failure_reason = JOB_REVOKED
            return True, job, {}

        self._journal(JOURNAL_OP_CANCEL, [Operation(
            simulation, f"cancel-{job.pk}",
            lambda _key: self.clients.job_cancel(
                simulation.machine_name, job.gram_job_id),
            purpose=job.purpose, gram_job_id=job.gram_job_id,
            job_record_id=job.pk)], revoke)

    @rule(op=st.sampled_from(JOURNAL_OPS),
          when=st.sampled_from(["before", "after"]))
    def arm_crash(self, op, when):
        self.injector.crash(op, when=when)

    @rule(machine=st.sampled_from(MACHINES))
    def toggle_outage(self, machine):
        if machine in self.outages:
            self.outages.pop(machine).restore()
        else:
            self.outages[machine] = self.injector.permanent_outage(machine)

    @rule(seconds=st.sampled_from([60.0, 900.0, 3600.0]))
    def advance(self, seconds):
        self.deployment.clock.advance(seconds)

    @rule(scope=st.sampled_from(SCOPES))
    def reconcile(self, scope):
        self.journal.reconcile(scope)
        divisor, remainders = scope
        for entry in self._intents():
            if entry.simulation_id % divisor in remainders:
                assert entry.simulation_id in self.journal.blocked, entry

    # ------------------------------------------------------------------
    @invariant()
    def every_intent_is_blocked(self):
        for entry in self._intents():
            assert entry.simulation_id in self.journal.blocked, entry

    @invariant()
    def no_intent_shares_its_key_with_a_job(self):
        jobs = {job.idempotency_key for job in
                GridJobRecord.objects.using(self.db).all()}
        assert not [entry for entry in self._intents()
                    if entry.idempotency_key in jobs]

    @invariant()
    def attempts_have_no_gaps(self):
        attempts = {}
        for entry in OperationRecord.objects.using(self.db).all():
            attempts.setdefault(
                (entry.simulation_id, entry.op, entry.phase),
                []).append(entry.attempt)
        for phase, numbers in attempts.items():
            assert sorted(numbers) == list(
                range(1, len(numbers) + 1)), phase

    @invariant()
    def keys_are_unique(self):
        keys = Counter(entry.idempotency_key for entry in
                       OperationRecord.objects.using(self.db).all())
        assert not [key for key, n in keys.items() if n > 1]

    @invariant()
    def one_submit_per_tag(self):
        committed = Counter(
            entry.idempotency_key for entry in
            OperationRecord.objects.using(self.db).filter(
                op=JOURNAL_OP_SUBMIT, state=JOURNAL_COMMITTED))
        records = Counter(job.idempotency_key for job in
                          GridJobRecord.objects.using(self.db).all())
        fabric = self.deployment.fabric
        tags = Counter(job.rsl.get("clientTag")
                       for machine in MACHINES
                       for job in fabric.gram(machine).jobs.values())
        for counts in (committed, records, tags):
            assert max(counts.values(), default=0) <= 1, counts


TestJournalMachine = JournalMachine.TestCase
TestJournalMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
