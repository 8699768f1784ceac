"""The durable operation journal: write-ahead discipline and keys.

Every side-effecting grid call is journaled intent-first; these tests
pin the bookkeeping itself — deterministic idempotency keys, commit
ordering, attempt renumbering across transient retries, and the role
grants — while ``tests/integration/test_crash_recovery.py`` exercises
the crash windows the journal exists for.
"""

import posixpath

import pytest

from repro.core import OperationRecord, idempotency_key
from repro.core.models import (GRAM_IN_FLIGHT, JOB_REVOKED,
                               JOURNAL_ABORTED, JOURNAL_COMMITTED,
                               JOURNAL_OP_CANCEL, JOURNAL_OP_SUBMIT,
                               GridJobRecord, OUTCOME_COMMITTED,
                               OUTCOME_TRANSIENT, SIM_DONE)
from repro.core.remote import RUN_GA_SH
from repro.grid import FaultInjector
from repro.grid.gram import AppExecution
from tests.conftest import keep_everything

from .conftest import submit_direct, submit_optimization


class TestIdempotencyKey:
    def test_deterministic_format(self):
        assert idempotency_key(7, "prejob", 2) == "amp-sim-7-prejob-2"
        assert idempotency_key(123, "model-0-0", 1) \
            == "amp-sim-123-model-0-0-1"

    def test_distinct_across_phases_and_attempts(self):
        keys = {idempotency_key(1, phase, attempt)
                for phase in ("prejob", "postjob", "model-0-0")
                for attempt in (1, 2, 3)}
        assert len(keys) == 9


class TestWriteAheadJournal:
    def drive(self, deployment):
        deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                         max_polls=200)

    def entries(self, deployment):
        return list(OperationRecord.objects.using(
            deployment.databases.admin).order_by("id"))

    def test_clean_run_commits_every_operation(self, deployment,
                                               astronomer):
        sim = submit_direct(deployment, astronomer)
        self.drive(deployment)
        sim.refresh_from_db()
        assert sim.state == SIM_DONE
        entries = self.entries(deployment)
        assert entries, "no journal entries written"
        for entry in entries:
            assert entry.state == JOURNAL_COMMITTED
            assert entry.outcome == OUTCOME_COMMITTED
            assert entry.idempotency_key == idempotency_key(
                entry.simulation_id, entry.phase, entry.attempt)
            assert entry.resolved_at >= entry.intent_at
        # Keys are globally unique by construction (and by constraint).
        keys = [e.idempotency_key for e in entries]
        assert len(keys) == len(set(keys))
        # The full direct-run surface is journaled: four submits plus
        # the input upload and the tarball download.
        ops = sorted(e.op for e in entries)
        assert ops.count("submit") == 4
        assert ops.count("stage_in") == 1
        assert ops.count("stage_out") == 1

    def test_submit_entries_cross_link_job_records(self, deployment,
                                                   astronomer):
        sim = submit_direct(deployment, astronomer)
        self.drive(deployment)
        db = deployment.databases.admin
        for entry in OperationRecord.objects.using(db).filter(
                op=JOURNAL_OP_SUBMIT):
            record = GridJobRecord.objects.using(db).get(
                pk=entry.job_record_id)
            assert record.idempotency_key == entry.idempotency_key
            assert record.gram_job_id == entry.gram_job_id
            # The key rides into GRAM as the RSL clientTag, which is
            # what makes orphans findable after a crash.
            assert f"(clientTag={entry.idempotency_key})" in record.rsl

    def test_transient_submit_aborts_and_renumbers(self, deployment,
                                                   astronomer):
        sim = submit_direct(deployment, astronomer)
        injector = FaultInjector(deployment.fabric, deployment.clock)
        injector.reject_submissions("kraken", 1)
        self.drive(deployment)
        sim.refresh_from_db()
        assert sim.state == SIM_DONE
        prejob = list(OperationRecord.objects.using(
            deployment.databases.admin).filter(
            simulation_id=sim.pk, phase="prejob").order_by("attempt"))
        assert [e.attempt for e in prejob] == [1, 2]
        assert prejob[0].state == JOURNAL_ABORTED
        assert prejob[0].outcome == OUTCOME_TRANSIENT
        assert prejob[1].state == JOURNAL_COMMITTED
        # The rejected attempt's key was never reused.
        assert prejob[0].idempotency_key != prejob[1].idempotency_key

    def test_blocked_simulation_is_frozen(self, deployment, astronomer):
        sim = submit_direct(deployment, astronomer)
        workflow = deployment.daemon.workflows["direct"]
        # The daemon and its workflows share one journal.
        assert workflow.journal is deployment.daemon.journal
        workflow.journal.blocked.add(sim.pk)
        deployment.clock.advance(1800.0)
        assert workflow.advance([sim]) == []
        assert sim.state == "QUEUED"
        assert not self.entries(deployment)
        workflow.journal.blocked.discard(sim.pk)
        self.drive(deployment)
        sim.refresh_from_db()
        assert sim.state == SIM_DONE


class TestSurplusCancel:
    """A chained run whose surplus-job cancels meet an outage: the
    cancel is classified like every other call, so a failed one leaves
    its job in flight and is retried, never recorded as done."""

    def test_failed_cancel_is_retried_after_the_outage(
            self, deployment, astronomer):
        keep_everything(deployment)
        sim, _ = submit_optimization(deployment, astronomer, n_ga_runs=1,
                                     iterations=60,
                                     walltime_s=4 * 3600.0)
        sim.config["use_chaining"] = True
        sim.save(db=deployment.databases.admin)
        kraken = deployment.fabric.resource("kraken")
        run_ga = kraken.applications[RUN_GA_SH]

        def surplus_lingers(resource, *, directory, **kwargs):
            # A continuation started after its GA reached the target
            # holds its cores for an hour unless the gateway cancels it.
            progress = posixpath.join(directory, "ga_0", "progress.json")
            finished = resource.filesystem.exists(progress) and \
                resource.filesystem.read_json(progress)["finished"]
            execution = run_ga(resource, directory=directory, **kwargs)
            if finished:
                return AppExecution(runtime_s=3600.0,
                                    on_finish=execution.on_finish)
            return execution
        kraken.install_application(RUN_GA_SH, surplus_lingers)

        gram, injector = deployment.fabric.gram("kraken"), \
            FaultInjector(deployment.fabric, deployment.clock)
        cancel, outages = gram.cancel, []

        def gatekeeper_down_at_revocation(proxy, job_id):
            if not outages:
                outages.append(injector.permanent_outage("kraken"))
                deployment.clock.schedule(500.0, outages[0].restore)
            return cancel(proxy, job_id)
        gram.cancel = gatekeeper_down_at_revocation

        admin = deployment.databases.admin
        while not outages:
            deployment.run_daemon_until_idle(poll_interval_s=300.0,
                                             max_polls=1)
        first = OperationRecord.objects.using(admin).filter(
            op=JOURNAL_OP_CANCEL).order_by("id").first()
        assert (first.attempt, first.state, first.outcome) == (
            1, JOURNAL_ABORTED, OUTCOME_TRANSIENT)
        job = GridJobRecord.objects.using(admin).get(
            pk=first.job_record_id)
        assert job.state in GRAM_IN_FLIGHT

        deployment.run_daemon_until_idle(poll_interval_s=300.0,
                                         max_polls=200)
        sim.refresh_from_db()
        assert sim.state == SIM_DONE
        assert sim.hold_reason == ""
        revoked = {job.gram_job_id for job in GridJobRecord.objects
                   .using(admin).filter(failure_reason=JOB_REVOKED)}
        cancelled = [int(result.argv[-1])
                     for result in deployment.clients.command_log
                     if result.argv[0] == "globus-job-cancel"
                     and result.ok]
        assert revoked and sorted(cancelled) == sorted(revoked)
        # GRAM agrees: nothing the gateway revoked still runs.
        assert all(gram.jobs[gram_job_id].state == "FAILED"
                   for gram_job_id in revoked)


class TestJournalGrants:
    """Asked of the engine: each probe is prepared (``EXPLAIN``) on the
    role's own connection, where SQLite's authorizer decides."""

    PROBES = {"select": "SELECT * FROM amp_operation",
              "insert": "INSERT INTO amp_operation DEFAULT VALUES",
              "update": "UPDATE amp_operation SET id = id",
              "delete": "DELETE FROM amp_operation"}

    def test_daemon_owns_the_journal(self, deployment):
        from repro.core.security import refuses
        daemon_db = deployment.databases.daemon
        for operation in ("select", "insert", "update"):
            assert not refuses(daemon_db, self.PROBES[operation])
        assert refuses(daemon_db, self.PROBES["delete"])

    def test_portal_reads_only(self, deployment):
        from repro.core.security import refuses
        portal_db = deployment.databases.portal
        assert not refuses(portal_db, self.PROBES["select"])
        for operation in ("insert", "update", "delete"):
            assert refuses(portal_db, self.PROBES[operation])
