"""Daemon crash isolation and new ORM conveniences."""

import pytest

from repro.core import SIM_DONE, SIM_HOLD

from .conftest import submit_direct


class TestDaemonCrashIsolation:
    def test_buggy_simulation_held_others_continue(self, deployment,
                                                   astronomer):
        """An unexpected exception while processing one simulation
        holds it and lets every other simulation proceed."""
        healthy = submit_direct(deployment, astronomer)
        poisoned = submit_direct(deployment, astronomer)

        workflow = deployment.daemon.workflows["direct"]
        original = workflow.input_files

        def buggy(simulation):
            if simulation.pk == poisoned.pk:
                raise KeyError("synthetic defect in input generation")
            return original(simulation)
        workflow.input_files = buggy
        try:
            deployment.run_daemon_until_idle(poll_interval_s=1800,
                                             max_polls=200)
        finally:
            workflow.input_files = original
        healthy.refresh_from_db()
        poisoned.refresh_from_db()
        assert healthy.state == SIM_DONE
        assert poisoned.state == SIM_HOLD
        assert "internal daemon error" in poisoned.hold_reason
        assert "synthetic defect" in poisoned.hold_reason

    def test_held_simulation_recoverable_after_fix(self, deployment,
                                                   astronomer):
        sim = submit_direct(deployment, astronomer)
        workflow = deployment.daemon.workflows["direct"]
        original = workflow.input_files
        workflow.input_files = lambda s: (_ for _ in ()).throw(
            RuntimeError("transient code bug"))
        deployment.run_daemon_until_idle(poll_interval_s=1800,
                                         max_polls=20)
        workflow.input_files = original
        sim.refresh_from_db()
        assert sim.state == SIM_HOLD
        workflow.resume(sim)
        deployment.run_daemon_until_idle(poll_interval_s=1800)
        sim.refresh_from_db()
        assert sim.state == SIM_DONE


class TestGroupIsolation:
    """A working poll advances each (kind, state) group at once; a
    defect still holds only its own simulation."""

    @staticmethod
    def _pair_in_step(deployment, astronomer):
        return (submit_direct(deployment, astronomer),
                submit_direct(deployment, astronomer))

    def test_unserialisable_results_hold_only_their_simulation(
            self, deployment, astronomer):
        """Results a column refuses are refused in their simulation's
        own share of the POSTJOB step, not in the write its group
        shares: the peer reaches DONE, the bad one holds."""
        healthy, poisoned = self._pair_in_step(deployment, astronomer)
        workflow = deployment.daemon.workflows["direct"]
        functions, _ = workflow.workflow["POSTJOB"]
        interpret, postprocess = workflow.interpret_results, functions[1]
        group_sizes = []

        def bad_results(simulation, tarball):
            if simulation.pk == poisoned.pk:
                return {"unserialisable": object()}
            return interpret(simulation, tarball)

        def sized(simulations):
            group_sizes.append(len(simulations))
            return postprocess(simulations)
        workflow.interpret_results = bad_results
        functions[1] = sized
        deployment.run_daemon_until_idle(poll_interval_s=1800,
                                         max_polls=200)
        healthy.refresh_from_db()
        poisoned.refresh_from_db()
        assert group_sizes == [2]
        assert healthy.state == SIM_DONE
        assert poisoned.state == SIM_HOLD
        assert poisoned.state_before_hold == "POSTJOB"
        assert "not JSON-serialisable" in poisoned.hold_reason

    def test_a_defect_in_shared_code_holds_only_its_simulation(
            self, deployment, astronomer):
        """An exception in a group's shared write (here the SU
        settlement of CLEANUP's transaction) does not stop the poll:
        the group reruns one simulation at a time, and the defect then
        holds its own simulation alone."""
        healthy, poisoned = self._pair_in_step(deployment, astronomer)
        daemon = deployment.daemon
        settle = daemon.ledger.settle

        def defective(charges):
            if any(simulation.pk == poisoned.pk
                   for simulation, _ in charges):
                raise RuntimeError("synthetic defect in settlement")
            return settle(charges)
        daemon.ledger.settle = defective
        deployment.run_daemon_until_idle(poll_interval_s=1800,
                                         max_polls=200)
        healthy.refresh_from_db()
        poisoned.refresh_from_db()
        assert healthy.state == SIM_DONE
        assert poisoned.state == SIM_HOLD
        assert poisoned.state_before_hold == "CLEANUP"
        assert "synthetic defect" in poisoned.hold_reason
        errors = [record.fields["simulation"] for record
                  in deployment.obs.events.records
                  if record.kind == "daemon.error"]
        assert errors == [healthy.pk, poisoned.pk, poisoned.pk]
        # The held one's step waits for the next poll's reconciliation.
        assert daemon.journal.blocked == {poisoned.pk}
        deployment.clock.advance(1800)
        daemon.poll_once()
        assert not daemon.isolated and not daemon.journal.blocked

    def test_a_failed_step_write_is_reconciled_not_resubmitted(
            self, deployment, astronomer):
        """A step whose closing transaction fails after its grid
        commands leaves what a crash there leaves: intents.  The next
        poll adopts the jobs they submitted, and nothing is submitted
        twice."""
        from repro.core.models import (GridJobRecord, JOB_MODEL,
                                       JOURNAL_INTENT, OperationRecord)
        sims = self._pair_in_step(deployment, astronomer)
        workflow = deployment.daemon.workflows["direct"]
        write = workflow._write_simulations
        failures = []

        def failing_once():
            if not failures and any(
                    simulation.state == "RUNNING"
                    for simulation in workflow._dirty):
                failures.append(True)
                raise RuntimeError("synthetic write failure")
            return write()
        workflow._write_simulations = failing_once
        deployment.run_daemon_until_idle(poll_interval_s=1800,
                                         max_polls=200)
        db = deployment.databases.admin
        assert failures
        for simulation in sims:
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            assert GridJobRecord.objects.using(db).filter(
                simulation_id=simulation.pk,
                purpose=JOB_MODEL).count() == 1
        assert not OperationRecord.objects.using(db).filter(
            state=JOURNAL_INTENT).exists()
        adopted = [record.fields["count"] for record
                   in deployment.obs.events.records
                   if record.kind == "journal.orphans_adopted"]
        assert adopted == [2]

    def test_a_hold_is_announced_once_it_commits(self, deployment,
                                                 astronomer):
        """A hold's event and mail follow the transaction that writes
        it: when that transaction fails, nobody hears of the hold, and
        the rerun that commits it announces it once."""
        from repro.core.workflow import ModelFailure
        healthy, poisoned = self._pair_in_step(deployment, astronomer)
        workflow = deployment.daemon.workflows["direct"]
        interpret = workflow.interpret_results
        write = workflow._write_simulations
        failures = []

        def failing(simulation, tarball):
            if simulation.pk == poisoned.pk:
                raise ModelFailure("synthetic model failure")
            return interpret(simulation, tarball)

        def failing_once():
            if not failures and any(simulation.state == SIM_HOLD
                                    for simulation in workflow._dirty):
                failures.append(True)
                raise RuntimeError("synthetic write failure")
            return write()
        workflow.interpret_results = failing
        workflow._write_simulations = failing_once
        deployment.run_daemon_until_idle(poll_interval_s=1800,
                                         max_polls=200)
        healthy.refresh_from_db()
        poisoned.refresh_from_db()
        assert failures
        assert healthy.state == SIM_DONE
        assert poisoned.state == SIM_HOLD
        holds = [record.fields["simulation"] for record
                 in deployment.obs.events.records
                 if record.kind == "sim.hold"]
        assert holds == [poisoned.pk]
        assert [message.subject for message
                in deployment.mailer.to_user(astronomer.email)
                if "needs attention" in message.subject] == [
            f"AMP simulation #{poisoned.pk} needs attention"]


class TestMachineTelemetry:
    def test_daemon_publishes_queue_state(self, deployment, astronomer):
        """The daemon writes congestion data; the portal reads it."""
        import numpy as np
        from repro.core.models import MachineRecord
        from repro.hpc import DAY
        from repro.hpc.workload import BackgroundWorkload
        resource = deployment.fabric.resource("kraken")
        BackgroundWorkload(resource.scheduler, deployment.clock,
                           np.random.default_rng(1),
                           target_load=1.4).start(5 * DAY)
        deployment.clock.advance(2 * DAY)
        deployment.daemon.poll_once()
        record = MachineRecord.objects.using(
            deployment.databases.portal).get(name="kraken")
        assert record.queue_depth > 0
        assert record.utilisation > 0.5
        assert record.telemetry_updated is not None

    def test_portal_orders_machines_by_congestion(self, deployment,
                                                  astronomer):
        import numpy as np
        from repro.core.models import MachineRecord
        from repro.hpc import DAY
        from repro.hpc.workload import BackgroundWorkload
        from repro.webstack.testclient import Client
        resource = deployment.fabric.resource("kraken")
        BackgroundWorkload(resource.scheduler, deployment.clock,
                           np.random.default_rng(1),
                           target_load=1.4).start(5 * DAY)
        deployment.clock.advance(2 * DAY)
        deployment.daemon.poll_once()
        # Need an observation set to reach the optimization form.
        from .conftest import submit_optimization
        sim, _ = submit_optimization(deployment, astronomer)
        client = Client(deployment.build_portal())
        client.login("metcalfe", "pw12345")
        text = client.get(
            f"/submit/optimization/{sim.star_id}/").text
        assert "(queue busy)" in text
        # Kraken (congested) is listed after the idle machines.
        idle_pos = text.find("NCAR Frost")
        busy_pos = text.find("NICS Kraken")
        assert 0 < idle_pos < busy_pos

    def test_telemetry_survives_outage(self, deployment, astronomer):
        """Unreachable machines keep their last-known telemetry."""
        from repro.core.models import MachineRecord
        deployment.daemon.poll_once()
        before = MachineRecord.objects.using(
            deployment.databases.admin).get(name="kraken")
        deployment.fabric.resource("kraken").reachable = False
        deployment.clock.advance(600)
        deployment.daemon.poll_once()
        after = MachineRecord.objects.using(
            deployment.databases.admin).get(name="kraken")
        assert after.queue_depth == before.queue_depth
        deployment.fabric.resource("kraken").reachable = True
