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
