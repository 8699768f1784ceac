"""Daemon poll mechanics, external monitoring, role separation, gantt."""

import pytest

from repro.core import (GridJobRecord, SIM_DONE, Simulation,
                        audit_role_separation)
from repro.core.daemon import ExternalMonitor
from repro.core.gantt import (aggregate_statistics, per_chain_statistics,
                              render_ascii, simulation_gantt)
from repro.hpc import HOUR
from repro.webstack.orm import PermissionDenied

from .conftest import submit_direct, submit_optimization
from .test_workflow import drive


class TestDaemonPolling:
    def test_two_level_status_update(self, deployment, astronomer):
        """Level 1 updates job records generically; level 2 reads them."""
        sim = submit_direct(deployment, astronomer)
        deployment.clock.advance(300)
        deployment.daemon.poll_once()   # QUEUED -> PREJOB
        record = GridJobRecord.objects.using(
            deployment.databases.admin).get(simulation_id=sim.pk)
        assert record.state in ("PENDING", "DONE")
        deployment.clock.advance(300)
        deployment.daemon.poll_once()
        record.refresh_from_db()
        assert record.state == "DONE"   # fork jobs complete immediately

    def test_poll_counts_and_heartbeat(self, deployment, astronomer):
        before = deployment.daemon.heartbeat
        deployment.clock.advance(600)
        deployment.daemon.poll_once()
        assert deployment.daemon.poll_count == 1
        assert deployment.daemon.heartbeat > before

    def test_multiple_simulations_advance_together(self, deployment,
                                                   astronomer):
        sims = [submit_direct(deployment, astronomer) for _ in range(3)]
        deployment.run_daemon_until_idle(poll_interval_s=1800)
        for sim in sims:
            sim.refresh_from_db()
            assert sim.state == SIM_DONE

    def test_run_until_idle_stops(self, deployment, astronomer):
        submit_direct(deployment, astronomer)
        polls = deployment.run_daemon_until_idle(poll_interval_s=1800)
        assert polls < 100
        assert deployment.daemon.active_count() == 0

    def test_simulations_on_different_machines(self, deployment,
                                               astronomer):
        a = submit_direct(deployment, astronomer, machine="kraken")
        b = submit_direct(deployment, astronomer, machine="frost")
        deployment.run_daemon_until_idle(poll_interval_s=1800)
        a.refresh_from_db()
        b.refresh_from_db()
        assert a.state == SIM_DONE and b.state == SIM_DONE


class TestExternalMonitor:
    def test_healthy_heartbeat(self, deployment):
        deployment.daemon.poll_once()
        monitor = ExternalMonitor(deployment.fleet, deployment.mailer,
                                  clock=deployment.clock,
                                  obs=deployment.obs, stale_after_s=1800)
        assert monitor.check()
        assert monitor.alerts == []

    def test_stale_heartbeat_alerts_admin(self, deployment):
        deployment.daemon.poll_once()
        monitor = ExternalMonitor(deployment.fleet, deployment.mailer,
                                  clock=deployment.clock,
                                  obs=deployment.obs, stale_after_s=1800)
        deployment.clock.advance(2 * HOUR)   # daemon "crashed"
        assert not monitor.check()
        assert any("heartbeat" in m.subject
                   for m in deployment.mailer.to_admin())


class TestRoleSeparation:
    def test_structural_audit_all_green(self, deployment):
        audit = audit_role_separation(deployment.databases)
        assert all(audit.values()), audit

    def test_portal_cannot_write_grid_jobs(self, deployment,
                                           astronomer):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        with pytest.raises(PermissionDenied):
            GridJobRecord.objects.using(
                deployment.databases.portal).filter(
                simulation_id=sim.pk).update(state="FAILED")

    def test_portal_can_read_grid_job_status(self, deployment,
                                             astronomer):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        records = GridJobRecord.objects.using(
            deployment.databases.portal).filter(simulation_id=sim.pk)
        assert records.count() == 4

    def test_daemon_cannot_create_accounts(self, deployment):
        from repro.webstack.auth import User
        with pytest.raises(PermissionDenied):
            User(username="evil", email="e@x.yz", password="x").save(
                db=deployment.databases.daemon)

    def test_portal_host_has_no_grid_objects(self, deployment):
        """Figure 2's separation: nothing reachable from the portal app
        references the fabric, clients, or credentials."""
        app = deployment.build_portal()
        assert app.db is deployment.databases.portal
        for attr in vars(app).values():
            assert attr is not deployment.fabric
            assert attr is not deployment.clients
        # The credential itself lives only on the daemon host object.
        assert deployment.clients.fabric.credential is not None

    def test_credential_never_stored_in_database(self, deployment,
                                                 astronomer):
        """Even a full DB dump contains no credential material."""
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        secret = deployment.fabric.credential._secret
        admin = deployment.databases.admin
        for table in admin.table_names():
            cursor = admin.connection.execute(f'SELECT * FROM "{table}"')
            for row in cursor.fetchall():
                assert secret not in str(tuple(row))


class TestGantt:
    def test_direct_run_gantt(self, deployment, astronomer):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        rows = simulation_gantt(deployment, sim)
        assert len(rows) == 1          # one batch job (the model)
        assert rows[0].run_s > 0

    def test_optimization_gantt_has_chains(self, deployment,
                                           astronomer):
        sim, _ = submit_optimization(deployment, astronomer,
                                     iterations=20,
                                     walltime_s=6 * HOUR)
        drive(deployment, sim)
        rows = simulation_gantt(deployment, sim)
        chains = per_chain_statistics(rows)
        assert set(chains) == {0, 1}
        assert all(c["jobs"] >= 2 for c in chains.values())

    def test_aggregate_statistics(self, deployment, astronomer):
        sim, _ = submit_optimization(deployment, astronomer,
                                     iterations=10)
        drive(deployment, sim)
        stats = aggregate_statistics(simulation_gantt(deployment, sim))
        assert stats["jobs"] >= 3      # 2 GA jobs + solution
        assert stats["total_run_s"] > 0
        assert 0 <= stats["wait_fraction"] < 1

    def test_ascii_render(self, deployment, astronomer):
        sim, _ = submit_optimization(deployment, astronomer,
                                     iterations=10)
        drive(deployment, sim)
        chart = render_ascii(simulation_gantt(deployment, sim))
        assert "ga0.0" in chart
        assert "#" in chart
        assert "aggregate:" in chart

    def test_empty_render(self):
        assert "no batch jobs" in render_ascii([])
