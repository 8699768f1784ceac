"""The placement engine: sweeps, refusals, releases, query budget.

Each test drives :meth:`ResourceBroker.place_pending` directly (the
same call the daemon's ``place_simulations`` phase makes) so the sweep
semantics are pinned independently of the workflow machinery; the
integration suite then runs the whole daemon.
"""

import pytest

from repro.core import (RESERVATION_RELEASED, RESERVATION_RESERVED,
                        RESERVATION_SETTLED, ReservationRecord,
                        SIM_CANCELLED, Simulation)
from repro.core.leases import WHOLE_TABLE
from repro.core.models import (AllocationRecord, MACHINE_AUTO,
                               MachineRecord, SubmitAuthorization)
from repro.core.notifications import GRID_JARGON
from repro.grid import DaemonCrash
from repro.sched import REFUSAL_MESSAGES

from .conftest import submit_auto_direct

pytestmark = pytest.mark.sched


def deactivate_auths(deployment, user):
    db = deployment.databases.admin
    auths = list(SubmitAuthorization.objects.using(db).filter(
        user_id=user.pk))
    for auth in auths:
        auth.active = False
    SubmitAuthorization.objects.using(db).bulk_update(auths, ["active"])


def active_rows(deployment):
    return list(ReservationRecord.objects.using(
        deployment.databases.daemon).filter(
        state=RESERVATION_RESERVED).order_by("id"))


class TestPlacementSweep:
    def test_burst_spreads_across_machines(self, deployment,
                                           astronomer):
        """Fifty simultaneous Autos must not pile onto the instantaneous
        winner: the virtual-depth bump spreads them."""
        sims = submit_auto_direct(deployment, astronomer, 50)
        summary = deployment.daemon.broker.place_pending(WHOLE_TABLE)
        assert summary["placed"] == 50
        machines = set()
        for sim in sims:
            sim.refresh_from_db()
            assert sim.machine_name != MACHINE_AUTO
            machines.add(sim.machine_name)
        assert len(machines) >= 3
        # Every placement is backed by exactly one durable reservation
        # on the machine the simulation was stamped with.
        rows = {row.simulation_id: row for row in active_rows(deployment)}
        assert len(rows) == 50
        for sim in sims:
            assert rows[sim.pk].machine_name == sim.machine_name

    def test_placement_emits_events_and_metrics(self, deployment,
                                                astronomer):
        submit_auto_direct(deployment, astronomer, 4)
        deployment.daemon.broker.place_pending(WHOLE_TABLE)
        events = deployment.obs.events.of_kind("sched.placement")
        assert len(events) == 4
        assert all(e.fields["policy"] == "least-wait" for e in events)
        assert deployment.obs.metrics.total(
            "sched_placements_total") == 4


class TestPlacementTransaction:
    def test_crash_inside_the_transaction_leaves_no_rows_nor_stamps(
            self, deployment, astronomer, monkeypatch):
        """Rows, releases and stamps commit together: a daemon killed
        between the reservation insert and the stamp update leaves
        neither behind, and the next sweep places from scratch."""
        sims = submit_auto_direct(deployment, astronomer, 3)
        db = deployment.databases.daemon
        counted = db.on_execute

        def crash_on_stamp(operation, table):
            counted(operation, table)
            if (operation, table) == ("update",
                                      Simulation._meta.table_name):
                raise DaemonCrash("reserve", "inside")

        monkeypatch.setattr(db, "on_execute", crash_on_stamp)
        with pytest.raises(DaemonCrash):
            deployment.daemon.broker.place_pending(WHOLE_TABLE)
        monkeypatch.undo()
        assert not list(ReservationRecord.objects.using(db).all())
        for sim in sims:
            sim.refresh_from_db()
            assert sim.machine_name == MACHINE_AUTO
        summary = deployment.daemon.broker.place_pending(WHOLE_TABLE)
        assert summary["placed"] == 3
        assert [row.attempt for row in active_rows(deployment)] == [1] * 3


class TestHoldsNobodyWillSpend:
    def test_cancelled_run_frees_its_sus_without_a_restart(
            self, deployment, astronomer):
        """A cancelled Auto run's reservation is released by the next
        sweep that loads reservations, so its SUs fund the next
        submission — not only after a daemon restart."""
        (first,) = submit_auto_direct(deployment, astronomer)
        broker = deployment.daemon.broker
        broker.place_pending(WHOLE_TABLE)
        first.refresh_from_db()
        (row,) = active_rows(deployment)
        first.state = SIM_CANCELLED
        first.save(db=deployment.databases.admin)
        # Only the cancelled run's allocation has SUs left: 1.5 times
        # one run's estimate, of which the stale hold pins one.
        estimate = broker.estimate_su(
            first, deployment.machine_specs[first.machine_name])
        db = deployment.databases.admin
        allocations = list(AllocationRecord.objects.using(db).all())
        for allocation in allocations:
            allocation.su_used = allocation.su_granted
            if allocation.pk == row.allocation_id:
                allocation.su_used -= 1.5 * estimate
        AllocationRecord.objects.using(db).bulk_update(
            allocations, ["su_used"])

        (second,) = submit_auto_direct(deployment, astronomer)
        deployment.daemon.poll_once()
        second.refresh_from_db()
        assert second.machine_name == first.machine_name
        assert second.status_message == ""
        row.refresh_from_db()
        assert row.state == RESERVATION_RELEASED
        assert row.reason == "cancelled"


class TestRefusals:
    def assert_jargon_free(self, message):
        lowered = message.lower()
        for term in GRID_JARGON:
            assert term not in lowered, (term, message)

    def test_unauthorized_user_is_refused_in_plain_language(
            self, deployment):
        user = deployment.create_astronomer("newcomer")
        deactivate_auths(deployment, user)
        (sim,) = submit_auto_direct(deployment, user)
        summary = deployment.daemon.broker.place_pending(WHOLE_TABLE)
        assert summary["refused"] == 1
        sim.refresh_from_db()
        assert sim.machine_name == MACHINE_AUTO
        assert sim.status_message == REFUSAL_MESSAGES["unauthorized"]
        self.assert_jargon_free(sim.status_message)
        assert not active_rows(deployment)

    def test_exhausted_allocations_refuse_without_jargon(
            self, deployment, astronomer):
        db = deployment.databases.admin
        drained = []
        for allocation in AllocationRecord.objects.using(db).all():
            allocation.su_used = allocation.su_granted
            drained.append(allocation)
        AllocationRecord.objects.using(db).bulk_update(
            drained, ["su_used"])
        (sim,) = submit_auto_direct(deployment, astronomer)
        summary = deployment.daemon.broker.place_pending(WHOLE_TABLE)
        assert summary["refused"] == 1
        sim.refresh_from_db()
        assert sim.machine_name == MACHINE_AUTO
        assert sim.status_message == REFUSAL_MESSAGES["allocation"]
        self.assert_jargon_free(sim.status_message)

    def test_every_machine_dark_refuses_as_unavailable(
            self, deployment, astronomer):
        db = deployment.databases.admin
        disabled = []
        for record in MachineRecord.objects.using(db).all():
            record.enabled = False
            disabled.append(record)
        MachineRecord.objects.using(db).bulk_update(
            disabled, ["enabled"])
        (sim,) = submit_auto_direct(deployment, astronomer)
        deployment.daemon.broker.place_pending(WHOLE_TABLE)
        sim.refresh_from_db()
        assert sim.status_message == REFUSAL_MESSAGES["unavailable"]
        self.assert_jargon_free(sim.status_message)

    def test_refusal_events_do_not_repeat_while_unchanged(
            self, deployment):
        """Steady-state sweeps must not re-emit the same refusal every
        poll — the message (and event, and counter) land once."""
        user = deployment.create_astronomer("quiet")
        deactivate_auths(deployment, user)
        submit_auto_direct(deployment, user)
        broker = deployment.daemon.broker
        broker.place_pending(WHOLE_TABLE)
        broker.place_pending(WHOLE_TABLE)
        broker.place_pending(WHOLE_TABLE)
        assert len(deployment.obs.events.of_kind("sched.refusal")) == 1
        assert deployment.obs.metrics.total("sched_refusals_total") == 1


class TestQueryBudget:
    def test_fifty_sim_sweep_within_poll_budget(self, deployment,
                                                astronomer):
        submit_auto_direct(deployment, astronomer, 50)
        db = deployment.databases.daemon
        with db.count_queries() as counter:
            deployment.daemon.broker.place_pending(WHOLE_TABLE)
        assert counter.count <= 10, repr(counter)

    def test_budget_flat_in_population(self, deployment, astronomer):
        db = deployment.databases.daemon
        submit_auto_direct(deployment, astronomer, 5)
        with db.count_queries() as small:
            deployment.daemon.broker.place_pending(WHOLE_TABLE)
        submit_auto_direct(deployment, astronomer, 45)
        with db.count_queries() as large:
            deployment.daemon.broker.place_pending(WHOLE_TABLE)
        assert large.count == small.count

    def test_steady_state_is_one_query(self, deployment, astronomer):
        submit_auto_direct(deployment, astronomer, 3)
        broker = deployment.daemon.broker
        broker.place_pending(WHOLE_TABLE)
        db = deployment.databases.daemon
        with db.count_queries() as counter:
            broker.place_pending(WHOLE_TABLE)
        assert counter.count == 1


class TestSettlementThroughCleanup:
    def test_auto_run_settles_its_reservation_once(self, deployment,
                                                   astronomer):
        from tests.core.test_workflow import drive
        (sim,) = submit_auto_direct(deployment, astronomer)
        states = drive(deployment, sim)
        assert states[-1] == "DONE"
        rows = list(ReservationRecord.objects.using(
            deployment.databases.daemon).filter(simulation_id=sim.pk))
        assert len(rows) == 1
        (row,) = rows
        assert row.state == RESERVATION_SETTLED
        assert row.settled_su and row.settled_su > 0
        # The ledger charged the allocation exactly the settled amount
        # — the legacy per-authorization charge did not also run.
        allocation = AllocationRecord.objects.using(
            deployment.databases.daemon).get(pk=row.allocation_id)
        assert allocation.su_used == pytest.approx(row.settled_su)
        others = AllocationRecord.objects.using(
            deployment.databases.daemon).all()
        assert sum(a.su_used for a in others) == pytest.approx(
            row.settled_su)

    def test_manual_submissions_still_charge_the_legacy_path(
            self, deployment, astronomer):
        """A user who names a machine bypasses the broker entirely: no
        reservation rows, but the allocation is still charged."""
        from tests.core.conftest import submit_direct
        from tests.core.test_workflow import drive
        sim = submit_direct(deployment, astronomer, machine="kraken")
        drive(deployment, sim)
        assert not list(ReservationRecord.objects.using(
            deployment.databases.daemon).filter(simulation_id=sim.pk))
        kraken = deployment.allocations["kraken"]
        kraken.refresh_from_db()
        assert kraken.su_used > 0
