"""The SU allocation ledger: reservations, settlement, reconciliation.

The money-side contract of the broker: write-ahead reservations,
idempotent settlement (crash replays must never charge twice), the
boot-time decision table, and the invariant

    su_used + sum(active reserved estimates) ≤ su_granted
"""

import pytest

from repro.core import (RESERVATION_RELEASED, RESERVATION_RESERVED,
                        RESERVATION_SETTLED, ReservationRecord,
                        SIM_CANCELLED, SIM_DONE, Simulation)
from repro.core.leases import WHOLE_TABLE
from repro.core.models import AllocationRecord, MACHINE_AUTO, SIM_HOLD

from .conftest import submit_auto_direct

pytestmark = pytest.mark.sched


def book(deployment, sim, machine="kraken", *, attempt=1,
         estimated_su=5.0):
    """Write one RESERVED row the way the broker does (bulk_create)."""
    ledger = deployment.daemon.ledger
    allocation = deployment.allocations[machine]
    row = ledger.build_reservation(
        sim, allocation, machine, policy_name="least-wait",
        estimated_su=estimated_su, attempt=attempt)
    ReservationRecord.objects.using(
        deployment.databases.daemon).bulk_create([row])
    return row


class TestSettlement:
    def test_no_reservation_means_legacy_charging(self, deployment,
                                                  astronomer):
        (sim,) = submit_auto_direct(deployment, astronomer)
        assert deployment.daemon.ledger.settle(sim, 3.0) is False

    def test_settle_charges_once_and_replays_are_free(self, deployment,
                                                      astronomer):
        (sim,) = submit_auto_direct(deployment, astronomer)
        row = book(deployment, sim, estimated_su=5.0)
        ledger = deployment.daemon.ledger
        db = deployment.databases.daemon
        before = AllocationRecord.objects.using(db).get(
            pk=row.allocation_id).su_used

        assert ledger.settle(sim, 4.25) is True
        row.refresh_from_db()
        assert row.state == RESERVATION_SETTLED
        assert row.settled_su == 4.25
        allocation = AllocationRecord.objects.using(db).get(
            pk=row.allocation_id)
        assert allocation.su_used == pytest.approx(before + 4.25)

        # The crash replay: CLEANUP re-runs, finds no RESERVED row,
        # reports the reservation handled — and charges nothing more.
        assert ledger.settle(sim, 4.25) is True
        allocation.refresh_from_db()
        assert allocation.su_used == pytest.approx(before + 4.25)

    def test_settle_supersedes_stale_migration_rows(self, deployment,
                                                    astronomer):
        """A crash between the migration sweep's two bulk writes can
        leave both the old and new rows RESERVED; the newest (the
        machine the simulation actually ran on) settles, the stale one
        releases uncharged."""
        (sim,) = submit_auto_direct(deployment, astronomer)
        stale = book(deployment, sim, "kraken", attempt=1,
                     estimated_su=5.0)
        fresh = book(deployment, sim, "ranger", attempt=2,
                     estimated_su=5.0)
        assert deployment.daemon.ledger.settle(sim, 5.0) is True
        stale.refresh_from_db()
        fresh.refresh_from_db()
        assert stale.state == RESERVATION_RELEASED
        assert stale.reason == "superseded"
        assert fresh.state == RESERVATION_SETTLED
        db = deployment.databases.daemon
        kraken = AllocationRecord.objects.using(db).get(
            pk=stale.allocation_id)
        ranger = AllocationRecord.objects.using(db).get(
            pk=fresh.allocation_id)
        assert kraken.su_used == 0.0          # stale hold never charged
        assert ranger.su_used == pytest.approx(5.0)


class TestReconciliation:
    def test_adopts_the_reservation_stamp_gap(self, deployment,
                                              astronomer):
        """Crash window: reservation durable, simulation still AUTO —
        the boot sweep finishes the placement the dead process chose."""
        (sim,) = submit_auto_direct(deployment, astronomer)
        book(deployment, sim, "lonestar")
        adopted, released = deployment.daemon.ledger.reconcile(WHOLE_TABLE)
        assert (adopted, released) == (1, 0)
        sim.refresh_from_db()
        assert sim.machine_name == "lonestar"

    def test_releases_holds_nobody_will_spend(self, deployment,
                                              astronomer):
        sims = submit_auto_direct(deployment, astronomer, 3)
        expected = {}
        for sim, (state, reason) in zip(sims, [
                (SIM_DONE, "finished"), (SIM_CANCELLED, "cancelled"),
                (SIM_HOLD, "held")]):
            row = book(deployment, sim, "frost")
            sim.state = state
            sim.machine_name = "frost"
            sim.save(db=deployment.databases.admin)
            expected[row.pk] = reason
        adopted, released = deployment.daemon.ledger.reconcile(WHOLE_TABLE)
        assert (adopted, released) == (0, 3)
        db = deployment.databases.daemon
        for pk, reason in expected.items():
            row = ReservationRecord.objects.using(db).get(pk=pk)
            assert row.state == RESERVATION_RELEASED
            assert row.reason == reason

    def test_duplicate_rows_keep_only_the_newest(self, deployment,
                                                 astronomer):
        (sim,) = submit_auto_direct(deployment, astronomer)
        old = book(deployment, sim, "kraken", attempt=1)
        new = book(deployment, sim, "ranger", attempt=2)
        adopted, released = deployment.daemon.ledger.reconcile(WHOLE_TABLE)
        assert (adopted, released) == (1, 1)
        old.refresh_from_db()
        new.refresh_from_db()
        assert old.state == RESERVATION_RELEASED
        assert old.reason == "superseded"
        assert new.state == RESERVATION_RESERVED
        sim.refresh_from_db()
        assert sim.machine_name == "ranger"   # the newest decision wins

    def test_healthy_inflight_rows_are_untouched(self, deployment,
                                                 astronomer):
        (sim,) = submit_auto_direct(deployment, astronomer)
        row = book(deployment, sim, "kraken")
        sim.machine_name = "kraken"           # stamp landed before crash
        sim.save(db=deployment.databases.admin)
        assert deployment.daemon.ledger.reconcile(WHOLE_TABLE) == (0, 0)
        row.refresh_from_db()
        assert row.state == RESERVATION_RESERVED


class TestInvariantReport:
    def test_reserved_and_used_stay_within_the_grant(self, deployment,
                                                     astronomer):
        sims = submit_auto_direct(deployment, astronomer, 4)
        for sim in sims[:3]:
            book(deployment, sim, "kraken", attempt=1, estimated_su=7.0)
        deployment.daemon.ledger.settle(sims[0], 6.0)
        report = {r["project"] + ":" + str(r["allocation_id"]): r
                  for r in deployment.daemon.ledger.invariant_report()}
        assert report                          # one row per allocation
        for entry in report.values():
            assert entry["reserved_su"] + entry["used_su"] \
                <= entry["granted_su"] + 1e-9
        kraken_rows = [r for r in report.values()
                       if r["reserved_su"] > 0]
        assert len(kraken_rows) == 1
        assert kraken_rows[0]["reserved_su"] == pytest.approx(14.0)
        assert kraken_rows[0]["used_su"] == pytest.approx(6.0)
