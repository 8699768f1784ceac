"""The SU allocation ledger: reservations, settlement, reconciliation.

The money-side contract of the broker: reservations, idempotent
settlement (crash replays must never charge twice), the sweep's
release rule, and the invariant

    su_used + sum(active reserved estimates) ≤ su_granted
"""

import pytest

from repro.core import (HOLD_RESOURCE, RESERVATION_RELEASED,
                        RESERVATION_RESERVED, RESERVATION_SETTLED,
                        ReservationRecord, SIM_CANCELLED, SIM_DONE,
                        Simulation)
from repro.core.leases import WHOLE_TABLE
from repro.core.models import AllocationRecord, SIM_HOLD, SIM_RUNNING

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
        assert deployment.daemon.ledger.settle([(sim, 3.0)]) == set()

    def test_settle_charges_once_and_replays_are_free(self, deployment,
                                                      astronomer):
        (sim,) = submit_auto_direct(deployment, astronomer)
        row = book(deployment, sim, estimated_su=5.0)
        ledger = deployment.daemon.ledger
        db = deployment.databases.daemon
        before = AllocationRecord.objects.using(db).get(
            pk=row.allocation_id).su_used

        assert ledger.settle([(sim, 4.25)]) == {sim.pk}
        row.refresh_from_db()
        assert row.state == RESERVATION_SETTLED
        assert row.settled_su == 4.25
        allocation = AllocationRecord.objects.using(db).get(
            pk=row.allocation_id)
        assert allocation.su_used == pytest.approx(before + 4.25)

        # The crash replay: CLEANUP re-runs, finds no RESERVED row,
        # reports the reservation handled — and charges nothing more.
        assert ledger.settle([(sim, 4.25)]) == {sim.pk}
        allocation.refresh_from_db()
        assert allocation.su_used == pytest.approx(before + 4.25)


class TestReconciliation:
    def test_releases_holds_nobody_will_spend(self, deployment,
                                              astronomer):
        """The placement sweep keeps a RESERVED row only while its
        simulation is active on the row's machine; it releases every
        other row it loads, with the reason the simulation gives."""
        sims = submit_auto_direct(deployment, astronomer, 4)
        expected = {}
        for sim, (state, reason) in zip(sims, [
                (SIM_DONE, "finished"), (SIM_CANCELLED, "cancelled"),
                (SIM_HOLD, "held"), (SIM_RUNNING, "superseded")]):
            row = book(deployment, sim, "frost")
            sim.state = state
            sim.machine_name = "ranger"
            sim.save(db=deployment.databases.admin)
            expected[row.pk] = reason
        # A pending Auto run makes the sweep load the reservations.
        submit_auto_direct(deployment, astronomer)
        summary = deployment.daemon.broker.place_pending(WHOLE_TABLE)
        assert summary["placed"] == 1
        db = deployment.databases.daemon
        for pk, reason in expected.items():
            row = ReservationRecord.objects.using(db).get(pk=pk)
            assert row.state == RESERVATION_RELEASED
            assert row.reason == reason
        assert [row.simulation_id for row in ReservationRecord.objects
                .using(db).filter(state=RESERVATION_RESERVED)] \
            == [sims[-1].pk + 1]

    def test_keeps_a_resource_hold_until_it_settles(self, deployment,
                                                    astronomer):
        """A resource hold resumes on its machine once the breaker
        closes, so a sweep while the breaker is open keeps its
        reservation, and the run settles — charged — when it finishes."""
        (sim,) = submit_auto_direct(deployment, astronomer)
        daemon = deployment.daemon
        deployment.clock.advance(300.0)
        daemon.poll_once()
        db = deployment.databases.daemon
        sim = Simulation.objects.using(db).get(pk=sim.pk)
        row = ReservationRecord.objects.using(db).get(
            simulation_id=sim.pk)
        used = AllocationRecord.objects.using(db).get(
            pk=row.allocation_id).su_used

        daemon.workflows[sim.kind].hold(sim, "budget exhausted",
                                        category=HOLD_RESOURCE)
        breakers = daemon.clients.breakers
        for _ in range(breakers.policy.failure_threshold):
            breakers.record_failure(sim.machine_name)
        assert breakers.open_resources() == [sim.machine_name]
        deployment.clock.advance(60.0)
        daemon.poll_once()                # the sweep loads the row
        row.refresh_from_db()
        assert row.state == RESERVATION_RESERVED

        deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                         max_polls=400)
        sim.refresh_from_db()
        row.refresh_from_db()
        assert sim.state == SIM_DONE
        assert row.state == RESERVATION_SETTLED
        assert row.settled_su > 0
        assert AllocationRecord.objects.using(db).get(
            pk=row.allocation_id).su_used == pytest.approx(
                used + row.settled_su)


class TestInvariantReport:
    def test_reserved_and_used_stay_within_the_grant(self, deployment,
                                                     astronomer):
        sims = submit_auto_direct(deployment, astronomer, 4)
        for sim in sims[:3]:
            book(deployment, sim, "kraken", attempt=1, estimated_su=7.0)
        deployment.daemon.ledger.settle([(sims[0], 6.0)])
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
