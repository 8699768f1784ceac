"""The fleet soak harness: many daemons, many kills, one durable world.

Headline acceptance for the lease-partitioned daemon fleet:

* a 1000-simulation campaign spread over the paper's four facilities
  drains to all-DONE across four daemon instances while arbitrary
  subsets of the fleet are killed and restarted mid-flight, and the
  journal-vs-fabric audit still shows exactly one committed submission
  per logical phase;
* the whole run is byte-stable: executed twice from identical seeds
  (kills included), the merged per-simulation event streams are
  identical once sorted by (correlation id, sequence);
* the reservation-ledger invariant survives partitioning: two daemons
  placing AUTO simulations never over-promise an allocation and never
  double-book a reservation.
"""

import pytest

from repro.core import AMPDeployment, SIM_DONE, Simulation, Star
from repro.core.models import (KIND_DIRECT, MACHINE_AUTO,
                               RESERVATION_RESERVED, ReservationRecord)
from tests.conftest import keep_everything

from .test_crash_recovery import (assert_journal_settled,
                                  audit_exactly_once, close_deployment,
                                  make_deployment)

pytestmark = pytest.mark.fleet

#: The paper's Table 1 facilities, round-robined so every fleet slice
#: carries work for every machine.
MACHINES = ["frost", "kraken", "lonestar", "ranger"]


def submit_soak_sims(deployment, user, count):
    star = Star(name="Soak Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    simulations = [
        Simulation(
            star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
            machine_name=MACHINES[index % len(MACHINES)],
            parameters={"mass": 1.0 + 0.0005 * index, "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6})
        for index in range(count)]
    Simulation.objects.using(
        deployment.databases.portal).bulk_create(simulations)
    return simulations


def drive_fleet(deployment, *, kill_at=None, restart_at=None,
                interval_s=1800.0, max_rounds=400):
    """Fleet rounds with a deterministic kill/restart schedule.

    ``kill_at``/``restart_at`` map round number -> list of fleet
    indexes.  Returns the number of rounds driven to idle.
    """
    kill_at = kill_at or {}
    restart_at = restart_at or {}
    rounds = 0
    while rounds < max_rounds:
        alive = [d for d in deployment.fleet.values() if d is not None]
        if alive and alive[0].pending_count() == 0 \
                and rounds > max(list(kill_at) + list(restart_at),
                                 default=0):
            break
        rounds += 1
        for index in kill_at.get(rounds, []):
            deployment.kill_daemon(index)
        for index in restart_at.get(rounds, []):
            deployment.restart_daemon(index)
        deployment.clock.advance(interval_s)
        deployment.poll_fleet_once(on_crash="kill")
    return rounds


class TestThousandSimSoak:
    """The headline: 1000 simulations, 4 daemons, kills of arbitrary
    subsets (single member, then half the fleet at once), restarts,
    and an exactly-once audit at the end."""

    def test_thousand_sims_survive_kill_restart_churn(self):
        deployment = keep_everything(make_deployment())
        try:
            user = deployment.create_astronomer("soak")
            simulations = submit_soak_sims(deployment, user, 1000)
            deployment.start_fleet(4, lease_ttl_s=7200.0)
            rounds = drive_fleet(
                deployment,
                # One member dies early; later half the fleet at once.
                kill_at={6: [1], 12: [2, 3]},
                # daemon-1 comes back quickly (reclaim path); the pair
                # returns after their leases expired (steal + reclaim).
                restart_at={9: [1], 18: [2], 22: [3]},
                max_rounds=400)
            assert rounds < 400, "soak did not drain"
            db = deployment.databases.admin
            states = Simulation.objects.using(db).values_count("state")
            assert states == {SIM_DONE: 1000}
            audit_exactly_once(deployment)
            assert_journal_settled(deployment)
            # The fleet genuinely shared the work: every instance
            # committed transitions, and steals + takeovers happened.
            events = deployment.obs.events
            for kind in ("daemon.lease.claimed", "daemon.lease.stolen",
                         "daemon.takeover"):
                assert events.of_kind(kind), f"no {kind} events"
            owners = {e.fields["owner"] for e in
                      events.of_kind("daemon.lease.claimed")}
            assert owners == {f"daemon-{i}" for i in range(4)}
        finally:
            close_deployment(deployment)


def _stability_run():
    """One fixed 120-sim fleet scenario; returns its merged event
    streams keyed for order-independent comparison."""
    deployment = keep_everything(make_deployment())
    try:
        user = deployment.create_astronomer("stable")
        submit_soak_sims(deployment, user, 120)
        deployment.start_fleet(4, lease_ttl_s=7200.0)
        drive_fleet(deployment, kill_at={4: [2]}, restart_at={9: [2]},
                    max_rounds=200)
        records = [
            record for record in deployment.obs.events.records
            if record.kind.startswith("sim.")
            or record.kind == "grid.command"]
        records.sort(
            key=lambda r: (r.fields.get("trace_id") or "", r.seq))
        return [(r.kind, r.time, r.fields) for r in records]
    finally:
        close_deployment(deployment)


class TestFleetByteStability:
    def test_two_runs_produce_identical_streams(self):
        first = _stability_run()
        second = _stability_run()
        assert first, "scenario produced no events"
        assert first == second

    def test_streams_interleave_work_from_all_slices(self):
        records = _stability_run()
        sims = {r[2]["simulation"] for r in records
                if r[0] == "sim.transition"}
        assert len(sims) == 120


class TestPartitionedLedgerInvariants:
    """Two daemons placing AUTO work concurrently: the SU ledger's
    ``reserved + used <= granted`` must hold after *every* fleet round,
    and no simulation may ever carry two active reservations."""

    @staticmethod
    def audit_ledger(deployment):
        alive = [d for d in deployment.fleet.values() if d is not None]
        for row in alive[0].ledger.invariant_report():
            assert row["reserved_su"] + row["used_su"] \
                <= row["granted_su"] + 1e-9, f"over-committed: {row}"
        active = list(ReservationRecord.objects.using(
            deployment.databases.admin).filter(
            state=RESERVATION_RESERVED))
        by_sim, by_key = {}, {}
        for row in active:
            by_sim.setdefault(row.simulation_id, []).append(row)
            by_key.setdefault(row.reservation_key, []).append(row)
        doubled = {pk: len(rows) for pk, rows in by_sim.items()
                   if len(rows) > 1}
        assert not doubled, f"double-booked simulations: {doubled}"
        duplicate_keys = {key for key, rows in by_key.items()
                          if len(rows) > 1}
        assert not duplicate_keys, \
            f"duplicate reservation keys: {duplicate_keys}"

    def test_invariants_hold_every_round_with_auto_placement(self):
        deployment = AMPDeployment()     # catalog needed for AUTO subs
        try:
            from tests.sched.conftest import submit_auto_direct
            user = deployment.create_astronomer("parts")
            sims = submit_auto_direct(deployment, user, 40)
            deployment.start_fleet(2, lease_ttl_s=7200.0)
            rounds = 0
            while rounds < 200:
                alive = [d for d in deployment.fleet.values()
                         if d is not None]
                if alive[0].pending_count() == 0 and rounds > 8:
                    break
                rounds += 1
                if rounds == 5:
                    deployment.kill_daemon(0)
                if rounds == 11:
                    deployment.restart_daemon(0)
                deployment.clock.advance(1800.0)
                deployment.poll_fleet_once(on_crash="kill")
                self.audit_ledger(deployment)
            assert rounds < 200, "partitioned campaign did not drain"
            db = deployment.databases.admin
            for sim in sims:
                sim.refresh_from_db()
                assert sim.state == SIM_DONE
                assert sim.machine_name != MACHINE_AUTO
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)
