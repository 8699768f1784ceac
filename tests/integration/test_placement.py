"""End-to-end resource brokering: the acceptance suite.

Fifty mixed Auto submissions spread across the healthy TeraGrid under
every shipping policy; a facility going dark mid-run migrates its
still-QUEUED work and everything reaches DONE anyway; a daemon killed
between the reservation write and the simulation stamp neither
double-reserves nor double-submits; the ledger invariant holds at
every poll boundary; and the whole ``sched.*`` story replays
byte-identically.
"""

import pytest

from repro.core import (AMPDeployment, ReservationRecord, SIM_DONE,
                        Simulation, Star)
from repro.core.models import (KIND_DIRECT, KIND_OPTIMIZATION,
                               MACHINE_AUTO, RESERVATION_RESERVED,
                               RESERVATION_SETTLED, SIM_QUEUED)
from repro.grid import FaultInjector
from repro.grid.breaker import CLOSED
from repro.sched import POLICY_NAMES

from tests.conftest import keep_everything
from tests.integration.test_crash_recovery import (
    audit_exactly_once, close_deployment, poll, run_through_crashes,
    run_until_crash)

pytestmark = pytest.mark.sched


def make_deployment(policy="least-wait"):
    return AMPDeployment(seed_catalog=False, placement_policy=policy)


def submit_auto_mixed(deployment, user, *, direct=46, optimization=4):
    """A mixed burst of Auto submissions (the portal's new default)."""
    star = Star(name="Broker Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    simulations = []
    for index in range(direct):
        sim = Simulation(
            star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
            machine_name=MACHINE_AUTO,
            parameters={"mass": 1.0 + 0.005 * (index % 40), "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6})
        sim.save(db=deployment.databases.portal)
        simulations.append(sim)
    if optimization:
        from repro.core import ObservationSet
        from repro.science import StellarParameters, synthetic_target
        target, _ = synthetic_target(
            "broker fit", StellarParameters(1.04, 0.021, 0.27, 2.1, 6.0),
            seed=5)
        obs = ObservationSet(
            star_id=star.pk, label="broker fit", teff=target.teff,
            teff_err=target.teff_err, luminosity=target.luminosity,
            frequencies={str(l): v
                         for l, v in target.frequencies.items()})
        obs.save(db=deployment.databases.portal)
    for index in range(optimization):
        sim = Simulation(
            star_id=star.pk, observation_id=obs.pk, owner_id=user.pk,
            kind=KIND_OPTIMIZATION, machine_name=MACHINE_AUTO,
            config={"n_ga_runs": 2, "iterations": 20,
                    "population_size": 32, "processors": 128,
                    "walltime_s": 6 * 3600.0,
                    "ga_seeds": [11 + index, 12 + index]})
        sim.save(db=deployment.databases.portal)
        simulations.append(sim)
    return simulations


def assert_ledger_invariant(deployment):
    for entry in deployment.daemon.ledger.invariant_report():
        assert entry["reserved_su"] + entry["used_su"] \
            <= entry["granted_su"] + 1e-6, entry


class TestFiftySimSpread:
    """Acceptance: 50 mixed Autos spread across ≥ 3 healthy machines,
    under each shipping policy."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_burst_spreads(self, policy):
        deployment = make_deployment(policy)
        try:
            user = deployment.create_astronomer("spread")
            simulations = submit_auto_mixed(deployment, user)
            assert len(simulations) == 50
            deployment.clock.advance(1800.0)
            deployment.daemon.poll_once()
            machines = set()
            for sim in simulations:
                sim.refresh_from_db()
                assert sim.machine_name != MACHINE_AUTO
                machines.add(sim.machine_name)
            assert len(machines) >= 3, machines
            assert_ledger_invariant(deployment)
            events = deployment.obs.events.of_kind("sched.placement")
            assert len(events) == 50
            assert all(e.fields["policy"] == policy for e in events)
        finally:
            close_deployment(deployment)


class TestBrokeredRunsComplete:
    """Every Auto simulation reaches DONE and settles its reservation;
    the books charge exactly the settled amounts."""

    def test_all_done_and_settled(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("settle")
            simulations = submit_auto_mixed(deployment, user,
                                            direct=18, optimization=2)
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=600)
            db = deployment.databases.admin
            for sim in simulations:
                sim.refresh_from_db()
                assert sim.state == SIM_DONE
            rows = list(ReservationRecord.objects.using(db).all())
            settled = [r for r in rows
                       if r.state == RESERVATION_SETTLED]
            assert len(settled) == len(simulations)
            assert not [r for r in rows
                        if r.state == RESERVATION_RESERVED]
            # The books balance: every SU the allocations were charged
            # is accounted for by a settled reservation.
            charged = sum(entry["used_su"] for entry in
                          deployment.daemon.ledger.invariant_report())
            assert charged == pytest.approx(
                sum(r.settled_su for r in settled))
            assert_ledger_invariant(deployment)
        finally:
            close_deployment(deployment)


class TestBreakerFailover:
    """A facility dark from the start: work placed there before its
    breaker trips is migrated while still QUEUED, and the whole burst
    drains to DONE on the surviving machines."""

    def test_open_breaker_migrates_queued_work(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("failover")
            simulations = submit_auto_mixed(deployment, user,
                                            direct=24, optimization=0)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.permanent_outage("kraken")
            # Drive manually so the ledger invariant is audited at
            # every poll boundary, not just at the end.
            for _ in range(400):
                deployment.clock.advance(1800.0)
                deployment.daemon.poll_once()
                assert_ledger_invariant(deployment)
                states = {s.state for s in Simulation.objects.using(
                    deployment.databases.admin).all()}
                if states == {SIM_DONE}:
                    break
            assert deployment.breakers.state_of("kraken") != CLOSED
            migrations = deployment.obs.events.of_kind(
                "sched.migration")
            assert migrations, "no still-QUEUED work was migrated"
            assert all(e.fields["from_machine"] == "kraken"
                       for e in migrations)
            assert all(e.fields["to_machine"] not in ("", "kraken")
                       for e in migrations)
            assert deployment.obs.metrics.total(
                "sched_migrations_total") == len(migrations)
            for sim in simulations:
                sim.refresh_from_db()
                assert sim.state == SIM_DONE
                assert sim.machine_name != "kraken"
            # Each migrated simulation's stale hold was released
            # uncharged; exactly one settlement per simulation.
            db = deployment.databases.admin
            for sim in simulations:
                rows = list(ReservationRecord.objects.using(db).filter(
                    simulation_id=sim.pk))
                settled = [r for r in rows
                           if r.state == RESERVATION_SETTLED]
                assert len(settled) == 1
                assert settled[0].machine_name == sim.machine_name
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)


class TestCrashBetweenReserveAndStamp:
    """The broker's own crash window: the daemon dies around the
    reservation bulk-write.  Neither window may double-reserve (two
    active rows for one simulation) or double-submit (audited against
    the fabric itself)."""

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_no_double_reserve_no_double_submit(self, when):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("reserve-crash")
            simulations = submit_auto_mixed(deployment, user,
                                            direct=10, optimization=0)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("reserve", when=when)
            assert run_until_crash(deployment), \
                f"crash point (reserve, {when}) never fired"
            deployment.restart_daemon()
            recovery = deployment.daemon.last_recovery
            if when == "after":
                # Rows landed, stamps did not: boot reconciliation
                # finishes every placement the dead process chose.
                assert recovery["reservations_adopted"] == 10
            else:
                assert recovery["reservations_adopted"] == 0
            restarts = run_through_crashes(deployment)
            assert restarts == 0
            db = deployment.databases.admin
            for sim in simulations:
                sim.refresh_from_db()
                assert sim.state == SIM_DONE
                rows = list(ReservationRecord.objects.using(db).filter(
                    simulation_id=sim.pk))
                # Exactly one reservation ever existed per simulation —
                # the sweep after the bounce adopted or re-decided, it
                # did not book twice.
                assert [r.state for r in rows] == [RESERVATION_SETTLED]
                assert rows[0].attempt == 1
            assert_ledger_invariant(deployment)
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)


class TestPlacementTelemetryByteStable:
    """The same submissions against the same outage schedule tell a
    byte-identical ``sched.*`` story — placement is replayable."""

    def run_schedule(self):
        deployment = keep_everything(make_deployment())
        try:
            user = deployment.create_astronomer("replay")
            submit_auto_mixed(deployment, user, direct=8,
                              optimization=0)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.permanent_outage("kraken")
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=400)
            return deployment.obs.events.to_jsonl()
        finally:
            close_deployment(deployment)

    def test_identical_event_logs(self):
        first = self.run_schedule()
        second = self.run_schedule()
        for kind in ("sched.placement", "sched.migration",
                     "sched.settlement"):
            assert f'"kind":"{kind}"' in first
        assert first == second


class TestPortalSubmittedAutoRuns:
    """The portal's Auto choice rides the whole pipeline: form post →
    broker placement → DONE, with the submission event carrying the
    sentinel and the placement event the chosen machine."""

    def test_auto_optimization_through_the_portal(self):
        from repro.webstack.testclient import Client
        deployment = AMPDeployment(placement_policy="round-robin")
        try:
            deployment.create_astronomer("metcalfe",
                                         password="pw12345")
            star, _ = deployment.catalog.search("16 Cyg B")
            from repro.core import ObservationSet
            from repro.science import StellarParameters, synthetic_target
            target, _ = synthetic_target(
                "16 Cyg B fit",
                StellarParameters(1.04, 0.021, 0.27, 2.1, 6.0), seed=5)
            obs = ObservationSet(
                star_id=star.pk, label="16 Cyg B fit",
                teff=target.teff, teff_err=target.teff_err,
                luminosity=target.luminosity,
                frequencies={str(l): v
                             for l, v in target.frequencies.items()})
            obs.save(db=deployment.databases.portal)
            portal = Client(deployment.build_portal())
            assert portal.login("metcalfe", "pw12345")
            page = portal.get(f"/submit/optimization/{star.pk}/")
            assert "Auto — let AMP choose" in page.text
            response = portal.post(
                f"/submit/optimization/{star.pk}/",
                {"observation": str(obs.pk), "machine": MACHINE_AUTO,
                 "iterations": "20"})
            assert response.status_code == 302
            sim = Simulation.objects.using(
                deployment.databases.admin).order_by("-id")[0]
            assert sim.machine_name == MACHINE_AUTO
            deployment.clock.advance(1800.0)
            deployment.daemon.poll_once()
            sim.refresh_from_db()
            assert sim.machine_name in deployment.machine_specs
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=600)
            sim.refresh_from_db()
            assert sim.state == SIM_DONE
        finally:
            close_deployment(deployment)
