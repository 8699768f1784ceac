"""Kill-restart-resume: the crash-safety acceptance suite.

The daemon can die at any journaled boundary — after an intent lands
but before the grid call, or after the remote side effect but before
the commit.  These tests kill it at *every* such window (single
simulations, then a 50-simulation schedule), bounce it with
``AMPDeployment.restart_daemon()``, and audit exactly-once semantics
through the journal and the fabric itself: every simulation reaches
DONE, every logical phase produced exactly one remote submission, and
no GRAM job exists that the database does not know about.

Also here: escalation state (retry budgets, open breakers) surviving
the bounce, the hold-don't-guess path when reconciliation's fabric
lookup is itself transient, byte-stable recovery telemetry across
replays, and the external monitor riding across a restart.
"""

import pytest

from repro.core import (AMPDeployment, HOLD_RESOURCE, OperationRecord,
                        SIM_DONE, Simulation, Star)
from repro.core.models import (JOURNAL_COMMITTED, JOURNAL_INTENT,
                               JOURNAL_OP_SUBMIT, SIM_HOLD)
from repro.grid import DaemonCrash, FaultInjector
from repro.grid.breaker import CLOSED
from tests.conftest import keep_everything

pytestmark = pytest.mark.recovery

#: Every journaled boundary a direct run crosses, in both crash
#: windows.  (Cancel boundaries only exist for chained optimization
#: runs; they get their own test below.)
CRASH_POINTS = [
    ("submit", "before"), ("submit", "after"),
    ("stage_in", "before"), ("stage_in", "after"),
    ("stage_out", "before"), ("stage_out", "after"),
]


def make_deployment():
    return AMPDeployment(seed_catalog=False)


def close_deployment(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()


def submit_direct_sims(deployment, user, count, machine="kraken"):
    star = Star(name="Crash Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    simulations = []
    for index in range(count):
        simulation = Simulation(
            star_id=star.pk, owner_id=user.pk, kind="direct",
            machine_name=machine,
            parameters={"mass": 1.0 + 0.01 * index, "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6})
        simulation.save(db=deployment.databases.portal)
        simulations.append(simulation)
    return simulations


def poll(deployment, polls, interval_s=1800.0):
    for _ in range(polls):
        deployment.clock.advance(interval_s)
        deployment.daemon.poll_once()


def run_until_crash(deployment, max_polls=100, interval_s=1800.0):
    """Drive polls until a CrashPoint kills the daemon; True if it did."""
    try:
        poll(deployment, max_polls, interval_s)
    except DaemonCrash:
        return True
    return False


def run_through_crashes(deployment, *, max_restarts=50,
                        interval_s=1800.0):
    """Drive to idle, bouncing the daemon after every crash."""
    restarts = 0
    while True:
        try:
            deployment.run_daemon_until_idle(
                poll_interval_s=interval_s, max_polls=600)
            return restarts
        except DaemonCrash:
            restarts += 1
            assert restarts <= max_restarts, "crash loop did not drain"
            deployment.restart_daemon()


def fabric_jobs_by_tag(deployment):
    """Every GRAM job on every resource, grouped by clientTag."""
    tags = {}
    for name in deployment.fabric.resource_names():
        for job in deployment.fabric.gram(name).jobs.values():
            tags.setdefault(job.rsl.get("clientTag"), []).append(job)
    return tags


def audit_exactly_once(deployment):
    """The journal-vs-fabric audit: no duplicates, no orphans."""
    db = deployment.databases.admin
    tags = fabric_jobs_by_tag(deployment)
    # Every remote job was submitted under exactly one idempotency key,
    # and no key produced more than one remote job.
    assert None not in tags, "untagged GRAM job on the fabric"
    duplicates = {tag: len(jobs) for tag, jobs in tags.items()
                  if len(jobs) != 1}
    assert not duplicates, f"duplicate submissions: {duplicates}"
    committed = {
        entry.idempotency_key: entry
        for entry in OperationRecord.objects.using(db).filter(
            op=JOURNAL_OP_SUBMIT, state=JOURNAL_COMMITTED)}
    # No orphans: every fabric job is accounted for by a committed
    # journal entry (adopted or committed normally).
    orphans = set(tags) - set(committed)
    assert not orphans, f"unadopted orphan jobs: {orphans}"
    # Exactly one committed submission per logical phase.
    phases_seen = set()
    for entry in committed.values():
        phase_key = (entry.simulation_id, entry.phase)
        assert phase_key not in phases_seen, \
            f"phase {phase_key} submitted more than once"
        phases_seen.add(phase_key)


def assert_journal_settled(deployment):
    db = deployment.databases.admin
    assert OperationRecord.objects.using(db).filter(
        state=JOURNAL_INTENT).count() == 0


class TestCrashAtEveryBoundary:
    """One simulation, one kill at each journaled window."""

    @pytest.mark.parametrize("op,when", CRASH_POINTS)
    def test_kill_restart_resume(self, op, when):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("crash")
            (simulation,) = submit_direct_sims(deployment, user, 1)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash(op, when=when)
            assert run_until_crash(deployment), \
                f"crash point ({op}, {when}) never fired"
            deployment.restart_daemon()
            recovery = deployment.daemon.last_recovery
            assert recovery["intents"] == 1
            assert recovery["held"] == 0
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=400)
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            audit_exactly_once(deployment)
            assert_journal_settled(deployment)
        finally:
            close_deployment(deployment)

    def test_crash_after_submit_adopts_the_orphan(self):
        """The sharpest window: the job exists remotely, the database
        never heard of it.  Reconciliation must adopt, not resubmit."""
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("orphan")
            (simulation,) = submit_direct_sims(deployment, user, 1)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("submit", when="after")
            assert run_until_crash(deployment)
            deployment.restart_daemon()
            assert deployment.daemon.last_recovery["adopted"] == 1
            events = deployment.obs.events.of_kind(
                "journal.orphans_adopted")
            assert events and events[-1].fields["count"] == 1
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=400)
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)

    def test_crash_before_submit_reissues(self):
        """An intent with no remote trace is provably unexecuted: the
        entry aborts and the workflow re-issues under attempt 2."""
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("reissue")
            (simulation,) = submit_direct_sims(deployment, user, 1)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("submit", when="before")
            assert run_until_crash(deployment)
            deployment.restart_daemon()
            assert deployment.daemon.last_recovery["reissued"] == 1
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=400)
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            db = deployment.databases.admin
            prejob = list(OperationRecord.objects.using(db).filter(
                simulation_id=simulation.pk,
                phase="prejob").order_by("attempt"))
            assert [e.attempt for e in prejob] == [1, 2]
            assert prejob[0].outcome == "reissued"
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)


class TestFiftySimCrashSweep:
    """The property test: a 50-simulation schedule, killed at every
    crash point (twice each, at staggered offsets), must still deliver
    every simulation to DONE with exactly-once submissions."""

    def test_all_sims_done_exactly_once(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("sweep")
            simulations = submit_direct_sims(deployment, user, 50)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            for skip in (0, 7):
                for op, when in CRASH_POINTS:
                    injector.crash(op, when=when, skip=skip)
            restarts = run_through_crashes(deployment)
            schedule = deployment.fabric.crash_schedule
            assert not schedule.pending, \
                f"unfired crash points: {schedule.pending}"
            assert restarts == len(schedule.crashes) == 12
            db = deployment.databases.admin
            states = sorted(
                (s.pk, s.state)
                for s in Simulation.objects.using(db).all())
            assert len(states) == 50
            assert all(state == SIM_DONE for _, state in states)
            audit_exactly_once(deployment)
            assert_journal_settled(deployment)
            # The recovery counters saw every bounce.
            metrics = deployment.obs.metrics
            assert metrics.total("daemon_recovery_sweeps_total") \
                == restarts + 1          # the first boot sweeps too
        finally:
            close_deployment(deployment)


class TestEscalationStateSurvivesRestart:
    """A daemon bounce must not refresh retry budgets or forget open
    breakers: a simulation holding after budget exhaustion stays held
    while its machine is still down."""

    def test_holds_and_breakers_survive_bounce(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("budget")
            (simulation,) = submit_direct_sims(deployment, user, 1)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            outage = injector.permanent_outage("kraken")
            poll(deployment, 16)
            simulation.refresh_from_db()
            assert simulation.state == SIM_HOLD
            assert simulation.hold_category == HOLD_RESOURCE
            max_attempts = deployment.daemon.retry.policy.max_attempts
            # The durable row carries the exhausted budget (the final
            # attempt escalates to HOLD instead of scheduling another
            # backoff, so the tracker's decision log stops one short).
            assert simulation.retry_counts == {"submit": max_attempts}
            mails_before = len(deployment.mailer.to_user(user.email))

            # The bounce, machine still down.
            deployment.restart_daemon()
            daemon = deployment.daemon
            assert daemon.last_recovery["breakers_restored"] >= 1
            assert daemon.last_recovery["retries_restored"] >= 1
            # The new process remembers the open breaker...
            assert deployment.breakers.state_of("kraken") != CLOSED
            # ...and the exhausted budget.
            assert daemon.retry.attempts_for(
                simulation.pk, "submit") == max_attempts

            # Polling while the machine is still down must not resume
            # the hold with a refreshed budget.
            poll(deployment, 4)
            simulation.refresh_from_db()
            assert simulation.state == SIM_HOLD
            assert len(deployment.mailer.to_user(user.email)) \
                == mails_before

            # Once the machine actually returns, recovery proceeds as
            # if the bounce never happened.
            outage.restore()
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=400)
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)


class TestUnresolvableIntentHolds:
    """Decision table, last row: a transient lookup proves nothing —
    the simulation freezes until the fabric can answer."""

    def test_blocked_until_lookup_succeeds(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("held")
            (simulation,) = submit_direct_sims(deployment, user, 1)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("submit", when="after")
            assert run_until_crash(deployment)
            # The machine goes dark before the new daemon boots: the
            # reconciliation lookup cannot prove anything.
            outage = injector.permanent_outage("kraken")
            deployment.restart_daemon()
            daemon = deployment.daemon
            assert daemon.last_recovery["held"] == 1
            assert simulation.pk in daemon.blocked_sims
            db = deployment.databases.admin
            assert OperationRecord.objects.using(db).filter(
                state=JOURNAL_INTENT).count() == 1

            # Blocked means frozen: no new submissions while unproven.
            poll(deployment, 3)
            assert simulation.pk in daemon.blocked_sims
            assert len(fabric_jobs_by_tag(deployment)) == 1

            # The fabric returns; the per-poll sweep settles the intent
            # (adoption) and the simulation drains to DONE.
            outage.restore()
            poll(deployment, 2)
            assert simulation.pk not in daemon.blocked_sims
            assert_journal_settled(deployment)
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=400)
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)


class TestRecoveryTelemetryByteStable:
    """Replaying the same crash schedule yields a byte-identical event
    log — recovery sweeps included."""

    def run_schedule(self):
        deployment = keep_everything(make_deployment())
        try:
            user = deployment.create_astronomer("replay")
            submit_direct_sims(deployment, user, 3)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("submit", when="after")
            injector.crash("stage_in", when="before", skip=1)
            run_through_crashes(deployment)
            return (deployment.obs.events.to_jsonl(),
                    deployment.daemon.last_recovery)
        finally:
            close_deployment(deployment)

    def test_identical_event_logs(self):
        first_log, first_summary = self.run_schedule()
        second_log, second_summary = self.run_schedule()
        assert '"kind":"daemon.recovery"' in first_log
        assert first_log == second_log
        assert first_summary == second_summary


class TestRestartIsAReclaim:
    """A bounce of the single daemon is the fleet's same-owner reclaim
    of slice 0: fencing token + 1, and one scoped takeover whose
    summary is the boot's recovery summary."""

    def test_restart_bumps_the_token_and_takes_over_slice_zero(self):
        from repro.core.models import LeaseRecord, slice_lease_key
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("reclaim")
            submit_direct_sims(deployment, user, 1)
            db = deployment.databases.admin
            lease = LeaseRecord.objects.using(db).get(
                slice_key=slice_lease_key(0, 1))
            assert lease.owner == "daemon-0"
            token = lease.fencing_token
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("submit", when="after")
            assert run_until_crash(deployment)
            takeovers_before = len(
                deployment.obs.events.of_kind("daemon.takeover"))
            daemon = deployment.restart_daemon()
            assert deployment.daemon is daemon is deployment.fleet[0]
            lease.refresh_from_db()
            assert lease.owner == "daemon-0"
            assert lease.fencing_token == token + 1
            takeovers = deployment.obs.events.of_kind("daemon.takeover")
            assert len(takeovers) == takeovers_before + 1
            fields = takeovers[-1].fields
            assert fields["instance"] == "daemon-0"
            assert fields["slices"] == [0]
            recovery = daemon.last_recovery
            assert recovery["adopted"] == 1
            for key in ("intents", "replayed", "adopted", "verified",
                        "reissued", "held"):
                assert fields[key] == recovery[key], key
        finally:
            close_deployment(deployment)


class TestMonitorAcrossRestart:
    """Satellite: the external watchdog sees the crash, the operator
    bounces the daemon, and the heartbeat-age gauge recovers."""

    def test_stale_heartbeat_then_recovery(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("watch")
            (simulation,) = submit_direct_sims(deployment, user, 1)
            poll(deployment, 1)
            assert deployment.monitor.check()

            # The daemon dies mid-poll at a journaled boundary...
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("stage_in", when="after")
            assert run_until_crash(deployment)
            # ...and nothing stamps the heartbeat while it is dead.
            deployment.clock.advance(2 * 3600.0)
            assert not deployment.monitor.check()
            assert deployment.obs.events.of_kind("monitor.stale")
            stale_mail = [m for m in deployment.mailer.to_admin()
                          if "heartbeat" in m.subject.lower()]
            assert stale_mail

            # The bounce: a fresh daemon reconciles and polls again.
            deployment.restart_daemon()
            assert deployment.daemon.last_recovery["intents"] == 1
            poll(deployment, 1)
            monitor = deployment.monitor
            assert monitor.check()
            assert monitor.heartbeat_age() == 0.0
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=400)
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            audit_exactly_once(deployment)
        finally:
            close_deployment(deployment)


    def test_healthy_fleet_is_healthy(self):
        """The monitor watches the daemons that exist: after
        ``start_fleet`` that is the new members, not the retired
        fleet of one."""
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("watchfleet")
            submit_direct_sims(deployment, user, 4)
            deployment.start_fleet(2)
            assert deployment.daemon is deployment.fleet[0]
            fleet_poll(deployment, 8)
            assert deployment.monitor.check()
            assert deployment.monitor.heartbeat_age() == 0.0
            assert not deployment.obs.events.of_kind("monitor.stale")
        finally:
            close_deployment(deployment)

    def test_killed_fleet_member_is_reported_by_name(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("watchkill")
            submit_direct_sims(deployment, user, 4)
            deployment.start_fleet(2)
            fleet_poll(deployment, 2)
            deployment.kill_daemon(1)
            fleet_poll(deployment, 1)   # daemon-0 is alive and fresh
            assert not deployment.monitor.check()
            (stale,) = deployment.obs.events.of_kind("monitor.stale")
            assert stale.fields["instances"] == ["daemon-1"]
            assert any("daemon-1" in mail.body
                       for mail in deployment.mailer.to_admin()
                       if "heartbeat" in mail.subject.lower())
            # The replacement boots, polls, and health returns.
            deployment.restart_daemon(1)
            fleet_poll(deployment, 1)
            assert deployment.monitor.check()
        finally:
            close_deployment(deployment)


class TestCancelCrashWindow:
    """A chained optimization run crashing between the surplus-job
    cancel and its record save: reconciliation finalises the revocation
    instead of letting the poll misread it as a model failure."""

    def test_cancel_finalised_not_misread(self):
        from tests.core.conftest import submit_optimization
        deployment = AMPDeployment()
        try:
            user = deployment.create_astronomer("chain")
            simulation, _ = submit_optimization(
                deployment, user, n_ga_runs=1, iterations=30,
                walltime_s=4 * 3600.0)
            simulation.config["use_chaining"] = True
            simulation.save(db=deployment.databases.admin)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("cancel", when="after")
            crashed = run_until_crash(deployment, max_polls=200)
            if crashed:
                deployment.restart_daemon()
                assert deployment.daemon.last_recovery["intents"] >= 1
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=600)
            simulation.refresh_from_db()
            assert simulation.state == SIM_DONE
            # No surplus job was ever misread as a model failure.
            assert simulation.hold_reason == ""
            assert_journal_settled(deployment)
        finally:
            close_deployment(deployment)


# ----------------------------------------------------------------------
# Fleet lease-protocol crash windows (multi-daemon kill/restart)
# ----------------------------------------------------------------------

def fleet_poll(deployment, rounds, interval_s=1800.0):
    """Drive fleet rounds; returns indexes that crashed along the way."""
    crashed = []
    for _ in range(rounds):
        deployment.clock.advance(interval_s)
        deployment.poll_fleet_once(on_crash="kill")
        crashed.extend(deployment.fleet_crashes)
    return crashed


def fleet_poll_until_crash(deployment, max_rounds=20, interval_s=1800.0):
    for _ in range(max_rounds):
        crashed = fleet_poll(deployment, 1, interval_s)
        if crashed:
            return crashed
    return []


def test_fleet_crashes_is_empty_before_the_first_round():
    deployment = make_deployment()
    try:
        assert deployment.fleet_crashes == []
        deployment.start_fleet(2)
        assert deployment.fleet_crashes == []
    finally:
        close_deployment(deployment)


class TestFleetLeaseCrashWindows:
    """A fleet member dying inside the lease protocol itself must leave
    its work adoptable — never orphaned, never double-executed."""

    def test_kill_mid_renewal_leaves_work_adoptable(self):
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("fleetrenew")
            simulations = submit_direct_sims(deployment, user, 4)
            deployment.start_fleet(2, lease_ttl_s=3600.0)
            fleet_poll(deployment, 1)       # claims land, work starts
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("lease_renew", when="before")
            # daemon-0 sweeps first next round and dies mid-renewal;
            # the round continues with its peer.
            crashed = fleet_poll_until_crash(deployment)
            assert crashed == [0]
            assert deployment.fleet[0] is None
            # The unrenewed lease runs out; the survivor steals the
            # slice, replays its journal scope, and drains everything.
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=100)
            for simulation in simulations:
                simulation.refresh_from_db()
                assert simulation.state == SIM_DONE
            stolen = deployment.obs.events.of_kind("daemon.lease.stolen")
            assert stolen and stolen[-1].fields["from_owner"] \
                == "daemon-0"
            audit_exactly_once(deployment)
            assert_journal_settled(deployment)
        finally:
            close_deployment(deployment)

    def test_submit_after_crash_on_member_is_adopted_by_peer(self):
        """The orphan window, fleet edition: daemon-0 dies with a job
        on the fabric that the database never heard about.  The peer's
        takeover must adopt it, not resubmit."""
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("fleetorphan")
            simulations = submit_direct_sims(deployment, user, 4)
            deployment.start_fleet(2, lease_ttl_s=3600.0)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            injector.crash("submit", when="after")
            crashed = fleet_poll_until_crash(deployment)
            assert crashed == [0]
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=100)
            for simulation in simulations:
                simulation.refresh_from_db()
                assert simulation.state == SIM_DONE
            takeovers = deployment.obs.events.of_kind("daemon.takeover")
            adopted = [e for e in takeovers
                       if e.fields["instance"] == "daemon-1"
                       and e.fields["adopted"]]
            assert adopted, "peer takeover never adopted the orphan"
            audit_exactly_once(deployment)
            assert_journal_settled(deployment)
        finally:
            close_deployment(deployment)

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_takeover_crash_windows_are_idempotent(self, when):
        """Dying inside the takeover itself (before or after the scoped
        replay) must be recoverable by simply running takeover again."""
        deployment = make_deployment()
        try:
            user = deployment.create_astronomer("fleettakeover")
            simulations = submit_direct_sims(deployment, user, 4)
            deployment.start_fleet(2, lease_ttl_s=3600.0)
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            # Phase 1: daemon-0 dies in the orphan window, leaving an
            # uncommitted submit intent plus its remote job.
            injector.crash("submit", when="after")
            assert fleet_poll_until_crash(deployment) == [0]
            # Phase 2: daemon-1 steals the expired slice but dies
            # inside the takeover window under test.
            injector.crash("takeover", when=when)
            assert fleet_poll_until_crash(deployment) == [1]
            assert all(d is None for d in deployment.fleet.values())
            # Phase 3: the replacement (same id) reclaims its slices
            # immediately and replays the takeover — idempotently.
            deployment.restart_daemon(1)
            deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                             max_polls=100)
            for simulation in simulations:
                simulation.refresh_from_db()
                assert simulation.state == SIM_DONE
            audit_exactly_once(deployment)
            assert_journal_settled(deployment)
        finally:
            close_deployment(deployment)
