"""Unit tests for the failure-budget primitives.

Retry budgets with deterministic backoff (``grid.retry``), the
per-resource circuit breaker (``grid.breaker``), and the composable
fault shapes (``grid.faults``) — each exercised in isolation before the
integration suites compose them.
"""

import math

import pytest

from repro.grid.breaker import (BreakerPolicy, BreakerRegistry, CLOSED,
                                CircuitBreaker, HALF_OPEN, OPEN)
from repro.grid.faults import LatencyWindow
from repro.grid.retry import (RetryPolicy, RetryTracker,
                              classify_operation, deterministic_jitter)
from repro.hpc.simclock import SimClock
from repro.obs import Observability
from tests.conftest import grid_clients

pytestmark = pytest.mark.faults


class TestDeterministicJitter:
    def test_in_unit_interval(self):
        for attempt in range(1, 20):
            draw = deterministic_jitter("42:submit", attempt)
            assert 0.0 <= draw < 1.0

    def test_replayable(self):
        assert deterministic_jitter("7:poll", 3) \
            == deterministic_jitter("7:poll", 3)

    def test_varies_with_attempt_and_key(self):
        draws = {deterministic_jitter("7:poll", a) for a in range(1, 9)}
        assert len(draws) > 1
        assert deterministic_jitter("7:poll", 1) \
            != deterministic_jitter("8:poll", 1)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_to_cap(self):
        policy = RetryPolicy(jitter_fraction=0.0)
        delays = [policy.delay_for(a) for a in range(1, 8)]
        assert delays[:5] == [300.0, 600.0, 1200.0, 2400.0, 4800.0]
        assert delays[5] == delays[6] == 7200.0     # capped

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy()
        for attempt in range(1, 7):
            raw = RetryPolicy(jitter_fraction=0.0).delay_for(attempt)
            jittered = policy.delay_for(attempt, key="1:submit")
            assert raw <= jittered <= raw * 1.1

    def test_budget_exhaustion(self):
        policy = RetryPolicy(max_attempts=6)
        assert not policy.exhausted(5)
        assert policy.exhausted(6)
        assert policy.exhausted(7)

    def test_classify_operation(self):
        assert classify_operation(["grid-proxy-init", "-q"]) == "proxy"
        assert classify_operation(["globusrun", "-r", "x"]) == "submit"
        assert classify_operation(["globus-job-status", "u"]) == "poll"
        assert classify_operation(["globus-job-cancel", "u"]) == "cancel"
        assert classify_operation(["globus-url-copy", "a", "b"]) \
            == "transfer"
        assert classify_operation(["globus-job-run", "h", "qstat"]) \
            == "qstat"
        assert classify_operation(["rm", "-rf"]) == "other"
        assert classify_operation([]) == "other"


class TestClientVocabulary:
    """One table (``clients.PROGRAMS``) says which programs exist, what
    retry budget each draws on and how a logged line is replayed."""

    def test_every_logged_program_is_classified_and_replayable(self):
        from repro.core import AMPDeployment
        from tests.conftest import keep_everything
        from tests.core.conftest import submit_direct, submit_optimization
        deployment = keep_everything(AMPDeployment())
        try:
            user = deployment.create_astronomer("metcalfe",
                                                password="pw12345")
            direct = submit_direct(deployment, user, machine="ranger")
            optimization, _ = submit_optimization(deployment, user)
            deployment.run_daemon_until_idle()
            clients = deployment.clients
            for simulation in (direct, optimization):
                simulation.refresh_from_db()
                assert simulation.state == "DONE"
            assert clients.job_lookup("kraken", "amp-sim-1-PREJOB-1").ok
            assert clients.stage_stat("kraken", "/scratch/none").ok
            clients.job_cancel("kraken", 1)
            logged = list(clients.command_log)
            assert {"globusrun", "globusrun-ws", "globus-job-lookup",
                    "globus-job-cancel"} <= {r.argv[0] for r in logged}
            for result in logged:
                assert classify_operation(result.argv) != "other", \
                    result.command_line
                replayed = clients.dispatch(result.argv)
                assert "command not found" not in replayed.stderr, \
                    result.command_line
        finally:
            deployment.close()

    def test_table_is_exactly_what_the_gateway_can_emit(self, obs):
        from repro.grid import build_fabric, fork_spec
        from repro.grid.backends import GRAM_BACKEND
        from repro.grid.clients import PROGRAMS
        from repro.hpc import KRAKEN, RANGER
        clients = grid_clients(build_fabric([KRAKEN, RANGER], SimClock()),
                               obs)
        emitted = {clients.ensure_proxy("metcalfe").argv[0],     # init
                   clients.ensure_proxy("metcalfe").argv[0]}     # info
        for machine in ("kraken", "ranger"):      # WS and pre-WS GRAM
            for result in (
                    GRAM_BACKEND.submit(clients, machine,
                                        fork_spec("/x.sh",
                                                  directory="/")),
                    GRAM_BACKEND.poll(clients, machine, 1),
                    GRAM_BACKEND.cancel(clients, machine, 1),
                    GRAM_BACKEND.lookup(clients, machine, "tag"),
                    GRAM_BACKEND.stage_in(clients, machine, "/f", b"x"),
                    GRAM_BACKEND.stage_out(clients, machine, "/f"),
                    GRAM_BACKEND.stage_stat(clients, machine, "/f"),
                    GRAM_BACKEND.queue_status(clients, machine)):
                emitted.add(result.argv[0])
        assert emitted == set(PROGRAMS)
        replayable = {name for name, (_, handler) in PROGRAMS.items()
                      if handler is not None}
        assert replayable == emitted - {"grid-proxy-info"}


class TestRetryTracker:
    def test_schedules_against_sim_clock_and_logs(self, obs):
        clock = SimClock()
        clock.advance(1000.0)
        tracker = RetryTracker(RetryPolicy(), clock, obs)
        not_before = tracker.next_retry(5, "submit", 1)
        assert not_before > clock.now
        (event,) = tracker.events_for(5)
        assert (event.simulation_id, event.operation, event.attempt) \
            == (5, "submit", 1)
        assert event.failed_at == 1000.0
        assert event.not_before == not_before
        assert tracker.events_for(6) == []

    def test_identical_inputs_identical_schedule(self, obs):
        schedules = []
        for _ in range(2):
            clock = SimClock()
            tracker = RetryTracker(RetryPolicy(), clock, obs)
            times = []
            for attempt in range(1, 6):
                times.append(tracker.next_retry(3, "transfer", attempt))
                clock.advance(1800.0)
            schedules.append(times)
        assert schedules[0] == schedules[1]


class TestCircuitBreaker:
    def make(self, **policy):
        clock = SimClock()
        breaker = CircuitBreaker(
            "kraken", clock,
            BreakerPolicy(**policy) if policy else BreakerPolicy(),
            obs=Observability(clock), origin="daemon-0")
        return clock, breaker

    def test_opens_after_threshold_consecutive_failures(self):
        _, breaker = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_count(self):
        _, breaker = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_cooldown_admits_exactly_one_probe(self):
        clock, breaker = self.make(failure_threshold=1, open_for_s=600.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(599.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()                  # the half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()              # probe already in flight

    def test_probe_success_closes(self):
        clock, breaker = self.make(failure_threshold=1, open_for_s=600.0)
        breaker.record_failure()
        clock.advance(600.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.opened_at is None

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock, breaker = self.make(failure_threshold=1, open_for_s=600.0)
        breaker.record_failure()
        clock.advance(600.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_at == clock.now
        assert not breaker.allow()

    def test_every_transition_is_logged_with_virtual_time(self):
        clock, breaker = self.make(failure_threshold=1, open_for_s=600.0)
        breaker.record_failure()
        clock.advance(600.0)
        breaker.allow()
        breaker.record_success()
        transitions = [(e.from_state, e.to_state) for e in breaker.events]
        assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                               (HALF_OPEN, CLOSED)]
        times = [e.time for e in breaker.events]
        assert times == sorted(times)


class TestBreakerRegistry:
    def test_unknown_resource_reads_closed(self, obs):
        registry = BreakerRegistry(SimClock(), obs=obs, origin="daemon-0")
        assert registry.state_of("nowhere") == CLOSED
        assert registry.snapshot("nowhere") == (CLOSED, 0, None)
        assert registry.events_for("nowhere") == []

    def test_per_resource_isolation_and_event_merge(self, obs):
        clock = SimClock()
        registry = BreakerRegistry(clock,
                                   BreakerPolicy(failure_threshold=1),
                                   obs=obs, origin="daemon-0")
        registry.record_failure("kraken")
        clock.advance(10.0)
        registry.record_failure("frost")
        assert registry.state_of("kraken") == OPEN
        assert registry.state_of("frost") == OPEN
        assert registry.open_resources() == ["frost", "kraken"]
        merged = registry.all_events()
        assert [e.resource for e in merged] == ["kraken", "frost"]
        assert registry.allow("abe")            # untouched resource
        assert registry.state_of("abe") == CLOSED


class TestLatencyWindow:
    def test_deterministic_every_nth_operation(self):
        window = LatencyWindow(0.0, 100.0, timeout_every=3)
        outcomes = [window.should_timeout() for _ in range(9)]
        assert outcomes == [False, False, True] * 3
        assert window.timeouts_raised == 3

    def test_active_only_inside_the_window(self):
        window = LatencyWindow(10.0, 20.0)
        assert not window.active(9.9)
        assert window.active(10.0)
        assert window.active(19.9)
        assert not window.active(20.0)

    def test_rejects_nonsense_cadence(self):
        with pytest.raises(ValueError):
            LatencyWindow(0.0, 1.0, timeout_every=0)


class TestFaultInjectorShapes:
    def make_deployment(self):
        from repro.core import AMPDeployment
        return AMPDeployment(seed_catalog=False)

    def teardown_deployment(self, deployment):
        from repro.core.models import ALL_MODELS
        from repro.webstack.orm import bind
        bind(ALL_MODELS, None)
        deployment.close()

    def test_flapping_composes_outage_windows(self):
        from repro.grid import FaultInjector
        deployment = self.make_deployment()
        try:
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            records = injector.flapping("kraken", start_in_s=100.0,
                                        period_s=1000.0, down_s=200.0,
                                        cycles=3)
            assert [(r.start, r.end) for r in records] == [
                (100.0, 300.0), (1100.0, 1300.0), (2100.0, 2300.0)]
            assert injector.outage_windows("kraken") == records
            assert injector.outage_windows("frost") == []
            with pytest.raises(ValueError):
                injector.flapping("kraken", start_in_s=0, period_s=100,
                                  down_s=100, cycles=1)
        finally:
            self.teardown_deployment(deployment)

    def test_permanent_outage_until_restore(self):
        from repro.grid import FaultInjector
        deployment = self.make_deployment()
        try:
            injector = FaultInjector(deployment.fabric,
                                     deployment.clock)
            resource = deployment.fabric.resource("kraken")
            outage = injector.permanent_outage("kraken")
            assert not resource.reachable
            assert outage.record.end == math.inf
            deployment.clock.advance(5000.0)
            assert not resource.reachable       # still down: no schedule
            outage.restore()
            assert resource.reachable
            assert outage.record.end == deployment.clock.now
            outage.restore()                    # idempotent
            assert resource.reachable
        finally:
            self.teardown_deployment(deployment)
