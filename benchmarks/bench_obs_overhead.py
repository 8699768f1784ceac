"""Observability overhead guard: the instrumented poll stays cheap.

The whole value of the metrics/traces/events layer is lost if it costs
so much that operators would want it gone — so the guard here pins the
cost: a steady-state 50-simulation daemon poll with full
instrumentation (spans per phase, per-simulation advance spans,
metrics, structured events, per-role query counters) must stay within
10% of the same poll on a deployment with nothing behind its facade.

The program has no off mode, so the baseline lives here: the plain
deployment is built with :class:`_Unobserved` in place of the
deployment's :class:`~repro.obs.Observability` — metrics and spans are
no-ops, events reach their subscribers (breaker-transition mail rides
on them) but are not kept, and no statement is counted.

Best-of-N timing on both sides: a quiescent poll is sub-millisecond, so
single samples are scheduler noise, but the *minimum* over many rounds
is a stable estimate of the true cost.  The two deployments poll in
alternation, round by round, so drift in the host's speed lands on both
sides instead of on whichever ran second.
"""

import time
from unittest import mock

from repro.analysis.reporting import format_table
from repro.core import AMPDeployment, Simulation
from repro.obs import EventLog, MetricsRegistry, Observability, Tracer

ROUNDS = 30
SIMS = 50


class _NullMetric:
    """Accepts every metric call the program makes and does nothing."""

    def labels(self, **_labels):
        return self

    def inc(self, amount=1.0):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


_NULL_METRIC = _NullMetric()


class _NullRegistry(MetricsRegistry):
    def _family(self, name, kind, help, buckets=None):
        return _NULL_METRIC


class _NullSpan:
    def set_attr(self, key, value):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _NullTracer(Tracer):
    def span(self, name, *, trace_id=None, attrs=None):
        return _NULL_SPAN


class _Discard:
    """An event list that keeps nothing."""

    def append(self, item):
        pass


class _Unobserved(Observability):
    """The facade with nothing behind it: the baseline's off side."""

    def __init__(self, clock):
        self.clock = clock
        self.metrics = _NullRegistry()
        self.tracer = _NullTracer(clock)
        self.events = EventLog(clock)
        self.events.records = _Discard()
        # Every event still feeds the (no-op) events counter, as in the
        # instrumented facade.
        counter = self.metrics.counter("amp_events_total")
        self.events.subscribe_all(
            lambda record: counter.labels(kind=record.kind).inc())

    def observe_database(self, db, slow_statement_s=None):
        pass


def _steady_state(name):
    deployment = AMPDeployment()
    user = deployment.create_astronomer(name, password="pw12345")
    star, _ = deployment.catalog.search("16 Cyg B")
    for index in range(SIMS):
        Simulation(
            star_id=star.pk, owner_id=user.pk, kind="direct",
            machine_name="kraken",
            parameters={"mass": 1.0 + (index % 40) * 0.005, "z": 0.02,
                        "y": 0.27, "alpha": 2.0, "age": 5.0},
        ).save(db=deployment.databases.portal)
    for _ in range(3):      # QUEUED → PREJOB → RUNNING, then steady
        deployment.daemon.poll_once()
    return deployment


def _poll_seconds(deployment):
    start = time.perf_counter()
    deployment.daemon.poll_once()
    return time.perf_counter() - start


def _teardown(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()


def test_instrumentation_overhead_under_ten_percent(benchmark):
    """50-sim steady-state poll: observability on vs off."""
    with mock.patch("repro.core.bootstrap.Observability", _Unobserved):
        plain = _steady_state("obsbench-0")
    instrumented = _steady_state("obsbench-1")
    base_s = obs_s = float("inf")
    for round_ in range(ROUNDS):
        # Alternate which side polls first within each round.
        if round_ % 2:
            obs_s = min(obs_s, _poll_seconds(instrumented))
            base_s = min(base_s, _poll_seconds(plain))
        else:
            base_s = min(base_s, _poll_seconds(plain))
            obs_s = min(obs_s, _poll_seconds(instrumented))
    assert plain.obs.metrics.render_prometheus() == ""   # truly off
    _teardown(plain)

    benchmark.pedantic(instrumented.daemon.poll_once,
                       rounds=1, iterations=1)
    polls = instrumented.obs.metrics.total("daemon_polls_total")
    spans = len(instrumented.obs.tracer.finished)
    _teardown(instrumented)

    overhead = obs_s / base_s - 1.0
    print("\nObservability overhead, steady-state 50-simulation poll:")
    print(format_table(
        ["variant", "best poll ms", "overhead"],
        [["observability off", f"{base_s * 1e3:.3f}", "—"],
         ["observability on", f"{obs_s * 1e3:.3f}",
          f"{overhead * 100:+.1f}%"]]))
    # The instrumented run really did record everything...
    assert polls >= ROUNDS + 4
    assert spans > polls * 3            # poll + phases + advances
    # ...at under 10% poll-cost overhead.
    assert overhead < 0.10, (
        f"instrumentation overhead {overhead:.1%} exceeds the 10% "
        f"budget ({obs_s * 1e3:.3f}ms vs {base_s * 1e3:.3f}ms)")
