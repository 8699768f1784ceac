"""Replay determinism: two identical fault-schedule soaks, one story.

The acceptance bar for the observability layer is that it *observes*
without perturbing: a 200-simulation soak through a flapping resource,
run twice from scratch with the same schedule, must produce byte-equal
Prometheus exposition, an identical span tree, and an identical
structured event log — and the breaker's open/close cycle must be
visible in both the ``/metrics`` text and the event log.
"""

import pytest

from repro.core import SIM_DONE, AMPDeployment, Simulation, Star
from repro.grid import FaultInjector
from repro.grid.breaker import CLOSED, OPEN
from repro.hpc import HOUR
from tests.conftest import keep_everything

pytestmark = [pytest.mark.obs, pytest.mark.faults]

SIM_COUNT = 200
FLAP = dict(start_in_s=2 * HOUR, period_s=3 * HOUR,
            down_s=1.3 * HOUR, cycles=3)


def run_soak():
    """One complete soak; returns the three determinism surfaces."""
    deployment = keep_everything(AMPDeployment(seed_catalog=False))
    users = [deployment.create_astronomer(f"soak{i}") for i in range(5)]
    star = Star(name="Replay Star", hd_number=7)
    star.save(db=deployment.databases.admin)
    for index in range(SIM_COUNT):
        Simulation(
            star_id=star.pk, owner_id=users[index % len(users)].pk,
            kind="direct",
            machine_name="frost" if index % 2 else "kraken",
            parameters={"mass": 0.8 + 0.002 * index, "z": 0.02,
                        "y": 0.27, "alpha": 2.0,
                        "age": 1.0 + 0.02 * index},
        ).save(db=deployment.databases.portal)
    FaultInjector(deployment.fabric, deployment.clock).flapping(
        "frost", **FLAP)
    deployment.run_daemon_until_idle(poll_interval_s=1800,
                                     max_polls=3000)
    done = Simulation.objects.using(deployment.databases.admin).filter(
        state=SIM_DONE).count()
    surfaces = {
        "done": done,
        "metrics": deployment.obs.metrics.render_prometheus(),
        "spans": deployment.obs.tracer.tree_lines(),
        "events": deployment.obs.events.to_jsonl(),
    }
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()
    return surfaces


@pytest.fixture(scope="module")
def replayed():
    return run_soak(), run_soak()


class TestReplayDeterminism:
    def test_both_runs_finished_the_fleet(self, replayed):
        first, second = replayed
        assert first["done"] == second["done"] == SIM_COUNT

    def test_metric_values_identical(self, replayed):
        first, second = replayed
        assert first["metrics"] == second["metrics"]

    def test_span_tree_identical(self, replayed):
        first, second = replayed
        assert first["spans"] == second["spans"]
        assert len(first["spans"]) > SIM_COUNT    # real coverage

    def test_event_log_identical(self, replayed):
        first, second = replayed
        assert first["events"] == second["events"]


class TestBreakerStoryIsVisible:
    def test_open_and_close_in_metrics_exposition(self, replayed):
        first, _ = replayed
        text = first["metrics"]
        assert ('breaker_transitions_total'
                '{resource="frost",to_state="open"}') in text
        assert ('breaker_transitions_total'
                '{resource="frost",to_state="closed"}') in text
        # Healed by the end of the soak.
        assert 'breaker_open{resource="frost"} 0' in text

    def test_open_and_close_in_event_log(self, replayed):
        import json
        first, _ = replayed
        records = [json.loads(line)
                   for line in first["events"].splitlines()]
        breaker = [r for r in records
                   if r["kind"] == "breaker.transition"
                   and r["resource"] == "frost"]
        states = {r["to_state"] for r in breaker}
        assert OPEN in states and CLOSED in states
        # Suppressed traffic while open is part of the story too.
        assert any(r["kind"] == "grid.command"
                   and r["outcome"] == "suppressed" for r in records)

    def test_every_simulation_story_is_traceable(self, replayed):
        first, _ = replayed
        traced = {line.split("[", 1)[1].split("]", 1)[0]
                  for line in first["spans"]
                  if "[amp-sim-" in line}
        assert len(traced) == SIM_COUNT
