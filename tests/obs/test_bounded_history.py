"""The four per-command logs keep a tail and count the rest.

The event log, the finished spans, the grid command log and the GRAM
audit log each retain the newest ``KEEP`` items; ``len()`` is how many
were ever appended, and whole-run answers come from the metrics
registry (and, for the audit log, from its own per-user tally).  A
daemon's memory must not grow with its uptime.
"""

import collections
import tracemalloc

import pytest

from repro.core import AMPDeployment, KIND_DIRECT, Simulation, Star
from repro.core.models import ALL_MODELS
from repro.grid import build_fabric, fork_spec
from repro.hpc import KRAKEN
from repro.obs import KEEP, Ring
from repro.webstack.orm import bind
from tests.conftest import grid_clients, keep_everything

pytestmark = pytest.mark.obs


def logs(deployment):
    """The four bounded logs of *deployment*, by name."""
    return {"events": deployment.obs.events.records,
            "spans": deployment.obs.tracer.finished,
            "commands": deployment.clients.command_log,
            "audit": deployment.fabric.audit.records}


class TestRing:
    def test_len_counts_every_append(self):
        ring = Ring()
        for item in range(3 * KEEP + 7):
            ring.append(item)
        assert len(ring) == 3 * KEEP + 7

    def test_iteration_is_the_newest_keep_oldest_first(self):
        ring = Ring()
        for item in range(2 * KEEP + 5):
            ring.append(item)
        assert [item for item in ring] == \
            list(range(KEEP + 5, 2 * KEEP + 5))

    def test_minus_one_is_the_newest(self):
        ring = Ring()
        for item in range(KEEP + 1):
            ring.append(item)
            assert ring[-1] == item

    def test_reversed_is_the_newest_keep_newest_first(self):
        ring = Ring()
        for item in range(KEEP + 5):
            ring.append(item)
        assert list(reversed(ring)) == list(range(KEEP + 4, 4, -1))

    def test_non_negative_index_raises(self):
        ring = Ring()
        ring.append("a")
        with pytest.raises(IndexError):
            ring[0]

    def test_short_log_keeps_everything(self):
        ring = Ring()
        ring.append("a")
        ring.append("b")
        assert (len(ring), list(ring)) == (2, ["a", "b"])


def drive(*, whole_run):
    """One seeded campaign on short polls: every log passes 3 x KEEP."""
    deployment = AMPDeployment(seed_catalog=False)
    if whole_run:
        keep_everything(deployment)
    user = deployment.create_astronomer("ring")
    star = Star(name="Ring Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    Simulation.objects.using(deployment.databases.portal).bulk_create([
        Simulation(star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
                   machine_name="kraken",
                   parameters={"mass": 1.0 + 0.001 * index, "z": 0.018,
                               "y": 0.27, "alpha": 2.1, "age": 4.6})
        for index in range(300)])
    deployment.run_daemon_until_idle(poll_interval_s=30.0)
    bind(ALL_MODELS, None)
    deployment.close()
    return deployment


@pytest.fixture(scope="module")
def twins():
    return drive(whole_run=False), drive(whole_run=True)


class TestLongRun:
    def test_each_log_passed_three_keeps_and_retains_exactly_keep(
            self, twins):
        bounded, _ = twins
        for name, log in logs(bounded).items():
            assert len(log) > 3 * KEEP, name
            assert sum(1 for _ in log) == KEEP, name

    def test_len_is_what_the_registry_counts(self, twins):
        bounded, _ = twins
        metrics = bounded.obs.metrics
        assert len(bounded.obs.events) == \
            metrics.total("amp_events_total")
        assert len(bounded.clients.command_log) == \
            metrics.total("grid_commands_total")

    def test_audit_queries_answer_for_the_whole_run(self, twins):
        bounded, whole = twins
        audit, records = bounded.fabric.audit, logs(whole)["audit"]
        assert sum(audit.tally.values()) == len(audit) == len(records)
        assert audit.distinct_users() == \
            sorted({r.gateway_user for r in records})
        assert audit.failures() == sum(not r.success for r in records)
        for user in audit.distinct_users():
            assert audit.by_user(user) == collections.Counter(
                r.operation for r in records if r.gateway_user == user)

    def test_len_matches_the_whole_run(self, twins):
        bounded, whole = twins
        for name, log in logs(bounded).items():
            assert len(log) == len(logs(whole)[name]), name

    def test_retained_tail_is_the_whole_runs_last_keep(self, twins):
        bounded, whole = twins
        render = {"events": lambda r: r.to_json(),
                  "spans": lambda s: s.as_dict(),
                  "commands": lambda c: c, "audit": lambda a: a}
        for name, log in logs(bounded).items():
            full = logs(whole)[name]
            assert isinstance(full, list), name
            assert [render[name](x) for x in log] == \
                [render[name](x) for x in full[-KEEP:]], name


def test_memory_is_flat_in_run_length(obs):
    """A grid command costs its log entries only until they rotate out:
    growth from 2 x KEEP to 20 x KEEP commands stays under 1 MB."""
    clients = grid_clients(build_fabric([KRAKEN], obs.clock), obs)
    clients.grid_proxy_init("metcalfe", "t@ucar.edu")
    clients.fabric.resource("kraken").fork.install(
        "/amp/prejob.sh", lambda resource, **kw: None)
    job = clients.submit_job(
        "kraken", fork_spec("/amp/prejob.sh", directory="/run"),
        service="fork").stdout

    def commands(n):
        for _ in range(n):
            with obs.tracer.span("grid.status"):
                clients.job_status("kraken", job)

    tracemalloc.start()
    try:
        commands(2 * KEEP)
        before = tracemalloc.take_snapshot()
        commands(18 * KEEP)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff
                 for stat in after.compare_to(before, "filename"))
    assert len(obs.events.of_kind("grid.command")) == KEEP
    assert growth < 1_000_000, f"{growth} bytes for {18 * KEEP} commands"
