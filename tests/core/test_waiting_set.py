"""Level 2 loads only the simulations that can move.

A simulation whose state's check waits on a job still in flight is
*waiting*: its ``advance`` could do nothing but refresh the owner's
proxy.  Each workflow states this as one queryset condition
(``WorkflowManager.waiting_condition``), and level 2's one SELECT
leaves those simulations out, but for the ones whose job level 1 just
re-polled.  The twin runs here switch that exclusion off on one side —
every active simulation loaded and advanced — and demand the same grid
commands, events and final rows on both.
"""

import itertools
import json
import re

import pytest

from repro.core import AMPDeployment, ObservationSet, Simulation, Star
from repro.core.models import (GRAM_IN_FLIGHT, GridJobRecord,
                               HOLD_RESOURCE, JOB_GA, JOB_MODEL,
                               KIND_DIRECT, KIND_OPTIMIZATION,
                               OperationRecord, SIM_DONE, SIM_RUNNING)
from repro.core.workflow import WorkflowManager
from repro.grid import DaemonCrash, FaultInjector
from repro.grid.clients import EXIT_TRANSIENT, CommandResult
from repro.obs import correlation_id
from repro.science import StellarParameters, synthetic_target
from repro.webstack.orm import Q
from repro.webstack.orm.connection import Database
from repro.webstack.orm.query import compiled_cache

from ..conftest import keep_everything
from .conftest import submit_direct

MACHINES = ["kraken", "frost", "auto", "lonestar", "kraken", "auto",
            "frost", "lonestar", "kraken", "auto"]


def close_deployment(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()


def load_everyone(patch):
    """Switch level 2's exclusion off: no simulation is ever waiting."""
    patch.setattr(WorkflowManager, "waiting_condition",
                  lambda workflow, now, jobs: Q())


def mixed_campaign(monkeypatch, *, full_path):
    """One seeded campaign: ten direct runs over three machines and
    ``auto``, one optimization run with a pre-submitted chain, an
    outage (transients and backoff) on frost, a permanent outage on
    lonestar (resource holds, recovered once it is restored) and one
    daemon crash after a submission, followed by the takeover.

    Returns ``(commands, events, rows, advances)``: every grid command,
    every event, the final simulation/job/journal rows, and how many
    ``sim.advance`` spans the run recorded.
    """
    if full_path:
        load_everyone(monkeypatch)
    deployment = keep_everything(AMPDeployment(seed_catalog=False))
    try:
        portal = deployment.databases.portal
        owners = [deployment.create_astronomer(f"twin{k}")
                  for k in range(2)]
        star = Star(name="Twin Star", hd_number=186427)
        star.save(db=deployment.databases.admin)
        Simulation.objects.using(portal).bulk_create([
            Simulation(star_id=star.pk, owner_id=owners[index % 2].pk,
                       kind=KIND_DIRECT, machine_name=machine,
                       parameters={"mass": 0.95 + 0.02 * index,
                                   "z": 0.018, "y": 0.27, "alpha": 2.1,
                                   "age": 2.0 + 0.3 * index})
            for index, machine in enumerate(MACHINES)])
        target, _ = synthetic_target(
            "twin fit", StellarParameters(1.04, 0.021, 0.27, 2.1, 6.0),
            seed=5)
        observation = ObservationSet(
            star_id=star.pk, label="twin fit", teff=target.teff,
            teff_err=target.teff_err, luminosity=target.luminosity,
            frequencies={str(l): v for l, v in target.frequencies.items()})
        observation.save(db=portal)
        Simulation(star_id=star.pk, observation_id=observation.pk,
                   owner_id=owners[0].pk, kind=KIND_OPTIMIZATION,
                   machine_name="kraken",
                   config={"n_ga_runs": 2, "iterations": 12,
                           "population_size": 16, "processors": 128,
                           "walltime_s": 1800.0, "use_chaining": True,
                           "ga_seeds": [11, 12]}).save(db=portal)
        injector = FaultInjector(deployment.fabric, deployment.clock)
        injector.outage("frost", start_in_s=3000.0, duration_s=9000.0)
        lonestar = injector.permanent_outage("lonestar")
        deployment.clock.schedule(40000.0, lonestar.restore)
        injector.crash("submit", when="after", skip=14)
        commands = []
        while True:
            clients = deployment.clients     # a restart builds new ones
            try:
                deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                                 max_polls=400)
                commands += clients.command_log
                break
            except DaemonCrash:
                commands += clients.command_log
                deployment.restart_daemon()
        admin = deployment.databases.admin
        rows = {model.__name__: [
            sorted((field.name, getattr(row, field.attname))
                   for field in model._meta.fields
                   if field.name not in ("created", "updated"))
            for row in model.objects.using(admin).order_by("id")]
            for model in (Simulation, GridJobRecord, OperationRecord)}
        events = [(record.time, record.kind, sorted(record.fields.items()))
                  for record in deployment.obs.events.records]
        advances = sum(span.name == "sim.advance"
                       for span in deployment.obs.tracer.finished)
        return ([(list(r.argv), r.exit_code, r.stdout, r.stderr)
                 for r in commands], events, rows, advances)
    finally:
        close_deployment(deployment)


@pytest.fixture(scope="module")
def twins():
    with pytest.MonkeyPatch.context() as monkeypatch:
        waiting = mixed_campaign(monkeypatch, full_path=False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        full = mixed_campaign(monkeypatch, full_path=True)
    return waiting, full


@pytest.mark.faults
class TestTwinRuns:
    def test_the_campaign_covers_every_path(self, twins):
        (_, events, rows, advances), (_, _, _, full_advances) = twins
        kinds = [kind for _, kind, _ in events]
        assert "daemon.takeover" in kinds and "journal.orphans_adopted" \
            in kinds
        holds = [dict(fields) for _, kind, fields in events
                 if kind == "sim.hold"]
        assert {hold["category"] for hold in holds} == {HOLD_RESOURCE}
        assert "sim.resume" in kinds
        assert any(dict(fields)["outcome"] == "transient"
                   for _, kind, fields in events if kind == "grid.command")
        simulations = [dict(row) for row in rows["Simulation"]]
        assert {s["state"] for s in simulations} == {SIM_DONE}
        assert {s["machine_name"] for s in simulations} >= {
            "kraken", "frost", "lonestar"}
        jobs = [dict(row) for row in rows["GridJobRecord"]]
        assert max(job["sequence"] for job in jobs
                   if job["purpose"] == JOB_GA) > 0
        # The exclusion held simulations back, yet not all of them.
        assert 0 < advances < full_advances

    def test_commands_events_and_rows_match_the_full_path(self, twins):
        (commands, events, rows, _), (full_commands, full_events,
                                      full_rows, _) = twins
        assert commands == full_commands
        assert events == full_events
        assert rows == full_rows

    def test_one_job_per_purpose_outside_the_ga_chains(self, twins):
        """What ``WorkflowManager.waiting_condition`` relies on: the
        in-flight job of a waited-on purpose is the simulation's only
        one, because every purpose but ``ga`` has one job at most."""
        (_, _, rows, _), _ = twins
        seen = set()
        for row in rows["GridJobRecord"]:
            job = dict(row)
            if job["purpose"] == JOB_GA:
                continue
            key = (job["simulation"], job["purpose"])
            assert key not in seen, key
            seen.add(key)


def poll_spans(deployment, name="sim.advance"):
    """One poll: its return value and the spans called *name* it
    finished (a poll finishes far fewer than the tracer keeps)."""
    finished = deployment.obs.tracer.finished
    before = len(finished)
    transitions = deployment.daemon.poll_once()
    new = list(itertools.islice(reversed(finished), len(finished) - before))
    return transitions, [span for span in reversed(new)
                         if name is None or span.name == name]


def running_campaign(deployment, astronomer, n):
    for _ in range(n):
        submit_direct(deployment, astronomer)
    for _ in range(3):
        deployment.daemon.poll_once()
    assert Simulation.objects.using(deployment.databases.admin).filter(
        state=SIM_RUNNING).count() == n


def status_trace_ids(deployment, poll):
    """*poll*'s result, and the trace ids of the status commands it
    sent."""
    events = deployment.obs.events
    before = len(events)
    result = poll()
    new = itertools.islice(reversed(events.records), len(events) - before)
    return result, sorted(
        record.fields["trace_id"] for record in new
        if record.kind == "grid.command"
        and record.fields["program"] == "globus-job-status")


class TestWaitingSpans:
    def test_a_waiting_simulation_is_explained_by_its_span(
            self, deployment, astronomer):
        """"Why is sim #17 stuck" from the spans alone: the poll in
        which its job changed state records a ``daemon.job_poll`` span
        naming the job and its machine under the simulation's trace,
        beside its ``sim.advance`` span; a later poll in which nothing
        changed records neither."""
        running_campaign(deployment, astronomer, 3)
        deployment.clock.advance(60.0)     # every model job starts
        _, spans = poll_spans(deployment, name=None)
        jobs = {job.pk: job for job in
                GridJobRecord.objects.using(deployment.databases.admin)
                .filter(purpose=JOB_MODEL)}
        polls = [span for span in spans if span.name == "daemon.job_poll"]
        assert sorted(span.attrs["job"] for span in polls) == sorted(jobs)
        for span in polls:
            job = jobs[span.attrs["job"]]
            assert job.state == "ACTIVE"
            assert span.attrs == {"job": job.pk, "resource": job.resource}
            assert span.trace_id == correlation_id(job.simulation_id)
        advances = [span for span in spans if span.name == "sim.advance"]
        assert sorted(span.trace_id for span in advances) == sorted(
            span.trace_id for span in polls)
        _, later = poll_spans(deployment, name=None)
        assert not {"sim.advance", "daemon.job_poll"} & {
            span.name for span in later}

    def test_a_waiting_simulation_costs_nothing_while_its_job_is_unchanged(
            self, deployment, astronomer, monkeypatch):
        """A poll that re-polls its job costs it one status command
        carrying its correlation id, one ``daemon.job_poll`` span and
        one ``sim.advance`` span; a poll in which its job did not
        change costs it no command and no span.  With the exclusion
        switched off, every simulation is advanced in every poll."""
        running_campaign(deployment, astronomer, 3)
        deployment.clock.advance(60.0)     # every model job starts
        (_, spans), traced = status_trace_ids(
            deployment, lambda: poll_spans(deployment, name=None))
        advances = sorted(span.trace_id for span in spans
                          if span.name == "sim.advance")
        assert len(advances) == 3
        assert traced == advances == sorted(
            span.trace_id for span in spans
            if span.name == "daemon.job_poll")
        (_, spans), traced = status_trace_ids(
            deployment, lambda: poll_spans(deployment, name=None))
        assert traced == []
        assert not {"sim.advance", "daemon.job_poll"} & {
            span.name for span in spans}
        load_everyone(monkeypatch)
        (_, spans), traced = status_trace_ids(
            deployment, lambda: poll_spans(deployment, name=None))
        assert traced == []
        assert sorted(span.trace_id for span in spans
                      if span.name == "sim.advance") == advances

    def test_a_loaded_simulation_names_no_job(self, deployment,
                                              astronomer, monkeypatch):
        running_campaign(deployment, astronomer, 2)
        load_everyone(monkeypatch)
        _, spans = poll_spans(deployment)
        assert len(spans) == 2
        assert all(set(span.attrs) == {"simulation", "state"}
                   for span in spans)


class TestTheRule:
    """Who is waiting: every guard of ``advance`` passes, no retry
    count is left to clear, and the state's check waits on an
    in-flight job.  Each case changes one row (or the journal's
    ``blocked`` set) of a waiting simulation whose job's listing does
    not change, so only level 2's query can load it."""

    @pytest.fixture()
    def waiting(self, deployment, astronomer):
        running_campaign(deployment, astronomer, 1)
        deployment.daemon.poll_once()      # the row catches up
        job = GridJobRecord.objects.using(
            deployment.databases.admin).get(purpose=JOB_MODEL)
        assert poll_spans(deployment) == (0, [])
        return deployment, job

    @pytest.mark.parametrize("change", [
        lambda d, job: ("jobs", {"state": "DONE"}),
        lambda d, job: ("jobs", {"purpose": "prejob"}),
        lambda d, job: ("simulations", {"state": "POSTJOB"}),
        lambda d, job: ("simulations", {"kind": KIND_OPTIMIZATION}),
        lambda d, job: ("simulations", {"retry_counts": {"proxy": 1}}),
        lambda d, job: ("simulations",
                        {"retry_not_before": d.clock.now + 60.0}),
        lambda d, job: ("simulations", {"machine_name": "auto"}),
        lambda d, job: d.daemon.journal.blocked.add(job.simulation_id),
    ], ids=["job-done", "other-purpose", "other-state", "optimization",
            "retry-count", "backing-off", "unplaced", "blocked"])
    def test_anything_else_is_loaded(self, waiting, change):
        deployment, job = waiting
        admin = deployment.databases.admin
        changed = change(deployment, job)
        if changed is not None:
            table, values = changed
            rows = (GridJobRecord.objects.filter(pk=job.pk)
                    if table == "jobs" else
                    Simulation.objects.filter(pk=job.simulation_id))
            rows.using(admin).update(**values)
        log = deployment.clients.command_log
        logged = len(log)
        _, spans = poll_spans(deployment)
        assert [span.attrs["simulation"] for span in spans] == \
            [job.simulation_id]
        new = len(log) - logged
        assert "globus-job-status" not in [
            result.argv[0] for result in list(log)[-new:]]

    def test_a_retry_count_is_cleared_on_the_full_path(
            self, deployment, astronomer):
        """The proxy refresh succeeding clears a ``proxy`` count — a
        write only the loaded row can make."""
        running_campaign(deployment, astronomer, 2)
        admin = deployment.databases.admin
        first = Simulation.objects.using(admin).order_by("id").first()
        first.retry_counts = {"proxy": 1}
        first.save(db=admin)
        deployment.daemon.poll_once()
        first.refresh_from_db()
        assert first.retry_counts is None

    def test_a_journal_sweep_in_the_poll_loads_everyone(
            self, deployment, astronomer):
        """``reconcile_pending`` may write any job level 1 read."""
        running_campaign(deployment, astronomer, 2)
        daemon = deployment.daemon
        daemon.poll_once()
        assert poll_spans(deployment) == (0, [])
        daemon.journal.blocked.add(10_000)     # no intent: the sweep clears it
        _, spans = poll_spans(deployment, name=None)
        assert "daemon.reconcile_pending" in [span.name for span in spans]
        assert len([span for span in spans
                    if span.name == "sim.advance"]) == 2


def bindings(sql, params):
    """``(column, value)`` per parameter: the value beside the last
    quoted column before its ``?`` (the one before it, for the second
    and later marks of an ``IN`` list)."""
    pieces = sql.split("?")
    assert len(pieces) == len(params) + 1
    pairs, column = [], None
    for piece, value in zip(pieces, params):
        names = re.findall(r'"(\w+)"', piece)
        column = names[-1] if names else column
        pairs.append((column, value))
    return pairs


def test_the_rule_is_one_cached_shape_bound_in_order(
        deployment, astronomer, monkeypatch):
    """Level 2's SELECT carries every workflow's rule, with one
    ``IN (SELECT ...)`` over the in-flight jobs per waited-on state.
    A poll that re-polled a job and one that re-polled none send the
    same text, compiled once, and each value sits at its column:
    the virtual time at ``retry_not_before``, the re-polled job pks
    in the jobs' ``id`` exclusion, and after each state the purpose
    its kind's check waits on there."""
    running_campaign(deployment, astronomer, 2)
    daemon = deployment.daemon
    deployment.clock.advance(60.0)         # every model job starts
    daemon.poll_once()
    statements = []
    execute = Database.execute

    def recording(db, sql, params=(), **kwargs):
        if "amp_gridjob" in sql and kwargs["table"] == "amp_simulation":
            statements.append((sql, list(params)))
        return execute(db, sql, params, **kwargs)

    monkeypatch.setattr(Database, "execute", recording)
    admin = deployment.databases.admin
    job = GridJobRecord.objects.using(admin).filter(
        purpose=JOB_MODEL).order_by("id").first()
    GridJobRecord.objects.using(admin).filter(pk=job.pk).update(
        state="PENDING")                   # lags its listing: re-polled
    times = []
    for _ in range(2):
        deployment.clock.advance(1.0)
        times.append(deployment.clock.now)
        compiles = compiled_cache.compiles
        daemon.poll_once()
    assert compiled_cache.compiles == compiles
    (sql, first), (same, second) = statements
    assert sql == same
    workflows = {workflow.kind: workflow
                 for workflow in daemon.workflows.values()}
    for params, repolled, now in ((first, [job.pk], times[0]),
                                  (second, [], times[1])):
        kind = state = None
        purposes = []
        for column, value in bindings(sql, params):
            if column == "kind":
                kind = value
            elif column == "state" and value not in GRAM_IN_FLIGHT:
                state = value
            elif column == "purpose":
                assert workflows[kind].waits_on[state] == value
                purposes.append((kind, state))
            elif column == "retry_not_before":
                assert value == now + 1e-9
            elif column == "id" and isinstance(value, str):
                assert json.loads(value) == repolled
        assert sorted(purposes) == sorted(
            (kind, state) for kind, workflow in workflows.items()
            for state in workflow.waits_on)


def proxy_failure(monkeypatch, *, full_path):
    """Two RUNNING simulations whose model jobs have just started; the
    first one's proxy refresh fails once.  Returns its row afterwards
    and the poll's spans."""
    with monkeypatch.context() as patch:
        deployment = AMPDeployment()
        try:
            running_campaign(deployment,
                             deployment.create_astronomer("proxy"), 2)
            # Each waited-on job changes state, so it is re-polled and
            # its simulation is loaded and advanced.
            deployment.clock.advance(60.0)
            if full_path:
                load_everyone(patch)
            clients, tracer = deployment.clients, deployment.obs.tracer
            ensure_proxy = clients.ensure_proxy
            admin = deployment.databases.admin
            first = Simulation.objects.using(admin).order_by("id").first()

            def failing(user, email="", **kwargs):
                if tracer.current_trace_id == first.correlation_id:
                    return CommandResult(
                        ["grid-proxy-init", "-gateway-user", user],
                        EXIT_TRANSIENT, stderr="myproxy: timed out")
                return ensure_proxy(user, email, **kwargs)

            patch.setattr(clients, "ensure_proxy", failing)
            transitions, spans = poll_spans(deployment)
            assert transitions == 0
            first = Simulation.objects.using(admin).get(pk=first.pk)
            return ({name: getattr(first, name) for name in (
                "state", "retry_counts", "retry_not_before",
                "status_message")}, [span.attrs for span in spans])
        finally:
            close_deployment(deployment)


@pytest.mark.faults
def test_a_failed_proxy_refresh_backs_off_like_the_full_path(
        monkeypatch):
    """The owner's proxy refresh is the one grid call a waiting
    simulation makes in a poll that re-polled its job; should it fail,
    the engine records the transient exactly as it does with the
    exclusion switched off."""
    row, spans = proxy_failure(monkeypatch, full_path=False)
    full_row, full_spans = proxy_failure(monkeypatch, full_path=True)
    assert len(spans) == 2
    assert spans == full_spans
    assert row == full_row
    assert row["state"] == SIM_RUNNING
    assert row["retry_counts"] == {"proxy": 1}
    assert row["retry_not_before"] > 0
