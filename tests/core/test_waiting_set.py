"""Level 2 loads only the simulations that can move.

A simulation whose state's check waits on a job level 1 found still
in flight is *waiting*: its ``advance`` could do nothing but refresh
the owner's proxy, so level 2 does only that, from level 1's columns,
and only in a poll that re-polled the job; it loads the rest.  The twin runs here hold the waiting set
empty on one side — today's full path for every simulation — and
demand the same grid commands, events and final rows on both.
"""

import itertools

import pytest

from repro.core import (AMPDeployment, GridAMPDaemon, ObservationSet,
                        Simulation, Star)
from repro.core.models import (GridJobRecord, HOLD_RESOURCE, JOB_GA,
                               JOB_MODEL, KIND_DIRECT, KIND_OPTIMIZATION,
                               OperationRecord, SIM_DONE, SIM_RUNNING)
from repro.grid import DaemonCrash, FaultInjector
from repro.grid.clients import EXIT_TRANSIENT, CommandResult
from repro.obs import correlation_id
from repro.science import StellarParameters, synthetic_target

from ..conftest import keep_everything
from .conftest import submit_direct

MACHINES = ["kraken", "frost", "auto", "lonestar", "kraken", "auto",
            "frost", "lonestar", "kraken", "auto"]


def close_deployment(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()


def mixed_campaign(monkeypatch, *, full_path):
    """One seeded campaign: ten direct runs over three machines and
    ``auto``, one optimization run with a pre-submitted chain, an
    outage (transients and backoff) on frost, a permanent outage on
    lonestar (resource holds, recovered once it is restored) and one
    daemon crash after a submission, followed by the takeover.

    Returns ``(commands, events, rows, waited)``: every grid command,
    every event, the final simulation/job/journal rows, and how many
    simulations the waiting set held over the run.
    """
    waited = []
    waiting_set = GridAMPDaemon.waiting_set

    def recorded(daemon, jobs):
        waiting = {} if full_path else waiting_set(daemon, jobs)
        waited.append(len(waiting))
        return waiting

    monkeypatch.setattr(GridAMPDaemon, "waiting_set", recorded)
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
        return ([(list(r.argv), r.exit_code, r.stdout, r.stderr)
                 for r in commands], events, rows, waited)
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
        (_, events, rows, waited), _ = twins
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
        assert max(waited) > 0 and min(waited) == 0

    def test_commands_events_and_rows_match_the_full_path(self, twins):
        (commands, events, rows, _), (full_commands, full_events,
                                      full_rows, full_waited) = twins
        assert set(full_waited) == {0}
        assert commands == full_commands
        assert events == full_events
        assert rows == full_rows

    def test_one_job_per_purpose_outside_the_ga_chains(self, twins):
        """What ``WorkflowManager.waiting`` relies on: the job level 1
        finds in flight is the simulation's latest of its purpose,
        because every purpose but ``ga`` has one job at most."""
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
        which its job changed state names the job it waits on, by
        purpose, pk and GRAM state; a later poll in which nothing
        changed records no span for it."""
        running_campaign(deployment, astronomer, 3)
        deployment.clock.advance(60.0)     # every model job starts
        _, spans = poll_spans(deployment)
        jobs = {job.simulation_id: job for job in
                GridJobRecord.objects.using(deployment.databases.admin)
                .filter(purpose=JOB_MODEL)}
        assert len(spans) == 3
        for span in spans:
            job = jobs[span.attrs["simulation"]]
            assert span.attrs["state"] == SIM_RUNNING
            assert span.attrs["waiting_on"] == JOB_MODEL
            assert span.attrs["job"] == job.pk
            assert span.attrs["gram_state"] == job.state == "ACTIVE"
            assert span.trace_id == correlation_id(job.simulation_id)
        assert poll_spans(deployment) == (0, [])

    def test_a_waiting_simulation_costs_one_span_per_poll(
            self, deployment, astronomer, monkeypatch):
        """Its ``sim.advance`` span is the record of its job's poll as
        well: level 1 records no ``daemon.job_poll`` span for it, and
        the status command still carries its correlation id.  A poll
        in which its job did not change costs it no span and no
        command."""
        running_campaign(deployment, astronomer, 3)
        deployment.clock.advance(60.0)     # every model job starts
        (_, spans), traced = status_trace_ids(
            deployment, lambda: poll_spans(deployment, name=None))
        advances = [span.trace_id for span in spans
                    if span.name == "sim.advance"]
        assert len(advances) == 3
        assert "daemon.job_poll" not in [span.name for span in spans]
        assert traced == sorted(advances)
        (_, spans), traced = status_trace_ids(
            deployment, lambda: poll_spans(deployment, name=None))
        assert traced == []
        assert not {"sim.advance", "daemon.job_poll"} & {
            span.name for span in spans}
        # The full path loads them all and records every re-polled
        # job's poll: rows that lag their listing are re-polled.
        monkeypatch.setattr(GridAMPDaemon, "waiting_set",
                            lambda daemon, jobs: {})
        GridJobRecord.objects.using(deployment.databases.admin).filter(
            purpose=JOB_MODEL).update(state="PENDING")
        _, polls = poll_spans(deployment, name="daemon.job_poll")
        assert sorted(span.trace_id for span in polls) == sorted(advances)
        assert all(set(span.attrs) == {"job", "resource"} for span in polls)

    def test_a_loaded_simulation_names_no_job(self, deployment,
                                              astronomer, monkeypatch):
        running_campaign(deployment, astronomer, 2)
        monkeypatch.setattr(GridAMPDaemon, "waiting_set",
                            lambda daemon, jobs: {})
        _, spans = poll_spans(deployment)
        assert len(spans) == 2
        assert not any("waiting_on" in span.attrs for span in spans)


class TestTheRule:
    """Who is waiting: every guard of ``advance`` passes, no retry
    count is left to clear, and the state's check waits on the job."""

    @pytest.fixture()
    def waiting(self, deployment, astronomer):
        running_campaign(deployment, astronomer, 1)
        daemon = deployment.daemon
        job = (GridJobRecord.objects.using(deployment.databases.daemon)
               .select_related("simulation").get(purpose=JOB_MODEL))
        assert daemon.waiting_set([job]) == {job.simulation_id: job}
        return daemon, job

    @pytest.mark.parametrize("change", [
        lambda daemon, job: setattr(job, "state", "DONE"),
        lambda daemon, job: setattr(job, "purpose", "prejob"),
        lambda daemon, job: setattr(job.simulation, "state", "POSTJOB"),
        lambda daemon, job: setattr(job.simulation, "kind",
                                    KIND_OPTIMIZATION),
        lambda daemon, job: setattr(job.simulation, "retry_counts",
                                    {"proxy": 1}),
        lambda daemon, job: setattr(job.simulation, "retry_not_before",
                                    daemon.clock.now + 60.0),
        lambda daemon, job: setattr(job.simulation, "machine_name",
                                    "auto"),
        lambda daemon, job: daemon.journal.blocked.add(job.simulation_id),
    ], ids=["job-done", "other-purpose", "other-state", "optimization",
            "retry-count", "backing-off", "unplaced", "blocked"])
    def test_anything_else_is_loaded(self, waiting, change):
        daemon, job = waiting
        change(daemon, job)
        assert daemon.waiting_set([job]) == {}

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
        daemon.journal.blocked.add(10_000)     # no intent: the sweep clears it
        _, spans = poll_spans(deployment, name=None)
        assert "daemon.reconcile_pending" in [span.name for span in spans]
        assert not any("waiting_on" in span.attrs for span in spans
                       if span.name == "sim.advance")


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
            # its simulation has the owner's proxy refreshed.
            deployment.clock.advance(60.0)
            if full_path:
                patch.setattr(GridAMPDaemon, "waiting_set",
                              lambda daemon, jobs: {})
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
    the simulation is loaded and the engine records the transient
    exactly as the full path would."""
    row, spans = proxy_failure(monkeypatch, full_path=False)
    full_row, full_spans = proxy_failure(monkeypatch, full_path=True)
    assert [span["waiting_on"] for span in spans] == [JOB_MODEL] * 2
    assert not any("waiting_on" in span for span in full_spans)
    assert row == full_row
    assert row["state"] == SIM_RUNNING
    assert row["retry_counts"] == {"proxy": 1}
    assert row["retry_not_before"] > 0
