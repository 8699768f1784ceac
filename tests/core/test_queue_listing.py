"""Level 1 re-polls only the jobs a machine's listing shows changed.

Each poll takes one ``qstat`` per machine before level 1, and its
answer lists the state of every gateway batch job still queued or
running there.  A job is sent ``globus-job-status`` when its listed
state differs from its row or it has left the listing; a machine with
no usable listing — down, behind an open breaker, or answering lines
that do not parse — has every job polled one by one.
"""

import pytest

from repro.core import Simulation, Star
from repro.core.models import (GridJobRecord, JOB_MODEL, KIND_DIRECT,
                               MachineRecord, SIM_RUNNING)
from repro.grid import FaultInjector
from repro.grid.breaker import OPEN
from repro.grid.clients import EXIT_OK, CommandResult

from .conftest import poll_levels, submit_direct

MACHINES = ("kraken", "frost")


def steady(deployment, per_machine=4):
    """Two owners' RUNNING simulations on two machines, their model
    jobs started and recorded ACTIVE; returns the owners."""
    owners = [deployment.create_astronomer(f"lister{k}")
              for k in range(2)]
    for index in range(per_machine * len(MACHINES)):
        submit_direct(deployment, owners[index % 2],
                      machine=MACHINES[index % len(MACHINES)])
    for _ in range(3):
        deployment.daemon.poll_once()
    deployment.clock.advance(60.0)
    deployment.daemon.poll_once()
    assert set(model_jobs(deployment).values_list("state", flat=True)) \
        == {"ACTIVE"}
    return owners


def model_jobs(deployment):
    return GridJobRecord.objects.using(deployment.databases.admin).filter(
        purpose=JOB_MODEL).order_by("id")


def poll_commands(deployment):
    """One poll's grid commands, as argv lists."""
    log = deployment.clients.command_log
    before = len(log)
    deployment.daemon.poll_once()
    new = len(log) - before
    return [list(result.argv) for result in list(log)[-new:]] if new \
        else []


def status_argvs(commands):
    return [argv for argv in commands if argv[0] == "globus-job-status"]


def per_job(jobs):
    """The status commands the per-job path sends for *jobs*."""
    return [["globus-job-status", "-r", job.resource, str(job.gram_job_id)]
            for job in jobs]


class TestChangedJobs:
    def test_a_steady_poll_sends_only_the_listings(self, deployment):
        steady(deployment)
        machines = MachineRecord.objects.using(
            deployment.databases.admin).count()
        commands = poll_commands(deployment)
        assert [argv[0] for argv in commands] == \
            ["globus-job-run"] * machines

    def test_a_row_that_lags_its_listing_is_repolled_once_by_its_owner(
            self, deployment):
        steady(deployment)
        audit = deployment.fabric.audit
        job = model_jobs(deployment).select_related(
            "simulation__owner").first()
        GridJobRecord.objects.using(deployment.databases.admin).filter(
            pk=job.pk).update(state="PENDING")
        tally = dict(audit.tally)
        commands = poll_commands(deployment)
        assert status_argvs(commands) == per_job([job])
        changed = {key: count - tally.get(key, 0)
                   for key, count in audit.tally.items()
                   if count != tally.get(key, 0)}
        assert changed == {(job.simulation.owner.username, "gram-poll"): 1}
        job.refresh_from_db()
        assert job.state == "ACTIVE"
        assert status_argvs(poll_commands(deployment)) == []

    def test_a_job_that_leaves_the_listing_brings_its_failure_reason(
            self, deployment):
        steady(deployment)
        job = model_jobs(deployment).first()
        gram = deployment.fabric.gram(job.resource)
        deployment.fabric.resource(job.resource).scheduler.cancel(
            gram.jobs[job.gram_job_id].batch_job_id)
        commands = poll_commands(deployment)
        assert status_argvs(commands) == per_job([job])
        job.refresh_from_db()
        assert job.state == "FAILED"
        assert job.failure_reason == "batch status CANCELLED"

    def test_finished_jobs_are_each_repolled_once(self, deployment):
        steady(deployment)
        jobs = list(model_jobs(deployment))
        deployment.clock.advance(4 * 3600.0)
        assert status_argvs(poll_commands(deployment)) == per_job(jobs)
        assert all(job.state == "DONE" for job in model_jobs(deployment))


def break_frost_listing(deployment, monkeypatch, fault):
    """Leave frost without a usable listing, one of three ways."""
    clients = deployment.clients
    if fault == "outage":
        FaultInjector(deployment.fabric,
                      deployment.clock).permanent_outage("frost")
    elif fault == "open-breaker":
        clients.breakers.restore("frost", OPEN, failures=5,
                                 opened_at=deployment.clock.now)
    else:
        queue_status = clients.queue_status

        def garbled(name):
            result = queue_status(name)
            if name != "frost":
                return result
            return CommandResult(result.argv, EXIT_OK,
                                 stdout=result.stdout + "\nqstat: ???")
        monkeypatch.setattr(clients, "queue_status", garbled)


@pytest.mark.parametrize("fault", ["outage", "open-breaker",
                                   "malformed-lines"])
def test_a_machine_without_a_listing_falls_back_to_per_job_polls(
        deployment, monkeypatch, fault):
    """Only frost's jobs are polled one by one, in level 1's order;
    kraken's listing still spares its jobs."""
    steady(deployment)
    break_frost_listing(deployment, monkeypatch, fault)
    frost = model_jobs(deployment).filter(resource="frost")
    assert status_argvs(poll_commands(deployment)) == per_job(frost)
    assert all(job.state == "ACTIVE" for job in model_jobs(deployment))


@pytest.mark.parametrize("n", [50, 200, 800])
def test_a_scan_poll_costs_the_same_at_any_inventory(deployment,
                                                     monkeypatch, n):
    """*n* RUNNING simulations over four machines, nothing due: no
    status command, one ``qstat`` per machine and eight statements,
    and neither level hydrates a row, at 50 jobs in flight as at 800;
    the active gauge still counts all *n*."""
    machines = ["kraken", "frost", "lonestar", "ranger"]
    user = deployment.create_astronomer("curve")
    star = Star(name="Curve Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    Simulation.objects.using(deployment.databases.portal).bulk_create([
        Simulation(star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
                   machine_name=machines[index % len(machines)],
                   parameters={"mass": 1.0, "z": 0.018, "y": 0.27,
                               "alpha": 2.1, "age": 4.6})
        for index in range(n)])
    for _ in range(3):
        deployment.daemon.poll_once()
    admin = deployment.databases.admin
    assert Simulation.objects.using(admin).filter(
        state=SIM_RUNNING).count() == n
    deployment.daemon.poll_once()       # rows catch up with the listing
    log = deployment.clients.command_log
    logged = len(log)
    with deployment.databases.daemon.count_queries() as statements:
        transitions, levels = poll_levels(deployment, monkeypatch)
    assert transitions == 0
    new = len(log) - logged
    assert [result.argv[0] for result in list(log)[-new:]] == \
        ["globus-job-run"] * MachineRecord.objects.using(admin).count()
    assert statements.count == 8
    assert levels == {"update_grid_jobs": (1, [("GridJobRecord", 0)]),
                      "advance_simulations": (2, [("Simulation", 0)])}
    assert deployment.obs.metrics.value(
        "daemon_active_simulations", instance="daemon-0") == n
