"""The execution contract of the GRAM command module.

What the workflow engine relies on behind :class:`GridClients`:
submit→poll→DONE lifecycle in the GRAM state vocabulary, cancellation,
transient-vs-permanent error classification, ``clientTag`` lookup (the
journal's idempotency primitive), checksummed staging, and parseable
queue telemetry.  (The suite used to run against a local-pool and a
cloud harness too; the ``[gram]`` parametrisation id is kept so the
ten cases keep their names.)
"""

import hashlib

import pytest

from repro.grid import (EXIT_PERMANENT, EXIT_TRANSIENT, batch_spec,
                        build_fabric)
from repro.grid.gram import ACTIVE, DONE, FAILED, PENDING, AppExecution
from repro.hpc import HOUR, KRAKEN, SimClock
from tests.conftest import grid_clients

MODEL_SH = "/usr/local/amp/model.sh"


class BackendHarness:
    """How a model run is prepared and how time passes."""

    #: Does cancel deterministically leave the job FAILED?
    cancel_is_immediate = True

    def __init__(self, clock, fabric, clients):
        self.clock = clock
        self.fabric = fabric
        self.clients = clients
        self.resource = fabric.resource(self.resource_name)

    def install(self):
        """Install the model application (PI deployment step)."""

    def prepare(self, directory):
        """Create the run directory (what prejob does)."""

    def submit_model(self, directory, tag=None):
        spec = batch_spec(self.model_executable, count=1,
                          max_wall_time_s=6 * HOUR, directory=directory)
        if tag is not None:
            spec["clientTag"] = tag
        return self.clients.submit_job(self.resource_name, spec)

    def advance(self):
        """Let enough (virtual or real) time pass for progress."""

    def read_output(self, directory):
        raise NotImplementedError


class GramHarness(BackendHarness):
    name = "gram"
    resource_name = "kraken"
    model_executable = MODEL_SH

    def install(self):
        def model(resource, directory="/", **kw):
            def finish():
                resource.filesystem.write(directory + "/out.txt",
                                          b"done")
            return AppExecution(runtime_s=2 * HOUR, on_finish=finish)
        self.resource.install_application(MODEL_SH, model)

    def prepare(self, directory):
        self.resource.filesystem.mkdir(directory)

    def advance(self):
        self.clock.advance(HOUR)

    def read_output(self, directory):
        return self.resource.filesystem.read(directory + "/out.txt")


HARNESSES = {GramHarness.name: GramHarness}


@pytest.fixture()
def world(obs):
    clock = SimClock()
    fabric = build_fabric([KRAKEN], clock)
    clients = grid_clients(fabric, obs)
    clients.grid_proxy_init("metcalfe", "t@ucar.edu")
    return clock, fabric, clients


@pytest.fixture(params=sorted(HARNESSES))
def harness(request, world):
    clock, fabric, clients = world
    built = HARNESSES[request.param](clock, fabric, clients)
    built.install()
    return built


class TestLifecycleContract:
    def test_submit_poll_reaches_done(self, harness):
        clients = harness.clients
        harness.prepare("/scratch/run1")
        submitted = harness.submit_model("/scratch/run1")
        assert submitted.ok
        job_id = submitted.stdout
        assert job_id.strip().isdigit()
        for _ in range(8):
            polled = clients.job_status(harness.resource_name, job_id)
            assert polled.ok
            if polled.stdout == DONE:
                break
            assert polled.stdout in (PENDING, ACTIVE)
            harness.advance()
        else:
            pytest.fail(f"{harness.name}: job never reached DONE")
        assert harness.read_output("/scratch/run1")

    def test_cancel(self, harness):
        clients = harness.clients
        harness.prepare("/scratch/run2")
        submitted = harness.submit_model("/scratch/run2")
        assert submitted.ok
        cancelled = clients.job_cancel(harness.resource_name,
                                       submitted.stdout)
        assert cancelled.ok
        assert cancelled.stdout == "cancelled"
        polled = clients.job_status(harness.resource_name,
                                    submitted.stdout)
        assert polled.ok
        if harness.cancel_is_immediate:
            assert polled.stdout.startswith(FAILED)
            assert "cancelled" in polled.stdout
        else:
            # A real subprocess pool has the true cancellation race:
            # the job is either dead or it already finished.
            assert polled.stdout == DONE \
                or polled.stdout.startswith(FAILED)


class TestErrorClassification:
    def test_unreachable_resource_is_transient(self, harness):
        clients = harness.clients
        harness.prepare("/scratch/run3")
        harness.resource.reachable = False
        try:
            result = harness.submit_model("/scratch/run3")
        finally:
            harness.resource.reachable = True
        assert result.exit_code == EXIT_TRANSIENT
        assert result.transient

    def test_unknown_job_poll_is_permanent(self, harness):
        result = harness.clients.job_status(harness.resource_name,
                                            99999)
        assert result.exit_code == EXIT_PERMANENT
        assert not result.ok and not result.transient


class TestIdempotencyContract:
    def test_lookup_finds_submission_by_journal_key(self, harness):
        clients = harness.clients
        harness.prepare("/scratch/run4")
        tag = "amp-sim-7-MODEL-1"
        submitted = harness.submit_model("/scratch/run4", tag=tag)
        assert submitted.ok
        found = clients.job_lookup(harness.resource_name, tag)
        assert found.ok
        job_id, _, state = found.stdout.partition(" ")
        assert job_id == submitted.stdout
        assert state
        # A reconciling daemon re-submits only when the lookup comes
        # back empty — the same key always resolves to the same job.
        again = clients.job_lookup(harness.resource_name, tag)
        assert again.stdout.partition(" ")[0] == submitted.stdout

    def test_lookup_of_unsubmitted_key_is_empty(self, harness):
        result = harness.clients.job_lookup(harness.resource_name,
                                            "amp-sim-999-MODEL-1")
        assert result.ok
        assert result.stdout == ""


class TestStagingContract:
    def test_stage_roundtrip_with_checksums(self, harness):
        clients = harness.clients
        harness.prepare("/scratch/run5")
        payload = b"parameter file contents\n"
        digest = hashlib.md5(payload).hexdigest()
        staged = clients.stage_in(harness.resource_name,
                                  "/scratch/run5/file.txt", payload)
        assert staged.ok
        assert staged.stdout == digest
        stat = clients.stage_stat(harness.resource_name,
                                  "/scratch/run5/file.txt")
        assert stat.stdout == f"{len(payload)} {digest}"
        out = clients.stage_out(harness.resource_name,
                                "/scratch/run5/file.txt")
        assert out.ok
        assert out.data == payload
        assert out.stdout == f"{len(payload)} bytes"

    def test_stat_of_absent_file(self, harness):
        harness.prepare("/scratch/run6")
        stat = harness.clients.stage_stat(harness.resource_name,
                                          "/scratch/run6/missing.txt")
        assert stat.ok
        assert stat.stdout == "absent"


class TestTelemetryContract:
    def test_queue_status_is_parseable(self, harness):
        result = harness.clients.queue_status(harness.resource_name)
        assert result.ok
        depth_text, util_text = result.stdout.split("\n")[0].split()
        assert int(depth_text) >= 0
        assert 0.0 <= float(util_text) <= 1.0

    def test_queue_status_lists_the_jobs_in_flight(self, harness):
        """After the telemetry line, one ``"<id> <STATE>"`` line per
        batch job still queued or running, in submission order; a
        finished job is no longer listed."""
        clients = harness.clients
        job_ids = []
        for run in ("/scratch/run8", "/scratch/run9"):
            harness.prepare(run)
            job_ids.append(harness.submit_model(run).stdout)
        head, *lines = clients.queue_status(
            harness.resource_name).stdout.split("\n")
        assert len(head.split()) == 2
        assert lines == [f"{job_id} {PENDING}" for job_id in job_ids]
        harness.advance()
        _, *lines = clients.queue_status(
            harness.resource_name).stdout.split("\n")
        assert lines == [f"{job_id} {ACTIVE}" for job_id in job_ids]
        assert clients.job_cancel(harness.resource_name, job_ids[0]).ok
        for _ in range(3):
            harness.advance()
        _, *lines = clients.queue_status(
            harness.resource_name).stdout.split("\n")
        assert lines == []
        assert clients.job_status(harness.resource_name,
                                  job_ids[1]).stdout == DONE

    def test_commands_are_logged_for_rerun(self, harness):
        harness.prepare("/scratch/run7")
        submitted = harness.submit_model("/scratch/run7")
        assert submitted.ok
        logged = harness.clients.command_log[-1]
        assert logged is submitted
        # The copy-paste discipline holds on every substrate: a poll
        # command replayed from the log re-routes to the same backend.
        polled = harness.clients.job_status(harness.resource_name,
                                            submitted.stdout)
        replay = harness.clients.rerun(polled)
        assert replay.argv == polled.argv
        assert replay.ok
