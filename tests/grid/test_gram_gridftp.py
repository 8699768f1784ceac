"""GRAM job services, GridFTP staging, fault injection, auditing."""

import pytest

from repro.grid import (AppExecution, FaultInjector, build_fabric,
                        batch_spec, fork_spec)
from repro.grid.errors import (CredentialError, ServiceUnreachable,
                               TransferFault)
from repro.grid.gram import ACTIVE, DONE, FAILED, PENDING
from repro.hpc import HOUR, KRAKEN, SimClock
from tests.conftest import grid_clients


@pytest.fixture()
def grid(obs):
    clock = SimClock()
    fabric = build_fabric([KRAKEN], clock)
    clients = grid_clients(fabric, obs)
    clients.grid_proxy_init("metcalfe", "t@ucar.edu")
    kraken = fabric.resource("kraken")

    def prejob(resource, directory="/", **kw):
        resource.filesystem.mkdir(directory)

    def model(resource, directory="/", **kw):
        def finish():
            resource.filesystem.write(directory + "/out.txt", b"done")
        return AppExecution(runtime_s=2 * HOUR, on_finish=finish)

    kraken.fork.install("/amp/prejob.sh", prejob)
    kraken.install_application("/amp/model.sh", model)
    return clock, fabric, clients, kraken


class TestGramFork:
    def test_fork_runs_immediately(self, grid):
        clock, fabric, clients, kraken = grid
        result = clients.globusrun(
            "kraken", fork_spec("/amp/prejob.sh", directory="/run1"),
            service="fork")
        assert result.ok
        assert kraken.filesystem.isdir("/run1")
        status = clients.globus_job_status("kraken", result.stdout)
        assert status.stdout == DONE

    def test_fork_script_failure_is_failed_state(self, grid):
        clock, fabric, clients, kraken = grid

        def broken(resource, **kw):
            raise RuntimeError("disk full")
        kraken.fork.install("/amp/broken.sh", broken)
        result = clients.globusrun(
            "kraken", fork_spec("/amp/broken.sh", directory="/r"),
            service="fork")
        status = clients.globus_job_status("kraken", result.stdout)
        assert status.stdout.startswith(FAILED)
        assert "disk full" in status.stdout


class TestGramBatch:
    def test_batch_lifecycle(self, grid):
        clock, fabric, clients, kraken = grid
        kraken.filesystem.mkdir("/run2")
        result = clients.globusrun(
            "kraken", batch_spec("/amp/model.sh", count=128,
                                 max_wall_time_s=6 * HOUR,
                                 directory="/run2"))
        job_id = result.stdout
        assert clients.globus_job_status("kraken",
                                         job_id).stdout == PENDING
        clock.advance(60)
        assert clients.globus_job_status("kraken",
                                         job_id).stdout == ACTIVE
        clock.advance(3 * HOUR)
        assert clients.globus_job_status("kraken", job_id).stdout == DONE
        assert kraken.filesystem.read("/run2/out.txt") == b"done"

    def test_unknown_executable_fails(self, grid):
        clock, fabric, clients, kraken = grid
        result = clients.globusrun(
            "kraken", batch_spec("/amp/nonexistent.sh", count=1,
                                 max_wall_time_s=HOUR, directory="/"))
        status = clients.globus_job_status("kraken", result.stdout)
        assert status.stdout.startswith(FAILED)

    def test_cancel(self, grid):
        clock, fabric, clients, kraken = grid
        kraken.filesystem.mkdir("/run3")
        result = clients.globusrun(
            "kraken", batch_spec("/amp/model.sh", count=128,
                                 max_wall_time_s=6 * HOUR,
                                 directory="/run3"))
        clock.advance(60)
        assert clients.globus_job_cancel("kraken", result.stdout).ok
        status = clients.globus_job_status("kraken", result.stdout)
        assert status.stdout.startswith(FAILED)

    def test_no_proxy_is_permanent_error(self, grid):
        clock, fabric, clients, kraken = grid
        clients.current_proxy = None
        result = clients.globusrun(
            "kraken", batch_spec("/amp/model.sh", count=1,
                                 max_wall_time_s=HOUR, directory="/"))
        assert not result.ok and not result.transient

    def test_expired_proxy_rejected_and_refreshable(self, grid):
        clock, fabric, clients, kraken = grid
        clock.advance(13 * HOUR)   # beyond the 12 h default lifetime
        result = clients.globus_job_status("kraken", 1)
        assert not result.ok
        refresh = clients.ensure_proxy("metcalfe")
        assert refresh.ok
        assert clients.current_proxy.is_valid(clock.now)

    def test_ensure_proxy_noop_when_fresh(self, grid):
        clock, fabric, clients, kraken = grid
        before = clients.current_proxy
        clients.ensure_proxy("metcalfe")
        assert clients.current_proxy is before

    def test_ensure_proxy_switches_user(self, grid):
        clock, fabric, clients, kraken = grid
        clients.ensure_proxy("woitaszek")
        assert clients.current_proxy.saml.gateway_user == "woitaszek"


class TestGridFTP:
    def test_put_get_round_trip(self, grid):
        clock, fabric, clients, kraken = grid
        kraken.filesystem.mkdir("/stage")
        put = clients.stage_in("kraken", "/stage/input.txt", "mass=1.0")
        assert put.ok
        got = clients.stage_out("kraken", "/stage/input.txt")
        assert got.data == b"mass=1.0"

    def test_missing_remote_file_is_permanent(self, grid):
        clock, fabric, clients, kraken = grid
        result = clients.stage_out("kraken", "/ghost.txt")
        assert not result.ok and not result.transient

    def test_transfer_fault_is_transient(self, grid):
        clock, fabric, clients, kraken = grid
        kraken.filesystem.mkdir("/stage")
        injector = FaultInjector(fabric, clock)
        injector.abort_transfers("kraken", 1)
        first = clients.stage_in("kraken", "/stage/x", b"data")
        assert first.transient
        retry = clients.stage_in("kraken", "/stage/x", b"data")
        assert retry.ok


class TestFaultInjection:
    def test_outage_window(self, grid):
        clock, fabric, clients, kraken = grid
        injector = FaultInjector(fabric, clock)
        injector.outage("kraken", start_in_s=100, duration_s=500)
        clock.advance(150)
        result = clients.grid_proxy_init("metcalfe")
        assert result.ok  # proxy init is local to the daemon host
        down = clients.stage_in("kraken", "/x", b"d")
        assert down.transient
        clock.advance(600)
        kraken.filesystem.mkdir("/stage2")
        up = clients.stage_in("kraken", "/stage2/x", b"d")
        assert up.ok


class TestCommandLineContract:
    def test_every_operation_logged_with_argv(self, grid):
        clock, fabric, clients, kraken = grid
        clients.globusrun("kraken",
                          fork_spec("/amp/prejob.sh", directory="/r9"),
                          service="fork")
        last = clients.command_log[-1]
        # Kraken advertises WS-GRAM, so the WS client is used (§2).
        assert last.argv[0] == "globusrun-ws"
        assert "jobmanager-fork" in last.command_line

    def test_pre_ws_client_used_without_ws_gram(self, grid, obs):
        from repro.grid import build_fabric
        from repro.hpc import RANGER, SimClock
        clock2 = SimClock()
        fabric2 = build_fabric([RANGER], clock2)
        clients2 = grid_clients(fabric2, obs)
        clients2.grid_proxy_init("u")
        fabric2.resource("ranger").fork.install(
            "/x.sh", lambda resource, **kw: None)
        result = clients2.globusrun("ranger", fork_spec("/x.sh",
                                                        directory="/"),
                                    service="fork")
        assert result.argv[0] == "globusrun"

    def test_failed_command_rerunnable_verbatim(self, grid):
        """The paper's troubleshooting model: copy-paste the logged
        command line to retry."""
        clock, fabric, clients, kraken = grid
        kraken.reachable = False
        failed = clients.globus_job_status("kraken", 1)
        assert failed.transient
        kraken.reachable = True
        # Rerun exactly what was logged.
        retried = clients.rerun(failed)
        assert retried.argv == failed.argv
        assert retried.exit_code != failed.exit_code

    def test_proxy_init_replays_with_its_logged_lifetime(self, grid):
        clock, fabric, clients, kraken = grid
        issued = clients.grid_proxy_init("metcalfe", "t@ucar.edu",
                                         lifetime_s=1800)
        assert issued.command_line == \
            "grid-proxy-init -gateway-user metcalfe -valid 30"
        replayed = clients.rerun(issued)
        assert replayed.ok
        assert replayed.command_line == issued.command_line
        assert clients.current_proxy.lifetime_s == 1800

    def test_unknown_program_dispatch(self, grid):
        clock, fabric, clients, kraken = grid
        result = clients.dispatch(["rm", "-rf", "/"])
        assert not result.ok
        assert "command not found" in result.stderr

    def test_failed_commands_query(self, grid):
        clock, fabric, clients, kraken = grid
        kraken.reachable = False
        clients.globus_job_status("kraken", 1)
        kraken.reachable = True
        assert any(not r.ok for r in clients.command_log)


class TestAudit:
    def test_operations_attributed_to_gateway_user(self, grid):
        clock, fabric, clients, kraken = grid
        kraken.filesystem.mkdir("/a")
        clients.stage_in("kraken", "/a/f", b"x")
        clients.ensure_proxy("woitaszek")
        clients.stage_in("kraken", "/a/g", b"y")
        users = fabric.audit.distinct_users()
        assert "metcalfe" in users and "woitaszek" in users

    def test_failures_audited(self, grid):
        clock, fabric, clients, kraken = grid
        kraken.reachable = False
        clients.stage_in("kraken", "/x", b"d")
        assert fabric.audit.failures()
