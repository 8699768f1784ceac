"""Helpers shared by every test package."""

import pytest

from repro.grid import BreakerRegistry, GridClients
from repro.hpc.simclock import SimClock
from repro.obs import Observability


@pytest.fixture()
def obs():
    """The one observability facade a test hands every component it
    builds outside a deployment (every component requires one)."""
    return Observability(SimClock())


def grid_clients(fabric, obs):
    """Grid clients as a daemon host builds them — with their breaker
    registry — for a test that drives a fabric without a deployment."""
    breakers = BreakerRegistry(fabric.clock, obs=obs, origin="daemon-0")
    return GridClients(fabric, breakers=breakers, obs=obs)


def keep_everything(deployment):
    """Give *deployment* whole-run logs instead of bounded rings.

    The event log, the finished spans, every daemon's grid command log
    (including daemons spawned later by ``restart_daemon`` or
    ``start_fleet``) and the GRAM audit log become plain lists, so a
    test that reads or compares a log after a long drive sees all of
    it, not the newest :data:`~repro.obs.events.KEEP` items.  Call it
    before driving; what the rings already hold carries over.
    """
    def unbounded(ring):
        items = list(iter(ring))
        assert len(items) == len(ring), "called after the ring rotated"
        return items

    def keep_commands(daemon):
        if daemon is not None:
            daemon.clients.command_log = unbounded(
                daemon.clients.command_log)
        return daemon

    obs = deployment.obs
    obs.events.records = unbounded(obs.events.records)
    obs.tracer.finished = unbounded(obs.tracer.finished)
    deployment.fabric.audit.records = unbounded(
        deployment.fabric.audit.records)
    for daemon in deployment.fleet.values():
        keep_commands(daemon)
    # A daemon's boot (recovery, takeover) already issues commands.
    spawn = deployment._spawn_daemon
    deployment._spawn_daemon = lambda index: keep_commands(spawn(index))
    return deployment
