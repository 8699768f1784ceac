"""Experiment C4 — §4.4 failure taxonomy under injected faults.

Transients (outages, aborted transfers) must be retried silently with
admin-only notification; model failures must hold with both parties
notified; the daemon's own death must be caught by the external monitor.
"""

from repro.core import SIM_DONE, SIM_HOLD
from repro.core.daemon import ExternalMonitor
from repro.grid import FaultInjector
from repro.hpc import HOUR

from .conftest import fresh_deployment, submit_reference_optimization


def _run_with_faults():
    deployment = fresh_deployment()
    user = deployment.create_astronomer("c4")
    simulation, _ = submit_reference_optimization(
        deployment, user, n_ga_runs=2, iterations=20,
        population_size=32)
    injector = FaultInjector(deployment.fabric, deployment.clock)
    # Three outages and several transfer aborts across the run.
    injector.outage("kraken", start_in_s=1 * HOUR, duration_s=2 * HOUR)
    injector.outage("kraken", start_in_s=8 * HOUR, duration_s=1 * HOUR)
    injector.outage("kraken", start_in_s=20 * HOUR,
                    duration_s=0.5 * HOUR)
    injector.abort_transfers("kraken", 3)
    deployment.run_daemon_until_idle(poll_interval_s=900)
    simulation.refresh_from_db()
    return deployment, user, simulation


def test_transients_retried_silently(benchmark):
    deployment, user, simulation = benchmark.pedantic(
        _run_with_faults, rounds=1, iterations=1)

    # The whole run's count: the command log keeps only a tail.
    commands = deployment.obs.metrics.counter("grid_commands_total")
    transient_count = int(sum(
        child.value for labels, child in commands.children()
        if dict(labels)["outcome"] in ("transient", "suppressed")))
    admin_messages = deployment.mailer.to_admin()
    user_messages = deployment.mailer.to_user(user.email)

    print("\nFailure handling under injected faults:")
    print(f"  transient command failures observed: {transient_count}")
    print(f"  administrator notifications:        "
          f"{len(admin_messages)}")
    print(f"  user notifications:                 {len(user_messages)}")
    print(f"  final state:                        {simulation.state}")

    # The simulation completed despite everything.
    assert simulation.state == SIM_DONE
    assert transient_count >= 3
    # Admins were told about every transient; the user heard nothing
    # about individual retries — at most a jargon-free "paused" notice
    # when a retry budget ran out mid-outage, then the completion mail.
    assert any("Transient" in m.subject for m in admin_messages)
    pauses = [m for m in user_messages if "paused" in m.subject]
    assert len(user_messages) == len(pauses) + 1
    for message in pauses:
        assert "Transient" not in message.subject
        assert "unavailable" in message.body
    assert "complete" in user_messages[-1].subject


def test_model_failure_holds_and_recovers(benchmark):
    def run():
        deployment = fresh_deployment()
        user = deployment.create_astronomer("c4b")
        simulation, _ = submit_reference_optimization(
            deployment, user, n_ga_runs=1, iterations=10,
            population_size=32, walltime_s=24 * HOUR)
        injector = FaultInjector(deployment.fabric, deployment.clock)
        # Drive to POSTJOB, corrupt the tarball, watch it hold.
        while simulation.state != "POSTJOB":
            deployment.clock.advance(1800)
            deployment.daemon.poll_once()
            simulation.refresh_from_db()
        injector.corrupt_file(
            "kraken", simulation.remote_directory + ".output.tar")
        while simulation.state not in (SIM_DONE, SIM_HOLD):
            deployment.clock.advance(1800)
            deployment.daemon.poll_once()
            simulation.refresh_from_db()
        return deployment, user, simulation
    deployment, user, simulation = benchmark.pedantic(run, rounds=1,
                                                      iterations=1)
    assert simulation.state == SIM_HOLD
    print(f"\nmodel failure: held with reason "
          f"{simulation.hold_reason[:60]!r}")
    assert any("HELD" in m.subject for m in deployment.mailer.to_admin())
    assert any("needs attention" in m.subject
               for m in deployment.mailer.to_user(user.email))

    # Administrator repairs (re-runs the post-job stage) and resumes.
    deployment.fabric.resource("kraken").fork.run(
        "/usr/local/amp/postjob.sh",
        directory=simulation.remote_directory)
    workflow = deployment.daemon.workflows["optimization"]
    workflow.resume(simulation)
    deployment.run_daemon_until_idle(poll_interval_s=1800)
    simulation.refresh_from_db()
    print(f"after repair + resume: {simulation.state}")
    assert simulation.state == SIM_DONE


def test_daemon_death_detected_externally(benchmark):
    def run():
        deployment = fresh_deployment()
        deployment.daemon.poll_once()
        monitor = ExternalMonitor(deployment.fleet, deployment.mailer,
                                  clock=deployment.clock,
                                  obs=deployment.obs, stale_after_s=1800)
        healthy_before = monitor.check()
        deployment.clock.advance(3 * HOUR)  # daemon stops polling
        healthy_after = monitor.check()
        return deployment, healthy_before, healthy_after
    deployment, before, after = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    print(f"\ndaemon monitor: healthy={before} then healthy={after}")
    assert before and not after
    assert any("heartbeat" in m.subject
               for m in deployment.mailer.to_admin())
