"""Fleet poll throughput: 4 lease-partitioned daemons vs a fleet of one.

The tentpole claim behind the daemon fleet is *near-linear* poll
scaling: each instance sweeps only its residue classes, so a fleet
round's critical path (the slowest member's poll) should be roughly a
quarter of the single daemon's poll over the same 400-simulation
campaign.  Both arms drive the identical virtual-time schedule (10
rounds at 900 s) from submission onward, so they process exactly the
same transitions; the score is total single-daemon poll time over total
fleet critical-path time.  The acceptance floor is 3x — linear minus the lease-protocol
overhead (sweep + scoped filters), the unsliceable phases (telemetry,
first-poller fabric refresh), and cross-slice wave variance.
"""

import time

from repro.analysis.reporting import format_table
from repro.core import Simulation, Star
from repro.core.models import KIND_DIRECT

from .conftest import fresh_deployment

POPULATION = 400
MACHINES = ["frost", "kraken", "lonestar", "ranger"]
MEASURED_ROUNDS = 10
INTERVAL_S = 900.0


def _close(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()


def _populate(deployment):
    user = deployment.create_astronomer("bench", password="pw12345")
    star = Star(name="Bench Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    # Machine assignment deliberately decorrelated from ``pk % 4``
    # (blocks of four, not round-robin): every fleet slice carries a
    # 25% share of each facility, so no instance's slice is pinned to
    # one machine's queue rhythm.
    Simulation.objects.using(deployment.databases.portal).bulk_create([
        Simulation(
            star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
            machine_name=MACHINES[(index // len(MACHINES))
                                  % len(MACHINES)],
            parameters={"mass": 1.0 + 0.0005 * index, "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6})
        for index in range(POPULATION)])


def _fleet_round(deployment):
    """One fleet round; returns each member's poll wall time."""
    deployment.clock.advance(INTERVAL_S)
    per_instance = {}
    for index in sorted(deployment.fleet):
        daemon = deployment.fleet[index]
        start = time.perf_counter()
        daemon.poll_once()
        per_instance[index] = time.perf_counter() - start
    return per_instance


def _measure_fleet(n):
    deployment = fresh_deployment()
    try:
        _populate(deployment)
        deployment.start_fleet(n)
        rounds = [_fleet_round(deployment)
                  for _ in range(MEASURED_ROUNDS)]
        return rounds
    finally:
        _close(deployment)


def test_fleet_poll_throughput_scales(benchmark):
    """4-daemon fleet: critical-path poll time >= 3x faster."""
    single_times = [r[0] for r in _measure_fleet(1)]
    fleet_rounds = benchmark.pedantic(
        _measure_fleet, args=(4,), rounds=1, iterations=1)

    single_mean = sum(single_times) / len(single_times)
    critical_paths = [max(r.values()) for r in fleet_rounds]
    fleet_mean = sum(critical_paths) / len(critical_paths)
    # Same campaign, same schedule: totals compare identical work.
    speedup = sum(single_times) / sum(critical_paths)

    rows = [["fleet of one", f"{single_mean * 1e3:.1f}", "1.00x"]]
    per_instance_means = {
        index: sum(r[index] for r in fleet_rounds) / len(fleet_rounds)
        for index in fleet_rounds[0]}
    for index, mean in sorted(per_instance_means.items()):
        rows.append([f"daemon-{index}", f"{mean * 1e3:.1f}", "-"])
    rows.append(["fleet critical path", f"{fleet_mean * 1e3:.1f}",
                 f"{speedup:.2f}x"])
    print(f"\nPoll throughput, {POPULATION} active simulations "
          f"({MEASURED_ROUNDS} measured rounds):")
    print(format_table(["configuration", "poll ms", "speedup"], rows))

    # Near-linear scaling: the floor is 3x at 4 instances.
    assert speedup >= 3.0, \
        f"fleet speedup {speedup:.2f}x below the 3x floor"
    # The partition is actually balanced: no instance's mean poll is
    # more than twice the fleet-wide mean (each holds one slice).
    fleet_wide = sum(per_instance_means.values()) / len(
        per_instance_means)
    for index, mean in per_instance_means.items():
        assert mean < 2 * fleet_wide + 1e-4, \
            f"daemon-{index} is a straggler: {mean:.4f}s"
