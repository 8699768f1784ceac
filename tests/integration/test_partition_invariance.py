"""Partition invariance: how the work is sliced does not change the work.

One seeded 24-simulation direct campaign over the paper's four Table 1
machines is driven to idle three times — by the paper's single daemon
(a fleet of 1 over 1 slice), by one daemon over 4 slices, and by 3
daemons over 3 slices.  There is one daemon life cycle, so the three
runs must end in the same database rows and must have sent, for every
simulation, the same sequence of grid commands.

What legitimately differs is only what the interleaving assigns:
primary keys of rows created mid-campaign and GRAM job ids follow
submission order, which is the partition's order; timestamps follow
the host's clock.  Everything else — states, machines, results,
RSL, idempotency keys, failure reasons, reservations — is compared.
"""

import random

import pytest

from repro.core import Simulation, Star
from repro.core.models import (GridJobRecord, KIND_DIRECT,
                               ReservationRecord)
from tests.conftest import keep_everything

from .test_crash_recovery import (assert_journal_settled,
                                  audit_exactly_once, close_deployment,
                                  make_deployment)

pytestmark = pytest.mark.fleet

MACHINES = ["frost", "kraken", "lonestar", "ranger"]
N_SIMULATIONS = 24
SEED = 21

#: (daemon instances, work slices)
PARTITIONS = [(1, 1), (1, 4), (3, 3)]


def submit_campaign(deployment, user):
    rng = random.Random(SEED)
    star = Star(name="Partition Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    Simulation.objects.using(deployment.databases.portal).bulk_create([
        Simulation(
            star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
            machine_name=rng.choice(MACHINES),
            parameters={"mass": round(rng.uniform(0.9, 1.2), 4),
                        "z": 0.018, "y": 0.27, "alpha": 2.1,
                        "age": round(rng.uniform(2.0, 6.0), 3)})
        for _ in range(N_SIMULATIONS)])


def final_rows(deployment):
    db = deployment.databases.admin
    simulations = [
        (s.pk, s.state, s.machine_name, s.parameters, s.results,
         s.status_message, s.hold_reason, s.hold_category,
         s.retry_counts)
        for s in Simulation.objects.using(db).order_by("id")]
    jobs = sorted(
        (j.simulation_id, j.purpose, j.ga_index, j.sequence, j.resource,
         j.service, j.rsl, j.idempotency_key, j.state, j.failure_reason)
        for j in GridJobRecord.objects.using(db))
    reservations = sorted(
        (r.simulation_id, r.machine_name, r.policy, r.attempt,
         r.reservation_key, r.estimated_su, r.settled_su, r.state)
        for r in ReservationRecord.objects.using(db))
    return simulations, jobs, reservations


def commands_by_simulation(deployment):
    """Each simulation's grid commands, in the order they were issued,
    from the event log every instance's clients write to, keyed by the
    simulation's correlation id.  Commands under a poll's own trace
    (the telemetry probes) belong to no simulation, and proxy renewals
    are per user, per process (each daemon keeps its own proxy wallet),
    so both are left out."""
    sequences = {
        simulation.correlation_id: []
        for simulation in Simulation.objects.using(
            deployment.databases.admin)}
    for record in deployment.obs.events.of_kind("grid.command"):
        fields = record.fields
        if fields["trace_id"] in sequences \
                and fields["program"] != "grid-proxy-init":
            sequences[fields["trace_id"]].append(
                (fields["program"], fields["resource"],
                 fields["outcome"]))
    return sequences


def run_partition(n, n_slices):
    deployment = keep_everything(make_deployment())
    try:
        user = deployment.create_astronomer("partition")
        submit_campaign(deployment, user)
        deployment.start_fleet(n, n_slices=n_slices)
        deployment.run_daemon_until_idle(poll_interval_s=1800.0,
                                         max_polls=400)
        audit_exactly_once(deployment)
        assert_journal_settled(deployment)
        return final_rows(deployment), commands_by_simulation(deployment)
    finally:
        close_deployment(deployment)


def test_final_rows_and_commands_do_not_depend_on_the_partition():
    (reference_rows, reference_commands), *others = [
        run_partition(n, n_slices) for n, n_slices in PARTITIONS]
    simulations, jobs, _ = reference_rows
    assert {row[1] for row in simulations} == {"DONE"}
    assert len(reference_commands) == N_SIMULATIONS
    assert all(reference_commands.values())
    assert len(jobs) >= N_SIMULATIONS
    for (n, n_slices), (rows, commands) in zip(PARTITIONS[1:], others):
        label = f"{n} daemon(s) x {n_slices} slices"
        for name, got, want in zip(
                ("Simulation", "GridJobRecord", "ReservationRecord"),
                rows, reference_rows):
            assert got == want, f"{name} rows differ under {label}"
        assert commands == reference_commands, \
            f"grid commands differ under {label}"
