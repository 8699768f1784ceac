"""Operational soak test: a month of gateway life with mixed workloads,
background queue contention, and injected faults.

The strongest architecture claim is that nothing in the system needs a
human when only transients occur — every simulation reaches DONE, the
books balance, and users stay blissfully uninformed.
"""

import numpy as np
import pytest

from repro.core import (AllocationRecord, AMPDeployment, GridJobRecord,
                        ObservationSet, SIM_DONE, Simulation)
from repro.core.models import (KIND_DIRECT, KIND_OPTIMIZATION,
                               SIM_ACTIVE_STATES)
from repro.grid import FaultInjector
from repro.hpc import DAY, HOUR
from repro.hpc.workload import BackgroundWorkload
from repro.science import StellarParameters, synthetic_target
from tests.conftest import keep_everything


@pytest.fixture(scope="module")
def soaked():
    deployment = keep_everything(AMPDeployment())
    rng = np.random.default_rng(2026)

    # Background load on the two production machines.
    for name in ("kraken", "frost"):
        resource = deployment.fabric.resource(name)
        BackgroundWorkload(resource.scheduler, deployment.clock,
                           np.random.default_rng(hash(name) % 2 ** 31),
                           target_load=0.6).start(40 * DAY)

    users = [deployment.create_astronomer(f"user{i}") for i in range(5)]
    star_names = ["16 Cyg A", "16 Cyg B", "18 Sco", "Tau Ceti",
                  "Beta Hydri"]
    simulations = []
    for index in range(12):
        user = users[index % len(users)]
        star, _ = deployment.catalog.search(
            star_names[index % len(star_names)])
        machine = "kraken" if index % 3 else "frost"
        if index % 2 == 0:
            sim = Simulation(
                star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
                machine_name=machine,
                parameters={"mass": 0.8 + 0.05 * index, "z": 0.02,
                            "y": 0.27, "alpha": 2.0,
                            "age": 1.0 + 0.5 * index})
        else:
            target, _ = synthetic_target(
                f"t{index}",
                StellarParameters(1.0 + 0.01 * index, 0.02, 0.27, 2.0,
                                  4.0), seed=index)
            obs = ObservationSet(
                star_id=star.pk, label=f"t{index}", teff=target.teff,
                luminosity=target.luminosity,
                frequencies={str(l): v
                             for l, v in target.frequencies.items()})
            obs.save(db=deployment.databases.portal)
            sim = Simulation(
                star_id=star.pk, observation_id=obs.pk,
                owner_id=user.pk, kind=KIND_OPTIMIZATION,
                machine_name=machine,
                config={"n_ga_runs": 2, "iterations": 12,
                        "population_size": 24, "processors": 128,
                        "walltime_s": 6 * HOUR,
                        "ga_seeds": [index, index + 100],
                        "use_chaining": bool(index % 4 == 1)})
        sim.save(db=deployment.databases.portal)
        simulations.append(sim)

    # A rough month: outages and transfer aborts sprinkled in.
    injector = FaultInjector(deployment.fabric, deployment.clock)
    for start_h in (6, 30, 80, 200):
        injector.outage("kraken", start_in_s=start_h * HOUR,
                        duration_s=2 * HOUR)
    injector.outage("frost", start_in_s=50 * HOUR, duration_s=4 * HOUR)
    injector.abort_transfers("kraken", 4)

    deployment.run_daemon_until_idle(poll_interval_s=1800,
                                     max_polls=4000)
    for sim in simulations:
        sim.refresh_from_db()
    yield deployment, users, simulations
    from repro.webstack.orm import bind
    from repro.core.models import ALL_MODELS
    bind(ALL_MODELS, None)
    deployment.close()


class TestSoak:
    def test_every_simulation_completes(self, soaked):
        _, _, simulations = soaked
        states = {sim.pk: sim.state for sim in simulations}
        assert all(state == SIM_DONE for state in states.values()), \
            states

    def test_no_simulation_left_active(self, soaked):
        deployment, _, _ = soaked
        assert Simulation.objects.using(
            deployment.databases.admin).filter(
            state__in=list(SIM_ACTIVE_STATES)).count() == 0

    def test_all_job_records_terminal(self, soaked):
        deployment, _, _ = soaked
        records = GridJobRecord.objects.using(deployment.databases.admin)
        assert all(r.is_terminal for r in records)

    def test_results_populated_everywhere(self, soaked):
        _, _, simulations = soaked
        for sim in simulations:
            assert sim.results and "scalars" in sim.results

    def test_remote_scratch_fully_cleaned(self, soaked):
        """Every cleanup stage ran: no simulation debris on any
        machine."""
        deployment, _, _ = soaked
        for name in deployment.fabric.resource_names():
            fs = deployment.fabric.resource(name).filesystem
            leftovers = [p for p in fs.walk_files("/scratch")
                         if "/sim" in p]
            assert leftovers == [], (name, leftovers)

    def test_books_balance(self, soaked):
        """SU usage recorded for each machine that ran optimizations."""
        deployment, _, simulations = soaked
        used_machines = {sim.machine_name for sim in simulations
                         if sim.kind == KIND_OPTIMIZATION}
        for machine_name in used_machines:
            allocation = AllocationRecord.objects.using(
                deployment.databases.admin).get(
                pk=deployment.allocations[machine_name].pk)
            assert allocation.su_used > 0
            assert allocation.su_used < allocation.su_granted

    def test_users_only_got_completion_mail(self, soaked):
        deployment, users, _ = soaked
        for user in users:
            mail = deployment.mailer.to_user(user.email)
            assert mail, user.username
            assert all("complete" in m.subject for m in mail)

    def test_admins_saw_the_transients(self, soaked):
        deployment, _, _ = soaked
        assert len(deployment.mailer.to_admin()) >= 3

    def test_audit_covers_every_user(self, soaked):
        deployment, users, _ = soaked
        attributed = set(deployment.fabric.audit.distinct_users())
        assert {u.username for u in users} <= attributed

    def test_queue_contention_actually_happened(self, soaked):
        """The soak ran against a loaded machine — some AMP job waited."""
        deployment, _, simulations = soaked
        from repro.core.gantt import simulation_gantt
        waits = []
        for sim in simulations:
            for row in simulation_gantt(deployment, sim):
                waits.append(row.wait_s)
        assert max(waits) > 0.0
