"""Full-architecture integration tests (Figure 2 end to end).

Every test here exercises the complete chain: portal (portal DB role) →
shared database → GridAMP daemon (daemon role + command-line clients) →
GRAM/GridFTP → batch scheduler → science code → staged results → portal.
"""

import re

import pytest

from repro.core import (AMPDeployment, GridJobRecord, ObservationSet,
                        SIM_DONE, SIM_HOLD, Simulation, Star)
from repro.core.models import KIND_OPTIMIZATION
from repro.grid import FaultInjector
from repro.hpc import HOUR
from repro.science import StellarParameters, synthetic_target
from repro.webstack.testclient import Client


@pytest.fixture()
def deployment():
    dep = AMPDeployment()
    yield dep
    from repro.webstack.orm import bind
    from repro.core.models import ALL_MODELS
    bind(ALL_MODELS, None)
    dep.close()


def test_full_portal_to_results_lifecycle(deployment):
    """A user's complete journey, AJAX and all."""
    deployment.create_astronomer("travis", password="pw12345")
    client = Client(deployment.build_portal())
    assert client.login("travis", "pw12345")

    # Find the star (AJAX suggest, then search).
    suggestions = client.get("/api/suggest/?q=16 Cyg").data["suggestions"]
    assert any(s["name"] == "16 Cyg B" for s in suggestions)
    response = client.get("/stars/search/?q=16 Cyg B")
    star_pk = int(response["Location"].rstrip("/").split("/")[-1])

    # Upload observations via the DB (portal role) and submit.
    target, truth = synthetic_target(
        "16 Cyg B", StellarParameters(1.04, 0.021, 0.27, 2.1, 6.0),
        seed=9)
    obs = ObservationSet(
        star_id=star_pk, label="Kepler Q1", teff=target.teff,
        luminosity=target.luminosity,
        frequencies={str(l): v for l, v in target.frequencies.items()})
    obs.save(db=deployment.databases.portal)
    response = client.post(f"/submit/optimization/{star_pk}/", {
        "observation": str(obs.pk), "machine": "kraken",
        "iterations": "20"})
    assert response.status_code == 302
    sim_pk = int(response["Location"].rstrip("/").split("/")[-1])

    # The daemon (a separate role/process) advances the workflow.
    Simulation.objects.using(deployment.databases.daemon).filter(
        pk=sim_pk).update(config={
            **Simulation.objects.using(deployment.databases.admin).get(
                pk=sim_pk).config,
            "population_size": 32, "n_ga_runs": 2})
    deployment.run_daemon_until_idle(poll_interval_s=1800)

    # Results visible through the portal.
    page = client.get(f"/simulations/{sim_pk}/")
    assert "DONE" in page.text
    echelle = client.get(f"/simulations/{sim_pk}/echelle/").data
    assert echelle["delta_nu"] > 0
    # Completion e-mail, no jargon.
    mail = deployment.mailer.to_user("travis@ucar.edu")
    assert any("complete" in m.subject for m in mail)


def test_optimization_survives_mid_run_outage(deployment):
    user = deployment.create_astronomer("resilient")
    star, _ = deployment.catalog.search("16 Cyg B")
    target, _ = synthetic_target(
        "t", StellarParameters(1.0, 0.02, 0.27, 2.0, 4.0), seed=3)
    obs = ObservationSet(
        star_id=star.pk, label="t", teff=target.teff,
        luminosity=target.luminosity,
        frequencies={str(l): v for l, v in target.frequencies.items()})
    obs.save(db=deployment.databases.portal)
    sim = Simulation(
        star_id=star.pk, observation_id=obs.pk, owner_id=user.pk,
        kind=KIND_OPTIMIZATION, machine_name="kraken",
        config={"n_ga_runs": 2, "iterations": 15, "population_size": 32,
                "processors": 128, "walltime_s": 6 * HOUR,
                "ga_seeds": [1, 2]})
    sim.save(db=deployment.databases.portal)

    injector = FaultInjector(deployment.fabric, deployment.clock)
    injector.outage("kraken", start_in_s=2 * HOUR, duration_s=3 * HOUR)
    injector.abort_transfers("kraken", 1)

    deployment.run_daemon_until_idle(poll_interval_s=1800)
    sim.refresh_from_db()
    assert sim.state == SIM_DONE
    # User never learned about the outage.
    user_mail = deployment.mailer.to_user(user.email)
    assert all("unavailable" not in m.body.lower() for m in user_mail)
    # Admins did.
    assert deployment.mailer.to_admin()


def test_concurrent_users_accounted_separately(deployment):
    alice = deployment.create_astronomer("alice")
    bob = deployment.create_astronomer("bob")
    for user in (alice, bob):
        star, _ = deployment.catalog.search("18 Sco")
        sim = Simulation(
            star_id=star.pk, owner_id=user.pk, kind="direct",
            machine_name="kraken",
            parameters={"mass": 1.0, "z": 0.018, "y": 0.27,
                        "alpha": 2.1, "age": 4.6})
        sim.save(db=deployment.databases.portal)
    deployment.run_daemon_until_idle(poll_interval_s=1800)
    users = deployment.fabric.audit.distinct_users()
    assert "alice" in users and "bob" in users
    # Every simulation completed under the right SAML attribution.
    for user in ("alice", "bob"):
        assert deployment.fabric.audit.by_user(user)["gram-submit"] >= 1


def test_walltime_chaining_c2_shape(deployment):
    """C2: shorter walltimes mean more continuation jobs per GA.

    The §6 observation — 'the 4-8 jobs that are always required' —
    emerges from the walltime limit, not from configuration.
    """
    user = deployment.create_astronomer("chains")
    chain_lengths = {}
    for walltime_h in (6, 24):
        star, _ = deployment.catalog.search("16 Cyg B")
        target, _ = synthetic_target(
            "t", StellarParameters(1.0, 0.02, 0.27, 2.0, 4.0), seed=8)
        obs = ObservationSet(
            star_id=star.pk, label=f"w{walltime_h}", teff=target.teff,
            luminosity=target.luminosity,
            frequencies={str(l): v
                         for l, v in target.frequencies.items()})
        obs.save(db=deployment.databases.portal)
        sim = Simulation(
            star_id=star.pk, observation_id=obs.pk, owner_id=user.pk,
            kind=KIND_OPTIMIZATION, machine_name="kraken",
            config={"n_ga_runs": 1, "iterations": 40,
                    "population_size": 64, "processors": 128,
                    "walltime_s": walltime_h * HOUR, "ga_seeds": [7]})
        sim.save(db=deployment.databases.portal)
        deployment.run_daemon_until_idle(poll_interval_s=1800)
        sim.refresh_from_db()
        assert sim.state == SIM_DONE
        jobs = GridJobRecord.objects.using(
            deployment.databases.admin).filter(
            simulation_id=sim.pk, purpose="ga")
        chain_lengths[walltime_h] = jobs.count()
    assert chain_lengths[6] > chain_lengths[24]
    assert chain_lengths[6] >= 3


def test_deterministic_end_to_end(deployment):
    """Same submission, same seeds ⇒ identical best parameters."""
    results = []
    for run in range(2):
        dep = AMPDeployment()
        user = dep.create_astronomer("repeat")
        star, _ = dep.catalog.search("16 Cyg B")
        target, _ = synthetic_target(
            "t", StellarParameters(1.0, 0.02, 0.27, 2.0, 4.0), seed=4)
        obs = ObservationSet(
            star_id=star.pk, label="t", teff=target.teff,
            luminosity=target.luminosity,
            frequencies={str(l): v
                         for l, v in target.frequencies.items()})
        obs.save(db=dep.databases.portal)
        sim = Simulation(
            star_id=star.pk, observation_id=obs.pk, owner_id=user.pk,
            kind=KIND_OPTIMIZATION, machine_name="kraken",
            config={"n_ga_runs": 1, "iterations": 10,
                    "population_size": 32, "processors": 128,
                    "walltime_s": 24 * HOUR, "ga_seeds": [99]})
        sim.save(db=dep.databases.portal)
        dep.run_daemon_until_idle(poll_interval_s=1800)
        sim.refresh_from_db()
        results.append(tuple(sim.results["solution_meta"]["parameters"]))
        dep.close()
    assert results[0] == results[1]
