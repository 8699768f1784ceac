"""Shared fixtures: a full in-process AMP deployment."""

import pytest

from repro.core import AMPDeployment, ObservationSet, Simulation
from repro.core.models import KIND_DIRECT, KIND_OPTIMIZATION
from repro.science import StellarParameters, synthetic_target
from repro.webstack.orm.query import QuerySet


@pytest.fixture()
def deployment():
    dep = AMPDeployment()
    yield dep
    from repro.webstack.orm import bind
    from repro.core.models import ALL_MODELS
    bind(ALL_MODELS, None)
    dep.close()


@pytest.fixture()
def astronomer(deployment):
    return deployment.create_astronomer("metcalfe", password="pw12345")


def submit_direct(deployment, user, *, machine="kraken",
                  parameters=None):
    star, _ = deployment.catalog.search("16 Cyg B")
    sim = Simulation(
        star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
        machine_name=machine,
        parameters=parameters or {"mass": 1.05, "z": 0.02, "y": 0.27,
                                  "alpha": 2.0, "age": 5.0})
    sim.save(db=deployment.databases.portal)
    return sim


def poll_levels(deployment, monkeypatch):
    """One daemon poll; returns its transitions and, per level,
    ``(statements, [(model, rows hydrated), ...])`` keyed by
    ``update_grid_jobs`` and ``advance_simulations``."""
    daemon, db = deployment.daemon, deployment.databases.daemon
    levels, hydrated = {}, [None]
    fetch = QuerySet._fetch

    def counting_fetch(queryset):
        fresh = queryset._result_cache is None
        rows = fetch(queryset)
        if fresh and hydrated[0] is not None:
            hydrated[0].append((queryset.model.__name__, len(rows)))
        return rows

    def measured(name):
        level = getattr(daemon, name)

        def run(*args):
            hydrated[0] = fetched = []
            with db.count_queries() as counter:
                result = level(*args)
            hydrated[0] = None
            levels[name] = (counter.count, fetched)
            return result
        return run

    with monkeypatch.context() as patch:
        patch.setattr(QuerySet, "_fetch", counting_fetch)
        for name in ("update_grid_jobs", "advance_simulations"):
            patch.setattr(daemon, name, measured(name))
        transitions = daemon.poll_once()
    return transitions, levels


def submit_optimization(deployment, user, *, machine="kraken",
                        n_ga_runs=2, iterations=20, population_size=32,
                        walltime_s=6 * 3600.0, seed=5):
    star, _ = deployment.catalog.search("16 Cyg B")
    target, truth = synthetic_target(
        "16 Cyg B fit", StellarParameters(1.04, 0.021, 0.27, 2.1, 6.0),
        seed=seed)
    obs = ObservationSet(
        star_id=star.pk, label="16 Cyg B fit", teff=target.teff,
        teff_err=target.teff_err, luminosity=target.luminosity,
        frequencies={str(l): v for l, v in target.frequencies.items()})
    obs.save(db=deployment.databases.portal)
    sim = Simulation(
        star_id=star.pk, observation_id=obs.pk, owner_id=user.pk,
        kind=KIND_OPTIMIZATION, machine_name=machine,
        config={"n_ga_runs": n_ga_runs, "iterations": iterations,
                "population_size": population_size,
                "processors": 128, "walltime_s": walltime_s,
                "ga_seeds": list(range(11, 11 + n_ga_runs))})
    sim.save(db=deployment.databases.portal)
    return sim, truth
