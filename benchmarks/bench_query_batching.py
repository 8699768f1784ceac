"""Batch query layer: daemon poll and catalog page, lazy vs batched.

Quantifies the N+1 elimination: the shipping code paths (JOIN-backed
``select_related``, ``prefetch_related``, ``bulk_update``) against a
faithful replica of the pre-batching access pattern (one query per row
and per relation hop).  Reported per population size: queries issued and
wall time.  The batched poll budget must stay flat as the active
population grows.
"""

import datetime
import gc
import time

from repro.analysis.reporting import format_table
from repro.core import Simulation, Star
from repro.core.models import (GRAM_STATES, GridJobRecord, KIND_DIRECT,
                               MachineRecord, SIM_ACTIVE_STATES)
from repro.webstack.testclient import Client

from .conftest import fresh_deployment


def _submit_direct(deployment, user, index):
    star, _ = deployment.catalog.search("16 Cyg B")
    sim = Simulation(
        star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
        machine_name="kraken",
        parameters={"mass": 1.0 + (index % 40) * 0.005, "z": 0.02,
                    "y": 0.27, "alpha": 2.0, "age": 5.0})
    sim.save(db=deployment.databases.portal)
    return sim


def _steady_state_deployment(n):
    """A deployment with *n* direct runs waiting on their batch jobs."""
    deployment = fresh_deployment()
    user = deployment.create_astronomer(f"bench{n}", password="pw12345")
    for i in range(n):
        _submit_direct(deployment, user, i)
    for _ in range(3):      # QUEUED → PREJOB → RUNNING, then steady
        deployment.daemon.poll_once()
    return deployment


def _lazy_poll(deployment):
    """The pre-batching poll: per-row FK loads, per-row saves, and one
    job-listing query per simulation — what the daemon did before the
    batch query layer."""
    db = deployment.databases.daemon
    daemon = deployment.daemon
    for record in GridJobRecord.objects.using(db).filter(
            state__in=["UNSUBMITTED", "PENDING", "ACTIVE"]):
        if record.gram_job_id is None:
            continue
        owner = record.simulation.owner       # two lazy FK hops per row
        daemon.clients.ensure_proxy(owner.username, owner.email)
        result = daemon.clients.globus_job_status(record.resource,
                                                  record.gram_job_id)
        if not result.ok:
            continue
        state, _, reason = result.stdout.partition(" ")
        if state in GRAM_STATES and (state != record.state or reason):
            record.state = state
            if reason:
                record.failure_reason = reason
            record.save(db=db)                # one UPDATE per change
    now = datetime.datetime.now(datetime.timezone.utc)
    daemon.clients.ensure_proxy("amp-operations")
    for record in MachineRecord.objects.using(db).all():
        result = daemon.clients.queue_status(record.name)
        if not result.ok:
            continue
        depth_text, _, utilisation_text = result.stdout.partition(" ")
        try:
            record.queue_depth = int(depth_text)
            record.utilisation = float(utilisation_text)
        except ValueError:
            continue
        record.telemetry_updated = now
        record.save(db=db)                    # one UPDATE per machine
    for sim in Simulation.objects.using(db).filter(
            state__in=list(SIM_ACTIVE_STATES)).order_by("id"):
        owner = sim.owner                     # lazy FK per simulation
        daemon.clients.ensure_proxy(owner.username, owner.email)
        for purpose in ("PREJOB", "MODEL"):   # job listing per check
            list(GridJobRecord.objects.using(db).filter(
                simulation_id=sim.pk, purpose=purpose))


def test_daemon_poll_scaling(benchmark):
    """Poll cost, lazy vs batched, at N ∈ {10, 100, 500} active runs."""
    rows = []
    results = {}
    for n in (10, 100, 500):
        deployment = _steady_state_deployment(n)
        db = deployment.databases.daemon

        def batched():
            deployment.daemon.poll_once()
        def lazy():
            _lazy_poll(deployment)

        # Each region is timed once, and a full GC pass (~30 ms at
        # N=500) is as large as the margin asserted below: collect
        # first so a pending one cannot land inside either region.
        gc.collect()
        with db.count_queries() as lazy_counter:
            start = time.perf_counter()
            lazy()
            lazy_s = time.perf_counter() - start
        gc.collect()
        with db.count_queries() as batched_counter:
            start = time.perf_counter()
            if n == 500:
                benchmark.pedantic(batched, rounds=1, iterations=1)
            else:
                batched()
            batched_s = time.perf_counter() - start
        results[n] = (lazy_counter.count, lazy_s,
                      batched_counter.count, batched_s)
        rows.append([n, lazy_counter.count, f"{lazy_s * 1e3:.1f}",
                     batched_counter.count, f"{batched_s * 1e3:.1f}"])
    print("\nDaemon poll cycle, lazy vs batched:")
    print(format_table(
        ["active sims", "lazy queries", "lazy ms",
         "batched queries", "batched ms"], rows))
    # The batched budget is flat; the lazy cost scales with N.
    assert results[500][2] == results[10][2]
    assert results[500][2] <= 10
    assert results[500][0] > 500        # lazy: several queries per sim
    # And batched is faster outright at N=500.
    assert results[500][3] < results[500][1]


def test_catalog_page_scaling(benchmark):
    """Star-list page render (25/page) over growing catalogs."""
    rows = []
    results = {}
    for n in (10, 100, 500):
        deployment = fresh_deployment()
        admin = deployment.databases.admin
        Star.objects.using(admin).bulk_create(
            [Star(name=f"Bench Star {i:04d}", source="local")
             for i in range(n)])
        client = Client(deployment.build_portal())
        portal_db = deployment.databases.portal

        def batched():
            assert client.get("/stars/").status_code == 200

        def lazy():
            stars = list(Star.objects.using(portal_db)
                         .order_by("name")[:25])
            for star in stars:            # one COUNT per row
                star.simulations.count()

        with portal_db.count_queries() as lazy_counter:
            start = time.perf_counter()
            lazy()
            lazy_s = time.perf_counter() - start
        with portal_db.count_queries() as batched_counter:
            start = time.perf_counter()
            if n == 500:
                benchmark.pedantic(batched, rounds=1, iterations=1)
            else:
                batched()
            batched_s = time.perf_counter() - start
        results[n] = (lazy_counter.count, lazy_s,
                      batched_counter.count, batched_s)
        rows.append([n, lazy_counter.count, f"{lazy_s * 1e3:.1f}",
                     batched_counter.count, f"{batched_s * 1e3:.1f}"])
    print("\nCatalog page render (25 stars/page), lazy vs batched:")
    print(format_table(
        ["catalog size", "lazy queries", "lazy ms",
         "batched queries", "batched ms"], rows))
    # The page renders in a fixed number of queries at any catalog size,
    # versus one COUNT per listed star on the lazy path.
    assert results[500][2] == results[100][2]
    assert results[500][0] > results[500][2]
