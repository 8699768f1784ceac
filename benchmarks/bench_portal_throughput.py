"""Experiment C5 — the shared-code-base / production-worthiness claims.

§4/§5: one code base serves the website and the daemon; the
rapid-development framework is "robust enough to function as a production
system".  The bench measures portal request latency over a populated
database while the daemon is mid-campaign, and proves both processes use
literally the same model classes.
"""

from repro.core import Simulation, Star
from repro.webstack.testclient import Client

from .conftest import fresh_deployment, submit_reference_optimization


def _populated_portal():
    deployment = fresh_deployment()
    deployment.create_astronomer("c5", password="pw12345")
    user = deployment.create_astronomer("worker")
    # A live campaign: several finished + one active simulation.
    for index in range(3):
        star, _ = deployment.catalog.search("18 Sco")
        sim = Simulation(
            star_id=star.pk, owner_id=user.pk, kind="direct",
            machine_name="kraken",
            parameters={"mass": 1.0 + index * 0.05, "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6})
        sim.save(db=deployment.databases.portal)
    deployment.run_daemon_until_idle(poll_interval_s=1800)
    submit_reference_optimization(deployment, user, n_ga_runs=2,
                                  iterations=30, population_size=32)
    client = Client(deployment.build_portal())
    assert client.login("c5", "pw12345")
    return deployment, client


def test_portal_request_throughput(benchmark):
    deployment, client = _populated_portal()

    def one_browse_cycle():
        # Daemon makes progress...
        deployment.clock.advance(600)
        deployment.daemon.poll_once()
        # ...while the portal serves a typical page mix.
        assert client.get("/").status_code == 200
        assert client.get("/stars/").status_code == 200
        assert client.get("/simulations/").status_code == 200
        assert client.get("/api/suggest/?q=18").status_code == 200

    benchmark(one_browse_cycle)
    print("\n(4 portal requests + 1 daemon poll per iteration; "
          "shared SQLite store)")


def test_cache_hot_vs_cold_throughput(benchmark):
    """Serving-tier claim: the read-through cache lifts anonymous
    browse throughput by at least 5x over rendering every request,
    and keeps hot-path p99 within a stated budget.

    Measured with the virtual clock frozen (no TTL expiry, no daemon
    writes mid-measurement), so hot requests are pure cache hits.  The
    cold side is the same served portal with its cache middleware
    stripped: the tier has no switches, so the bench builds its own
    baseline."""
    import time as wall

    deployment, _ = _populated_portal()
    from repro.serve import CacheMiddleware, RateLimitMiddleware
    from repro.core.portal.site import build_portal_app

    def served(without=()):
        # No limiter: under the frozen virtual clock buckets never
        # refill, and this bench measures the cache, not the limiter.
        app = build_portal_app(deployment)
        dropped = (RateLimitMiddleware,) + without
        app.middleware = [m for m in app.middleware
                          if not isinstance(m, dropped)]
        return app

    cold = served(without=(CacheMiddleware,))
    hot = served()
    anon_cold = Client(cold)
    anon_hot = Client(hot)
    paths = ["/", "/stars/", "/simulations/", "/statistics/"]

    def measure(client, n=80):
        latencies = []
        for i in range(n):
            start = wall.perf_counter()
            assert client.get(paths[i % len(paths)]).status_code == 200
            latencies.append(wall.perf_counter() - start)
        latencies.sort()
        total = sum(latencies)
        return n / total, latencies[int(0.99 * n) - 1]

    cold_rps, cold_p99 = measure(anon_cold)
    for path in paths:                     # warm every cache entry
        assert anon_hot.get(path).status_code == 200
    hot_rps, hot_p99 = measure(anon_hot)

    def hot_cycle():
        for path in paths:
            response = anon_hot.get(path)
            assert response.status_code == 200
            assert response.headers.get("X-Cache") == "hit"
    benchmark(hot_cycle)

    print(f"\ncold (render every request): {cold_rps:8.0f} req/s, "
          f"p99 {cold_p99 * 1000:.2f} ms")
    print(f"hot  (read-through cache):   {hot_rps:8.0f} req/s, "
          f"p99 {hot_p99 * 1000:.2f} ms")
    print(f"speedup: {hot_rps / cold_rps:.1f}x (budget: >= 5x; "
          f"hot p99 budget: 25 ms)")
    assert hot_rps >= 5 * cold_rps
    assert hot_p99 <= 0.025
    cold.serve_cache.close()
    hot.serve_cache.close()


def test_bulk_campaign_round_trip_budget(benchmark):
    """The campaign API creates a 1000-simulation sweep in ONE request
    within a bounded database round-trip budget — batched multi-row
    inserts, not a per-row loop."""
    import json

    deployment, client = _populated_portal()
    star, _ = deployment.catalog.search("16 Cyg B")
    sweep = {"mass": {"start": 0.76, "stop": 1.7475, "step": 0.0025},
             "z": 0.018, "y": 0.27, "alpha": 2.0, "age": 4.5}

    def submit_once():
        with deployment.databases.portal.count_queries() as counter:
            response = client.post("/api/v1/campaigns", json_body={
                "star": star.pk, "name": "bench-sweep", "sweep": sweep})
        assert response.status_code == 201
        return json.loads(response.text), counter

    body, counter = submit_once()
    assert body["created"] == 396
    print(f"\n396-simulation campaign: {counter.count} round trips "
          f"({counter.by_operation})")

    big = {"mass": {"start": 0.751, "stop": 1.75, "step": 0.001},
           "z": 0.018, "y": 0.27, "alpha": 2.0, "age": 4.5}
    with deployment.databases.portal.count_queries() as counter:
        response = client.post("/api/v1/campaigns", json_body={
            "star": star.pk, "name": "bench-sweep-1k", "sweep": big})
    assert response.status_code == 201
    created = json.loads(response.text)["created"]
    assert created == 1000
    print(f"{created}-simulation campaign: {counter.count} round trips "
          f"({counter.by_operation}) — budget: <= 60")
    assert counter.count <= 60

    def tiny_campaign():
        # One campaign a virtual minute: the endpoint's rate policy
        # refills one token per 60 s, and the clock is otherwise frozen.
        deployment.clock.advance(60.0)
        response = client.post("/api/v1/campaigns", json_body={
            "star": star.pk,
            "sweep": {"mass": [1.0, 1.1], "z": 0.018, "y": 0.27,
                      "alpha": 2.0, "age": 4.5}})
        assert response.status_code == 201
    benchmark(tiny_campaign)


def test_single_code_base_serves_both(benchmark):
    """The DRY claim: identical model classes, different role
    connections."""
    deployment, client = _populated_portal()

    def check():
        portal_view = Simulation.objects.using(
            deployment.databases.portal).count()
        daemon_view = Simulation.objects.using(
            deployment.databases.daemon).count()
        assert portal_view == daemon_view
        return portal_view
    count = benchmark(check)
    workflow = deployment.daemon.workflows["direct"]
    print(f"\nsimulations visible to both roles: {count}")
    print("portal model class is daemon model class:",
          Simulation is type(Simulation.objects.using(
              deployment.databases.daemon).first()))
    assert isinstance(workflow, object)
    # One registry entry — not parallel definitions.
    from repro.webstack.orm import get_registered_model
    assert get_registered_model("Simulation") is Simulation
