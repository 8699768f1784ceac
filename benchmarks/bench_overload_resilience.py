"""Serving-tier resilience — what protection costs, and what it saves.

Two claims behind the overload work:

1. The resilience stack (admission gate, request deadlines, health
   tracking, brownout) adds only marginal overhead to the hot cached
   path — protection is not a tax on the happy case.
2. Shedding is *much* cheaper than serving: a 503 from the admission
   gate touches no database and costs a small fraction of a render, so
   an overloaded worker sheds its way back to health instead of
   queueing its way into collapse.
"""

import time as wall

from repro.serve import (AdmissionMiddleware, BrownoutMiddleware,
                         CacheMiddleware, DeadlineMiddleware,
                         DeadlineScopeMiddleware, RateLimitMiddleware,
                         ServeConfig)
from repro.core.portal.site import build_portal_app
from repro.webstack.testclient import Client

from .conftest import fresh_deployment


def _deployment_with_content():
    deployment = fresh_deployment()
    user = deployment.create_astronomer("bench")
    from repro.core import Simulation
    star, _ = deployment.catalog.search("18 Sco")
    for index in range(3):
        sim = Simulation(
            star_id=star.pk, owner_id=user.pk, kind="direct",
            machine_name="kraken",
            parameters={"mass": 1.0 + index * 0.05, "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6})
        sim.save(db=deployment.databases.portal)
    deployment.run_daemon_until_idle(poll_interval_s=1800)
    return deployment


def _served(deployment, *, without=()):
    """The served portal minus the *without* middleware classes.  The
    tier has no switches, so this bench builds its own baselines; the
    rate limiter always goes (frozen virtual clock = no refills, and
    this bench measures the resilience stack, not the limiter).
    Callers ``close()`` the returned app's ``serve_cache``."""
    app = build_portal_app(deployment, serve=ServeConfig())
    dropped = (RateLimitMiddleware,) + tuple(without)
    app.middleware = [m for m in app.middleware
                      if not isinstance(m, dropped)]
    return app


def _measure(fn, n=200):
    latencies = []
    for _ in range(n):
        start = wall.perf_counter()
        fn()
        latencies.append(wall.perf_counter() - start)
    latencies.sort()
    return n / sum(latencies), latencies[int(0.99 * n) - 1]


def test_resilience_stack_overhead_on_hot_path(benchmark):
    """Full stack vs cache-only, both serving pure cache hits."""
    deployment = _deployment_with_content()
    cache_only = _served(deployment, without=(
        AdmissionMiddleware, DeadlineMiddleware, BrownoutMiddleware,
        DeadlineScopeMiddleware))
    full_stack = _served(deployment)
    paths = ["/", "/stars/", "/simulations/"]
    clients = {"cache only": Client(cache_only),
               "full stack": Client(full_stack)}
    results = {}
    for name, client in clients.items():
        for path in paths:                 # warm
            assert client.get(path).status_code == 200

        def hits(client=client):
            for path in paths:
                response = client.get(path)
                assert response.status_code == 200
                assert response.get("X-Cache") == "hit"
        results[name] = _measure(hits)

    def full_stack_hits():
        for path in paths:
            assert clients["full stack"].get(path).status_code == 200
    benchmark(full_stack_hits)

    (base_rps, base_p99) = results["cache only"]
    (full_rps, full_p99) = results["full stack"]
    print(f"\ncache only:  {base_rps:8.0f} cycles/s, "
          f"p99 {base_p99 * 1000:.2f} ms")
    print(f"full stack:  {full_rps:8.0f} cycles/s, "
          f"p99 {full_p99 * 1000:.2f} ms")
    print(f"overhead: {base_rps / full_rps:.2f}x slowdown "
          f"(budget: <= 2x)")
    # Admission + deadline + brownout checks cost at most half the
    # throughput of the bare cached path (typically far less).
    assert full_rps >= 0.5 * base_rps
    cache_only.serve_cache.close()
    full_stack.serve_cache.close()


def test_shedding_is_cheaper_than_serving(benchmark):
    """A shed 503 beats a cold render by >= 10x and runs zero database
    statements — overload makes the worker *faster*, not slower."""
    deployment = _deployment_with_content()
    app = _served(deployment, without=(CacheMiddleware,))
    client = Client(app)

    def cold_render():
        assert client.get("/stars/").status_code == 200
    render_rps, _ = _measure(cold_render, n=50)

    # Saturate the gate: hold every slot, then flood.
    held = [app.admission.try_admit("metrics")[0]
            for _ in range(app.admission.policy.max_inflight)]
    assert all(held)
    db = deployment.databases.portal

    def shed():
        response = client.get("/stars/")
        assert response.status_code == 503
        assert "Retry-After" in response.headers
    with db.count_queries() as counter:
        shed_rps, shed_p99 = _measure(shed, n=200)
    assert counter.count == 0              # shed before any DB work
    benchmark(shed)
    for ticket in held:
        app.admission.release(ticket)

    print(f"\ncold render: {render_rps:8.0f} req/s")
    print(f"shed 503:    {shed_rps:8.0f} req/s, "
          f"p99 {shed_p99 * 1000:.3f} ms")
    print(f"shed speedup over render: {shed_rps / render_rps:.1f}x "
          f"(budget: >= 10x, zero DB statements)")
    assert shed_rps >= 10 * render_rps
    app.serve_cache.close()


def test_brownout_page_touches_no_database(benchmark):
    """Degraded mode: the reduced-service answer for an expensive route
    is constant-cost and database-free."""
    deployment = _deployment_with_content()
    app = _served(deployment, without=(CacheMiddleware,))
    client = Client(app)
    for _ in range(4):
        app.serve_health.record_db_error()
    assert app.serve_health.degraded
    db = deployment.databases.portal

    def brownout():
        response = client.get("/simulations/")
        assert response.status_code == 503
        assert response["X-Degraded"] == "1"
    with db.count_queries() as counter:
        rps, p99 = _measure(brownout, n=100)
    assert counter.count == 0
    benchmark(brownout)
    print(f"\nbrownout page: {rps:8.0f} req/s, p99 {p99 * 1000:.3f} ms "
          f"(zero DB statements)")
    app.serve_cache.close()
