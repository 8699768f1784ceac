"""Signal-driven cache invalidation, end to end through the portal.

The acceptance bar: a cached page is *never* more than one write stale.
Every test here drives real writes through the ORM (portal form path,
daemon-role updates, bulk creates) and asserts the served pages match
database ground truth immediately — not merely within a TTL.
"""

import json

from repro.core import MachineRecord, Simulation
from repro.serve import ServeConfig
from repro.webstack.testclient import Client
from tests.core.conftest import submit_direct


def _cache_header(response):
    return response.headers.get("X-Cache")


def test_sim_write_purges_lists_but_not_unrelated_pages(
        client, deployment, astronomer):
    # Prime: the simulation list, statistics, the suggest endpoint, and
    # a star page for a star with no simulations.  Any catalog imports
    # happen before priming, so the writes below are only the sim's.
    deployment.catalog.search("16 Cyg B")
    other = deployment.catalog.search("Alpha Cen A")[0]
    primed = ["/api/v1/simulations", "/statistics/",
              "/api/suggest/?q=cyg", f"/stars/{other.pk}/"]
    for path in primed:
        assert _cache_header(client.get(path)) == "miss"
    for path in primed:
        assert _cache_header(client.get(path)) == "hit"

    submit_direct(deployment, astronomer)   # writes via the portal role

    # The write's pages re-render; unrelated pages stay warm.
    assert _cache_header(client.get("/api/v1/simulations")) == "miss"
    assert _cache_header(client.get("/statistics/")) == "miss"
    assert _cache_header(client.get("/api/suggest/?q=cyg")) == "hit"
    assert _cache_header(client.get(f"/stars/{other.pk}/")) == "hit"


def test_no_global_flush_on_write(client, deployment, astronomer):
    """A write purges only entries tagged by it — the rest of the
    cache keeps its entries (invalidation is O(tags), not a flush)."""
    cache = deployment.serve_cache
    client.get("/api/suggest/?q=cyg")
    client.get("/")
    before = cache.l1_entries
    assert before >= 2
    submit_direct(deployment, astronomer)
    # Entries are lazily dropped on next read; the suggest entry must
    # still be fresh because none of its tags were bumped.
    assert _cache_header(client.get("/api/suggest/?q=cyg")) == "hit"


def test_cached_statistics_reflects_breaker_transition_immediately(
        client, deployment):
    """The statistics digest re-renders within the same virtual second
    as a machine's breaker transition — no TTL wait."""
    assert _cache_header(client.get("/statistics/")) == "miss"
    assert _cache_header(client.get("/statistics/")) == "hit"
    record = MachineRecord.objects.using(
        deployment.databases.admin).get(name="kraken")
    record.breaker_state = "open"
    record.save(db=deployment.databases.admin)
    response = client.get("/statistics/")
    assert _cache_header(response) == "miss"   # purged, re-rendered


def test_daemon_writes_invalidate_portal_pages(client, deployment,
                                               astronomer):
    """Mid-campaign staleness regression: after every daemon poll the
    anonymously-served API list matches database ground truth."""
    for _ in range(3):
        submit_direct(deployment, astronomer)
    for _ in range(30):
        deployment.clock.advance(300.0)
        deployment.daemon.poll_once()
        served = json.loads(client.get("/api/v1/simulations").text)
        truth = {s.pk: s.state for s in Simulation.objects.using(
            deployment.databases.admin)}
        assert {s["id"]: s["state"]
                for s in served["simulations"]} == truth
        if all(state == "DONE" for state in truth.values()):
            break
    assert all(state == "DONE" for state in truth.values())


def test_queryset_update_reaches_detail_pages(client, deployment,
                                              astronomer):
    """A set-oriented update (no instances in hand) must still purge
    cached detail pages, via the coarse model-wide tags."""
    sim = submit_direct(deployment, astronomer)
    path = f"/simulations/{sim.pk}/"
    assert _cache_header(client.get(path)) == "miss"
    assert _cache_header(client.get(path)) == "hit"
    Simulation.objects.using(deployment.databases.daemon).filter(
        pk=sim.pk).update(state="RUNNING")
    response = client.get(path)
    assert _cache_header(response) == "miss"
    assert "RUNNING" in response.text


def test_write_during_render_is_not_pinned_stale(client, deployment,
                                                 astronomer):
    """A write that commits while the view renders must not pin the
    pre-write page to the post-write tag versions: the middleware
    snapshots versions before the view runs, so the stored entry is
    already stale and the very next read re-renders."""
    sim = submit_direct(deployment, astronomer)
    path = f"/simulations/{sim.pk}/"
    app = deployment.portal_app
    route, _name, _kwargs = app.resolver.resolve_route(path)
    original = route.view

    def racing_view(request, **kwargs):
        response = original(request, **kwargs)   # renders QUEUED
        Simulation.objects.using(deployment.databases.daemon).filter(
            pk=sim.pk).update(state="RUNNING")   # commits mid-request
        return response

    route.view = racing_view
    try:
        response = client.get(path)
        assert _cache_header(response) == "miss"
        assert "RUNNING" not in response.text    # pre-write render
    finally:
        route.view = original
    response = client.get(path)
    assert _cache_header(response) == "miss"     # stale, not served
    assert "RUNNING" in response.text


def test_logged_in_requests_bypass_the_cache(client, deployment,
                                             astronomer):
    anon = Client(deployment.portal_app)
    assert _cache_header(anon.get("/")) == "miss"
    assert _cache_header(anon.get("/")) == "hit"
    client.login("metcalfe", "pw12345")
    response = client.get("/")
    assert _cache_header(response) is None   # session: straight through


def test_twin_cached_runs_are_byte_stable(deployment):
    """Two fresh deployments serving the same cached request sequence
    produce byte-identical bodies, hot and cold."""
    from repro.core import AMPDeployment

    def run(dep):
        app = dep.build_portal(serve=ServeConfig())
        client = Client(app)
        pages = []
        for _ in range(2):      # cold then hot
            for path in ("/", "/stars/", "/api/v1/simulations"):
                pages.append(client.get(path).text)
        assert pages[:3] == pages[3:]   # a hit serves the exact bytes
        return pages

    first = run(deployment)
    twin = AMPDeployment()
    try:
        assert run(twin) == first
    finally:
        twin.close()
