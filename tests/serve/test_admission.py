"""Admission control: priority-aware shedding before any database work."""

import json

import pytest

from repro.hpc.simclock import SimClock
from repro.serve import (AdmissionController, AdmissionPolicy,
                         HealthTracker, PRIORITY_BULK, PRIORITY_CRITICAL,
                         PRIORITY_INTERACTIVE, ServeConfig)


@pytest.fixture()
def clock():
    return SimClock()


@pytest.fixture()
def health(clock, obs):
    return HealthTracker(clock, obs=obs)


# ----------------------------------------------------------------------
# Controller unit behaviour
# ----------------------------------------------------------------------

def test_routes_classify_by_expense(clock, obs, health):
    admission = AdmissionController(clock, obs=obs, health=health)
    assert admission.classify("healthz") == PRIORITY_CRITICAL
    assert admission.classify("metrics") == PRIORITY_CRITICAL
    assert admission.classify("api-sim-list") == PRIORITY_INTERACTIVE
    assert admission.classify("home") == PRIORITY_BULK
    assert admission.classify("statistics") == PRIORITY_BULK
    # Unlisted routes default to the middle class.
    assert admission.classify("no-such-route") == PRIORITY_INTERACTIVE


def test_admits_to_limit_then_sheds(clock, obs, health):
    admission = AdmissionController(
        clock, obs=obs, health=health,
        policy=AdmissionPolicy(max_inflight=4))
    tickets = []
    for _ in range(4):
        ticket, _ = admission.try_admit("metrics")   # CRITICAL: full cap
        assert ticket is not None
        tickets.append(ticket)
    shed, retry_after = admission.try_admit("metrics")
    assert shed is None
    assert retry_after >= 1
    admission.release(tickets.pop())
    ticket, _ = admission.try_admit("metrics")
    assert ticket is not None


def test_bulk_is_cut_off_before_interactive(clock, obs, health):
    """The priority shares reserve headroom: once BULK's share is
    full, an expensive render sheds while a cheap API read and a probe
    still get in."""
    admission = AdmissionController(
        clock, obs=obs, health=health,
        policy=AdmissionPolicy(max_inflight=8))
    for _ in range(4):                       # BULK share: 8 * 0.5 = 4
        ticket, _ = admission.try_admit("home")
        assert ticket is not None
    assert admission.try_admit("home")[0] is None
    assert admission.try_admit("api-sim-list")[0] is not None
    assert admission.try_admit("healthz")[0] is not None


def test_critical_always_keeps_one_slot(clock, obs, health):
    admission = AdmissionController(
        clock, obs=obs, health=health, policy=AdmissionPolicy(
            max_inflight=1,
            shares={PRIORITY_CRITICAL: 0.0, PRIORITY_INTERACTIVE: 0.0,
                    PRIORITY_BULK: 0.0}))
    assert admission.try_admit("healthz")[0] is not None


def test_release_is_idempotent(clock, obs, health):
    admission = AdmissionController(clock, obs=obs, health=health)
    ticket, _ = admission.try_admit("home")
    admission.release(ticket)
    admission.release(ticket)
    admission.release(None)
    assert admission.inflight == 0


def test_degraded_mode_tightens_bulk_admission(clock, obs):
    class FakeHealth:
        degraded = True
    admission = AdmissionController(
        clock, obs=obs, policy=AdmissionPolicy(max_inflight=8),
        health=FakeHealth())
    for _ in range(2):                  # 8 * 0.5 share * 0.5 degraded
        assert admission.try_admit("home")[0] is not None
    assert admission.try_admit("home")[0] is None


# ----------------------------------------------------------------------
# Middleware integration (full portal pipeline)
# ----------------------------------------------------------------------

def test_saturated_worker_sheds_with_plain_language_503(deployment):
    app = deployment.build_portal(serve=ServeConfig())
    from repro.webstack.testclient import Client
    client = Client(app)
    held = [app.admission.try_admit("metrics")[0]
            for _ in range(app.admission.policy.max_inflight)]
    assert all(held)
    response = client.get("/stars/")
    assert response.status_code == 503
    assert "Retry-After" in response.headers
    text = response.text.lower()
    assert "try again" in text
    for jargon in ("503", "admission", "concurrency", "shed",
                   "inflight"):
        assert jargon not in text
    for ticket in held:
        app.admission.release(ticket)
    assert client.get("/stars/").status_code == 200


def test_shed_api_request_gets_json_error(deployment):
    app = deployment.build_portal(serve=ServeConfig())
    from repro.webstack.testclient import Client
    client = Client(app)
    held = [app.admission.try_admit("metrics")[0]
            for _ in range(app.admission.policy.max_inflight)]
    response = client.get("/api/v1/simulations")
    assert response.status_code == 503
    body = json.loads(response.text)
    assert "try again" in body["error"]["message"].lower()
    assert body["error"]["retry_after_seconds"] >= 1
    for ticket in held:
        app.admission.release(ticket)


def test_shedding_costs_no_database_work(deployment):
    """The whole point of admission control: a shed request answers
    before the database is ever touched."""
    app = deployment.build_portal(serve=ServeConfig())
    from repro.webstack.testclient import Client
    client = Client(app)
    held = [app.admission.try_admit("metrics")[0]
            for _ in range(app.admission.policy.max_inflight)]
    db = deployment.databases.portal
    with db.count_queries() as counter:
        assert client.get("/stars/").status_code == 503
    assert counter.count == 0
    for ticket in held:
        app.admission.release(ticket)


def test_probes_survive_saturation(deployment):
    """CRITICAL traffic outranks the renders that filled the worker:
    the health probes and the metrics scrape answer while HTML sheds."""
    app = deployment.build_portal(serve=ServeConfig())
    from repro.webstack.testclient import Client
    client = Client(app)
    bulk_limit = app.admission.policy.limit_for("bulk")
    held = [app.admission.try_admit("home")[0] for _ in range(bulk_limit)]
    assert all(held)
    assert client.get("/stars/").status_code == 503
    assert client.get("/healthz").status_code == 200
    assert client.get("/readyz").status_code == 200
    assert client.get("/metrics").status_code == 200
    for ticket in held:
        app.admission.release(ticket)


def test_shed_metrics_and_events(deployment):
    app = deployment.build_portal(serve=ServeConfig())
    from repro.webstack.testclient import Client
    client = Client(app)
    held = [app.admission.try_admit("metrics")[0]
            for _ in range(app.admission.policy.max_inflight)]
    client.get("/stars/")
    client.get("/stars/")
    obs = deployment.obs
    assert obs.metrics.value("serve_shed_total", route="star-list",
                             priority="bulk") == 2
    sheds = obs.events.of_kind("serve.shed")
    assert len(sheds) >= 2
    assert sheds[-1].fields["route"] == "star-list"
    for ticket in held:
        app.admission.release(ticket)


def test_ticket_released_when_response_phase_fails(deployment):
    """A response-phase middleware failure (a session save against a
    database that just died, say) must not leak the admission ticket:
    each leak would permanently shrink the worker's capacity until it
    sheds everything, probes included."""
    app = deployment.build_portal(serve=ServeConfig())

    class Exploding:
        def process_response(self, request, response):
            raise RuntimeError("boom in response phase")

    # Innermost: first in the reversed chain, i.e. *before* the
    # admission middleware gets to release its ticket.
    app.middleware.append(Exploding())
    from repro.webstack.testclient import Client
    client = Client(app)
    for _ in range(3 * app.admission.policy.max_inflight):
        assert client.get("/stars/").status_code == 500
    assert app.admission.inflight == 0
    # Capacity intact: the next request is admitted, not shed.
    assert app.admission.shed_total == 0


def test_ticket_released_after_each_request(deployment):
    app = deployment.build_portal(serve=ServeConfig())
    from repro.webstack.testclient import Client
    client = Client(app)
    for _ in range(3 * app.admission.policy.max_inflight):
        assert client.get("/stars/").status_code == 200
    assert app.admission.inflight == 0

