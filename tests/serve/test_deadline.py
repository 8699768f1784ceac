"""Request deadlines: clamped budgets, ORM-layer enforcement, 504s."""

import json

import pytest

from repro.serve import (DbFaultInjector, DeadlineMiddleware,
                         DeadlinePolicy, ServeConfig)
from repro.webstack.testclient import Client


def test_budget_defaults_and_clamps():
    policy = DeadlinePolicy(default_budget_s=10.0, min_budget_s=1.0,
                            max_budget_s=30.0)

    class Req:
        META = {}
    assert policy.budget_for(Req()) == 10.0
    Req.META = {"HTTP_X_REQUEST_BUDGET_MS": "5000"}
    assert policy.budget_for(Req()) == 5.0
    Req.META = {"HTTP_X_REQUEST_BUDGET_MS": "120000"}    # clamp high
    assert policy.budget_for(Req()) == 30.0
    Req.META = {"HTTP_X_REQUEST_BUDGET_MS": "10"}        # clamp low
    assert policy.budget_for(Req()) == 1.0
    Req.META = {"HTTP_X_REQUEST_BUDGET_MS": "banana"}    # garbage
    assert policy.budget_for(Req()) == 10.0


def test_budget_ceiling_clamped_below_watchdog():
    """A granted budget must always expire before the per-request
    watchdog hard-kills the worker: the client gets the clean 504,
    never a dropped connection."""
    policy = DeadlinePolicy().clamped_to_watchdog(30.0)
    assert policy.max_budget_s <= 25.0
    assert policy.default_budget_s <= policy.max_budget_s

    class Req:
        META = {"HTTP_X_REQUEST_BUDGET_MS": "60000"}
    assert policy.budget_for(Req()) <= policy.max_budget_s

    # Watchdog disabled: the policy is unchanged.
    base = DeadlinePolicy()
    assert base.clamped_to_watchdog(None) is base
    assert base.clamped_to_watchdog(0) is base
    # A tiny watchdog still leaves a usable (if small) budget.
    tight = DeadlinePolicy().clamped_to_watchdog(2.0)
    assert 0 < tight.max_budget_s < 2.0


@pytest.fixture()
def slow_db_portal(deployment):
    """Portal whose every database statement costs 12 virtual seconds
    (the injector advances the deployment's SimClock), under a 10s
    default budget — the first statement already exceeds it.  The
    health tracker is told such statements are not slow, so these
    tests see pure deadline behaviour (the brownout's interaction with
    slow statements is covered in test_health.py)."""
    injector = DbFaultInjector(deployment.clock, latency_s=12.0)
    app = deployment.build_portal(serve=ServeConfig(db_fault=injector))
    app.serve_health.slow_statement_s = 3600.0
    deadlines, = (m for m in app.middleware
                  if isinstance(m, DeadlineMiddleware))
    deadlines.policy = DeadlinePolicy(default_budget_s=10.0,
                                      min_budget_s=0.5,
                                      max_budget_s=3600.0)
    return app, injector


def test_over_budget_request_504s_in_plain_language(slow_db_portal):
    app, _ = slow_db_portal
    client = Client(app)
    response = client.get("/stars/")
    assert response.status_code == 504
    text = response.text.lower()
    assert "took too long" in text or "try again" in text
    for jargon in ("504", "deadline", "orm", "traceback"):
        assert jargon not in text
    # And the tier never wedged: the next request (fresh budget) still
    # gets an answer.
    assert client.get("/metrics").status_code == 200


def test_client_budget_header_is_honoured(slow_db_portal):
    app, injector = slow_db_portal
    client = Client(app)
    # A generous client budget lets the slow render finish...
    ok = client.get("/stars/",
                    headers={"X-Request-Budget-Ms": "3600000"})
    assert ok.status_code == 200
    # ...and a tiny one (clamped to min 0.5s, still under one 12s
    # statement) gives up immediately.
    gone = client.get("/simulations/",
                      headers={"X-Request-Budget-Ms": "100"})
    assert gone.status_code == 504


def test_api_timeout_is_json(slow_db_portal):
    app, _ = slow_db_portal
    client = Client(app)
    response = client.get("/api/v1/simulations")
    assert response.status_code == 504
    body = json.loads(response.text)
    assert "time budget" in body["error"]["message"]
    assert body["error"]["budget_seconds"] == pytest.approx(10.0)


def test_deadline_metrics_and_events(slow_db_portal, deployment):
    app, _ = slow_db_portal
    client = Client(app)
    client.get("/stars/")
    obs = deployment.obs
    assert obs.metrics.value("serve_deadline_exceeded_total",
                             route="star-list") == 1
    events = obs.events.of_kind("serve.deadline_exceeded")
    assert events and events[-1].fields["route"] == "star-list"


def test_successful_response_reports_remaining_budget(deployment):
    app = deployment.build_portal(serve=ServeConfig())
    client = Client(app)
    response = client.get("/stars/")
    assert response.status_code == 200
    remaining = int(response["X-Request-Budget-Remaining-Ms"])
    assert 0 <= remaining <= 60_000


def test_timed_out_page_is_not_cached(slow_db_portal):
    """A 504 must never be frozen into the response cache."""
    app, injector = slow_db_portal
    client = Client(app)
    assert client.get("/stars/").status_code == 504
    injector.latency_s = 0.0                      # database healthy again
    response = client.get("/stars/")
    assert response.status_code == 200
    assert response.get("X-Cache") == "miss"      # rendered live, stored


def test_deadline_hook_cleared_between_requests(slow_db_portal,
                                                deployment):
    """The hook is per-request state on a shared connection: after any
    response — 504 included — the connection must be unhooked so
    daemon/test code using the same Database object is unaffected."""
    app, _ = slow_db_portal
    client = Client(app)
    client.get("/stars/")
    assert deployment.databases.portal.deadline_hook is None

