"""Instrumentation across the architecture.

The correlation id minted at portal submission must be visible on every
daemon span, state-transition event, and grid command for that
simulation; the portal must expose the registry at ``/metrics``; the
external monitor must measure staleness on the injected sim clock; and
breaker transitions must be emitted exactly once (notifications ride the
event bus).
"""

import pytest

from repro.core import SIM_DONE, Simulation
from repro.grid.breaker import CLOSED, HALF_OPEN, OPEN
from repro.obs import correlation_id
from repro.webstack.testclient import Client

pytestmark = pytest.mark.obs

PARAMS = {"mass": "1.0", "z": "0.018", "y": "0.27",
          "alpha": "2.1", "age": "4.6"}


@pytest.fixture()
def portal(deployment, astronomer):
    client = Client(deployment.build_portal())
    client.login("metcalfe", "pw12345")
    return client


def submit_and_run(deployment, portal):
    star, _ = deployment.catalog.search("18 Sco")
    response = portal.post(f"/submit/direct/{star.pk}/", PARAMS)
    pk = int(response["Location"].rstrip("/").split("/")[-1])
    deployment.run_daemon_until_idle()
    return Simulation.objects.using(deployment.databases.admin).get(
        pk=pk)


class TestCorrelationPropagation:
    def test_trace_threads_submission_to_done(self, deployment, portal):
        sim = submit_and_run(deployment, portal)
        assert sim.state == SIM_DONE
        cid = correlation_id(sim.pk)
        assert sim.correlation_id == cid
        events = deployment.obs.events

        # Portal submission minted the trace...
        (submission,) = events.of_kind("portal.submission")
        assert submission.fields["trace_id"] == cid
        assert submission.fields["simulation"] == sim.pk

        # ...every daemon state transition carries it...
        transitions = [r for r in events.of_kind("sim.transition")
                       if r.fields["simulation"] == sim.pk]
        assert [r.fields["to_state"] for r in transitions] == [
            "PREJOB", "RUNNING", "POSTJOB", "CLEANUP", "DONE"]
        assert all(r.fields["trace_id"] == cid for r in transitions)

        # ...as do the workflow-advance and job-poll spans...
        tracer = deployment.obs.tracer
        advances = tracer.spans(trace_id=cid, name="sim.advance")
        assert len(advances) >= len(transitions)
        assert all(s.attrs["simulation"] == sim.pk for s in advances)
        assert tracer.spans(trace_id=cid, name="daemon.job_poll")

        # ...and the grid commands issued on its behalf.
        commands = [r for r in events.of_kind("grid.command")
                    if r.fields["trace_id"] == cid]
        assert commands
        # Timestamps are virtual and ordered: the whole story replays.
        times = [r.time for r in transitions]
        assert times == sorted(times)

    def test_advance_spans_nest_under_poll_spans(self, deployment,
                                                 portal):
        submit_and_run(deployment, portal)
        tracer = deployment.obs.tracer
        polls = {s.span_id: s for s in tracer.spans(name="daemon.poll")}
        phases = {s.span_id: s
                  for s in tracer.spans(name="daemon.advance_simulations")}
        assert polls and phases
        assert all(s.parent_id in polls for s in phases.values())
        for advance in tracer.spans(name="sim.advance"):
            # Parented under its poll phase, but traced by simulation.
            assert advance.parent_id in phases
            assert advance.trace_id.startswith("amp-sim-")

    def test_poll_metrics_accumulate(self, deployment, portal):
        submit_and_run(deployment, portal)
        metrics = deployment.obs.metrics
        assert metrics.total("daemon_polls_total") > 0
        # Every poll observed its query count, inside the pinned budget.
        family = metrics.histogram("daemon_poll_queries")
        child = family.labels()
        assert child.count == metrics.total("daemon_polls_total")


class TestMetricsEndpoint:
    def test_scrape_after_traffic(self, deployment, portal):
        submit_and_run(deployment, portal)
        portal.get("/")
        response = portal.get("/metrics")
        assert response.status_code == 200
        assert response["Content-Type"].startswith("text/plain")
        text = response.content.decode()
        assert "# TYPE daemon_polls_total counter" in text
        assert "# TYPE http_requests_total counter" in text
        assert 'http_requests_total{route="home",status="200"} 1' \
            in text
        assert "sim_transitions_total" in text
        assert 'le="+Inf"' in text

    def test_request_latency_and_queries_recorded(self, deployment,
                                                  portal):
        portal.get("/")
        metrics = deployment.obs.metrics
        assert metrics.value("http_requests_total",
                             route="home", status="200") == 1
        latency = metrics.histogram("http_request_seconds").labels(
            route="home")
        queries = metrics.histogram("http_request_queries").labels(
            route="home")
        assert latency.count == 1
        assert queries.count == 1
        assert queries.sum > 0        # the home page does hit the ORM

    def test_statistics_page_shows_operations_summary(self, deployment,
                                                      portal):
        submit_and_run(deployment, portal)
        html = portal.get("/statistics/").content.decode()
        assert "Gateway operations" in html
        assert 'href="/metrics"' in html
        summary = deployment.obs.health_summary()
        assert summary["polls"] > 0
        assert summary["transitions"] >= 5
        assert summary["grid_commands"] > 0


class TestOneFacade:
    def test_every_component_holds_the_deployments_facade(self,
                                                          deployment):
        from repro.serve import (BrownoutMiddleware, DeadlineMiddleware,
                                 ServeConfig)
        from repro.webstack.middleware import ObservabilityMiddleware
        app = deployment.build_portal(serve=ServeConfig())
        daemon = deployment.daemon
        breakers = deployment.breakers
        for name in deployment.machine_specs:
            breakers.breaker(name)
        served = {type(m): m for m in app.middleware}
        holders = [
            deployment.clients, breakers, *breakers._breakers.values(),
            daemon.retry, daemon.leases, daemon.ledger, daemon.broker,
            *daemon.workflows.values(), deployment.monitor,
            app.serve_cache, app.rate_limiter, app.admission,
            app.serve_health, served[DeadlineMiddleware],
            served[BrownoutMiddleware], served[ObservabilityMiddleware]]
        assert all(holder.obs is deployment.obs for holder in holders)


class TestExternalMonitorClock:
    def test_staleness_is_sim_clock_only(self, deployment):
        deployment.daemon.poll_once()
        monitor = deployment.monitor
        assert monitor.clock is deployment.clock
        assert monitor.check() is True
        assert monitor.heartbeat_age() == 0.0

        deployment.clock.advance(monitor.stale_after_s + 1)
        assert monitor.heartbeat_age() == monitor.stale_after_s + 1
        assert monitor.check() is False
        assert deployment.obs.metrics.value(
            "daemon_heartbeat_age_seconds") == monitor.stale_after_s + 1
        (stale,) = deployment.obs.events.of_kind("monitor.stale")
        assert stale.fields["age"] == monitor.stale_after_s + 1
        assert len(monitor.alerts) == 1

        # The next poll refreshes the heartbeat; health recovers with
        # no wall-clock involvement at any point.
        deployment.daemon.poll_once()
        assert monitor.check() is True


class TestBreakerEmission:
    def test_one_transition_one_event_one_mail(self, deployment):
        breaker = deployment.breakers.breaker("frost")
        for _ in range(breaker.policy.failure_threshold):
            breaker.record_failure()
        assert breaker.state == OPEN
        deployment.clock.advance(breaker.policy.open_for_s + 1)
        assert breaker.allow() is True          # half-open probe
        breaker.record_success()                # closes
        assert breaker.state == CLOSED

        states = [r.fields["to_state"] for r in
                  deployment.obs.events.of_kind("breaker.transition")]
        assert states == [OPEN, HALF_OPEN, CLOSED]
        assert deployment.obs.metrics.total(
            "breaker_transitions_total") == 3
        assert deployment.obs.metrics.value(
            "breaker_open", resource="frost") == 0.0
        # Notifications ride the event bus: exactly one admin mail per
        # transition, no second emission path anywhere.
        breaker_mail = [m for m in deployment.mailer.to_admin()
                        if "circuit" in m.subject.lower()]
        assert len(breaker_mail) == 3
