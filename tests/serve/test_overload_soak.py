"""Overload chaos soak: 4x sustained overload + database faults.

The serving tier's resilience contract, proven end to end under the
virtual clock (marked ``serve``):

- admitted requests stay bounded (p99 under the request budget) while
  4x the worker's capacity arrives every tick;
- the excess is shed with fast 503s, never queued;
- a latency fault degrades the tier (brownout + stale serving) instead
  of wedging it — every request in every phase gets *an* answer;
- after the fault clears, full service returns within one TTL;
- the whole run is deterministic: twin runs produce byte-identical
  ``serve.*`` event streams and ``serve_*`` metric families.
"""

import pytest

from repro.core import AMPDeployment
from repro.serve import DbFaultInjector, ServeConfig
from repro.webstack.testclient import Client
from tests.conftest import keep_everything

pytestmark = pytest.mark.serve

#: Worker capacity per tick (the sequentially-served fraction) and the
#: overload multiplier the soak sustains.
SERVED_PER_TICK = 4
OVERLOAD_FACTOR = 4
TICKS_HEALTHY = 5
TICKS_LATENCY = 5
TICKS_OUTAGE = 3


def _fresh_deployment():
    return AMPDeployment()


def _teardown(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def _run_soak():
    """One full overload scenario; returns (summary, determinism
    surface) where the surface is the byte-stable artefact twin runs
    must agree on."""
    deployment = keep_everything(_fresh_deployment())
    try:
        clock = deployment.clock
        injector = DbFaultInjector(clock)
        app = deployment.build_portal(
            serve=ServeConfig(db_fault=injector))
        client = Client(app)
        admission = app.admission
        budget_s = 15.0                      # DeadlinePolicy default

        admitted_latencies = []
        statuses = []
        shed_statuses = []

        def tick(tick_no):
            # The served fraction: capacity's worth of real renders,
            # unique query strings so each one is honest work (no
            # fresh-cache shortcuts).
            for i in range(SERVED_PER_TICK):
                before = clock.now
                response = client.get(
                    f"/stars/?page={tick_no}&v={i}")
                admitted_latencies.append(clock.now - before)
                statuses.append(response.status_code)
            # The overload: the rest of the 4x arrivals find the
            # worker full (its bulk slots held by in-flight renders)
            # and must be shed.
            held = [admission.try_admit("home")[0]
                    for _ in range(admission.policy.max_inflight)]
            for i in range(SERVED_PER_TICK * (OVERLOAD_FACTOR - 1)):
                before = clock.now
                response = client.get(
                    f"/simulations/?page={tick_no}&v={i}")
                shed_statuses.append(response.status_code)
                statuses.append(response.status_code)
                # Shedding is instant: no database work, no waiting.
                assert clock.now - before == 0.0
            for ticket in held:
                admission.release(ticket)
            clock.advance(1.0)

        # Phase A: warm the cache while the database is healthy —
        # star-list (600s TTL) and sim-list (60s TTL).
        warm = client.get("/stars/")
        assert warm.status_code == 200
        assert client.get("/simulations/").status_code == 200
        clock.advance(1.0)

        # Phase B: sustained 4x overload, healthy database.
        for n in range(TICKS_HEALTHY):
            tick(n)

        # Phase C: the database slows down (1.5 virtual seconds per
        # statement) under the same overload; the tracker degrades.
        injector.latency_s = 1.5
        for n in range(TICKS_HEALTHY, TICKS_HEALTHY + TICKS_LATENCY):
            tick(n)
        degraded_during_fault = app.serve_health.degraded

        # Phase D: full outage.  Every page still gets an answer —
        # stale copies where we have them, honest apologies where we
        # don't — and the probes tell the truth.
        injector.latency_s = 0.0
        injector.fail = True
        outage_statuses = []
        for n in range(TICKS_HEALTHY + TICKS_LATENCY,
                       TICKS_HEALTHY + TICKS_LATENCY + TICKS_OUTAGE):
            outage_statuses.append(client.get("/stars/").status_code)
            outage_statuses.append(client.get("/readyz").status_code)
            tick(n)
        assert set(outage_statuses) <= {200, 503}
        # A page still within its TTL keeps serving fresh copies...
        fresh_hit = client.get("/stars/")
        assert fresh_hit.status_code == 200
        assert fresh_hit.get("X-Cache") == "hit"
        # ...and one whose TTL lapsed mid-outage serves its stale copy
        # (within the grace window) instead of the brownout apology.
        clock.advance(61.0)                  # lapse the sim-list TTL
        stale = client.get("/simulations/")
        assert stale.status_code == 200
        assert stale.get("X-Cache") == "stale"
        assert client.get("/readyz").status_code == 503
        assert client.get("/healthz").status_code == 200

        # Phase E: the fault clears; within one quiet period + one
        # sim-list TTL (60s), the tier is back to full live service.
        injector.fail = False
        clock.advance(5.0)                   # the recovery quiet time
        assert client.get("/readyz").status_code == 200
        assert not app.serve_health.degraded
        clock.advance(60.0)                  # one TTL
        fresh = client.get("/simulations/?fresh=1")
        assert fresh.status_code == 200
        assert fresh.get("X-Cache") == "miss"    # rendered live

        # ---- resilience assertions --------------------------------
        assert all(s in (200, 503, 504) for s in statuses)
        assert set(shed_statuses) == {503}
        assert len(shed_statuses) == \
            (TICKS_HEALTHY + TICKS_LATENCY + TICKS_OUTAGE) * \
            SERVED_PER_TICK * (OVERLOAD_FACTOR - 1)
        p99 = _percentile(admitted_latencies, 0.99)
        assert p99 <= budget_s + 2 * 1.5     # budget + one statement
        assert degraded_during_fault
        obs = deployment.obs
        assert len(obs.events.of_kind("serve.degraded.enter")) >= 1
        assert len(obs.events.of_kind("serve.degraded.exit")) >= 1
        assert obs.metrics.value("serve_degraded") == 0
        assert admission.shed_total >= len(shed_statuses)

        # ---- determinism surface ----------------------------------
        events = "\n".join(
            record.to_json() for record in obs.events.records
            if record.kind.startswith("serve."))
        metrics = "\n".join(
            line for line in
            obs.metrics.render_prometheus().splitlines()
            if line.startswith(("serve_", "# HELP serve_",
                                "# TYPE serve_")))
        summary = {
            "p99": p99,
            "shed": len(shed_statuses),
            "admitted": len(admitted_latencies),
        }
        return summary, events + "\n---\n" + metrics
    finally:
        _teardown(deployment)


def test_overload_soak_bounded_shed_and_recovering():
    summary, _surface = _run_soak()
    assert summary["admitted"] == \
        (TICKS_HEALTHY + TICKS_LATENCY + TICKS_OUTAGE) * SERVED_PER_TICK
    assert summary["shed"] == summary["admitted"] * (OVERLOAD_FACTOR - 1)


def test_overload_soak_is_byte_stable_across_twin_runs():
    _, first = _run_soak()
    _, second = _run_soak()
    assert first == second
