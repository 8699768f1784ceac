"""Health tracking, brownout degradation, stale serving, and probes."""

import json

import pytest

from repro.hpc.simclock import SimClock
from repro.serve import HealthTracker, PortalCache, ServeConfig
from repro.webstack.testclient import Client

from .chaos import DbFaultInjector


@pytest.fixture()
def clock():
    return SimClock()


# ----------------------------------------------------------------------
# Tracker state machine
# ----------------------------------------------------------------------

def test_errors_flip_degraded_and_recovery_flips_back(clock, obs):
    tracker = HealthTracker(clock, obs=obs, window=10, min_samples=4,
                            error_threshold=0.5, recovery_after_s=5.0)
    assert not tracker.degraded
    for _ in range(4):
        tracker.record_db_error()
    assert tracker.degraded
    # Healthy statements right after the errors do NOT exit: the
    # quiet period has not elapsed (half-open discipline).
    tracker.record_db_ok(0.01)
    assert tracker.degraded
    clock.advance(5.0)
    tracker.record_db_ok(0.01)
    assert not tracker.degraded


def test_slow_statements_count_as_unhealthy(clock, obs):
    tracker = HealthTracker(clock, obs=obs, min_samples=4,
                            slow_statement_s=1.0)
    for _ in range(4):
        tracker.record_db_ok(latency_s=3.0)     # slow = bad
    assert tracker.degraded


def test_genuine_database_errors_flip_degraded_and_back(clock, obs):
    """No injector anywhere: a genuinely failing sqlite statement
    feeds the tracker, and genuine healthy statements recover it."""
    import sqlite3

    from repro.webstack.orm.connection import Database
    db = Database(":memory:")
    db.executescript("CREATE TABLE t (x INTEGER)")
    tracker = HealthTracker(clock, obs=obs, min_samples=4,
                            recovery_after_s=5.0).attach(db)
    for _ in range(4):
        with pytest.raises(sqlite3.OperationalError):
            db.execute("SELECT x FROM missing", operation="select",
                       table="missing")
    assert tracker.degraded
    clock.advance(6.0)                          # past the quiet period
    db.execute("SELECT x FROM t", operation="select", table="t")
    assert not tracker.degraded


def test_constraint_violations_are_not_db_sickness(clock, obs):
    """An IntegrityError is the application's problem, not the
    database's: it must not push the tier toward brownout."""
    from repro.webstack.orm.connection import Database
    from repro.webstack.orm.exceptions import IntegrityError
    db = Database(":memory:")
    db.executescript("CREATE TABLE t (x INTEGER PRIMARY KEY)")
    tracker = HealthTracker(clock, obs=obs, min_samples=2).attach(db)
    db.execute("INSERT INTO t (x) VALUES (1)", operation="insert",
               table="t")
    for _ in range(4):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (x) VALUES (1)",
                       operation="insert", table="t")
    assert not tracker.degraded


def test_refused_statements_are_not_db_sickness(clock, obs):
    """SQLite's authorizer refuses a statement outside the role's grant
    with a raw ``sqlite3.DatabaseError``; the connection turns it into
    PermissionDenied before the observer hears of it, so a stream of
    refusals adds no sample and never pushes the tier toward brownout.
    Each refused statement did reach the engine: it counts as a query."""
    from repro.webstack.orm import (DeploymentDatabases, Grant,
                                    PermissionDenied, RoleRegistry)
    roles = RoleRegistry()
    roles.define("portal", Grant({"t": {"select"}}))
    roles.define("daemon", Grant())
    databases = DeploymentDatabases(roles)
    databases.admin.executescript("CREATE TABLE t (x INTEGER)")
    portal = databases.portal
    tracker = HealthTracker(clock, obs=obs, window=10, min_samples=4,
                            recovery_after_s=5.0).attach(portal)
    for _ in range(3 * tracker.window):
        with pytest.raises(PermissionDenied,
                           match="Role 'portal' may not DELETE on table 't'"):
            portal.execute("DELETE FROM t", operation="delete", table="t")
    assert not tracker.degraded
    assert tracker.last_error_at is None
    assert portal.queries_executed == 3 * tracker.window
    # The same connection still runs what the grant allows.
    portal.execute("SELECT x FROM t", operation="select", table="t")
    assert not tracker.degraded
    databases.close()


def test_probe_is_not_ready_on_raw_sqlite_error(clock, obs):
    """A probe failure outside the ORM exception hierarchy still
    answers not-ready (the structured 503), never a traceback page."""
    import sqlite3

    class BrokenDb:
        def ping(self):
            raise sqlite3.OperationalError("disk I/O error")

    assert HealthTracker(clock, obs=obs).probe(BrokenDb()) is False


def test_mixed_traffic_below_threshold_stays_healthy(clock, obs):
    tracker = HealthTracker(clock, obs=obs, window=10, min_samples=4,
                            error_threshold=0.5)
    for _ in range(7):
        tracker.record_db_ok(0.01)
    for _ in range(3):
        tracker.record_db_error()
    assert not tracker.degraded                  # 3/10 < 0.5


def test_degraded_events_and_gauge(clock, deployment):
    obs = deployment.obs
    tracker = HealthTracker(clock, min_samples=4, recovery_after_s=2.0,
                            obs=obs)
    for _ in range(4):
        tracker.record_db_error()
    assert obs.metrics.value("serve_degraded") == 1
    assert len(obs.events.of_kind("serve.degraded.enter")) == 1
    clock.advance(3.0)
    tracker.record_db_ok(0.01)
    assert obs.metrics.value("serve_degraded") == 0
    exits = obs.events.of_kind("serve.degraded.exit")
    assert len(exits) == 1
    assert exits[0].fields["degraded_for_s"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Portal integration: probes, brownout, stale serving
# ----------------------------------------------------------------------

@pytest.fixture()
def chaos_portal(deployment):
    """Portal with the full tier and a controllable database fault."""
    app = deployment.build_portal(serve=ServeConfig())
    return app, DbFaultInjector(deployment.clock).install(app.db)


def test_injector_reports_through_the_observer_it_wraps(clock):
    """An injected outage reaches the wrapped observer's finish, and a
    statement whose injected latency spends the budget is stopped by
    the one deadline check before it reaches SQLite."""
    from repro.webstack.orm.connection import Database
    from repro.webstack.orm.exceptions import (DatabaseUnavailable,
                                               DeadlineExceeded)
    db = Database(":memory:")
    finished = []

    def observer(operation, table):
        return finished.append

    db.statement_observer = observer
    injector = DbFaultInjector(clock, fail=True).install(db)
    with pytest.raises(DatabaseUnavailable):
        db.execute("SELECT 1", operation="select", table="sqlite_master")
    assert [type(error) for error in finished] == [DatabaseUnavailable]

    injector.fail = False
    injector.latency_s = 12.0
    started = clock.now

    def deadline(operation, table):
        if clock.now - started > 10.0:
            raise DeadlineExceeded("budget gone")

    db.deadline_hook = deadline
    with pytest.raises(DeadlineExceeded):
        db.executescript("CREATE TABLE t (x INTEGER);")
    assert clock.now == started + 12.0
    assert type(finished[-1]) is DeadlineExceeded
    db.deadline_hook = None
    assert "t" not in db.table_names()


def test_readyz_flips_during_outage_and_back(chaos_portal, deployment):
    app, injector = chaos_portal
    client = Client(app)
    response = client.get("/readyz")
    assert response.status_code == 200
    assert json.loads(response.text) == {
        "ready": True, "degraded": False, "routes": {"database": True}}
    injector.fail = True
    response = client.get("/readyz")
    assert response.status_code == 503
    body = json.loads(response.text)
    assert body["ready"] is False
    assert body["routes"] == {"database": False}
    assert body["reason"] == ("The service cannot reach its database "
                              "right now.")
    assert "Retry-After" in response.headers
    # Liveness is NOT readiness: the process itself still answers.
    assert client.get("/healthz").status_code == 200
    injector.fail = False
    deployment.clock.advance(10.0)
    assert client.get("/readyz").status_code == 200


def test_outage_degrades_then_brownout_serves_reduced_page(
        chaos_portal, deployment):
    app, injector = chaos_portal
    client = Client(app)
    injector.fail = True
    # Failed renders feed the tracker until it degrades.
    for _ in range(4):
        client.get("/simulations/")
    assert app.serve_health.degraded
    # Now the brownout answers the expensive route without touching
    # the database at all.
    db = deployment.databases.portal
    with db.count_queries() as counter:
        response = client.get("/simulations/")
    assert counter.count == 0
    assert response.status_code == 503
    assert "reduced" in response.text.lower() or \
        "essential" in response.text.lower()
    assert response["X-Degraded"] == "1"
    assert deployment.obs.metrics.value(
        "serve_brownout_total", route="sim-list") >= 1


def test_degraded_mode_serves_stale_cache(chaos_portal, deployment):
    """Stale-while-degraded: a page cached before the outage keeps
    serving (marked stale) long after its TTL, instead of the brownout
    apology."""
    app, injector = chaos_portal
    client = Client(app)
    warm = client.get("/stars/")
    assert warm.status_code == 200 and warm.get("X-Cache") == "miss"
    deployment.clock.advance(601)              # star-list TTL is 600s
    injector.fail = True
    # The pre-outage render left healthy samples in the window, so it
    # takes a full window of failing probes to cross the threshold.
    for _ in range(10):
        client.get("/readyz")
    assert app.serve_health.degraded
    response = client.get("/stars/")
    assert response.status_code == 200
    assert response.get("X-Cache") == "stale"
    assert response.content == warm.content


def test_stale_is_served_on_error_even_when_not_degraded(
        chaos_portal, deployment):
    """Serve-stale-on-error: the very first failing render of a cached
    page returns the saved copy, before the tracker has seen enough
    samples to call the tier degraded."""
    app, injector = chaos_portal
    client = Client(app)
    warm = client.get("/stars/")
    assert warm.get("X-Cache") == "miss"
    deployment.clock.advance(601)
    injector.fail = True
    response = client.get("/stars/")
    assert response.status_code == 200
    assert response.get("X-Cache") == "stale"
    assert response.content == warm.content


def test_full_service_recovers_after_fault_clears(chaos_portal,
                                                  deployment):
    app, injector = chaos_portal
    client = Client(app)
    client.get("/stars/")
    injector.fail = True
    for _ in range(10):
        client.get("/readyz")
    assert app.serve_health.degraded
    injector.fail = False
    deployment.clock.advance(10.0)             # past recovery quiet time
    assert client.get("/readyz").status_code == 200
    assert not app.serve_health.degraded
    deployment.clock.advance(601)              # past TTL + grace refresh
    response = client.get("/stars/")
    assert response.status_code == 200
    assert response.get("X-Cache") == "miss"   # rendered live again


def test_stale_grace_bounds_how_old_a_page_can_be(clock, obs):
    cache = PortalCache(clock, obs=obs)        # STALE_GRACE_S = 300
    cache.set("page", "rendered", ttl=60.0)
    clock.advance(61)
    assert cache.get("page") is None           # expired for fresh reads
    assert cache.get_stale("page") == "rendered"
    clock.advance(301)                         # past expiry + grace
    assert cache.get_stale("page") is None
