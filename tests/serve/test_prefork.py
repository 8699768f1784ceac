"""Prefork runner smoke: real sockets, real forks, graceful drain.

Marked ``serve``: excluded from the tier-1 suite (it forks processes
and binds ports), run by the dedicated CI job.
"""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import build_prefork_app_factory
from repro.serve import PreforkServer

pytestmark = pytest.mark.serve


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read()


def _status(url):
    try:
        return _get(url)[0]
    except urllib.error.HTTPError as error:
        return error.code


@pytest.fixture()
def server(tmp_path):
    factory = build_prefork_app_factory(
        str(tmp_path / "portal.sqlite"), str(tmp_path / "cache.sqlite"))
    server = PreforkServer(factory, workers=2)
    server.start()
    yield server
    if server.pids:
        server.shutdown(timeout=10)


def test_two_workers_serve_fifty_requests_and_drain(server):
    paths = ["/", "/stars/", "/api/v1/simulations", "/statistics/",
             "/metrics"]
    for i in range(50):
        status, body = _get(server.url + paths[i % len(paths)])
        assert status == 200
        assert body
    statuses = server.shutdown(timeout=10)
    assert sorted(statuses) == [0, 1]
    assert set(statuses.values()) == {0}       # clean graceful exits


def test_readiness_flips_across_trigger_file_outage(tmp_path):
    """The cross-process outage switch: while the trigger file exists
    every worker's database statements fail, so readiness goes red
    while liveness stays green; once it is gone readiness returns
    after the tracker's (default, 5 s) quiet period."""
    import time
    trigger = tmp_path / "db-outage.trigger"
    factory = build_prefork_app_factory(
        str(tmp_path / "portal.sqlite"), str(tmp_path / "cache.sqlite"),
        db_fault_trigger=str(trigger), watchdog_s=60.0)
    server = PreforkServer(factory, workers=2, watchdog_s=60.0).start()
    try:
        assert _status(server.url + "/readyz") == 200
        trigger.touch()
        # Enough probes that both workers see a window of failures.
        for _ in range(20):
            assert _status(server.url + "/readyz") == 503
            assert _status(server.url + "/healthz") == 200
        trigger.unlink()
        deadline = time.monotonic() + 30
        while _status(server.url + "/readyz") != 200:
            assert time.monotonic() < deadline, "readiness never recovered"
            time.sleep(0.5)
        assert _status(server.url + "/healthz") == 200
    finally:
        statuses = server.shutdown(timeout=10)
    assert statuses == {0: 0, 1: 0}


def test_lost_accept_race_returns_instead_of_blocking():
    """Every worker wakes on one connection but only one accepts it.
    The losers find the queue empty — which must be an ignored error,
    not a blocking ``accept()`` that is deaf to the drain flag."""
    import socket
    import threading
    from repro.serve.workers import _WorkerWSGIServer
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    server = _WorkerWSGIServer(listener)
    returned = threading.Event()

    def lose_the_race():
        server._handle_request_noblock()     # nothing is queued
        returned.set()

    threading.Thread(target=lose_the_race, daemon=True).start()
    try:
        assert returned.wait(timeout=2.0)
    finally:
        listener.close()


def test_drain_needs_no_client_traffic(server):
    """The same race end to end (it is lost only now and then, so the
    unit test above is the deterministic one): 2 workers, one request,
    then a drain nobody helps along with further connections."""
    import time
    assert _get(server.url + "/healthz")[0] == 200
    started = time.monotonic()
    statuses = server.shutdown(timeout=10)
    assert statuses == {0: 0, 1: 0}
    assert time.monotonic() - started < 2.0


def test_api_serves_json_over_real_http(server):
    status, body = _get(server.url + "/api/v1/simulations")
    assert status == 200
    assert json.loads(body) == {"simulations": [], "next_cursor": None}
    status, _ = _get(server.url + "/metrics")
    assert status == 200


def test_killed_worker_is_respawned(server):
    import time
    assert _get(server.url + "/")[0] == 200
    dead_pid = server.pids[0]
    server.kill_worker(0)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if server.supervise_once():
            break
        time.sleep(0.05)
    assert server.pids[0] != dead_pid
    assert server.respawns == 1
    # The supervisor counts it on its own facade: no argument needed.
    metrics = server.obs.metrics
    assert [metrics.value("serve_worker_up", worker=str(index))
            for index in range(2)] == [1, 1]
    assert [r.fields["worker"] for r in
            server.obs.events.of_kind("serve.worker.respawn")] == [0]
    # The replacement (and the survivor) keep serving.
    for _ in range(10):
        assert _get(server.url + "/stars/")[0] == 200
    statuses = server.shutdown(timeout=10)
    assert set(statuses.values()) == {0}


def test_workers_share_one_database(tmp_path):
    """A row written through a supervisor-side connection before the
    fork is served by *every* worker: one database, not one per
    process.  Unique query strings defeat the shared cache, so each
    request is rendered live by whichever worker accepted it."""
    from repro.core import AMPDeployment
    from repro.core.models import Star
    db_path = str(tmp_path / "portal.sqlite")
    factory = build_prefork_app_factory(
        db_path, str(tmp_path / "cache.sqlite"))
    seeded = AMPDeployment(database_uri=db_path)
    Star(name="Prefork Shared Star", source="local").save(
        db=seeded.databases.admin)
    seeded.close()
    server = PreforkServer(factory, workers=2).start()
    query = urllib.parse.quote("Prefork Shared Star")
    try:
        for _ in range(20):
            # The search hits the serving worker's database before
            # redirecting to the star's detail page.
            status, body = _get(
                server.url + f"/stars/search/?q={query}")
            assert status == 200
            assert b"Prefork Shared Star" in body
    finally:
        statuses = server.shutdown(timeout=10)
    assert set(statuses.values()) == {0}


def test_campaign_post_rejected_anonymously_over_http(server):
    request = urllib.request.Request(
        server.url + "/api/v1/campaigns",
        data=json.dumps({"star": 1, "sweep": {}}).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 401
    body = json.loads(excinfo.value.read())
    assert "Sign in" in body["error"]["message"]
