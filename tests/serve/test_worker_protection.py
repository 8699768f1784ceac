"""Worker self-protection: watchdog, socket timeouts, recycling,
crash-loop backoff, and graceful drain under deadline pressure.

Marked ``serve``: real forks and sockets, excluded from tier-1.
"""

import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import PreforkServer, WATCHDOG_EXIT

pytestmark = pytest.mark.serve


def _tiny_app(body=b"ok"):
    def app(environ, start_response):
        start_response("200 OK", [("Content-Type", "text/plain"),
                                  ("Content-Length", str(len(body)))])
        return [body]
    return app


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read()


def _supervise_until(server, predicate, timeout=15):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        server.supervise_once()
        if predicate():
            return True
        time.sleep(0.05)
    return False


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------

def test_watchdog_kills_wedged_worker_and_supervisor_respawns():
    """A request handler that wedges forever costs the worker its life
    (exit WATCHDOG_EXIT), and the supervisor replaces it."""
    def factory(index):
        def app(environ, start_response):
            if environ["PATH_INFO"] == "/wedge":
                time.sleep(60)           # hangs far past the watchdog
            return _tiny_app()(environ, start_response)
        return app

    server = PreforkServer(factory, workers=1, watchdog_s=0.5)
    server.start()
    try:
        assert _get(server.url + "/")[0] == 200
        first_pid = server.pids[0]
        with pytest.raises((urllib.error.URLError, ConnectionError,
                            socket.timeout, OSError)):
            _get(server.url + "/wedge", timeout=5)
        assert _supervise_until(server,
                                lambda: server.watchdog_exits >= 1)
        assert _supervise_until(server, lambda: 0 in server.pids)
        assert server.pids[0] != first_pid
        # The replacement serves.
        assert _get(server.url + "/")[0] == 200
    finally:
        server.shutdown(timeout=10)


# ----------------------------------------------------------------------
# Socket timeout (slowloris)
# ----------------------------------------------------------------------

def test_slow_client_connection_is_closed_not_held():
    """A client that opens a connection and stops sending loses it
    after the socket timeout; the worker goes on serving others."""
    server = PreforkServer(lambda index: _tiny_app(), workers=1,
                           socket_timeout_s=0.5)
    server.start()
    try:
        slow = socket.create_connection((server.host, server.port),
                                        timeout=10)
        slow.sendall(b"GET / HTTP/1.1\r\n")   # incomplete, then silence
        # Meanwhile real requests keep flowing through the same worker.
        for _ in range(3):
            assert _get(server.url + "/")[0] == 200
        slow.settimeout(10)
        deadline = time.monotonic() + 10
        closed = False
        while time.monotonic() < deadline:
            try:
                if slow.recv(4096) == b"":
                    closed = True
                    break
            except socket.timeout:
                break
        slow.close()
        assert closed, "server never closed the stalled connection"
        assert _get(server.url + "/")[0] == 200
    finally:
        server.shutdown(timeout=10)


# ----------------------------------------------------------------------
# Max-requests recycling
# ----------------------------------------------------------------------

def test_worker_recycles_cleanly_after_max_requests():
    server = PreforkServer(lambda index: _tiny_app(), workers=1,
                           max_requests=3)
    server.start()
    try:
        first_pid = server.pids[0]
        for _ in range(3):
            assert _get(server.url + "/")[0] == 200
        assert _supervise_until(
            server, lambda: server.pids.get(0, first_pid) != first_pid)
        # Recycling is clean: no crash-loop accounting against slot 0.
        assert server._rapid_exits.get(0, 0) == 0
        assert _get(server.url + "/")[0] == 200
    finally:
        server.shutdown(timeout=10)


# ----------------------------------------------------------------------
# Crash-loop backoff
# ----------------------------------------------------------------------

def test_crashlooping_worker_respawns_with_backoff():
    """A worker that dies on startup is not respawned in a tight loop:
    each rapid exit doubles the delay, and a crash-loop event fires
    once the streak hits the threshold."""
    def factory(index):
        raise RuntimeError("broken app factory")

    server = PreforkServer(
        factory, workers=1, rapid_exit_s=5.0, respawn_backoff_base_s=0.2,
        respawn_backoff_max_s=2.0, crashloop_after=3)
    server.start()
    try:
        started = time.monotonic()
        while time.monotonic() - started < 2.5:
            server.supervise_once()
            time.sleep(0.02)
        # Unthrottled, ~125 supervise calls would mean ~125 respawns.
        # Backoff (0.2 + 0.4 + 0.8 + ...) keeps it to a handful.
        assert 1 <= server.respawns <= 8
        assert server._rapid_exits.get(0, 0) >= 3
        events = server.obs.events.of_kind("serve.worker.crashloop")
        assert len(events) == 1
        assert events[0].fields["rapid_exits"] == 3
    finally:
        server._draining = True
        for pid in list(server.pids.values()):
            try:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        server._sock.close()


def test_isolated_crash_respawns_immediately():
    """A worker that served fine for a while and then died is not a
    crash loop: it comes back without delay and without a streak."""
    server = PreforkServer(lambda index: _tiny_app(), workers=1,
                           rapid_exit_s=0.0)   # nothing counts as rapid
    server.start()
    try:
        assert _get(server.url + "/")[0] == 200
        server.kill_worker(0)
        assert _supervise_until(server, lambda: server.respawns == 1)
        assert server._rapid_exits.get(0, 0) == 0
        assert _get(server.url + "/")[0] == 200
    finally:
        server.shutdown(timeout=10)


# ----------------------------------------------------------------------
# Graceful drain with a request in flight near its deadline
# ----------------------------------------------------------------------

def test_drain_completes_in_flight_request_near_deadline():
    """SIGTERM during a slow response: the in-flight request finishes
    (200, full body) and the worker exits cleanly — drain means finish
    your plate, not drop it."""
    def factory(index):
        def app(environ, start_response):
            start_response("200 OK", [("Content-Type", "text/plain"),
                                      ("Content-Length", "4")])
            time.sleep(1.0)              # slow render, deadline looming
            return [b"done"]
        return app

    server = PreforkServer(factory, workers=1, watchdog_s=30.0)
    server.start()
    result = {}

    def slow_request():
        try:
            result["response"] = _get(server.url + "/", timeout=15)
        except Exception as exc:         # noqa: BLE001 - test capture
            result["error"] = exc

    thread = threading.Thread(target=slow_request)
    thread.start()
    time.sleep(0.3)                      # request is mid-render
    statuses = server.shutdown(timeout=10)
    thread.join(timeout=15)
    assert result.get("response") == (200, b"done"), \
        f"in-flight request lost during drain: {result.get('error')}"
    assert set(statuses.values()) == {0}
