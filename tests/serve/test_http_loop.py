"""The prefork worker's own HTTP loop: what it hands the app, what it
answers by itself, and what it costs per request.

The in-process tests drive :class:`repro.serve.workers._Worker` on a
thread over a loopback socket; the watchdog tests fork through
:class:`PreforkServer`, because a watchdog that fires ends its process.

Marked ``serve``: real sockets (and, for the watchdog, real forks).
"""

import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from wsgiref.handlers import read_environ
from wsgiref.simple_server import (ServerHandler, WSGIRequestHandler,
                                   WSGIServer)

import pytest

import repro
from repro.serve import PreforkServer
from repro.serve.workers import MAX_HEAD_BYTES, _Worker

pytestmark = pytest.mark.serve


def _listener():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    return listener


def _send(address, chunks, pause_s=0.05):
    """Send *chunks* on one connection (pausing between them), read the
    response to end of stream; returns ``(status, head, body)``."""
    client = socket.create_connection(address, timeout=10)
    try:
        for index, chunk in enumerate(chunks):
            if index:
                time.sleep(pause_s)
            client.sendall(chunk)
        received = []
        while chunk := client.recv(65536):
            received.append(chunk)
    finally:
        client.close()
    head, _, body = b"".join(received).partition(b"\r\n\r\n")
    return int(head[9:12]), head, body


class _Loop:
    """A ``_Worker`` serving on a thread until :meth:`stop`."""

    def __init__(self, app, **options):
        self.listener = _listener()
        self.address = self.listener.getsockname()
        self.worker = _Worker(app, self.listener, **options)
        self.thread = threading.Thread(target=self.worker.run,
                                       daemon=True)
        self.thread.start()

    def get(self, path):
        return _send(self.address,
                     [f"GET {path} HTTP/1.0\r\n\r\n".encode()])

    def stop(self):
        self.worker.drain()
        self.thread.join(timeout=5)
        self.listener.close()
        assert not self.thread.is_alive()


@pytest.fixture()
def serving():
    loops = []

    def start(app, **options):
        loops.append(_Loop(app, **options))
        return loops[-1]

    yield start
    for loop in loops:
        loop.stop()


def _ok(body=b"ok"):
    def app(environ, start_response):
        start_response("200 OK", [("Content-Type", "text/plain")])
        return [body]
    return app


# ----------------------------------------------------------------------
# Environ parity with wsgiref
# ----------------------------------------------------------------------

#: What may differ from the environ ``wsgiref`` built: the banner, the
#: empty reverse-lookup slot, the optional file wrapper, and the two
#: stream objects (compared by what the app reads, not by identity).
ALLOWED_DIFFERENCES = {"SERVER_SOFTWARE", "REMOTE_HOST",
                       "wsgi.file_wrapper", "wsgi.input", "wsgi.errors"}

BODY = b"name=run+1&mass=1.05&note=%E2%98%85"

RAW_REQUESTS = {
    "query and escapes": [
        b"GET /stars/search/%C3%A9toile%20x?q=HD%20186427&f=%2F&q=2 "
        b"HTTP/1.0\r\nHost: 127.0.0.1\r\nUser-Agent: parity\r\n\r\n"],
    "post in two sends": [
        b"POST /simulations/new/ HTTP/1.0\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/x-www-form-urlencoded\r\n"
        b"Content-Length: " + str(len(BODY)).encode() + b"\r\n\r\n"
        + BODY[:10],
        BODY[10:]],
    "cookie": [
        b"GET /simulations/ HTTP/1.0\r\nHost: 127.0.0.1\r\n"
        b"Cookie: sessionid=abc123; csrftoken=xyz\r\n\r\n"],
    "repeated header": [
        b"GET / HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: text/html\r\n"
        b"X-Forwarded-For: 10.0.0.1\r\nAccept: application/json\r\n"
        b"X-Forwarded-For:  10.0.0.2 \r\n\r\n"],
}


def _recording_app(seen):
    def app(environ, start_response):
        length = int(environ.get("CONTENT_LENGTH") or 0)
        seen.append(dict(environ, body=environ["wsgi.input"].read(length)))
        start_response("200 OK", [("Content-Type", "text/plain")])
        return [b"seen"]
    return app


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - wsgiref API
        pass


def _environ_from_wsgiref(listener, chunks):
    """The environ ``wsgiref`` builds, configured as the prefork worker
    used to configure it: on the inherited socket, named by its IP."""
    seen = []
    server = WSGIServer(listener.getsockname(), _QuietHandler,
                        bind_and_activate=False)
    server.socket.close()
    server.socket = listener
    server.server_name, server.server_port = listener.getsockname()
    server.setup_environ()
    server.set_app(_recording_app(seen))
    handler = threading.Thread(target=server.handle_request)
    handler.start()
    assert _send(listener.getsockname(), chunks)[0] == 200
    handler.join(timeout=5)
    assert not handler.is_alive()
    return seen[0]


def _environ_from_loop(listener, chunks):
    seen = []
    worker = _Worker(_recording_app(seen), listener, socket_timeout_s=5)
    listener.setblocking(True)
    handler = threading.Thread(
        target=lambda: worker.serve(*listener.accept()))
    handler.start()
    assert _send(listener.getsockname(), chunks)[0] == 200
    handler.join(timeout=5)
    assert not handler.is_alive()
    return seen[0]


@pytest.mark.parametrize("https", [False, True], ids=["http", "https"])
@pytest.mark.parametrize("name", sorted(RAW_REQUESTS))
def test_environ_matches_wsgiref(name, https, monkeypatch):
    if https:
        monkeypatch.setenv("HTTPS", "on")
    else:
        monkeypatch.delenv("HTTPS", raising=False)
    # wsgiref snapshots os.environ when it is imported; take the
    # snapshot again so both servers start from the same environment.
    monkeypatch.setattr(ServerHandler, "os_environ", read_environ())
    listener = _listener()
    try:
        reference = _environ_from_wsgiref(listener, RAW_REQUESTS[name])
        ours = _environ_from_loop(listener, RAW_REQUESTS[name])
    finally:
        listener.close()
    assert ours["wsgi.url_scheme"] == ("https" if https else "http")
    for key in ALLOWED_DIFFERENCES:
        reference.pop(key, None)
        ours.pop(key, None)
    assert ours == reference


# ----------------------------------------------------------------------
# What the loop answers by itself
# ----------------------------------------------------------------------

def test_malformed_request_line_gets_400(serving):
    loop = serving(_ok(), socket_timeout_s=5)
    for line in (b"GARBAGE\r\n\r\n", b"GET /\r\n\r\n",
                 b"GET / SPDY/3\r\n\r\n"):
        assert _send(loop.address, [line])[0] == 400
    assert loop.get("/")[0] == 200


@pytest.mark.parametrize("header", [b"no colon here", b" folded: line",
                                    b"Content-Length: -3",
                                    b"Content-Length: many"])
def test_malformed_header_gets_400(serving, header):
    loop = serving(_ok(), socket_timeout_s=5)
    assert _send(loop.address,
                 [b"POST / HTTP/1.0\r\n" + header + b"\r\n\r\n"])[0] == 400


def test_body_cut_short_gets_400(serving):
    loop = serving(_ok(), socket_timeout_s=5)
    client = socket.create_connection(loop.address, timeout=10)
    client.sendall(b"POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nabc")
    client.shutdown(socket.SHUT_WR)
    assert client.recv(65536).startswith(b"HTTP/1.0 400 ")
    client.close()


def test_head_over_64_kib_gets_431(serving):
    loop = serving(_ok(), socket_timeout_s=5)
    # Far over the limit, most of the head is never read: the answer
    # must still reach the client instead of a connection reset.
    for size in (MAX_HEAD_BYTES, 4 * MAX_HEAD_BYTES):
        status, _, _ = _send(
            loop.address, [b"GET / HTTP/1.0\r\nX-Filler: " + b"a" * size
                           + b"\r\n\r\n"])
        assert status == 431
    # Just under the limit is still a request.
    fits = b"a" * (MAX_HEAD_BYTES - 200)
    assert _send(loop.address, [b"GET / HTTP/1.0\r\nX-Filler: " + fits
                                + b"\r\n\r\n"])[0] == 200


def test_raising_app_gets_500_and_the_next_request_is_served(serving):
    def app(environ, start_response):
        if environ["PATH_INFO"] == "/boom":
            raise RuntimeError("view blew up")
        return _ok()(environ, start_response)

    loop = serving(app, socket_timeout_s=5)
    status, _, body = loop.get("/boom")
    assert status == 500
    assert b"view blew up" not in body
    assert loop.get("/")[0] == 200


class _RecordingConnection:
    """Stands in for an accepted socket: counts reads and sends."""

    def __init__(self, request):
        self.incoming = [request]
        self.reads = 0
        self.sent = []

    def settimeout(self, seconds):
        pass

    def recv(self, size):
        self.reads += 1
        return self.incoming.pop(0) if self.incoming else b""

    def sendall(self, data):
        self.sent.append(data)

    def close(self):
        pass


def test_request_is_one_read_and_response_one_send():
    listener = _listener()
    try:
        worker = _Worker(_ok(b"hello"), listener)
        conn = _RecordingConnection(b"GET / HTTP/1.0\r\nHost: x\r\n\r\n")
        worker.serve(conn, ("127.0.0.1", 40000))
    finally:
        listener.close()
    assert conn.reads == 1
    assert len(conn.sent) == 1
    head, _, body = conn.sent[0].partition(b"\r\n\r\n")
    assert body == b"hello"
    lines = head.split(b"\r\n")
    assert lines[0] == b"HTTP/1.0 200 OK"
    # Date and Content-Length added; no Server banner.
    names = [line.split(b":", 1)[0].lower() for line in lines[1:]]
    assert sorted(names) == [b"content-length", b"content-type", b"date"]
    assert b"Content-Length: 5" in lines


# ----------------------------------------------------------------------
# What a request costs the worker
# ----------------------------------------------------------------------

def test_no_thread_per_request(serving):
    loop = serving(_ok(), socket_timeout_s=5, watchdog_s=30.0)
    assert loop.get("/")[0] == 200
    after_first = threading.active_count()
    for _ in range(49):
        assert loop.get("/")[0] == 200
    assert threading.active_count() == after_first


def test_max_requests_returns_from_the_loop(serving):
    loop = serving(_ok(), socket_timeout_s=5, max_requests=3)
    for _ in range(3):
        assert loop.get("/")[0] == 200
    loop.thread.join(timeout=5)
    assert not loop.thread.is_alive()


def test_import_loads_no_stdlib_http_server():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve.workers\n"
         "print(sorted(m for m in ('wsgiref', 'http.server',"
         " 'socketserver', 'email.parser') if m in sys.modules))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src)).stdout
    assert loaded.strip() == "[]"


# ----------------------------------------------------------------------
# The watchdog deadline (forked: a firing watchdog ends its process)
# ----------------------------------------------------------------------

def _sleeping_app(environ, start_response):
    seconds = float(environ["QUERY_STRING"] or 0)
    time.sleep(seconds)           # in C, with the GIL released
    return _ok()(environ, start_response)


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status


def test_deadline_is_cleared_after_the_request():
    """A request that ends at 0.8 x the budget, then 2 x the budget of
    idling: the deadline it armed must not outlive it."""
    watchdog_s = 1.0
    server = PreforkServer(lambda index: _sleeping_app, workers=1,
                           watchdog_s=watchdog_s).start()
    try:
        pid = server.pids[0]
        assert _get(f"{server.url}/?{0.8 * watchdog_s}") == 200
        time.sleep(2 * watchdog_s)
        server.supervise_once()
        assert server.watchdog_exits == 0
        assert server.pids[0] == pid
        assert _get(server.url + "/") == 200
    finally:
        statuses = server.shutdown(timeout=10)
    assert statuses == {0: 0}


def test_watchdog_fires_within_its_bound_while_the_gil_is_free():
    watchdog_s = 1.0
    bound_s = watchdog_s + min(1.0, watchdog_s / 4)
    server = PreforkServer(lambda index: _sleeping_app, workers=1,
                           watchdog_s=watchdog_s).start()
    try:
        client = socket.create_connection((server.host, server.port),
                                          timeout=10)
        started = time.monotonic()
        client.sendall(b"GET /?60 HTTP/1.0\r\n\r\n")
        try:
            assert client.recv(65536) == b""     # closed, no response
        except ConnectionResetError:
            pass
        finally:
            client.close()
        # Slack for the exit, the close and a loaded host.
        assert time.monotonic() - started < bound_s + 0.5
        deadline = time.monotonic() + 10
        while server.watchdog_exits == 0:
            assert time.monotonic() < deadline
            server.supervise_once()
            time.sleep(0.05)
    finally:
        server.shutdown(timeout=10)
