"""Prefork multi-worker WSGI serving.

The paper's production posture put Django behind Apache's process pool;
this module is that pool, stdlib-only.  The supervisor binds one
listening socket and forks N real worker processes that all ``accept()``
on it — the kernel load-balances connections across them.  Each worker
builds its *own* application (and therefore its own database
connection) after the fork via ``app_factory(worker_index)``, so no
SQLite connection is ever shared across a process boundary.

Each worker runs one small loop of its own: poll the listening
socket, accept, read the request head straight off the socket (split
as bytes and str, no ``email`` parsing) and the body to
``Content-Length``, build the environ from a base made once per worker
(``os.environ`` plus the server variables, so ``HTTPS=on`` yields
``wsgi.url_scheme = "https"``), call the app, and send the status
line, headers, ``Date``, ``Content-Length`` and body in **one**
``sendall``.  HTTP/1.0, one request per connection, no ``Server``
banner.  The loop answers a malformed request line 400, a head over
:data:`MAX_HEAD_BYTES` 431, and an app that raises 500.

Lifecycle:

- :meth:`PreforkServer.start` forks the workers;
- :meth:`PreforkServer.supervise_once` reaps and respawns dead workers
  (call it in a loop, or use :meth:`serve_forever`);
- :meth:`PreforkServer.shutdown` drains gracefully: SIGTERM sets each
  worker's drain flag, so it finishes its in-flight request and exits;
  stragglers past the deadline are killed.

Workers protect themselves so that one bad request cannot take a slot
out of service permanently:

- a **per-request watchdog** (``watchdog_s``) hard-exits a worker whose
  request handler wedges — the supervisor respawns a fresh one.  A
  request arms it by writing a deadline that one long-lived thread
  per worker checks; no thread is started per request;
- a **socket timeout** (``socket_timeout_s``) closes connections that
  stop sending (a slow or dead client cannot hold the accept slot);
- **max-requests recycling** (``max_requests``) returns from the loop
  cleanly after N requests, bounding the damage of any slow leak.

And the supervisor protects the fleet from a *broken* worker: an exit
within ``rapid_exit_s`` of spawn counts toward a crash loop; each
consecutive rapid exit doubles a respawn backoff (``serve.worker.
crashloop`` fires once the streak reaches ``crashloop_after``), so a
worker that dies on startup cannot pin a CPU respawning in a tight
loop.  The parent process never serves requests; it only supervises.
Worker liveness is exported as gauges (``serve_workers_alive``,
``serve_worker_up{worker=...}``) on the supervisor's own observability
facade (:attr:`PreforkServer.obs`, on wall time).
"""

from __future__ import annotations

import io
import os
import select
import signal
import socket
import sys
import threading
import time
import traceback
from urllib.parse import unquote

from ..obs import Observability

#: Exit status a worker uses when its own watchdog fires: the request
#: handler wedged past the watchdog budget and the worker shot itself
#: rather than hold the slot.  Distinct from 0 (clean drain/recycle)
#: and 1 (crash) so the supervisor can tell the stories apart.
WATCHDOG_EXIT = 66

#: The one help string for the per-worker liveness gauge.  Every
#: registration site goes through :func:`_worker_up_gauge`; the metrics
#: registry keeps the first help it sees, so registering with
#: divergent strings (as earlier revisions did) made the exported help
#: depend on call order.
_WORKER_UP_HELP = "1 while this worker process is serving"


def _worker_up_gauge(obs):
    return obs.metrics.gauge("serve_worker_up", help=_WORKER_UP_HELP)


class WallClock:
    """Wall-time stand-in for deployments without a virtual clock
    (the prefork runner serving real HTTP)."""

    @property
    def now(self):
        return time.monotonic()


#: A request head (request line plus headers) longer than this is
#: answered 431 — the per-line limit ``http.server`` applied.
MAX_HEAD_BYTES = 64 * 1024

#: Milliseconds an idle worker waits on the listening socket before it
#: looks at its drain flag again.
_POLL_MS = 50

#: Longest a refused request's unread input is drained before close.
_LINGER_S = 1.0

_REASONS = {400: "Bad Request", 431: "Request Header Fields Too Large",
            500: "Internal Server Error"}

#: Environ keys the server sets; a header that would map onto one is
#: dropped, as the stdlib's WSGI server drops it (``Content-Type`` and
#: ``Content-Length`` are read into two of them).
_CGI_KEYS = frozenset({
    "SERVER_NAME", "SERVER_PORT", "SERVER_PROTOCOL", "SERVER_SOFTWARE",
    "GATEWAY_INTERFACE", "SCRIPT_NAME", "REQUEST_METHOD", "PATH_INFO",
    "QUERY_STRING", "REMOTE_ADDR", "REMOTE_HOST", "CONTENT_TYPE",
    "CONTENT_LENGTH"})

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
           "Sep", "Oct", "Nov", "Dec")


def _http_date():
    t = time.gmtime()
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]}"
            f" {t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}"
            " GMT")


def _response(status, headers, chunks):
    """One HTTP/1.0 response as bytes: status line, the app's headers,
    ``Date`` and ``Content-Length`` unless the app set them, body."""
    lines = [f"HTTP/1.0 {status}\r\n"]
    named = set()
    for name, value in headers:
        named.add(name.lower())
        lines.append(f"{name}: {value}\r\n")
    if "date" not in named:
        lines.append(f"Date: {_http_date()}\r\n")
    if "content-length" not in named:
        lines.append(f"Content-Length: {sum(map(len, chunks))}\r\n")
    lines.append("\r\n")
    return b"".join(["".join(lines).encode("iso-8859-1"), *chunks])


def _refusal(code):
    reason = _REASONS[code]
    return _response(f"{code} {reason}", [("Content-Type", "text/plain")],
                     [f"{code} {reason}\n".encode()])


def _linger(conn):
    """Half-close after a refusal, then read what the client still
    sends for up to :data:`_LINGER_S`: closing with unread input would
    reset the connection before the client reads the answer."""
    conn.shutdown(socket.SHUT_WR)
    conn.settimeout(_LINGER_S)
    until = time.monotonic() + _LINGER_S
    while time.monotonic() < until and conn.recv(65536):
        pass


class _Refused(Exception):
    """A request the loop answers itself (``args[0]``: the status code),
    without calling the app."""


class _Worker:
    """One worker process's serving loop over the inherited socket.

    :meth:`run` accepts and hands each connection to :meth:`serve`:
    one ``recv`` for the head (more only for a long head or body), one
    app call, one ``sendall``, close.  It returns once :attr:`draining`
    is set (SIGTERM) or after ``max_requests`` connections.

    The watchdog is one thread per worker, started by :meth:`run`.  A
    request arms it by writing :attr:`deadline` and disarms it by
    clearing it; the thread looks every ``min(1 s, watchdog_s / 4)``
    and ends the process with ``os._exit(WATCHDOG_EXIT)`` once a
    deadline has passed.  It sleeps in ``time.sleep``, so it fires
    while the main thread waits in C with the GIL released (a sleeping
    view, SQLite's busy wait).
    """

    def __init__(self, app, listen_sock, *, watchdog_s=None,
                 max_requests=None, socket_timeout_s=None):
        self.app = app
        # Every worker wakes on one connection but only one wins the
        # accept(); on a blocking socket the losers would sit in
        # accept() — deaf to the drain flag — until the next client.
        # Non-blocking, the lost race is an OSError :meth:`accept`
        # ignores.  (Accepted connections stay blocking.)
        listen_sock.setblocking(False)
        self.sock = listen_sock
        self.watchdog_s = watchdog_s
        self.max_requests = max_requests
        self.socket_timeout_s = socket_timeout_s
        #: Set by SIGTERM: finish the request in hand, then return.
        self.draining = False
        #: ``time.monotonic()`` past which the watchdog kills the
        #: process; None between requests.
        self.deadline = None
        self._stopped = False
        host, port = listen_sock.getsockname()[:2]
        # Made once: each request copies it and adds its own keys.
        self.base_environ = dict(os.environ)
        self.base_environ.update({
            "SERVER_NAME": host, "SERVER_PORT": str(port),
            "GATEWAY_INTERFACE": "CGI/1.1", "SCRIPT_NAME": "",
            "CONTENT_LENGTH": "",
            "wsgi.version": (1, 0), "wsgi.errors": sys.stderr,
            "wsgi.url_scheme":
                "https" if os.environ.get("HTTPS") in ("yes", "on", "1")
                else "http",
            "wsgi.multithread": False, "wsgi.multiprocess": False,
            "wsgi.run_once": False})

    def drain(self, *_signal):
        self.draining = True

    def accept(self):
        """The next queued ``(connection, address)``, or None when a
        sibling won the race for it."""
        try:
            return self.sock.accept()
        except OSError:
            return None

    def run(self):
        """Serve until drained or recycled."""
        if self.watchdog_s is not None:
            threading.Thread(target=self._watch, name="watchdog",
                             daemon=True).start()
        ready = select.poll()
        ready.register(self.sock, select.POLLIN)
        served = 0
        try:
            while not self.draining:
                if not ready.poll(_POLL_MS):
                    continue
                accepted = self.accept()
                if accepted is None:
                    continue
                self.serve(*accepted)
                served += 1
                if self.max_requests is not None \
                        and served >= self.max_requests:
                    break
        finally:
            self._stopped = True

    def _watch(self):
        tick = min(1.0, self.watchdog_s / 4)
        while not self._stopped:
            time.sleep(tick)
            deadline = self.deadline
            if deadline is not None and time.monotonic() >= deadline:
                os._exit(WATCHDOG_EXIT)

    def serve(self, conn, address):
        """Answer one connection and close it.  A client that times out
        or goes away mid-request gets nothing."""
        try:
            conn.settimeout(self.socket_timeout_s)
            try:
                environ = self._read_request(conn, address)
            except _Refused as refused:
                conn.sendall(_refusal(refused.args[0]))
                _linger(conn)
                return
            if environ is not None:
                conn.sendall(self._call_app(environ))
        except OSError:
            pass
        finally:
            self.deadline = None
            conn.close()

    def _read_request(self, conn, address):
        """The WSGI environ for the request on *conn*; None when the
        client closed before finishing its head."""
        data = b""
        while (end := data.find(b"\r\n\r\n")) < 0:
            if len(data) > MAX_HEAD_BYTES:
                raise _Refused(431)
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        if end > MAX_HEAD_BYTES:
            raise _Refused(431)
        lines = data[:end].decode("iso-8859-1").split("\r\n")
        words = lines[0].split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise _Refused(400)
        method, target, version = words
        if target.startswith("//"):     # not a scheme-relative URL
            target = "/" + target.lstrip("/")
        path, _, query = target.partition("?")
        request = {"REQUEST_METHOD": method, "SERVER_PROTOCOL": version,
                   "PATH_INFO": unquote(path, "iso-8859-1"),
                   "QUERY_STRING": query, "REMOTE_ADDR": address[0]}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon or name[:1] in " \t":   # also obs-fold lines
                raise _Refused(400)
            key = name.replace("-", "_").upper()
            value = value.strip()
            if key in ("CONTENT_TYPE", "CONTENT_LENGTH"):
                request.setdefault(key, value)       # the first wins
            elif key not in _CGI_KEYS:
                key = "HTTP_" + key
                # Repeated headers join with commas.
                request[key] = (request[key] + "," + value
                                if key in request else value)
        request.setdefault("CONTENT_TYPE", "text/plain")
        body = data[end + 4:]
        if request.get("CONTENT_LENGTH"):
            try:
                length = int(request["CONTENT_LENGTH"])
            except ValueError:
                raise _Refused(400) from None
            if length < 0:
                raise _Refused(400)
            parts = [body]
            received = len(body)
            while received < length:
                chunk = conn.recv(min(65536, length - received))
                if not chunk:
                    raise _Refused(400)
                parts.append(chunk)
                received += len(chunk)
            body = b"".join(parts)[:length]
        else:
            body = b""
        environ = self.base_environ.copy()
        environ.update(request)
        environ["wsgi.input"] = io.BytesIO(body)
        return environ

    def _call_app(self, environ):
        """The app's whole response as bytes; 500 if it raises."""
        started = []
        chunks = []

        def start_response(status, headers, exc_info=None):
            # Nothing is sent before the body is complete, so a later
            # call (with *exc_info*) simply replaces the first.
            started[:] = [status, headers]
            return chunks.append

        if self.watchdog_s is not None:
            self.deadline = time.monotonic() + self.watchdog_s
        try:
            result = self.app(environ, start_response)
            try:
                chunks.extend(result)
            finally:
                if hasattr(result, "close"):
                    result.close()
            status, headers = started
        except Exception:
            traceback.print_exc()
            return _refusal(500)
        return _response(status, headers, chunks)


def mark_worker_process(obs, index):
    """Stamp this process's identity gauges (called inside a worker)."""
    _worker_up_gauge(obs).labels(worker=str(index)).set(1)


class PreforkServer:
    """Fork-per-worker HTTP serving over one shared listening socket.

    Parameters
    ----------
    app_factory:
        ``app_factory(worker_index) -> WSGI app``, called *inside* each
        worker after the fork.  This is where per-worker database
        connections are (re)opened.
    workers:
        Number of worker processes.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port`).
    watchdog_s:
        Per-request wall-clock budget inside each worker; a handler
        that outlives it costs the worker its life (exit
        :data:`WATCHDOG_EXIT`) and the supervisor respawns.  None
        disables.
    max_requests:
        Requests one worker serves before recycling itself cleanly.
        None disables.
    socket_timeout_s:
        Per-connection socket timeout inside workers; a client that
        stops sending loses its connection instead of holding the
        handler.  None disables.
    rapid_exit_s / respawn_backoff_base_s / respawn_backoff_max_s /
    crashloop_after:
        Crash-loop policy: a non-clean exit within ``rapid_exit_s`` of
        spawn grows a per-slot backoff (base doubling, capped) before
        the respawn; ``crashloop_after`` consecutive rapid exits emit
        a ``serve.worker.crashloop`` event.
    time_source:
        Monotonic-seconds callable (test seam; real deployments keep
        ``time.monotonic`` — worker uptime is real OS time, not
        simulation time).
    """

    def __init__(self, app_factory, *, workers=2, host="127.0.0.1",
                 port=0, backlog=64, watchdog_s=None,
                 max_requests=None, socket_timeout_s=10.0,
                 rapid_exit_s=1.0, respawn_backoff_base_s=0.5,
                 respawn_backoff_max_s=30.0, crashloop_after=3,
                 time_source=time.monotonic):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.app_factory = app_factory
        self.n_workers = int(workers)
        #: The supervisor's own facade: worker gauges, respawn,
        #: watchdog and crash-loop telemetry.
        self.obs = Observability(WallClock())
        self.watchdog_s = watchdog_s
        self.max_requests = max_requests
        self.socket_timeout_s = socket_timeout_s
        self.rapid_exit_s = float(rapid_exit_s)
        self.respawn_backoff_base_s = float(respawn_backoff_base_s)
        self.respawn_backoff_max_s = float(respawn_backoff_max_s)
        self.crashloop_after = int(crashloop_after)
        self._time = time_source
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self.host, self.port = self._sock.getsockname()[:2]
        self.pids = {}         # worker index -> pid
        self.respawns = 0
        self.watchdog_exits = 0
        self._draining = False
        self._spawned_at = {}  # worker index -> time_source() at spawn
        self._rapid_exits = {}  # worker index -> consecutive rapid exits
        self._respawn_at = {}  # worker index -> earliest respawn time

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    # -- worker side ---------------------------------------------------
    def _worker_main(self, index):   # pragma: no cover - child process
        status = 1
        try:
            # A drain request during startup (before the loop exists,
            # so before anything can be in flight) is a clean exit —
            # without this, a SIGTERM racing the app build would kill
            # the worker with the signal's default action.
            signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            worker = _Worker(self.app_factory(index), self._sock,
                             watchdog_s=self.watchdog_s,
                             max_requests=self.max_requests,
                             socket_timeout_s=self.socket_timeout_s)
            # Graceful drain: the handler only sets the flag; the loop
            # finishes the request in hand and returns.
            signal.signal(signal.SIGTERM, worker.drain)
            worker.run()
            status = 0
        finally:
            # Never unwind into the parent's interpreter state (test
            # harness, atexit hooks): a forked worker always _exits.
            os._exit(status)

    # -- supervisor side -----------------------------------------------
    def _fork(self):
        return os.fork()     # seam: tests stub this to count spawns

    def _spawn(self, index):
        pid = self._fork()
        if pid == 0:
            self._worker_main(index)     # never returns
        self.pids[index] = pid
        self._spawned_at[index] = self._time()
        self._respawn_at.pop(index, None)
        _worker_up_gauge(self.obs).labels(worker=str(index)).set(1)
        return pid

    def start(self):
        for index in range(self.n_workers):
            self._spawn(index)
        self._update_alive_gauge()
        return self

    def _update_alive_gauge(self):
        self.obs.metrics.gauge(
            "serve_workers_alive",
            help="Live worker processes").set(len(self.pids))

    def _respawn_delay(self, index, exitcode, uptime):
        """Crash-loop accounting; returns seconds to wait before the
        respawn (0 = immediately)."""
        if exitcode == 0:
            # Clean exit: drain or max-requests recycle, no stigma.
            self._rapid_exits.pop(index, None)
            return 0.0
        if uptime is not None and uptime >= self.rapid_exit_s:
            # Died, but served for a while first: an isolated crash,
            # not a loop.  Streak over.
            self._rapid_exits.pop(index, None)
            return 0.0
        streak = self._rapid_exits.get(index, 0) + 1
        self._rapid_exits[index] = streak
        delay = min(self.respawn_backoff_max_s,
                    self.respawn_backoff_base_s * (2 ** (streak - 1)))
        if streak == self.crashloop_after:
            self.obs.events.emit(
                "serve.worker.crashloop", worker=index,
                rapid_exits=streak, backoff_s=round(delay, 3))
        return delay

    def supervise_once(self):
        """Reap exited workers; respawn them unless draining.

        A worker that exited cleanly (drain, recycle) or after a decent
        uptime respawns immediately; rapid non-clean exits respawn
        after an exponential backoff so a crash-looping factory cannot
        spin the supervisor.  Returns the list of worker indexes
        respawned *this call* (backed-off slots respawn on a later
        call, once their delay elapses).
        """
        now = self._time()
        respawned = []
        for index, pid in list(self.pids.items()):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done == 0:
                continue
            exitcode = os.waitstatus_to_exitcode(status)
            spawned_at = self._spawned_at.pop(index, None)
            uptime = None if spawned_at is None else now - spawned_at
            del self.pids[index]
            _worker_up_gauge(self.obs).labels(worker=str(index)).set(0)
            if exitcode == WATCHDOG_EXIT:
                self.watchdog_exits += 1
                self.obs.metrics.counter(
                    "serve_worker_watchdog_exits_total",
                    help="Workers that shot themselves after a "
                         "wedged request").inc()
                self.obs.events.emit("serve.worker.watchdog",
                                     worker=index)
            if self._draining:
                continue
            delay = self._respawn_delay(index, exitcode, uptime)
            if delay > 0.0:
                self._respawn_at[index] = now + delay
            else:
                self._respawn_at[index] = now   # due immediately
        # Respawn every slot whose (possibly zero) delay has elapsed.
        for index, due in list(self._respawn_at.items()):
            if self._draining:
                break
            if now >= due:
                self._spawn(index)
                self.respawns += 1
                respawned.append(index)
                self.obs.metrics.counter(
                    "serve_worker_respawns_total",
                    help="Workers respawned after unexpected exit").inc()
                self.obs.events.emit("serve.worker.respawn", worker=index)
        self._update_alive_gauge()
        return respawned

    def serve_forever(self, poll_interval=0.5):  # pragma: no cover
        """Supervise until interrupted (the CLI's blocking loop)."""
        try:
            while True:
                self.supervise_once()
                time.sleep(poll_interval)
        except KeyboardInterrupt:
            self.shutdown()

    def kill_worker(self, index):
        """Hard-kill one worker (the soak harness's crash injector)."""
        os.kill(self.pids[index], signal.SIGKILL)

    def shutdown(self, timeout=10.0):
        """Graceful drain: returns {index: exit_status} once all exit."""
        self._draining = True
        self._respawn_at.clear()
        for pid in self.pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        statuses = {}
        for index, pid in list(self.pids.items()):
            remaining = deadline - time.monotonic()
            statuses[index] = self._reap(pid, max(0.0, remaining))
            del self.pids[index]
            self._spawned_at.pop(index, None)
            _worker_up_gauge(self.obs).labels(worker=str(index)).set(0)
        self._update_alive_gauge()
        self._sock.close()
        return statuses

    @staticmethod
    def _reap(pid, timeout):
        deadline = time.monotonic() + timeout
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status)
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                _, status = os.waitpid(pid, 0)
                return os.waitstatus_to_exitcode(status)
            time.sleep(0.02)
