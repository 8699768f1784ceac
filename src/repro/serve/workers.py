"""Prefork multi-worker WSGI serving.

The paper's production posture put Django behind Apache's process pool;
this module is that pool, stdlib-only.  The supervisor binds one
listening socket and forks N real worker processes that all ``accept()``
on it — the kernel load-balances connections across them.  Each worker
builds its *own* application (and therefore its own database
connection) after the fork via ``app_factory(worker_index)``, so no
SQLite connection is ever shared across a process boundary.

Lifecycle:

- :meth:`PreforkServer.start` forks the workers;
- :meth:`PreforkServer.supervise_once` reaps and respawns dead workers
  (call it in a loop, or use :meth:`serve_forever`);
- :meth:`PreforkServer.shutdown` drains gracefully: SIGTERM asks each
  worker to finish its in-flight request and exit; stragglers past the
  deadline are killed.

Workers protect themselves so that one bad request cannot take a slot
out of service permanently:

- a **per-request watchdog** (``watchdog_s``) hard-exits a worker whose
  request handler wedges — the supervisor respawns a fresh one;
- a **socket timeout** (``socket_timeout_s``) closes connections that
  stop sending (a slow or dead client cannot hold the accept slot);
- **max-requests recycling** (``max_requests``) retires a worker
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

import os
import signal
import socket
import threading
import time
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer

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


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - wsgiref API
        pass


class _WorkerWSGIServer(WSGIServer):
    """WSGI server running on an inherited (already-listening) socket."""

    allow_reuse_address = True

    def __init__(self, listen_sock, handler_class=_QuietHandler):
        super().__init__(listen_sock.getsockname(), handler_class,
                         bind_and_activate=False)
        self.socket.close()               # the unbound placeholder
        # Every worker wakes on one connection but only one wins the
        # accept(); on a blocking socket the losers would sit in
        # accept() — deaf to the drain flag — until the next client.
        # Non-blocking, the lost race is an OSError socketserver
        # already ignores.  (Accepted connections stay blocking.)
        listen_sock.setblocking(False)
        self.socket = listen_sock
        host, port = listen_sock.getsockname()[:2]
        self.server_name = host
        self.server_port = port
        self.setup_environ()


class _RequestGuard:
    """WSGI wrapper arming the worker's per-request self-protection.

    Wraps the real app inside the worker: each call arms a watchdog
    timer that ``os._exit(WATCHDOG_EXIT)``'s the whole process if the
    request (view *and* response iteration) outlives ``watchdog_s`` —
    a wedged worker is worth less than a dead one, because the dead
    one gets respawned.  Also counts requests and asks the server to
    shut down cleanly once ``max_requests`` have been served (the
    supervisor respawns; exit 0 carries no crash stigma).
    """

    def __init__(self, app, server, *, watchdog_s=None,
                 max_requests=None):
        self.app = app
        self.server = server
        self.watchdog_s = watchdog_s
        self.max_requests = max_requests
        self.requests_served = 0

    def _recycle(self):
        # shutdown() blocks until serve_forever returns, so it must not
        # run on the request thread that serve_forever is waiting on.
        threading.Thread(target=self.server.shutdown,
                         daemon=True).start()

    def __call__(self, environ, start_response):
        timer = None
        if self.watchdog_s is not None:
            timer = threading.Timer(self.watchdog_s, os._exit,
                                    (WATCHDOG_EXIT,))
            timer.daemon = True
            timer.start()
        try:
            yield from self.app(environ, start_response)
        finally:
            if timer is not None:
                timer.cancel()
            self.requests_served += 1
            if self.max_requests is not None \
                    and self.requests_served >= self.max_requests:
                self._recycle()


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
    def _handler_class(self):
        if self.socket_timeout_s is None:
            return _QuietHandler
        # BaseRequestHandler honours a class-level ``timeout`` by
        # calling settimeout() on the accepted connection; a read that
        # then blocks past it raises, handle_one_request closes the
        # connection, and the slowloris client is gone.
        return type("_TimeoutHandler", (_QuietHandler,),
                    {"timeout": self.socket_timeout_s})

    def _worker_main(self, index):   # pragma: no cover - child process
        status = 1
        try:
            # A drain request during startup (before the server exists,
            # so before anything can be in flight) is a clean exit —
            # without this, a SIGTERM racing the app build would kill
            # the worker with the signal's default action.
            signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            app = self.app_factory(index)
            server = _WorkerWSGIServer(
                self._sock, handler_class=self._handler_class())
            server.set_app(_RequestGuard(
                app, server, watchdog_s=self.watchdog_s,
                max_requests=self.max_requests))
            # Graceful drain: finish the in-flight request, then stop
            # accepting.  shutdown() must not run on the signal frame
            # (it blocks until serve_forever exits), so hand it to a
            # thread.
            def drain(signum, frame):
                threading.Thread(target=server.shutdown,
                                 daemon=True).start()
            signal.signal(signal.SIGTERM, drain)
            server.serve_forever(poll_interval=0.05)
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
