"""Child process hosting the portal the way ``repro.cli serve`` does.

``build_prefork_app_factory`` + ``PreforkServer(workers=2)`` with the
CLI's watchdog and socket-timeout defaults, over a database file the
parent prepared.  The parent starts this process with ``HTTPS=on`` in
its environment — what Apache sets behind TLS, and what ``wsgiref``
copies into every request — so session-bearing requests are served
instead of redirected.

Protocol: one JSON line on stdout once the workers are forked
(``port``, ``pid``, ``workers``); any line (or EOF) on stdin drains the
server; one JSON line with the workers' exit statuses follows.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time

from . import use_source_tree

WORKERS = 2             # the ``cli serve`` default, not scaled with nproc
WATCHDOG_S = 30.0       # ``cli serve --watchdog`` default
SOCKET_TIMEOUT_S = 10.0  # ``cli serve --socket-timeout`` default


def traced_factory(app_factory, trace_dir):
    """The worker app factory with span wrappers installed after it.

    Runs inside each worker, after the fork.  A worker leaves through
    ``os._exit`` once it has drained (it must not unwind into the
    supervisor's interpreter state), so that is where its spans are
    written out.
    """
    from .tracing import Recorder, install_portal

    def factory(index):
        recorder = Recorder()
        started = time.perf_counter()
        app = app_factory(index)
        boot_ms = (time.perf_counter() - started) * 1000.0
        traced_app = install_portal(recorder, app)
        leave = os._exit

        def dump_and_leave(status):
            recorder.dump(os.path.join(trace_dir, f"worker-{index}.json"),
                          worker=index, boot_ms=boot_ms,
                          shed=app.admission.shed_total)
            leave(status)

        os._exit = dump_and_leave
        return traced_app

    return factory


def main(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks.gateway.serverhost")
    parser.add_argument("--db", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    use_source_tree()
    from repro.core import build_prefork_app_factory
    from repro.serve import PreforkServer

    app_factory = build_prefork_app_factory(args.db, args.cache,
                                            watchdog_s=WATCHDOG_S)
    if args.trace_dir:
        app_factory = traced_factory(app_factory, args.trace_dir)
    server = PreforkServer(app_factory, workers=WORKERS, host="127.0.0.1",
                           port=0, watchdog_s=WATCHDOG_S,
                           socket_timeout_s=SOCKET_TIMEOUT_S)
    server.start()
    print(json.dumps({"port": server.port, "pid": os.getpid(),
                      "workers": server.pids}), flush=True)
    # ``serve_forever`` with a way out: supervise until the parent
    # speaks or goes away.
    while not select.select([sys.stdin], [], [], 0.5)[0]:
        server.supervise_once()
    statuses = server.shutdown()
    print(json.dumps({"statuses": statuses, "respawns": server.respawns}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
