"""Command-line interface to the reproduction's experiment harnesses.

Usage::

    python -m repro.cli table1          # regenerate Table 1
    python -m repro.cli convergence     # the 160x-180x claim (C1)
    python -m repro.cli queuewait       # chaining vs sequential (C3)
    python -m repro.cli demo            # end-to-end gateway demo
    python -m repro.cli gantt           # the §6 Gantt tool on a run
    python -m repro.cli init-db --db F  # schema, catalog, machine registry
    python -m repro.cli serve --db F    # prefork multi-worker portal
    python -m repro.cli daemon --db F   # the GridAMP daemon

Every command prints the same rows/series the paper reports.
"""

from __future__ import annotations

import argparse
import sys


def cmd_table1(args):
    from .analysis import table1
    rows = table1.measure_table1(iterations=args.iterations,
                                 seed=args.seed)
    print(table1.render(rows))
    checks = table1.shape_checks(rows)
    failed = [name for name, ok in checks.items() if not ok]
    print("\nshape checks:",
          "all pass" if not failed else f"FAILED: {failed}")
    return 0 if not failed else 1


def cmd_convergence(args):
    from .analysis import convergence
    result = convergence.measure_convergence(iterations=args.iterations,
                                             seed=args.seed)
    print(convergence.render(result))
    return 0 if convergence.in_paper_band(result) else 1


def cmd_queuewait(args):
    from .analysis import queuewait
    pairs = queuewait.compare(seeds=(args.seed, args.seed + 12,
                                     args.seed + 26), load=args.load)
    print(queuewait.render(pairs))
    return 0


def cmd_demo(args):
    from .core import AMPDeployment
    from .webstack.testclient import Client
    deployment = AMPDeployment()
    deployment.create_astronomer("demo", password="demodemo1")
    client = Client(deployment.build_portal())
    client.login("demo", "demodemo1")
    star_pk = int(client.get("/stars/search/?q=16 Cyg B")
                  ["Location"].rstrip("/").split("/")[-1])
    response = client.post(f"/submit/direct/{star_pk}/", {
        "mass": "1.04", "z": "0.021", "y": "0.27", "alpha": "2.1",
        "age": "6.1"})
    sim_url = response["Location"]
    print(f"submitted {sim_url}; running the GridAMP daemon...")
    deployment.run_daemon_until_idle(poll_interval_s=300)
    page = client.get(sim_url)
    state = "DONE" if "DONE" in page.text else "NOT DONE"
    print(f"simulation state: {state} after "
          f"{deployment.clock.now / 3600.0:.1f} virtual hours")
    print(client.get("/statistics/").text.split("<h2>")[1][:200])
    return 0 if state == "DONE" else 1


def cmd_gantt(args):
    from .core import AMPDeployment, ObservationSet, Simulation
    from .core.gantt import render_ascii, simulation_gantt
    from .hpc import HOUR
    from .science import StellarParameters, synthetic_target
    deployment = AMPDeployment()
    user = deployment.create_astronomer("gantt")
    star, _ = deployment.catalog.search("16 Cyg B")
    target, _ = synthetic_target(
        "g", StellarParameters(1.02, 0.02, 0.27, 2.0, 4.5),
        seed=args.seed)
    observation = ObservationSet(
        star_id=star.pk, label="g", teff=target.teff,
        luminosity=target.luminosity,
        frequencies={str(l): v
                     for l, v in target.frequencies.items()})
    observation.save(db=deployment.databases.portal)
    simulation = Simulation(
        star_id=star.pk, observation_id=observation.pk,
        owner_id=user.pk, kind="optimization", machine_name="kraken",
        config={"n_ga_runs": 2, "iterations": 30,
                "population_size": 64, "processors": 128,
                "walltime_s": 6 * HOUR, "ga_seeds": [args.seed,
                                                     args.seed + 1]})
    simulation.save(db=deployment.databases.portal)
    deployment.run_daemon_until_idle(poll_interval_s=1800)
    simulation.refresh_from_db()
    print(render_ascii(simulation_gantt(deployment, simulation)))
    return 0


def cmd_init_db(args):
    """The deploy step: the only command that opens the admin role."""
    from .core import init_db
    init_db(args.db)
    print(f"initialised {args.db}")
    return 0


def cmd_serve(args):
    """Serve the portal over real HTTP with prefork workers.

    Each worker builds one ``PortalRuntime`` after the fork — a
    portal-role connection, nothing of the grid — over the file
    ``--db`` names (without it, one in a temporary directory).  No
    SQLite connection crosses a process boundary, yet every worker
    serves the same rows: a write by any worker, or by a ``cli
    daemon`` beside them, is visible through all, and invalidates for
    all what any of them cached.  The tier runs on wall time.  Ctrl-C
    or SIGTERM drains.
    """
    import signal
    import sqlite3
    import tempfile

    from .core import build_prefork_app_factory
    from .serve import PreforkServer
    # SIGTERM drains the way Ctrl-C does; the supervisor only sleeps
    # and reaps, so it can be interrupted anywhere.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # The cache file (and a database of our own making) lives only as
    # long as the server does.
    with tempfile.TemporaryDirectory(prefix="amp-serve-") as run_dir:
        database = args.db or f"{run_dir}/portal.sqlite"
        app_factory = build_prefork_app_factory(
            database, f"{run_dir}/cache.sqlite",
            db_fault_trigger=args.db_fault_trigger,
            watchdog_s=args.watchdog or None)
        server = PreforkServer(
            app_factory, workers=args.workers, host=args.host,
            port=args.port, watchdog_s=args.watchdog or None,
            max_requests=args.max_requests or None,
            socket_timeout_s=args.socket_timeout or None)
        server.start()
        print(f"AMP portal on {server.url} "
              f"({server.n_workers} workers; Ctrl-C to drain)",
              flush=True)
        server.serve_forever()
        # Workers leave through os._exit, connections open: fold the
        # log into the main file for them (the last connection to
        # close removes -wal/-shm).
        connection = sqlite3.connect(database)
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        connection.close()
    return 0


def cmd_daemon(args):
    """Run the GridAMP daemon against the database file ``--db`` names.

    One ``DaemonRuntime``: the daemon-role connection, the grid
    clients and the simulated grid fabric — which lives in this
    process's memory, so one daemon process per database.  Every poll
    advances virtual time by one poll interval; with work pending the
    polls run back to back, idle (telemetry and heartbeat only) twice
    a second.  Ctrl-C or SIGTERM stops it between polls.
    """
    import signal
    import threading

    from .core import DaemonRuntime, open_role
    from .core.daemon import DEFAULT_POLL_INTERVAL_S
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    runtime = DaemonRuntime(open_role(args.db, "daemon"))
    print(f"GridAMP daemon on {args.db} (Ctrl-C to stop)", flush=True)
    try:
        while not stop.is_set():
            runtime.clock.advance(DEFAULT_POLL_INTERVAL_S)
            runtime.daemon.poll_once()
            if not runtime.daemon.pending_count():
                stop.wait(0.5)
    finally:
        runtime.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="AMP reproduction experiment harnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("convergence",
                       help="the 160x-180x iteration-time claim")
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("queuewait",
                       help="job chaining vs sequential resubmission")
    p.add_argument("--load", type=float, default=0.85)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(fn=cmd_queuewait)

    p = sub.add_parser("demo", help="end-to-end gateway demo")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("gantt", help="the §6 Gantt tool")
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(fn=cmd_gantt)

    p = sub.add_parser("init-db",
                       help="create and seed the deployment database")
    p.add_argument("--db", required=True, help="database file")
    p.set_defaults(fn=cmd_init_db)

    p = sub.add_parser("daemon", help="the GridAMP daemon")
    p.add_argument("--db", required=True,
                   help="database file (see init-db)")
    p.set_defaults(fn=cmd_daemon)

    p = sub.add_parser("serve",
                       help="prefork multi-worker portal server")
    p.add_argument("--db", default=None,
                   help="database file, initialised first if it is "
                        "not (default: a temporary one)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--watchdog", type=float, default=30.0,
                   help="per-request watchdog seconds (0 disables)")
    p.add_argument("--max-requests", type=int, default=0,
                   help="recycle a worker after this many requests "
                        "(0 disables)")
    p.add_argument("--socket-timeout", type=float, default=10.0,
                   help="per-connection socket timeout seconds "
                        "(0 disables)")
    p.add_argument("--db-fault-trigger", default=None,
                   help="path of a trigger file: while it exists, "
                        "database statements fail (overload demo)")
    p.set_defaults(fn=cmd_serve)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
