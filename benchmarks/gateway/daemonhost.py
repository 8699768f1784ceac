"""Child process running the GridAMP daemon over a prepared database.

``AMPDeployment(database_uri=FILE).daemon`` — boot recovery included —
then the ``daemon_campaign`` workload: the plan's simulations are
submitted through the portal role and driven to ``DONE`` in three
phases.  **ramp** polls after short clock steps (submission, staging,
start); **scan** polls with the sim clock held, when every simulation
is ``RUNNING`` and nothing is due (the cost of looking); **drain**
polls after long clock steps until nothing is pending (the cost of
transitioning).

Protocol: a ``{"ready": true}`` line once the deployment has booted and
answered one idle poll; then, unless ``--setup-only``, one JSON line
with the poll log and the outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import stats, use_source_tree

#: A campaign that has not drained after this many polls never will.
MAX_DRAIN_POLLS = 400


def run_campaign(deployment, plan):
    from repro.core import KIND_DIRECT, Simulation
    daemon, clock = deployment.daemon, deployment.clock
    database, clients = deployment.databases.daemon, deployment.clients
    simulations = [
        Simulation(star_id=row["star"], owner_id=row["owner"],
                   kind=KIND_DIRECT, machine_name=row["machine"],
                   parameters=row["parameters"])
        for row in plan["simulations"]]
    Simulation.objects.using(deployment.databases.portal).bulk_create(
        simulations)
    submitted_at = clock.now
    polls = []

    def poll(phase):
        queries = database.queries_executed
        commands = len(clients.command_log)
        cpu = time.process_time()
        start = time.perf_counter()
        transitions = daemon.poll_once()
        end = time.perf_counter()
        polls.append({"phase": phase, "start": start, "end": end,
                      "cpu_s": time.process_time() - cpu,
                      "transitions": transitions,
                      "queries": database.queries_executed - queries,
                      "commands": len(clients.command_log) - commands})

    started = time.perf_counter()
    for _ in range(plan["ramp_polls"]):
        clock.advance(plan["ramp_step_s"])
        poll("ramp")
    for _ in range(plan["scan_polls"]):
        poll("scan")
    for _ in range(MAX_DRAIN_POLLS):
        if not daemon.pending_count():
            break
        clock.advance(plan["drain_step_s"])
        poll("drain")
    ended = time.perf_counter()
    states = Simulation.objects.using(deployment.databases.admin).filter(
        pk__in=[sim.pk for sim in simulations]).values_count("state")
    return {"polls": polls, "window": [started, ended],
            "makespan_sim_s": clock.now - submitted_at,
            "submitted": len(simulations), "states": states,
            "peak_rss_mb": stats.peak_rss_mb(os.getpid())}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks.gateway.daemonhost")
    parser.add_argument("--db", required=True)
    parser.add_argument("--plan")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    use_source_tree()
    from repro.core import AMPDeployment, GridAMPDaemon

    recorder = None
    if args.trace:
        from .tracing import Recorder, install_daemon
        recorder = Recorder()
        GridAMPDaemon._boot_recovery = recorder.wrap(
            GridAMPDaemon._boot_recovery, "core.daemon.boot_recovery")
    deployment = AMPDeployment(database_uri=args.db)
    try:
        if recorder is not None:
            install_daemon(recorder, deployment)
        deployment.daemon.poll_once()
        print(json.dumps({"ready": True}), flush=True)
        if args.setup_only:
            return 0
        with open(args.plan, encoding="utf-8") as handle:
            plan = json.load(handle)
        outcome = run_campaign(deployment, plan)
        if recorder is not None:
            recorder.dump(args.trace)
        print(json.dumps(outcome), flush=True)
    finally:
        deployment.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
