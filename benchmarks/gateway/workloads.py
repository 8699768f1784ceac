"""Launch, measure and check each workload.

One *run* is one workload in one mode.  Untraced (``trace=False``): three
launches on fresh copies of the fixture, the third one measured for the
whole window — every end-to-end metric.  Traced (``trace=True``): an
untraced reference over half the window (throughput, tails and write
latencies, which carry no bound), then a launch with the span wrappers
installed over the other half — every per-layer metric, the tracing
overhead being the ratio of the two.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import sqlite3
import statistics
import subprocess
import sys
import time

from . import ROOT, fixture as fixtures, loadgen, stats
from .tracing import NOTE, PARENT, ROOT_POLL, START, Summary

BROWSE_WORKLOADS = ("browse_hot", "browse_render", "browse_under_writes")
DAEMON_WORKLOAD = "daemon_campaign"

#: Launches per untraced run; ``setup_s`` is their median.
LAUNCHES = 3
TRANSITIONS_PER_SIMULATION = 5      # QUEUED -> ... -> DONE


class BenchmarkError(RuntimeError):
    """The harness could not measure (not: the program was slow)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

class Host:
    """A child process of this benchmark, in its own process group so
    that nothing it forked outlives a failed run."""

    def __init__(self, module, arguments, *, env=None):
        self.process = subprocess.Popen(
            [sys.executable, "-m", f"benchmarks.gateway.{module}",
             *arguments],
            cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True)

    def read_line(self):
        line = self.process.stdout.readline()
        if not line:
            self.kill()
            raise BenchmarkError(
                f"{self.process.args[2]} ended without answering "
                f"(exit status {self.process.returncode})")
        return json.loads(line)

    def wait(self, timeout=30.0):
        try:
            status = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkError(
                f"{self.process.args[2]} did not end in {timeout:g} s")
        self._close_pipes()
        if status != 0:
            raise BenchmarkError(
                f"{self.process.args[2]} exited with status {status}")

    def kill(self):
        """Last resort: the whole group, then reap."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self):
        self.process.stdin.close()
        self.process.stdout.close()


class ServerHost(Host):
    """``serverhost`` over a private copy of the fixture."""

    def __init__(self, directory, fixture, *, trace):
        os.makedirs(directory)
        self.directory = directory
        self.database = fixtures.copy(
            fixture, os.path.join(directory, "portal.sqlite"))
        arguments = ["--db", self.database,
                     "--cache", os.path.join(directory, "cache.sqlite")]
        if trace:
            arguments += ["--trace-dir", directory]
        self.started_at = time.perf_counter()
        # What Apache sets behind TLS; wsgiref copies it into requests.
        super().__init__("serverhost", arguments,
                         env=dict(os.environ, HTTPS="on"))
        listening = self.read_line()
        self.address = ("127.0.0.1", listening["port"])
        self.pids = [listening["pid"], *listening["workers"].values()]

    def stop(self):
        """Drain; returns the workers' exit statuses.

        Both workers wake for every connection and the one that loses
        the race sits in a blocking ``accept()`` until the next client
        arrives: it never sees the drain flag and ``shutdown()`` kills it
        after 10 s (the reason ``tests/serve/test_prefork.py`` fails now
        and then).  Traffic does not stop in production, so the drain
        gets a trickle of empty connections until it is over.
        """
        self.process.stdin.write("stop\n")
        self.process.stdin.flush()
        while not select.select([self.process.stdout], [], [], 0.05)[0]:
            try:
                loadgen.connect(self.address,
                                loadgen.SOURCE_ADDRESSES[0]).close()
            except OSError:
                pass            # the listening socket is already closed
        drained = self.read_line()
        self.wait()
        return drained

    def worker_dumps(self):
        dumps = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("worker-"):
                with open(os.path.join(self.directory, name),
                          encoding="utf-8") as handle:
                    dumps.append(json.load(handle))
        return dumps


def _answering_workers(address):
    """Worker indexes behind two simultaneous ``/metrics`` responses."""
    payload = loadgen.request_bytes("GET", "/metrics")
    workers = set()
    for status, _, body in loadgen.exchange_on_both_workers(
            address, loadgen.SOURCE_ADDRESSES[0], payload):
        match = re.search(rb'serve_worker_up\{worker="(\d+)"\} 1', body)
        if status != 200 or match is None:
            raise BenchmarkError(f"/metrics answered {status}")
        workers.add(int(match.group(1)))
    return workers


def _warm(address, plan):
    """Each warm-up page once through each worker, so both L1 caches,
    compiled-query caches and template caches are filled."""
    session = plan.sessions[0] if plan.sessions else None
    for step, (category, index) in enumerate(plan.warm):
        url = plan.urls[category][index]
        source = loadgen.SOURCE_ADDRESSES[
            step % len(loadgen.SOURCE_ADDRESSES)]
        payload = loadgen.request_bytes("GET", url.target, session=session)
        for status, _, _ in loadgen.exchange_on_both_workers(
                address, source, payload):
            if status != 200:
                raise BenchmarkError(
                    f"warm-up GET {url.target} answered {status}")


def launch_portal(directory, fixture, plan, *, trace=False):
    """Start the server on a fresh fixture copy; returns ``(host,
    setup_s)`` — spawn to both workers answering plus the warm pass."""
    host = ServerHost(directory, fixture, trace=trace)
    try:
        started = host.started_at
        if _answering_workers(host.address) != {0, 1}:
            raise BenchmarkError("one worker answered twice")
        _warm(host.address, plan)
    except BaseException:
        host.kill()
        raise
    return host, time.perf_counter() - started


# ----------------------------------------------------------------------
# browse_*: driving the server
# ----------------------------------------------------------------------

class Drive:
    """What one measuring window over the portal produced."""

    def __init__(self, host, plan, seconds, fixture):
        address = host.address
        cpu_before = sum(stats.cpu_seconds(pid) for pid in host.pids)
        generator_cpu = time.process_time()
        self.start = time.perf_counter()
        self.seconds = seconds
        deadline = self.start + seconds
        reader = loadgen.Reader(address, plan, self.start, deadline)
        writer = None
        if plan.writes:
            writer = loadgen.Writer(address, plan, fixture["sessions"],
                                    self.start)
        clients = [reader, writer] if writer else [reader]
        for client in clients:
            client.start()
        for client in clients:
            client.join(seconds + 60.0)
            if client.is_alive():
                raise BenchmarkError(f"{client.name} did not finish")
            if client.error is not None:
                raise BenchmarkError(
                    f"{client.name} failed") from client.error
        elapsed = time.perf_counter() - self.start
        self.generator_cpu_share = \
            (time.process_time() - generator_cpu) / elapsed
        self.server_cpu_s = sum(stats.cpu_seconds(pid)
                                for pid in host.pids) - cpu_before
        self.peak_rss_mb = sum(stats.peak_rss_mb(pid) for pid in host.pids)
        self.paced = plan.read_rate is not None
        self.reads = reader.samples
        self.writes = writer.samples if writer else []
        self.campaigns = writer.campaigns if writer else []
        self.checks = []
        self.check_attempted = self.check_failed = 0
        if writer:
            self._read_back(address)

    def _read_back(self, address):
        """Every acknowledged campaign is readable, and a fresh
        anonymous API read shows the newest row."""
        targets = [(f"{loadgen.CAMPAIGNS}/{campaign}",
                    lambda doc: doc["campaign"]["simulations"]
                    == loadgen.SWEEP_SIZE)
                   for campaign, _ in self.campaigns]
        if self.campaigns:
            newest = max(sim for _, sim in self.campaigns)
            targets.append((f"{loadgen.API_FIRST_PAGE}?limit=1",
                            lambda doc: doc["simulations"][0]["id"]
                            == newest))
        for step, (target, holds) in enumerate(targets):
            source = loadgen.SOURCE_ADDRESSES[
                step % len(loadgen.SOURCE_ADDRESSES)]
            self.check_attempted += 1
            try:
                status, _, body = loadgen.exchange(
                    address, source, loadgen.request_bytes("GET", target))
                ok = status == 200 and holds(json.loads(body))
            except (OSError, ValueError, KeyError, IndexError):
                ok = False
            if not ok:
                self.check_failed += 1
                self.checks.append(f"read-back of {target} failed")

    def check_rows(self, database, fixture):
        """After the drain: simulations = fixture + every ``created``."""
        connection = sqlite3.connect(f"file:{database}?mode=ro", uri=True)
        try:
            rows = connection.execute(
                "SELECT COUNT(*) FROM amp_simulation").fetchone()[0]
        finally:
            connection.close()
        expected = fixture["rows"]["amp_simulation"] \
            + loadgen.SWEEP_SIZE * len(self.campaigns)
        if rows != expected:
            self.checks.append(
                f"{rows} simulation rows, {expected} acknowledged")

    # -- derived numbers ------------------------------------------------
    @property
    def attempted(self):
        return len(self.reads) + len(self.writes) + self.check_attempted

    @property
    def failed(self):
        return (sum(not s.ok for s in self.reads + self.writes)
                + self.check_failed)

    @property
    def good_reads(self):
        return [s for s in self.reads if s.ok]

    def reads_per_s(self):
        """Successful GETs per second: of the window when the reader
        never pauses, of the time its connection was busy when it is
        paced (what it would get through, with these hits and misses,
        if it did not pause)."""
        if self.paced:
            return len(self.good_reads) / sum(s.latency_s
                                              for s in self.reads)
        return stats.slice_rate([s.done_at for s in self.good_reads],
                                self.start, self.seconds)

    def cpu_ms_per_request(self):
        """User + system CPU of supervisor and workers over the window,
        per successful request; the generator's is left out."""
        return self.server_cpu_s * 1000.0 / sum(
            s.ok for s in self.reads + self.writes)

    def read_ms(self):
        """Latencies of the successful GETs, in the order sent."""
        return [s.latency_s * 1000.0 for s in self.good_reads]

    def write_ms(self):
        return [s.latency_s * 1000.0 for s in self.writes if s.ok]

    def cache_hit_ratio(self):
        hits = sum(s.verdict == "hit" for s in self.good_reads)
        return hits / len(self.good_reads) if self.good_reads else 0.0


def _drain(host, drive, fixture):
    drained = host.stop()
    if any(status != 0 for status in drained["statuses"].values()) \
            or drained["respawns"]:
        drive.checks.append(f"unclean drain: {drained}")
    if drive.writes:
        drive.check_rows(host.database, fixture)


def _cache_behaves(name, ratio):
    """The workload measures what it says only if the response cache
    did what the workload was built around."""
    if name == "browse_hot" and ratio < 0.99:
        return f"cache hit ratio {ratio:.4f} < 0.99 on browse_hot"
    if name == "browse_render" and ratio != 0.0:
        return f"cache hit ratio {ratio:.4f} != 0 on browse_render"
    if name == "browse_under_writes" and not 0.0 < ratio < 1.0:
        return f"cache hit ratio {ratio:.4f} not strictly between 0 and 1"
    return None


def _browse_plan(name, fixture, seed, seconds):
    if name == "browse_under_writes":
        return loadgen.under_writes_plan(fixture, seed, seconds)
    return loadgen.browse_plan(fixture, seed,
                               logged_in=name == "browse_render")


def _measure_browse(name, directory, fixture, seed, seconds, *,
                    trace=False):
    """One launch, one window, one drain; returns ``(drive, setup_s,
    worker dumps)``."""
    plan = _browse_plan(name, fixture, seed, seconds)
    host, setup_s = launch_portal(directory, fixture, plan, trace=trace)
    try:
        drive = Drive(host, plan, seconds, fixture)
        _drain(host, drive, fixture)
    except BaseException:
        host.kill()
        raise
    problem = _cache_behaves(name, drive.cache_hit_ratio())
    if problem:
        drive.checks.append(problem)
    if not drive.good_reads:
        raise BenchmarkError(f"{name}: no request succeeded")
    return drive, setup_s, host.worker_dumps() if trace else []


def run_browse(name, run_dir, fixture, seed, seconds):
    """Untraced run of a ``browse_*`` workload: end-to-end metrics."""
    plan = _browse_plan(name, fixture, seed, seconds)
    setups = []
    for launch in range(LAUNCHES - 1):
        host, setup_s = launch_portal(
            os.path.join(run_dir, f"launch-{launch}"), fixture, plan)
        host.stop()
        setups.append(setup_s)
    drive, setup_s, _ = _measure_browse(
        name, os.path.join(run_dir, "measured"), fixture, seed, seconds)
    setups.append(setup_s)
    latencies = drive.read_ms()
    tail_p, tail_ms = stats.tail(latencies)
    return {
        "attempted": drive.attempted, "failed": drive.failed,
        "checks": drive.checks,
        "values": {
            "setup_s": statistics.median(setups),
            "op_p50_ms": stats.percentile(latencies, 50),
            "cpu_ms_per_op": drive.cpu_ms_per_request(),
            "peak_rss_mb": drive.peak_rss_mb,
        },
        "detail": {"samples": len(latencies),
                   "ops_per_s": drive.reads_per_s(),
                   "op_tail_ms": tail_ms, "tail_percentile": tail_p,
                   "setups_s": setups,
                   "writes": len(drive.writes),
                   "cache_hit_ratio": drive.cache_hit_ratio(),
                   "generator_cpu_share": drive.generator_cpu_share},
    }


def trace_browse(name, run_dir, fixture, seed, seconds):
    """Traced run of a ``browse_*`` workload: per-layer metrics."""
    half = seconds / 2.0
    reference, _, _ = _measure_browse(
        name, os.path.join(run_dir, "reference"), fixture, seed, half)
    traced, _, dumps = _measure_browse(
        name, os.path.join(run_dir, "traced"), fixture, seed, half,
        trace=True)
    if len(dumps) != 2:
        raise BenchmarkError(f"{len(dumps)} of 2 workers wrote spans")
    window = (traced.start, traced.start + half)

    def in_window(method):
        return lambda span: (window[0] <= span[START] < window[1]
                             and span[NOTE] == method)

    span_lists = [dump["spans"] for dump in dumps]
    gets = Summary(span_lists, in_window("GET"))
    posts = Summary(span_lists, in_window("POST"))
    n_gets, n_posts = len(gets.roots), len(posts.roots)
    if not n_gets:
        raise BenchmarkError(f"{name}: no request span in the window")
    values = {metric: total / n_gets
              for metric, total in gets.layer_ms().items()}
    read_ms = traced.read_ms()
    attempted = reference.attempted + traced.attempted
    failed = reference.failed + traced.failed
    values["serve.workers.http_ms"] = \
        statistics.fmean(read_ms) - gets.root_ms() / n_gets
    lookups = gets.count.get("serve.cache.l1", 0)
    compiles = gets.count.get("webstack.orm.query.compile", 0)
    per_worker = [sum(1 for span in spans
                      if span[PARENT] < 0
                      and window[0] <= span[START] < window[1])
                  for spans in span_lists]
    values.update({
        "serve.cache.hit_ratio": traced.cache_hit_ratio(),
        "serve.cache.l1_hit_ratio":
            (lookups - gets.count.get("serve.cache.l2", 0)) / lookups
            if lookups else 0.0,
        "webstack.orm.queries_per_req":
            gets.count.get("webstack.orm.connection.execute", 0) / n_gets,
        "webstack.orm.rows_per_req": gets.rows_fetched / n_gets,
        "webstack.orm.query.compiled_hit_ratio":
            gets.note.get("webstack.orm.query.compile", 0) / compiles
            if compiles else 0.0,
        "serve.ratelimit.throttled":
            sum(s.status == 429 for run in (reference, traced)
                for s in run.reads + run.writes),
        "serve.admission.shed": sum(dump["shed"] for dump in dumps),
        "serve.workers.bytes_per_req":
            statistics.fmean(s.nbytes for s in traced.good_reads),
        "serve.workers.req_p99_ms": stats.percentile(read_ms, 99),
        "serve.workers.balance_ratio":
            min(per_worker) / max(per_worker),
        "serve.workers.boot_ms_per_worker":
            statistics.fmean(dump["boot_ms"] for dump in dumps),
        "ops_per_s": reference.reads_per_s(),
        "op_tail_ms": stats.tail(reference.read_ms())[1],
        "trace.overhead_ratio":
            traced.reads_per_s() / reference.reads_per_s(),
        "gen.cpu_share": reference.generator_cpu_share,
        "fail_ratio": failed / attempted,
    })
    if n_posts:
        write_layers = posts.layer_ms()
        for metric in ("core.portal.api.campaign_ms",
                       "webstack.orm.query.bulk_insert_ms",
                       "webstack.orm.connection.commit_wait_ms",
                       "serve.cache.invalidate_ms"):
            values[metric] = write_layers.get(metric, 0.0) / n_posts
        values["webstack.orm.queries_per_write"] = \
            posts.count.get("webstack.orm.connection.execute", 0) / n_posts
        values["serve.cache.invalidations_per_write"] = \
            posts.note.get("serve.cache.invalidate", 0) / n_posts
        write_ms = reference.write_ms()
        values["write_p50_ms"] = stats.percentile(write_ms, 50)
        values["write_tail_ms"] = stats.tail(write_ms)[1]
        values["gen.writer_late_p95_ms"] = stats.percentile(
            [s.late_s * 1000.0 for s in reference.writes], 95)
        values["gen.reader_late_p95_ms"] = stats.percentile(
            [s.late_s * 1000.0 for s in reference.reads], 95)
    return {
        "attempted": attempted, "failed": failed,
        "checks": reference.checks + traced.checks,
        "values": values,
        "detail": {"traced_requests": n_gets + n_posts,
                   "in_app_ms_per_get": gets.root_ms() / n_gets,
                   "layer_ms_per_get": sum(
                       total for total in gets.layer_ms().values())
                   / n_gets},
    }


# ----------------------------------------------------------------------
# daemon_campaign
# ----------------------------------------------------------------------

def _launch_daemon(directory, fixture, arguments):
    """Start ``daemonhost`` on a fresh fixture copy; returns ``(host,
    setup_s)`` — spawn to booted deployment plus one idle poll."""
    os.makedirs(directory)
    database = fixtures.copy(fixture,
                             os.path.join(directory, "portal.sqlite"))
    started = time.perf_counter()
    host = Host("daemonhost", ["--db", database, *arguments])
    host.read_line()
    return host, time.perf_counter() - started


def _measure_daemon(directory, fixture, seed, seconds, *, trace=False):
    """One launch, one campaign; returns ``(outcome, setup_s, spans)``."""
    os.makedirs(directory)
    plan_file = os.path.join(directory, "plan.json")
    with open(plan_file, "w", encoding="utf-8") as handle:
        json.dump(loadgen.daemon_plan(fixture, seed, seconds), handle)
    arguments = ["--plan", plan_file]
    spans_file = os.path.join(directory, "spans.json")
    if trace:
        arguments += ["--trace", spans_file]
    host, setup_s = _launch_daemon(os.path.join(directory, "db"), fixture,
                                   arguments)
    try:
        outcome = host.read_line()
        host.wait()
    except BaseException:
        host.kill()
        raise
    spans = []
    if trace:
        with open(spans_file, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
    return outcome, setup_s, spans


class Campaign:
    """Numbers derived from one ``daemonhost`` outcome."""

    def __init__(self, outcome):
        self.outcome = outcome
        polls = outcome["polls"]
        self.work = [p for p in polls if p["phase"] != "scan"]
        self.scan = [p for p in polls if p["phase"] == "scan"]
        self.transitions = sum(p["transitions"] for p in self.work)
        self.submitted = outcome["submitted"]
        self.done = outcome["states"].get("DONE", 0)
        self.checks = []
        if self.done != self.submitted:
            self.checks.append(
                f"{self.done} of {self.submitted} simulations DONE: "
                f"{outcome['states']}")
        expected = TRANSITIONS_PER_SIMULATION * self.submitted
        if self.transitions != expected:
            self.checks.append(
                f"{self.transitions} transitions, expected {expected}")
        if any(p["transitions"] for p in self.scan):
            self.checks.append("a scan poll made a transition")
        if not self.transitions:
            raise BenchmarkError("daemon_campaign: no transition happened")

    def transitions_per_s(self):
        return self.transitions / sum(p["end"] - p["start"]
                                      for p in self.work)

    def scan_ms(self):
        return [(p["end"] - p["start"]) * 1000.0 for p in self.scan]

    def per_transition(self, key):
        return sum(p[key] for p in self.work) / self.transitions


def run_daemon(run_dir, fixture, seed, seconds):
    """Untraced run of ``daemon_campaign``: end-to-end metrics."""
    setups = []
    for launch in range(LAUNCHES - 1):
        host, setup_s = _launch_daemon(
            os.path.join(run_dir, f"launch-{launch}"), fixture,
            ["--setup-only"])
        host.wait()
        setups.append(setup_s)
    outcome, setup_s, _ = _measure_daemon(
        os.path.join(run_dir, "measured"), fixture, seed, seconds)
    setups.append(setup_s)
    campaign = Campaign(outcome)
    scan_ms = campaign.scan_ms()
    tail_p, tail_ms = stats.tail(scan_ms)
    return {
        "attempted": campaign.submitted,
        "failed": campaign.submitted - campaign.done,
        "checks": campaign.checks,
        "values": {
            "setup_s": statistics.median(setups),
            "op_p50_ms": stats.percentile(scan_ms, 50),
            "cpu_ms_per_op": campaign.per_transition("cpu_s") * 1000.0,
            "peak_rss_mb": outcome["peak_rss_mb"],
        },
        "detail": {"samples": len(scan_ms),
                   "ops_per_s": campaign.transitions_per_s(),
                   "op_tail_ms": tail_ms, "tail_percentile": tail_p,
                   "setups_s": setups,
                   "transitions": campaign.transitions,
                   "polls": len(outcome["polls"]),
                   "makespan_sim_h": outcome["makespan_sim_s"] / 3600.0},
    }


def trace_daemon(run_dir, fixture, seed, seconds):
    """Traced run of ``daemon_campaign``: per-layer metrics."""
    half = seconds / 2.0
    reference = Campaign(_measure_daemon(
        os.path.join(run_dir, "reference"), fixture, seed, half)[0])
    outcome, _, spans = _measure_daemon(
        os.path.join(run_dir, "traced"), fixture, seed, half, trace=True)
    traced = Campaign(outcome)
    scan_start = traced.scan[0]["start"]
    scan_end = traced.scan[-1]["end"]
    window = outcome["window"]

    def working(span):
        """Roots of the ramp and drain phases: their polls and the
        clock steps between them."""
        return (window[0] <= span[START] < window[1]
                and not scan_start <= span[START] < scan_end)

    work = Summary([spans], working)
    boot = Summary([spans],
                   lambda span: span[0] == "core.daemon.boot_recovery")
    attempted = reference.submitted + traced.submitted
    failed = attempted - reference.done - traced.done
    values = {metric: total / traced.transitions
              for metric, total in work.layer_ms().items()}
    values.update({
        "grid.clients.commands_per_transition":
            traced.per_transition("commands"),
        "webstack.orm.queries_per_transition":
            traced.per_transition("queries"),
        "webstack.orm.queries_per_scan_poll":
            statistics.fmean(p["queries"] for p in traced.scan),
        "core.daemon.boot_recovery_ms": boot.root_ms(),
        "ops_per_s": reference.transitions_per_s(),
        "op_tail_ms": stats.tail(reference.scan_ms())[1],
        "trace.overhead_ratio":
            traced.transitions_per_s() / reference.transitions_per_s(),
        "campaign_makespan_sim_h": outcome["makespan_sim_s"] / 3600.0,
        "fail_ratio": failed / attempted,
    })
    polls = [span for span in work.roots if span[0] == ROOT_POLL]
    return {
        "attempted": attempted, "failed": failed,
        "checks": reference.checks + traced.checks,
        "values": values,
        "detail": {"traced_polls": len(polls),
                   "traced_transitions": traced.transitions,
                   "in_poll_ms_per_transition":
                       work.root_ms() / traced.transitions,
                   "layer_ms_per_transition": sum(
                       total for total in work.layer_ms().values())
                   / traced.transitions},
    }


# ----------------------------------------------------------------------

def run(name, run_dir, fixture, seed, seconds, *, trace):
    """One run of workload *name*; see the module docstring."""
    os.makedirs(run_dir)
    if name == DAEMON_WORKLOAD:
        measure = trace_daemon if trace else run_daemon
        return measure(run_dir, fixture, seed, seconds)
    if name in BROWSE_WORKLOADS:
        measure = trace_browse if trace else run_browse
        return measure(name, run_dir, fixture, seed, seconds)
    raise BenchmarkError(f"unknown workload {name!r}")
