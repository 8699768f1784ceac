"""Seeded request plans and the load generator that plays them.

The generator is one process with at most two connections in flight
(one reader, beside the open-loop writer on ``browse_under_writes``): a
second closed-loop reader would put four busy processes on this
benchmark's two cores, and the scheduler's noise into every latency.
Rate limiting stays on: anonymous requests rotate over 250 loopback
source addresses (``REMOTE_ADDR`` is the limiter's key) and logged-in
ones over the fixture's 64 sessions, so no production token bucket runs
dry at the offered rate and a 429 is simply a failed request.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from urllib.parse import quote

#: ``(category, weight)`` of the browse mix, in percent.
BROWSE_MIX = (("home", 20), ("star-list", 10), ("star-detail", 15),
              ("sim-list", 15), ("sim-detail", 20), ("api", 10),
              ("statistics", 5), ("suggest", 5))

SOURCE_ADDRESSES = [f"127.16.0.{low}" for low in range(1, 251)]

N_SUGGEST_PREFIXES = 10
SWEEP_SIZE = 20
#: Campaign POSTs due per second.  A read that meets a commit waits for
#: it (rollback journal, and 28 cache-tag bumps of one autocommit each):
#: at this rate that is about 3 % of the reads, so the p95 stays a plain
#: miss and the waiting shows in ``serve.workers.req_p99_ms``.  At 4/s
#: and more the p95 sat on the edge of that plateau (20 or 60 ms,
#: depending on the run).
WRITE_RATE_PER_S = 2.0
#: The reader beside the writer is paced (think time fills every slot
#: of ``1/rate`` seconds).  Unpaced, how many pages it gets through
#: between two invalidations — and so its hit ratio, and so its speed —
#: depends on its speed: the loop amplified a 20 % slower machine into
#: 40 % fewer requests.  Paced, which requests hit is set by the
#: schedule.
READ_RATE_PER_S = 40.0
ZIPF_EXPONENT = 1.1
#: Pages a cursor walk follows before it starts over at the newest row.
WALK_PAGES = 8
#: Requests generated for the reader; if it gets through them all it
#: starts over.
SEQUENCE_LENGTH = 32000
#: The mixes' weights are multiples of 5 %: 20 requests hold them exactly.
MIX_BLOCK = 20

API_FIRST_PAGE = "/api/v1/simulations"
CAMPAIGNS = "/api/v1/campaigns"


class Url:
    """One GET target with the evidence that its body is the right one."""

    __slots__ = ("target", "kind", "expect")

    def __init__(self, target, kind, expect):
        self.target = target
        self.kind = kind        # "html" | "json" | "walk"
        self.expect = expect    # bytes in an HTML body / key of a JSON one


def _star_detail(star):
    pk, name = star
    return Url(f"/stars/{pk}/", "html", f"<h2>{name}</h2>".encode())


def _sim_detail(pk):
    return Url(f"/simulations/{pk}/", "html",
               f"<title>Simulation #{pk} ".encode())


def _suggest_urls(fixture, rng):
    prefixes = sorted({name[:length] for _, name in fixture["stars"]
                       for length in (2, 3, 4)})
    return [Url(f"/api/suggest/?q={quote(prefix)}", "json", "suggestions")
            for prefix in rng.sample(prefixes, N_SUGGEST_PREFIXES)]


class Plan:
    """Everything a workload sends, generated from the seed."""

    def __init__(self, *, urls, sequence, sessions, warm,
                 writes=(), write_rate=None, read_rate=None):
        self.urls = urls                # category -> [Url]
        self.sequence = sequence        # the reader's [(category, index)]
        self.sessions = sessions        # session keys, or () if anonymous
        self.warm = warm                # [(category, index)] before timing
        self.writes = list(writes)      # JSON bodies for the writer
        self.write_rate = write_rate    # POSTs due per second
        self.read_rate = read_rate      # paced reader: GETs per second


#: The mix beside the writer: a client paging through the API and
#: opening simulation pages (Zipf over every row, so most are cold), with
#: a few of the pages every campaign invalidates.  About two requests in
#: three miss, so the median is a render-and-fill, clear of the hit/miss
#: boundary.  Left out: the star list, which prefetches every simulation
#: of 25 stars and beside a writer that grows the table would be most of
#: the reader's time; and statistics and suggest, 5 % shares whose cost
#: differs from the rest, so that the p95 sat on the edge between two
#: kinds of page and jumped from run to run.
UNDER_WRITES_MIX = (("home", 5), ("star-detail", 15), ("sim-list", 10),
                    ("sim-detail", 40), ("api", 30))


def _sequence(rng, urls, pick_sim_detail, mix=BROWSE_MIX):
    """The reader's requests: blocks of 20 that each hold the mix in its
    exact shares, shuffled.

    Pages differ in cost by a factor of thirty (the star list against
    the home page); drawn independently, the share of dear pages in a
    20 s window — and with it every per-request mean — moved by several
    percent from seed to seed.  The seed decides the order and which
    page of a kind, not how many of each kind.
    """
    block = [name for name, weight in mix
             for _ in range(weight * MIX_BLOCK // 100)]
    sequence = []
    for _ in range(SEQUENCE_LENGTH // MIX_BLOCK):
        rng.shuffle(block)
        for category in block:
            if category == "sim-detail":
                index = pick_sim_detail()
            else:
                index = rng.randrange(len(urls[category]))
            sequence.append((category, index))
    return sequence


def _browse_urls(fixture, rng, sim_ids, api_kind):
    return {
        "home": [Url("/", "html", b"<h2>Welcome</h2>")],
        "star-list": [Url("/stars/", "html", b"<h2>Star catalog</h2>")],
        "star-detail": [_star_detail(star) for star in fixture["stars"]],
        "sim-list": [Url("/simulations/", "html", b"<h2>Simulations</h2>")],
        "sim-detail": [_sim_detail(pk) for pk in sim_ids],
        "api": [Url(API_FIRST_PAGE, api_kind, "simulations")],
        "statistics": [Url("/statistics/", "html",
                           b"<h2>Gateway statistics</h2>")],
        "suggest": _suggest_urls(fixture, rng),
    }


def browse_plan(fixture, seed, *, logged_in):
    """``browse_hot`` and ``browse_render``: one URL sequence over ~123
    distinct targets; only the identity the requests carry differs."""
    rng = random.Random(f"browse:{seed}")
    urls = _browse_urls(fixture, rng, fixture["done_simulations"], "json")
    n_details = len(urls["sim-detail"])
    sequence = _sequence(rng, urls, lambda: rng.randrange(n_details))
    everything = [(category, index) for category, targets in urls.items()
                  for index in range(len(targets))]
    one_of_each = [(category, 0) for category in urls]
    return Plan(urls=urls, sequence=sequence,
                sessions=fixture["sessions"] if logged_in else (),
                # A session bypasses the response cache, so there is
                # nothing to fill: one page per route warms the worker's
                # compiled queries and templates.
                warm=one_of_each if logged_in else everything)


def under_writes_plan(fixture, seed, seconds):
    """``browse_under_writes``: a reader whose key population is far
    larger than the L1, beside a writer that keeps invalidating it."""
    rng = random.Random(f"under-writes:{seed}")
    newest_first = list(range(fixture["rows"]["amp_simulation"], 0, -1))
    urls = _browse_urls(fixture, rng, newest_first, "walk")
    ranks = range(len(newest_first))
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks]
    draws = iter(rng.choices(ranks, weights, k=SEQUENCE_LENGTH))
    sequence = _sequence(rng, urls, lambda: next(draws), UNDER_WRITES_MIX)
    # Campaigns take the stars in turn, so that every seed grows every
    # star's simulation list (and the pages showing it) alike.
    stars = fixture["stars"]
    first_star = rng.randrange(len(stars))
    writes = []
    for index in range(int(seconds * WRITE_RATE_PER_S)):
        start = rng.randrange(800, 1500) / 1000.0
        writes.append(json.dumps({
            "star": stars[(first_star + index) % len(stars)][0],
            "name": f"bench-{seed}-{index}",
            "sweep": {"mass": [round(start + 0.005 * k, 4)
                               for k in range(SWEEP_SIZE)],
                      "z": 0.018, "y": 0.27, "alpha": 2.0,
                      "age": 4.5}}).encode())
    return Plan(urls=urls, sequence=sequence, sessions=(),
                warm=[(category, 0) for category, _ in UNDER_WRITES_MIX],
                writes=writes, write_rate=WRITE_RATE_PER_S,
                read_rate=READ_RATE_PER_S)


# ----------------------------------------------------------------------
# HTTP/1.0, one connection per request (what wsgiref serves)
# ----------------------------------------------------------------------

def request_bytes(method, target, *, session=None, body=None):
    lines = [f"{method} {target} HTTP/1.0", "Host: 127.0.0.1"]
    if session:
        lines.append(f"Cookie: sessionid={session}")
    if body is not None:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + (body or b"")


def connect(address, source, timeout=10.0):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.bind((source, 0))
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


def finish(sock, payload):
    """Send *payload*, read to end of stream; returns
    ``(status, head, body)`` and closes the socket."""
    try:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/"):
        raise ConnectionError("the server closed without a response")
    return int(head[9:12]), head, body


def exchange(address, source, payload):
    return finish(connect(address, source), payload)


def exchange_on_both_workers(address, source, payload):
    """One response from each of the two workers.

    A worker that accepted a connection reads its request before it
    accepts another, so while the first connection stays silent the
    second can only be served by the other worker.
    """
    held = connect(address, source)
    try:
        second = exchange(address, source, payload)
    except OSError:
        held.close()
        raise
    return finish(held, payload), second


def cache_verdict(head):
    """``hit``/``miss``/``stale`` from ``X-Cache``, or None (bypassed)."""
    at = head.find(b"X-Cache: ")
    if at < 0:
        return None
    return head[at + 9:head.index(b"\r", at)].decode()


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------

class Sample:
    __slots__ = ("done_at", "latency_s", "ok", "status", "nbytes",
                 "verdict", "late_s")

    def __init__(self, done_at, latency_s, ok, status, nbytes,
                 verdict=None, late_s=0.0):
        self.done_at = done_at
        self.latency_s = latency_s
        self.ok = ok
        self.status = status
        self.nbytes = nbytes
        self.verdict = verdict
        self.late_s = late_s


class Reader(threading.Thread):
    """The reading client: closed loop, one connection at a time.

    The next GET goes out when the last one has been read to its final
    byte — and, when the plan paces the reader (``plan.read_rate``), not
    before the start of its ``1/rate`` second slot: think time.  Each GET
    is timed from when it was sent; how far behind its slot a paced
    request went out is kept as its lateness.
    """

    def __init__(self, address, plan, start, deadline):
        super().__init__(name="reader", daemon=True)
        self.address = address
        self.plan = plan
        self.start_at = start
        self.deadline = deadline
        self.samples = []
        self.error = None
        self._cursor = None
        self._pages = 0

    def get(self, step, slot=None):
        """Send the *step*-th request; returns its :class:`Sample`."""
        category, index = self.plan.sequence[step % len(self.plan.sequence)]
        url = self.plan.urls[category][index]
        sessions = self.plan.sessions
        session = sessions[step % len(sessions)] if sessions else None
        source = SOURCE_ADDRESSES[step % len(SOURCE_ADDRESSES)]
        target = url.target
        if url.kind == "walk" and self._cursor:
            target += f"?cursor={quote(self._cursor)}"
        payload = request_bytes("GET", target, session=session)
        sent = time.perf_counter()
        late = 0.0 if slot is None else sent - slot
        try:
            status, head, body = exchange(self.address, source, payload)
        except OSError:
            done = time.perf_counter()
            return Sample(done, done - sent, False, 0, 0, late_s=late)
        done = time.perf_counter()
        return Sample(done, done - sent,
                      status == 200 and self.right_body(url, body),
                      status, len(head) + 4 + len(body),
                      cache_verdict(head), late_s=late)

    def right_body(self, url, body):
        if url.kind == "html":
            return url.expect in body
        try:
            document = json.loads(body)
        except ValueError:
            return False
        if url.expect not in document:
            return False
        if url.kind == "walk":
            self._pages += 1
            self._cursor = (document.get("next_cursor")
                            if self._pages % WALK_PAGES else None)
        return True

    def run(self):
        rate = self.plan.read_rate
        try:
            step = 0
            while True:
                slot = None
                if rate:
                    slot = self.start_at + step / rate
                    wait = slot - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                if time.perf_counter() >= self.deadline:
                    break
                self.samples.append(self.get(step, slot))
                step += 1
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc


class Writer(threading.Thread):
    """The open-loop client: one campaign POST every ``1/rate`` seconds
    whatever the server does, each timed from when it was *due*."""

    def __init__(self, address, plan, sessions, start):
        super().__init__(name="writer", daemon=True)
        self.address = address
        self.bodies = plan.writes
        self.sessions = sessions
        self.start_at = start
        self.rate = plan.write_rate
        self.samples = []
        self.campaigns = []     # acknowledged: (campaign id, newest sim id)
        self.error = None

    def post(self, index, body):
        due = self.start_at + index / self.rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late = time.perf_counter() - due
        payload = request_bytes(
            "POST", CAMPAIGNS, body=body,
            session=self.sessions[index % len(self.sessions)])
        source = SOURCE_ADDRESSES[index % len(SOURCE_ADDRESSES)]
        try:
            status, head, answer = exchange(self.address, source, payload)
        except OSError:
            done = time.perf_counter()
            return Sample(done, done - due, False, 0, 0, late_s=late)
        done = time.perf_counter()
        ok = False
        if status == 201:
            try:
                document = json.loads(answer)
                ok = document["created"] == SWEEP_SIZE
                if ok:
                    self.campaigns.append((document["campaign"],
                                           max(document["simulations"])))
            except (ValueError, KeyError):
                ok = False
        return Sample(done, done - due, ok, status,
                      len(head) + 4 + len(answer), late_s=late)

    def run(self):
        try:
            for index, body in enumerate(self.bodies):
                self.samples.append(self.post(index, body))
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc


# ----------------------------------------------------------------------
# daemon_campaign
# ----------------------------------------------------------------------

#: Direct simulations submitted, and scan polls made, per second of
#: measuring window: driving the campaign to DONE (ramp + drain) and
#: scanning it (about 45 ms a poll over 200 running simulations) each
#: take a bit less than half the window.  This machine's speed moves by
#: a quarter for seconds at a time, and a phase much shorter than the
#: window reads whatever speed it happened to meet.
SIMULATIONS_PER_SECOND = 10
SCAN_POLLS_PER_SECOND = 10
CAMPAIGN_OWNERS = 8


def daemon_plan(fixture, seed, seconds):
    """The campaign ``daemonhost`` submits and drives: 8 owners,
    machines in blocks of four, and how the sim clock moves."""
    from .fixture import machine_for, stellar_parameters
    rng = random.Random(f"daemon:{seed}")
    owners = rng.sample(fixture["users"], CAMPAIGN_OWNERS)
    count = max(4, int(seconds * SIMULATIONS_PER_SECOND) // 4 * 4)
    return {
        "simulations": [
            {"star": rng.choice(fixture["stars"])[0],
             "owner": owners[index % CAMPAIGN_OWNERS],
             "machine": machine_for(index, fixture["machines"]),
             "parameters": stellar_parameters(rng)}
            for index in range(count)],
        "ramp_polls": 3, "ramp_step_s": 300.0,
        "scan_polls": max(10, int(seconds * SCAN_POLLS_PER_SECOND)),
        "drain_step_s": 900.0,
    }
