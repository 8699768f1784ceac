"""Composable fault injection for failure-handling experiments.

Reproduces the §4.4 failure classes on demand, and extends them into a
harness every robustness policy (retry budgets, backoff, circuit
breakers) can be exercised against.  All shapes are driven by the shared
sim clock, so a fault *schedule* is deterministic and replayable:

- **outages** — a resource becomes unreachable for a window of virtual
  time (GRAM and GridFTP both fail transiently); ``permanent_outage``
  never ends until explicitly ``restore()``-d,
- **flapping** — a resource that cycles down/up repeatedly (grid
  weather), composed from outage windows,
- **latency spikes** — a window during which every *n*-th operation on
  the resource times out client-side,
- **transfer aborts** — the next N GridFTP transfers abort mid-stream,
- **partial transfers** — the next N GridFTP transfers truncate
  (checksum catches them; transient),
- **submit rejections** — the gatekeeper refuses the next N GRAM
  submissions (transient),
- **proxy faults** — the daemon's current proxy expires or is tampered
  with mid-run (the toolkit must self-heal by re-issuing),
- **model failures** — a staged output file is corrupted so result
  parsing fails (handled at the workflow layer, which holds the
  simulation),
- **daemon crashes** — deterministic :class:`CrashPoint`\\ s raise
  :class:`DaemonCrash` at the operation journal's two dangerous
  windows (after the intent write / after the remote side effect), so
  the kill-restart-resume property tests can kill the daemon at every
  journaled boundary and assert exactly-once semantics survive.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass
class OutageRecord:
    resource: str
    start: float
    end: float

    def overlaps(self, time):
        return self.start <= time <= self.end


class PermanentOutage:
    """Handle for an outage with no scheduled recovery."""

    def __init__(self, injector, resource_name, record):
        self._injector = injector
        self.resource_name = resource_name
        self.record = record
        self.restored = False

    def restore(self):
        """Bring the resource back (the operator fixed it)."""
        if self.restored:
            return
        resource = self._injector.fabric.resource(self.resource_name)
        resource.reachable = True
        self.record.end = self._injector.clock.now
        self.restored = True


class LatencyWindow:
    """Client-side timeouts during a congestion window.

    While active, every ``timeout_every``-th operation on the resource
    raises :class:`~repro.grid.errors.OperationTimeout` (1 = all of
    them).  The counter is deterministic — no randomness — so schedules
    replay identically.
    """

    def __init__(self, start, end, timeout_every=2):
        if timeout_every < 1:
            raise ValueError("timeout_every must be >= 1")
        self.start = start
        self.end = end
        self.timeout_every = int(timeout_every)
        self.operations_seen = 0
        self.timeouts_raised = 0

    def active(self, now):
        return self.start <= now < self.end

    def should_timeout(self):
        """Count one operation; True when it should time out."""
        self.operations_seen += 1
        if self.operations_seen % self.timeout_every == 0:
            self.timeouts_raised += 1
            return True
        return False


def check_latency(resource, now):
    """Service-side hook: raise if the resource's latency window says
    this operation times out.  Installed by ``latency_spike``."""
    window = resource.latency_window
    if window is not None and window.active(now) \
            and window.should_timeout():
        from .errors import OperationTimeout
        raise OperationTimeout(
            f"{resource.name}: operation timed out under load")


class DaemonCrash(BaseException):
    """The daemon process dies, *now*.

    Derives from :class:`BaseException` deliberately: a crash is not an
    error any ``except Exception`` recovery path may swallow — it must
    unwind the whole poll stack exactly the way ``kill -9`` discards it.
    The test harness catches it at top level and constructs a fresh
    daemon against the same database and fabric.
    """

    def __init__(self, op, when):
        super().__init__(f"daemon crashed {when} journaled {op}")
        self.op = op
        self.when = when


@dataclass
class CrashPoint:
    """One scheduled kill at a journaled operation boundary.

    ``when="before"`` fires after the journal intent is durably written
    but before the side-effecting grid call; ``when="after"`` fires
    after the remote side effect but before the journal commit lands.
    These are the two windows a crash can leave intent and reality
    disagreeing — everything else is ordinary at-rest state.  ``skip``
    lets the point target the N-th matching boundary; each point fires
    exactly once, so schedules replay deterministically.
    """

    op: str                   # "submit" | "stage_in" | ... | "*"
    when: str                 # "before" | "after"
    skip: int = 0
    hits: int = 0
    fired: bool = False

    def matches(self, op, when):
        return (self.op in ("*", op)) and self.when == when


class CrashSchedule:
    """The registry of pending crash points, consulted at every
    journaled boundary (the fabric builds one, so it outlives any
    daemon it kills)."""

    def __init__(self):
        self.points = []
        self.crashes = []          # (op, when) pairs that fired

    def add(self, point):
        self.points.append(point)
        return point

    def check(self, op, when):
        """Raise :class:`DaemonCrash` when a pending point matches."""
        for point in self.points:
            if point.fired or not point.matches(op, when):
                continue
            point.hits += 1
            if point.hits <= point.skip:
                continue
            point.fired = True
            self.crashes.append((op, when))
            raise DaemonCrash(op, when)

    @property
    def pending(self):
        return [p for p in self.points if not p.fired]


class FaultInjector:
    def __init__(self, fabric, clock):
        self.fabric = fabric
        self.clock = clock
        self.outages = []

    # ------------------------------------------------------------------
    # Reachability faults
    # ------------------------------------------------------------------
    def outage(self, resource_name, *, start_in_s, duration_s):
        """Schedule an unreachability window for one resource."""
        resource = self.fabric.resource(resource_name)

        def go_down():
            resource.reachable = False

        def come_back():
            resource.reachable = True

        self.clock.schedule(start_in_s, go_down)
        self.clock.schedule(start_in_s + duration_s, come_back)
        record = OutageRecord(resource_name, self.clock.now + start_in_s,
                              self.clock.now + start_in_s + duration_s)
        self.outages.append(record)
        return record

    def permanent_outage(self, resource_name, *, start_in_s=0.0):
        """The resource goes down and stays down until ``restore()``."""
        resource = self.fabric.resource(resource_name)

        def go_down():
            resource.reachable = False

        if start_in_s <= 0:
            go_down()
        else:
            self.clock.schedule(start_in_s, go_down)
        record = OutageRecord(resource_name, self.clock.now + start_in_s,
                              math.inf)
        self.outages.append(record)
        return PermanentOutage(self, resource_name, record)

    def flapping(self, resource_name, *, start_in_s, period_s,
                 down_s, cycles):
        """A resource that cycles down/up: *cycles* outages of
        ``down_s`` seconds, one every ``period_s`` seconds."""
        if down_s >= period_s:
            raise ValueError("down_s must be shorter than period_s")
        return [self.outage(resource_name,
                            start_in_s=start_in_s + i * period_s,
                            duration_s=down_s)
                for i in range(int(cycles))]

    def latency_spike(self, resource_name, *, start_in_s, duration_s,
                      timeout_every=2):
        """During the window, every ``timeout_every``-th operation on
        the resource times out client-side."""
        resource = self.fabric.resource(resource_name)
        window = LatencyWindow(self.clock.now + start_in_s,
                               self.clock.now + start_in_s + duration_s,
                               timeout_every=timeout_every)
        resource.latency_window = window
        return window

    def outage_windows(self, resource_name=None):
        """Injected outage windows, for asserting breaker event timing."""
        return [r for r in self.outages
                if resource_name is None or r.resource == resource_name]

    # ------------------------------------------------------------------
    # Daemon crashes (kill-restart-resume harness)
    # ------------------------------------------------------------------
    def crash(self, op, *, when="before", skip=0):
        """Kill the daemon at the next matching journaled boundary.

        ``op`` is a journal operation class (``submit``/``stage_in``/
        ``stage_out``/``cancel``), a broker boundary (``reserve``), a
        lease-protocol boundary (``lease_claim``/``lease_renew``/
        ``takeover`` — the fleet's claim CAS, renewal CAS, and scoped
        journal-replay windows), or ``"*"``; ``when`` picks the window
        (see :class:`CrashPoint`); ``skip`` skips that many matching
        boundaries first.  Returns the :class:`CrashPoint` handle.
        """
        if when not in ("before", "after"):
            raise ValueError("when must be 'before' or 'after'")
        return self.fabric.crash_schedule.add(
            CrashPoint(op=op, when=when, skip=int(skip)))

    # ------------------------------------------------------------------
    # Transfer and submission faults
    # ------------------------------------------------------------------
    def abort_transfers(self, resource_name, n=1):
        """Make the next *n* GridFTP transfers abort mid-stream."""
        self.fabric.gridftp(resource_name).inject_transfer_faults(n)

    def truncate_transfers(self, resource_name, n=1):
        """Make the next *n* GridFTP transfers deliver partial data."""
        self.fabric.gridftp(resource_name).inject_partial_transfers(n)

    def reject_submissions(self, resource_name, n=1):
        """Make the gatekeeper refuse the next *n* GRAM submissions."""
        self.fabric.gram(resource_name).inject_submit_rejections(n)

    # ------------------------------------------------------------------
    # Credential faults (the toolkit must self-heal: the next
    # ensure_proxy for that user detects the bad proxy and re-issues)
    # ------------------------------------------------------------------
    def expire_proxy(self, clients):
        """Force the active user's wallet proxy to expire mid-run."""
        proxy = clients.current_proxy
        if proxy is None:
            return None
        elapsed = max(0.0, self.clock.now - proxy.issued_at)
        draft = dataclasses.replace(proxy, lifetime_s=elapsed,
                                    signature="")
        signature = self.fabric.proxy_factory.credential.sign(
            draft.payload())
        expired = dataclasses.replace(draft, signature=signature)
        clients.current_proxy = expired
        return expired

    def tamper_proxy(self, clients):
        """Break the signature chain of the active user's wallet
        proxy."""
        proxy = clients.current_proxy
        if proxy is None:
            return None
        tampered = dataclasses.replace(proxy, signature="tampered")
        clients.current_proxy = tampered
        return tampered

    # ------------------------------------------------------------------
    # Model failures
    # ------------------------------------------------------------------
    def corrupt_file(self, resource_name, remote_path,
                     garbage=b"NaN NaN garbage !!\n"):
        """Overwrite a staged file so output parsing fails (model
        failure)."""
        fs = self.fabric.resource(resource_name).filesystem
        fs.write(remote_path, garbage)
