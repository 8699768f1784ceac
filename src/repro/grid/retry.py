"""Retry budgets with exponential backoff and deterministic jitter.

The paper's §4.4 taxonomy retries anticipated transients *silently* —
but silently must not mean *forever*.  A resource that never comes back
would otherwise be re-polled every cycle until the end of time,
indistinguishable from a healthy one.  This module bounds that loop:

- every grid operation class (submit, poll, transfer, proxy, qstat)
  carries a per-simulation **retry budget**,
- each failed attempt schedules the next retry with **exponential
  backoff** capped at a maximum delay,
- the jitter term is **deterministic** — a hash of ``(key, attempt)``
  rather than a wall-clock random draw — so a fault schedule replayed
  against the same simulation ids produces byte-identical retry
  timestamps (regression-tested),
- exhausting the budget escalates the transient to a HOLD with a
  user-readable reason (the workflow layer owns the wording; no grid
  jargon ever reaches users).

All timestamps are virtual: the :class:`RetryTracker` reads the shared
:class:`~repro.hpc.simclock.SimClock` and never touches wall-clock time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..obs import BACKOFF_BUCKETS, correlation_id

#: Operation classes a retry budget is tracked for.
OP_PROXY = "proxy"
OP_SUBMIT = "submit"
OP_POLL = "poll"
OP_CANCEL = "cancel"
OP_TRANSFER = "transfer"
OP_QSTAT = "qstat"
OP_OTHER = "other"


def classify_operation(argv):
    """Map a client argv vector to its retry-budget operation class.

    clients.py keeps the paper's copy-pasteable argv discipline, so
    argv[0] is authoritative; which program draws on which class is a
    column of the one client vocabulary table (imported here, not at
    module level: that table is built from the classes above).
    """
    from .clients import PROGRAMS
    if not argv:
        return OP_OTHER
    return PROGRAMS.get(str(argv[0]), (OP_OTHER, None))[0]


def deterministic_jitter(key, attempt):
    """A reproducible uniform draw in ``[0, 1)`` keyed on the retry.

    Hash-derived rather than PRNG-drawn: replaying the same fault
    schedule against the same simulation produces the same jitter, which
    is what makes retry timelines regression-testable.
    """
    digest = hashlib.md5(f"{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Budget and backoff parameters for one operation class.

    ``max_attempts`` counts *consecutive* transient failures of one
    operation class on one simulation; any success resets the count.
    """

    max_attempts: int = 6
    base_delay_s: float = 300.0
    multiplier: float = 2.0
    max_delay_s: float = 7200.0
    jitter_fraction: float = 0.1

    def delay_for(self, attempt, key=""):
        """Backoff delay before retry number ``attempt + 1``."""
        exponent = max(int(attempt) - 1, 0)
        raw = min(self.base_delay_s * self.multiplier ** exponent,
                  self.max_delay_s)
        return raw * (1.0 + self.jitter_fraction
                      * deterministic_jitter(key, attempt))

    def exhausted(self, attempt):
        return attempt >= self.max_attempts


@dataclass(frozen=True)
class RetryEvent:
    """One recorded backoff decision (the determinism-test surface)."""

    simulation_id: int
    operation: str
    attempt: int
    failed_at: float
    not_before: float


@dataclass
class RetryTracker:
    """Computes and records backoff decisions against the sim clock.

    The per-simulation attempt counters themselves persist on the
    ``Simulation`` row (``retry_counts``/``retry_not_before``) so a
    daemon restart inherits them; the tracker holds the policy and an
    in-memory event log for tests and operator tooling.  On restart the
    daemon's reconciliation sweep calls :meth:`rehydrate` with the
    surviving rows, so the post-crash tracker reports the same
    escalation state (attempt counts, pending backoff deadlines) the
    pre-crash one did instead of silently starting from zero.
    """

    policy: RetryPolicy
    clock: object
    #: The :class:`~repro.obs.Observability` facade: every backoff
    #: decision feeds retry counters, a backoff-delay histogram, and a
    #: correlation-id-tagged ``sim.retry`` event.
    obs: object
    events: list = field(default_factory=list)

    def next_retry(self, simulation_id, operation, attempt):
        """Record failure number *attempt* and return the earliest
        virtual time the operation may be retried."""
        delay = self.policy.delay_for(attempt,
                                      key=f"{simulation_id}:{operation}")
        not_before = self.clock.now + delay
        self.events.append(RetryEvent(simulation_id, operation, attempt,
                                      self.clock.now, not_before))
        self.obs.metrics.counter(
            "grid_retries_total",
            help="Backoff decisions by operation class").labels(
            operation=operation).inc()
        self.obs.metrics.histogram(
            "grid_retry_backoff_seconds",
            help="Scheduled backoff delays (virtual seconds)",
            buckets=BACKOFF_BUCKETS).observe(delay)
        self.obs.events.emit(
            "sim.retry", simulation=simulation_id,
            trace_id=correlation_id(simulation_id),
            operation=operation, attempt=attempt,
            not_before=not_before)
        return not_before

    def exhausted(self, attempt):
        return self.policy.exhausted(attempt)

    def events_for(self, simulation_id):
        return [e for e in self.events
                if e.simulation_id == simulation_id]

    def attempts_for(self, simulation_id, operation):
        """Highest attempt number recorded for (simulation, operation)."""
        attempts = [e.attempt for e in self.events
                    if e.simulation_id == simulation_id
                    and e.operation == operation]
        return max(attempts, default=0)

    def rehydrate(self, simulations):
        """Rebuild escalation state from the durable ``Simulation`` rows.

        A fresh tracker in a bounced daemon knows nothing; without this,
        operator tooling (``events_for``/``attempts_for``) would report
        a clean slate for a simulation that is six failures deep into
        its budget.  For every persisted ``retry_counts`` entry one
        synthetic :class:`RetryEvent` is reconstructed carrying the
        surviving attempt count and the persisted backoff deadline
        (``failed_at`` is back-computed from the deterministic delay, so
        a rehydrated timeline matches the original one).  Budgets are
        *not* reset — that is the whole point.
        """
        restored = 0
        for simulation in simulations:
            counts = simulation.retry_counts or {}
            not_before = simulation.retry_not_before or 0.0
            for operation, attempt in sorted(counts.items()):
                attempt = int(attempt)
                if attempt <= self.attempts_for(simulation.pk, operation):
                    continue        # already known (shared tracker)
                delay = self.policy.delay_for(
                    attempt, key=f"{simulation.pk}:{operation}")
                self.events.append(RetryEvent(
                    simulation.pk, operation, attempt,
                    max(not_before - delay, 0.0), not_before))
                restored += 1
        return restored
