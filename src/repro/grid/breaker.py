"""Per-resource circuit breakers for the daemon's grid traffic.

The retry budget (``grid.retry``) bounds how long one *simulation*
chases one failing operation; the circuit breaker bounds how much grid
traffic the *daemon as a whole* throws at a resource that is plainly
down.  Standard three-state machine, driven by the shared sim clock:

- **closed** — normal operation; consecutive transient failures count
  up, any success resets.
- **open** — after ``failure_threshold`` consecutive failures; every
  call to the resource is suppressed client-side (a synthetic transient,
  no grid traffic) until ``open_for_s`` of virtual time elapses.
- **half-open** — one probe is let through; success closes the breaker,
  failure re-opens it for another cooldown.

Suppressed calls never feed the failure counter — only traffic that
actually reached the fabric counts, otherwise an open breaker could
keep itself open forever.

Every transition is recorded with its virtual timestamp; the soak tests
assert the open/close event log matches the injected outage windows, and
the daemon publishes breaker state into machine telemetry so the portal
(statistics page, submission routing) can steer users away from sick
resources without ever touching the grid itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

BREAKER_STATES = (CLOSED, OPEN, HALF_OPEN)


@dataclass(frozen=True)
class BreakerPolicy:
    failure_threshold: int = 3
    open_for_s: float = 3600.0


@dataclass(frozen=True)
class BreakerEvent:
    """One state transition, virtual-time stamped."""

    time: float
    resource: str
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Health tracking for one resource."""

    def __init__(self, resource, clock, policy=None, *, obs, origin):
        self.resource = resource
        self.clock = clock
        self.policy = policy or BreakerPolicy()
        self.obs = obs
        #: Which daemon instance's registry this breaker belongs to.
        self.origin = origin
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = None
        self.events = []

    # ------------------------------------------------------------------
    def _transition(self, to_state, reason):
        event = BreakerEvent(self.clock.now, self.resource,
                             self.state, to_state, reason)
        self.events.append(event)
        self.state = to_state
        if to_state == OPEN:
            self.opened_at = self.clock.now
        elif to_state == CLOSED:
            self.opened_at = None
            self.consecutive_failures = 0
        # The single emission point for breaker transitions: admin
        # notifications and the portal both ride on this event.
        self.obs.metrics.counter(
            "breaker_transitions_total",
            help="Circuit-breaker state transitions").labels(
            resource=self.resource, to_state=to_state).inc()
        self.obs.metrics.gauge(
            "breaker_open",
            help="1 while the resource circuit is open or probing"
        ).labels(resource=self.resource).set(
            0.0 if to_state == CLOSED else 1.0)
        self.obs.events.emit(
            "breaker.transition", resource=self.resource,
            from_state=event.from_state, to_state=to_state,
            reason=reason, origin=self.origin)

    # ------------------------------------------------------------------
    def allow(self):
        """May a call to this resource proceed right now?

        While open, returns False until the cooldown elapses; the first
        call after that flips to half-open and is admitted as the probe.
        Further calls during the probe stay suppressed.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if (self.clock.now - self.opened_at
                    >= self.policy.open_for_s - 1e-9):
                self._transition(HALF_OPEN, "cooldown elapsed; probing")
                return True
            return False
        return False          # half-open: probe already in flight

    def record_success(self):
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self._transition(CLOSED, "probe succeeded")
        elif self.state == OPEN:
            # A success that raced past an opening breaker: recovery.
            self._transition(CLOSED, "success while open")

    def record_failure(self):
        if self.state == HALF_OPEN:
            self._transition(OPEN, "probe failed")
            return
        self.consecutive_failures += 1
        if (self.state == CLOSED and self.consecutive_failures
                >= self.policy.failure_threshold):
            self._transition(
                OPEN, f"{self.consecutive_failures} consecutive failures")


class BreakerRegistry:
    """Lazy per-resource breakers sharing one clock and policy."""

    def __init__(self, clock, policy=None, *, obs, origin):
        self.clock = clock
        self.policy = policy or BreakerPolicy()
        self.obs = obs
        #: Fleet-instance tag stamped onto every transition event this
        #: registry emits, so each daemon's notification subscriber can
        #: deliver mail for its own breakers only.
        self.origin = origin
        self._breakers = {}

    def breaker(self, resource):
        breaker = self._breakers.get(resource)
        if breaker is None:
            breaker = CircuitBreaker(resource, self.clock, self.policy,
                                     obs=self.obs, origin=self.origin)
            self._breakers[resource] = breaker
        return breaker

    # -- the GridClients-facing surface --------------------------------
    def allow(self, resource):
        return self.breaker(resource).allow()

    def record_success(self, resource):
        self.breaker(resource).record_success()

    def record_failure(self, resource):
        self.breaker(resource).record_failure()

    # -- restart rehydration -------------------------------------------
    def restore(self, resource, state, failures=0, opened_at=None):
        """Rehydrate one breaker from persisted telemetry (no events).

        The daemon publishes breaker snapshots into machine telemetry
        every poll; a restarted daemon reads them back so a machine that
        was provably sick before the crash does not greet the new
        process with a fresh CLOSED breaker (which would let
        ``recover_resource_holds`` hand out refreshed retry budgets the
        moment the daemon bounces).  Restoring is *recall*, not a
        transition: no ``breaker.transition`` event fires, so replayed
        schedules keep byte-identical logs.
        """
        if state not in BREAKER_STATES:
            raise ValueError(f"Unknown breaker state {state!r}")
        if state == HALF_OPEN:
            # The in-flight probe died with the old process; re-open and
            # let the cooldown admit a fresh probe.
            state = OPEN
        breaker = self.breaker(resource)
        breaker.state = state
        breaker.consecutive_failures = int(failures or 0)
        breaker.opened_at = opened_at if state != CLOSED else None
        if state != CLOSED and breaker.opened_at is None:
            # Persisted rows can predate the opened_at column; treat
            # the restart instant as the opening time (conservative:
            # the breaker stays open a full cooldown from now).
            breaker.opened_at = self.clock.now
        return breaker

    # -- observability -------------------------------------------------
    def state_of(self, resource):
        breaker = self._breakers.get(resource)
        return breaker.state if breaker is not None else CLOSED

    def snapshot(self, resource):
        """(state, consecutive_failures, opened_at) for telemetry rows."""
        breaker = self._breakers.get(resource)
        if breaker is None:
            return CLOSED, 0, None
        return (breaker.state, breaker.consecutive_failures,
                breaker.opened_at)

    def events_for(self, resource):
        breaker = self._breakers.get(resource)
        return list(breaker.events) if breaker is not None else []

    def all_events(self):
        """Every transition across resources, in time order."""
        events = [event for breaker in self._breakers.values()
                  for event in breaker.events]
        events.sort(key=lambda e: e.time)
        return events

    def open_resources(self):
        return sorted(name for name, b in self._breakers.items()
                      if b.state != CLOSED)

    def placeable(self, resource):
        """Whether the resource broker may place *new* work here.

        Stricter than ``allow()``: a HALF_OPEN breaker admits its
        telemetry probe, but new placements wait until the probe has
        actually closed the breaker — a recovering machine earns back
        live traffic before it earns back fresh load.
        """
        return self.state_of(resource) == CLOSED
