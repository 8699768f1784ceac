"""Property-based test of the lease state machine (hypothesis).

A random interleaving of sweeps, clock advances, kills, restarts, and
spawns across five would-be owners must never violate the two protocol
invariants the fleet's correctness rests on:

* **safety** — at no observable instant do two live processes both
  believe they hold a *valid* claim on one slice (held token matches
  the row's fencing token and the row names them as owner);
* **liveness** — once the dust settles (every expiry has passed and
  live instances sweep a few rounds), every slice is held, unexpired,
  by a live instance whose in-memory token matches the durable row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leases import LeaseManager
from repro.core.models import LEASE_KIND_SLICE, LeaseRecord
from repro.grid.faults import CrashSchedule
from repro.hpc import SimClock
from repro.obs import Observability
from repro.webstack.orm import Database, create_all

pytestmark = pytest.mark.fleet

N_SLICES = 4
TTL = 50.0
OWNERS = ["d0", "d1", "d2", "d3", "d4"]

ops = st.lists(
    st.one_of(
        st.tuples(st.just("sweep"), st.integers(0, len(OWNERS) - 1)),
        st.tuples(st.just("advance"),
                  st.floats(1.0, TTL * 1.5, allow_nan=False)),
        st.tuples(st.just("kill"), st.integers(0, len(OWNERS) - 1)),
        st.tuples(st.just("restart"), st.integers(0, len(OWNERS) - 1)),
    ),
    min_size=1, max_size=40)


class Fleet:
    def __init__(self):
        self.db = Database(":memory:")
        create_all([LeaseRecord], self.db)
        self.clock = SimClock()
        self.obs = Observability(self.clock)
        self.alive = {}               # owner -> LeaseManager

    def close(self):
        self.db.close()

    def spawn(self, owner):
        self.alive[owner] = LeaseManager(
            self.db, self.clock, owner=owner,
            n_slices=N_SLICES, obs=self.obs, ttl_s=TTL,
            crash_schedule=CrashSchedule())

    def kill(self, owner):
        self.alive.pop(owner, None)

    def slice_rows(self):
        return {row.slice_index: row
                for row in LeaseRecord.objects.using(self.db)
                .filter(kind=LEASE_KIND_SLICE)}

    def check_safety(self):
        """<= 1 live manager holds a valid claim on each slice."""
        rows = self.slice_rows()
        for index, row in rows.items():
            holders = [
                m.owner for m in self.alive.values()
                if m.held.get(index) == row.fencing_token
                and row.owner == m.owner]
            assert len(holders) <= 1, (
                f"slice {index} validly held by {holders} "
                f"(row owner={row.owner!r} token={row.fencing_token})")


@given(script=ops)
@settings(max_examples=25, deadline=None)
def test_never_two_valid_owners_and_orphans_get_adopted(script):
    fleet = Fleet()
    try:
        fleet.spawn("d0")             # someone is always bootstrapped
        for op, arg in script:
            owner = OWNERS[int(arg) % len(OWNERS)] \
                if op != "advance" else None
            if op == "sweep" and owner in fleet.alive:
                fleet.alive[owner].sweep()
            elif op == "advance":
                fleet.clock.advance(float(arg))
            elif op == "kill":
                fleet.kill(owner)
            elif op == "restart":
                fleet.kill(owner)
                fleet.spawn(owner)
            fleet.check_safety()

        # ---- liveness finale: expire the dead, settle the living ----
        if not fleet.alive:
            fleet.spawn("d0")
        fleet.clock.advance(TTL + 10.0)
        # Total claim capacity is len(alive) * ceil(M / len(alive))
        # >= M, so every expired slice is adopted within one round of
        # claims plus one of rebalancing; a third round is slack.
        for _ in range(3):
            for m in list(fleet.alive.values()):
                m.sweep()
                fleet.check_safety()
        rows = fleet.slice_rows()
        now = fleet.clock.now
        for index, row in rows.items():
            assert row.owner in fleet.alive, \
                f"slice {index} orphaned on {row.owner!r}"
            assert row.expires_at > now, f"slice {index} expired"
            assert fleet.alive[row.owner].held.get(index) \
                == row.fencing_token, f"slice {index} token mismatch"
    finally:
        fleet.close()
