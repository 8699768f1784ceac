"""Unit tests for the fleet's lease protocol (``core/leases.py``).

These run on a bare in-memory database with a virtual clock — no
deployment, no daemon — so every protocol transition (claim, renew,
steal, reclaim, rebalance, crash windows) is pinned in isolation.
The full-fleet behaviour rides in ``tests/integration``.
"""

from types import SimpleNamespace

import pytest

from repro.core.models import (LEASE_KIND_PRESENCE, LEASE_KIND_SLICE,
                               LeaseRecord, presence_lease_key,
                               slice_lease_key)
from repro.core.leases import LeaseManager
from repro.grid.faults import CrashPoint, CrashSchedule, DaemonCrash
from repro.hpc import SimClock
from repro.webstack.orm import Database, create_all

N_SLICES = 4
TTL = 100.0


class World(SimpleNamespace):
    pass


@pytest.fixture()
def world(obs):
    db = Database(":memory:")
    create_all([LeaseRecord], db)
    clock = SimClock()
    yield World(db=db, clock=clock, obs=obs)
    db.close()


def manager(world, owner, *, n_slices=N_SLICES, ttl=TTL,
            crash_schedule=None):
    return LeaseManager(world.db, world.clock, owner=owner,
                        n_slices=n_slices, obs=world.obs, ttl_s=ttl,
                        crash_schedule=crash_schedule or CrashSchedule())


def slice_rows(world):
    return {row.slice_index: row
            for row in LeaseRecord.objects.using(world.db)
            .filter(kind=LEASE_KIND_SLICE)}


class TestBootstrap:
    def test_slices_created_once(self, world):
        manager(world, "d0")
        manager(world, "d1")      # second boot finds them in place
        rows = list(LeaseRecord.objects.using(world.db)
                    .filter(kind=LEASE_KIND_SLICE))
        assert sorted(r.slice_index for r in rows) == [0, 1, 2, 3]
        assert {r.slice_key for r in rows} == {
            slice_lease_key(i, N_SLICES) for i in range(N_SLICES)}

    def test_presence_written_at_boot(self, world):
        manager(world, "d0")
        row = LeaseRecord.objects.using(world.db).get(
            slice_key=presence_lease_key("d0"))
        assert row.kind == LEASE_KIND_PRESENCE
        assert row.owner == "d0"
        assert row.expires_at == world.clock.now + TTL

    def test_bad_n_slices_rejected(self, world):
        with pytest.raises(ValueError):
            manager(world, "d0", n_slices=0)


class TestClaimAndRenew:
    def test_lone_instance_claims_everything(self, world):
        m = manager(world, "d0")
        acquired, dropped = m.sweep()
        assert acquired == [0, 1, 2, 3]
        assert dropped == []
        assert m.slice_filter() == (N_SLICES, [0, 1, 2, 3])
        for row in slice_rows(world).values():
            assert row.owner == "d0"
            assert row.fencing_token == 1

    def test_two_instances_split_evenly(self, world):
        a = manager(world, "d0")
        b = manager(world, "d1")
        a.sweep()
        b.sweep()
        assert a.held_slices() == [0, 1]
        assert b.held_slices() == [2, 3]

    def test_renewal_extends_expiry(self, world):
        m = manager(world, "d0")
        m.sweep()
        world.clock.advance(TTL / 2)
        m.sweep()
        for row in slice_rows(world).values():
            assert row.expires_at == world.clock.now + TTL
            assert row.fencing_token == 1      # renewals never bump

    def test_expired_lease_stolen_with_token_bump(self, world):
        a = manager(world, "d0")
        a.sweep()
        # d0 goes silent; its leases (and presence) expire.
        world.clock.advance(TTL + 1)
        b = manager(world, "d1")
        acquired, _ = b.sweep()
        assert acquired == [0, 1, 2, 3]
        for row in slice_rows(world).values():
            assert row.owner == "d1"
            assert row.fencing_token == 2

    def test_unexpired_lease_never_stolen(self, world):
        a = manager(world, "d0")
        a.sweep()
        world.clock.advance(TTL / 2)          # still valid
        b = manager(world, "d1")
        b.sweep()
        # d1's fair share is 2, but every slice is validly held: it
        # must wait for a release or an expiry, never steal.
        assert b.held_slices() == []

    def test_failed_renewal_drops_the_slice(self, world):
        a = manager(world, "d0")
        a.sweep()
        world.clock.advance(TTL + 1)
        b = manager(world, "d1")
        b.sweep()                             # steals all four
        acquired, dropped = a.sweep()         # stale holder wakes up
        assert dropped == [0, 1, 2, 3] or set(dropped) <= {0, 1, 2, 3}
        # Whatever it re-acquired came through the claim CAS with a
        # fresh token — the stale tokens are gone from its state.
        rows = slice_rows(world)
        for index, token in a.held.items():
            assert rows[index].fencing_token == token
            assert rows[index].owner == "d0"

    def test_fast_restart_reclaims_own_slices(self, world):
        a = manager(world, "d0")
        a.sweep()
        tokens = dict(a.held)
        # Process dies and restarts immediately: leases not yet expired,
        # owner name matches, so the replacement reclaims at once.
        world.clock.advance(10.0)
        a2 = manager(world, "d0")
        acquired, _ = a2.sweep()
        assert acquired == [0, 1, 2, 3]
        for index, token in a2.held.items():
            assert token == tokens[index] + 1  # reclaim still fences


class TestRebalance:
    def test_surplus_released_when_fleet_grows(self, world):
        a = manager(world, "d0")
        a.sweep()
        assert a.held_slices() == [0, 1, 2, 3]
        b = manager(world, "d1")
        acquired, dropped = a.sweep()
        # Two live presences -> fair share 2: d0 sheds the highest
        # indexes without claiming anything new.
        assert acquired == []
        assert sorted(dropped) == [2, 3]
        assert a.held_slices() == [0, 1]
        b_acquired, _ = b.sweep()
        assert b_acquired == [2, 3]
        rows = slice_rows(world)
        assert rows[2].owner == "d1" and rows[3].owner == "d1"

    def test_release_leaves_slice_immediately_claimable(self, world):
        a = manager(world, "d0")
        a.sweep()
        manager(world, "d1")                  # presence only
        a.sweep()                             # releases 2 and 3
        rows = slice_rows(world)
        assert rows[3].owner == ""
        assert rows[3].is_claimable(world.clock.now)


class TestCrashWindows:
    def test_crash_before_claim_leaves_slice_unclaimed(self, world):
        schedule = CrashSchedule()
        schedule.add(CrashPoint(op="lease_claim", when="before"))
        m = manager(world, "d0", crash_schedule=schedule)
        with pytest.raises(DaemonCrash):
            m.sweep()
        assert m.held_slices() == []
        assert all(row.owner == "" for row in slice_rows(world).values())

    def test_crash_after_claim_is_db_claimed_but_not_held(self, world):
        schedule = CrashSchedule()
        schedule.add(CrashPoint(op="lease_claim", when="after"))
        m = manager(world, "d0", crash_schedule=schedule)
        with pytest.raises(DaemonCrash):
            m.sweep()
        # The CAS landed durably, then the process died before
        # remembering it: exactly the window lease expiry exists for.
        assert m.held_slices() == []
        rows = slice_rows(world)
        assert rows[0].owner == "d0" and rows[0].fencing_token == 1
        world.clock.advance(TTL + 1)
        b = manager(world, "d1")
        acquired, _ = b.sweep()
        assert 0 in acquired              # adoptable after expiry

    def test_crash_mid_renewal_leaves_lease_stealable(self, world):
        schedule = CrashSchedule()
        m = manager(world, "d0", crash_schedule=schedule)
        m.sweep()
        schedule.add(CrashPoint(op="lease_renew", when="before"))
        world.clock.advance(TTL / 2)
        with pytest.raises(DaemonCrash):
            m.sweep()
        world.clock.advance(TTL)          # original grant expires
        b = manager(world, "d1")
        acquired, _ = b.sweep()
        assert acquired == [0, 1, 2, 3]


class TestModLookup:
    """The ORM lookup the slice filters compile to."""

    def test_mod_partitions_by_pk(self, world):
        for index in range(8):
            LeaseRecord(slice_key=f"probe-{index}").save(db=world.db)
        pks = sorted(row.pk for row in
                     LeaseRecord.objects.using(world.db)
                     .filter(slice_key__startswith="probe"))
        even = [pk for pk in pks if pk % 2 == 0]
        got = sorted(row.pk for row in LeaseRecord.objects.using(
            world.db).filter(pk__mod=(2, 0),
                             slice_key__startswith="probe"))
        assert got == even

    def test_mod_accepts_residue_sets(self, world):
        for index in range(8):
            LeaseRecord(slice_key=f"set-{index}").save(db=world.db)
        rows = LeaseRecord.objects.using(world.db).filter(
            slice_key__startswith="set")
        pks = sorted(row.pk for row in rows)
        want = [pk for pk in pks if pk % 4 in (1, 3)]
        got = sorted(row.pk for row in rows.filter(pk__mod=(4, [1, 3])))
        assert got == want
        assert list(rows.filter(pk__mod=(4, []))) == []
