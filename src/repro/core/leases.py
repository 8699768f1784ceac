"""Durable slice leases: how a fleet of daemons partitions the work.

One :class:`LeaseManager` rides inside each :class:`GridAMPDaemon` and
runs a *sweep* at the top of every poll.  All coordination happens
through :class:`~repro.core.models.LeaseRecord` rows — there is no
peer-to-peer channel between instances, exactly the "coordination in
durable DB state" posture the operation journal and reservation ledger
already take:

1. **presence** — keep this instance's presence row unexpired.  Live
   fleet size = owners of unexpired presence rows.
2. **renew** — extend every held slice lease with a conditional update
   (``WHERE owner = me AND fencing_token = remembered``).  A rowcount
   of zero means the lease was stolen while this process stalled: drop
   it immediately and never touch its simulations again.  Presence
   and slice leases are renewed once half their lifetime is spent,
   not on every sweep: a lease the sweep has just read as its own and
   unexpired stays valid through the poll that follows (stealing
   needs an expiry), so a steady-state sweep is one read and writes
   nothing.
3. **claim/steal** — while holding fewer than the fair share
   (``ceil(n_slices / live_instances)``), claim unowned or expired
   slices in index order.  The conditional update races on the fencing
   token, so of N contenders exactly one wins; every successful claim
   bumps the token, fencing out any writer still remembering the old
   one.  A freshly booted instance may *reclaim* slices its dead
   incarnation held (same owner id) without waiting for expiry —
   instance names are unique per live process by construction.
4. **rebalance** — when the fleet grows, an instance holding more than
   its fair share releases the surplus (highest slice index first), so
   restarted members regain work without waiting for an expiry.

Safety argument (pinned by the hypothesis state-machine test): a slice
is stolen only after its lease expired, holders renew before acting
and drop the slice on a failed renewal, and every write is fenced by
the token — so at no instant do two instances both hold a *valid*
claim on one slice, and any expired slice is adopted within one sweep
of a live instance having spare fair-share capacity.
"""

from __future__ import annotations

import math

from .models import (LEASE_KIND_PRESENCE, LEASE_KIND_SLICE, LeaseRecord,
                     presence_lease_key, slice_lease_key)


#: The scope of a fleet of one — slice 0 of 1, every integer key — in
#: the ``(n_slices, [slice_indexes])`` form of ``slice_filter()``.
WHOLE_TABLE = (1, (0,))


class LeaseManager:
    """Claims, renews, and rebalances slice leases for one instance."""

    def __init__(self, db, clock, *, owner, n_slices, obs, ttl_s=7200.0,
                 fabric=None):
        if n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        self.db = db
        self.clock = clock
        self.owner = owner
        self.n_slices = int(n_slices)
        self.ttl_s = float(ttl_s)
        self.obs = obs
        self.fabric = fabric
        #: slice_index -> the fencing token under which we hold it.
        self.held = {}
        self.ensure_slices()
        self._ensure_presence(self.clock.now)

    # ------------------------------------------------------------------
    def held_slices(self):
        return sorted(self.held)

    def slice_filter(self):
        """The ``field__mod`` filter value for this instance's scope."""
        return (self.n_slices, self.held_slices())

    # ------------------------------------------------------------------
    def _crash_check(self, op, when):
        """Fault-harness hook, same contract as the workflow layer's."""
        schedule = getattr(self.fabric, "crash_schedule", None)
        if schedule is not None:
            schedule.check(op, when)

    def _emit(self, kind, **fields):
        self.obs.events.emit(kind, owner=self.owner, **fields)

    def _count(self, op):
        self.obs.metrics.counter(
            "daemon_lease_operations_total",
            help="Lease protocol operations, by op").labels(op=op).inc()

    # ------------------------------------------------------------------
    def ensure_slices(self):
        """Idempotently create the M slice rows for this partition."""
        existing = {
            row.slice_key
            for row in LeaseRecord.objects.using(self.db)
            .filter(kind=LEASE_KIND_SLICE, n_slices=self.n_slices)
            .only("slice_key")}
        missing = [
            LeaseRecord(slice_key=slice_lease_key(index, self.n_slices),
                        kind=LEASE_KIND_SLICE, slice_index=index,
                        n_slices=self.n_slices)
            for index in range(self.n_slices)
            if slice_lease_key(index, self.n_slices) not in existing]
        if missing:
            LeaseRecord.objects.using(self.db).bulk_create(missing)
        return len(missing)

    def _ensure_presence(self, now):
        """Claim or renew this instance's presence row (heartbeat)."""
        updated = LeaseRecord.objects.using(self.db).filter(
            slice_key=presence_lease_key(self.owner)).update(
            owner=self.owner, renewed_at=now,
            expires_at=now + self.ttl_s)
        if not updated:
            row = LeaseRecord(
                slice_key=presence_lease_key(self.owner),
                kind=LEASE_KIND_PRESENCE, owner=self.owner,
                acquired_at=now, renewed_at=now,
                expires_at=now + self.ttl_s)
            row.save(db=self.db)

    def _renewal_due(self, row, now):
        """Half the lease's lifetime is spent (or all of it)."""
        return row.expires_at - now <= self.ttl_s / 2

    # ------------------------------------------------------------------
    def sweep(self):
        """One lease-protocol round; returns ``(acquired, dropped)``.

        *acquired* — slice indexes newly claimed this sweep (the caller
        owes them a takeover reconciliation before acting on them);
        *dropped* — slice indexes no longer held (lost to a steal, or
        released for rebalancing): the caller must forget any per-slice
        in-memory state (blocked simulations) for them.
        """
        now = self.clock.now
        rows = list(LeaseRecord.objects.using(self.db).order_by("id"))
        presence_key = presence_lease_key(self.owner)
        presence = next((row for row in rows
                         if row.slice_key == presence_key), None)
        if presence is None or self._renewal_due(presence, now):
            self._ensure_presence(now)
        slices = {row.slice_index: row for row in rows
                  if row.kind == LEASE_KIND_SLICE
                  and row.n_slices == self.n_slices}

        # -- renew what we hold; a failed CAS means we lost the lease --
        dropped = []
        for index in sorted(self.held):
            row = slices.get(index)
            token = self.held[index]
            if row is not None and row.owner == self.owner \
                    and row.fencing_token == token \
                    and not self._renewal_due(row, now):
                continue
            self._crash_check("lease_renew", "before")
            renewed = 0
            if row is not None:
                renewed = LeaseRecord.objects.using(self.db).filter(
                    pk=row.pk, owner=self.owner,
                    fencing_token=token).update(
                    renewed_at=now, expires_at=now + self.ttl_s)
            self._crash_check("lease_renew", "after")
            if renewed:
                self._count("renew")
            else:
                del self.held[index]
                dropped.append(index)
                self._count("lost")
                self._emit("daemon.lease.lost", slice=index)

        # -- fair share from live presences ----------------------------
        live = {row.owner for row in rows
                if row.kind == LEASE_KIND_PRESENCE and row.owner
                and row.expires_at > now}
        live.add(self.owner)
        fair = math.ceil(self.n_slices / len(live))

        # -- claim unowned / expired / own-orphaned slices -------------
        acquired = []
        for index in sorted(slices):
            if len(self.held) >= fair:
                break
            if index in self.held:
                continue
            row = slices[index]
            reclaim = row.owner == self.owner
            if not (row.is_claimable(now) or reclaim):
                continue
            token = row.fencing_token + 1
            self._crash_check("lease_claim", "before")
            claimed = LeaseRecord.objects.using(self.db).filter(
                pk=row.pk, fencing_token=row.fencing_token).update(
                owner=self.owner, fencing_token=token,
                acquired_at=now, renewed_at=now,
                expires_at=now + self.ttl_s)
            self._crash_check("lease_claim", "after")
            if not claimed:
                continue                # another contender won the race
            self.held[index] = token
            acquired.append(index)
            stolen_from = row.owner if row.owner != self.owner else ""
            if stolen_from:
                self._count("steal")
                self._emit("daemon.lease.stolen", slice=index,
                           token=token, from_owner=stolen_from)
            else:
                self._count("claim")
                self._emit("daemon.lease.claimed", slice=index,
                           token=token)

        # -- rebalance: release surplus above the fair share -----------
        if len(self.held) > fair:
            for index in sorted(self.held, reverse=True):
                if len(self.held) <= fair:
                    break
                if index in acquired:
                    continue            # never churn a fresh claim
                row = slices.get(index)
                token = self.held.pop(index)
                released = 0
                if row is not None:
                    released = LeaseRecord.objects.using(self.db).filter(
                        pk=row.pk, owner=self.owner,
                        fencing_token=token).update(
                        owner="", expires_at=now)
                dropped.append(index)
                if released:
                    self._count("release")
                    self._emit("daemon.lease.released", slice=index)

        self.obs.metrics.gauge(
            "daemon_lease_slices_held",
            help="Work-partition slices held per fleet "
                 "instance").labels(instance=self.owner).set(
            len(self.held))
        return acquired, dropped
