"""The SU allocation ledger: durable reservations for placed work.

The broker's money half.  Placement *books* the estimated SU cost of a
simulation against its allocation (a RESERVED row, committed with the
simulation's stamp); CLEANUP *settles* the actual usage; migration, or
the sweep finding the simulation finished, cancelled or held for an
administrator, *releases* the hold without charge.  The funding check the broker runs
("does this machine's allocation still fit this job?") subtracts both
``su_used`` and the sum of active reservations, so fifty QUEUED
simulations cannot collectively promise the same remaining SUs — the
ledger invariant:

    su_used + sum(active reserved estimates) ≤ su_granted

holds at every instant, crash or no crash.

No grid command sits between these writes, so none leaves a crash
window (DESIGN.md §7): the broker commits a sweep's rows and stamps in
one transaction, and settlement commits the SETTLED row with the
allocation charge in another.  A re-run of ``close_simulation`` after
a crash finds the row either still RESERVED (nothing charged yet) or
SETTLED (charged once).
"""

from __future__ import annotations

from ..core.models import (AllocationRecord, RESERVATION_RELEASED,
                           RESERVATION_RESERVED, RESERVATION_SETTLED,
                           ReservationRecord, reservation_key)


class SULedger:
    def __init__(self, db, clock, obs):
        self.db = db
        self.clock = clock
        self.obs = obs

    # ------------------------------------------------------------------
    # Reads (set-oriented: the broker calls these once per sweep)
    # ------------------------------------------------------------------
    def active_reservations(self, slice_filter):
        """The RESERVED rows of one scope, with their simulations, in
        one query.

        *slice_filter* — a ``(n_slices, [slice_indexes])`` pair from a
        daemon instance's lease manager — restricts the read to
        reservations whose simulation falls in the owned residue
        classes, so concurrent daemons sweep disjoint sets.
        """
        return list(ReservationRecord.objects.using(self.db)
                    .filter(state=RESERVATION_RESERVED,
                            simulation_id__mod=slice_filter)
                    .select_related("simulation__owner")
                    .order_by("id"))

    def reserved_by_allocation(self):
        """``{allocation_id: total estimated SUs}`` over every RESERVED
        row — deployment-wide whatever the caller's scope: a funding
        check must subtract every instance's active holds, otherwise N
        daemons could collectively promise the same remaining SUs.
        Sweeps are serialised through the database, so each one sees
        the rows its peers already booked."""
        totals = {}
        for row in (ReservationRecord.objects.using(self.db)
                    .filter(state=RESERVATION_RESERVED)
                    .only("allocation_id", "estimated_su")):
            totals[row.allocation_id] = (
                totals.get(row.allocation_id, 0.0) + row.estimated_su)
        return totals

    # ------------------------------------------------------------------
    # Writes (the broker builds rows; bulk persistence stays with it)
    # ------------------------------------------------------------------
    def build_reservation(self, simulation, allocation, machine_name,
                          *, policy_name, estimated_su, attempt):
        """An unsaved RESERVED row for the broker's bulk_create."""
        return ReservationRecord(
            simulation_id=simulation.pk, allocation_id=allocation.pk,
            machine_name=machine_name, policy=policy_name,
            attempt=attempt,
            reservation_key=reservation_key(simulation.pk, attempt),
            estimated_su=float(estimated_su),
            state=RESERVATION_RESERVED, created_at=self.clock.now)

    def release(self, row, reason):
        """Mark one row RELEASED in memory (caller persists)."""
        row.state = RESERVATION_RELEASED
        row.reason = reason
        row.resolved_at = self.clock.now
        return row

    RESERVATION_FIELDS = ["state", "reason", "settled_su", "resolved_at"]

    # ------------------------------------------------------------------
    # Settlement (the completing simulations of a CLEANUP step)
    # ------------------------------------------------------------------
    def settle(self, charges):
        """Settle the active reservation of each ``(simulation,
        actual_su)`` of *charges*; returns the pks of the simulations
        that have reservations (the caller must then *not* charge the
        legacy path).

        Idempotent: the SETTLED rows and the allocation charges commit
        together, so a re-run after a crash finds no RESERVED row and
        reports the reservation already handled.  One SELECT of the
        reservations, then one UPDATE of the rows and, when anything is
        charged, one SELECT and one UPDATE of the allocations.
        """
        booked = {}
        if charges:
            for row in (ReservationRecord.objects.using(self.db)
                        .filter(simulation_id__in_json=sorted(
                            {simulation.pk for simulation, _ in charges}))
                        .order_by("id")):
                booked.setdefault(row.simulation_id, []).append(row)
        settled, charged = [], {}
        for simulation, actual_su in charges:
            active = [row for row in booked.get(simulation.pk, ())
                      if row.is_active]
            if not active:
                # None booked (legacy charging), or already settled or
                # all released: nothing more to charge here.
                continue
            row = active[-1]
            row.state = RESERVATION_SETTLED
            row.reason = "settled"
            row.settled_su = float(actual_su)
            row.resolved_at = self.clock.now
            settled.append((simulation, row))
            if actual_su > 0:
                charged.setdefault(row.allocation_id, []).append(
                    float(actual_su))
        if settled:
            with self.db.atomic():
                ReservationRecord.objects.using(self.db).bulk_update(
                    [row for _, row in settled], self.RESERVATION_FIELDS)
                allocations = list(
                    AllocationRecord.objects.using(self.db).filter(
                        pk__in_json=sorted(charged))) if charged else []
                for allocation in allocations:
                    for sus in charged[allocation.pk]:
                        allocation.su_used = allocation.su_used + sus
                if allocations:
                    AllocationRecord.objects.using(self.db).bulk_update(
                        allocations, ["su_used"])
        for simulation, row in settled:
            self.obs.events.emit(
                "sched.settlement", simulation=simulation.pk,
                trace_id=simulation.correlation_id,
                machine=row.machine_name,
                estimated_su=round(row.estimated_su, 6),
                settled_su=round(row.settled_su, 6))
        return set(booked)

    # ------------------------------------------------------------------
    # Audit (tests and the statistics page lean on this)
    # ------------------------------------------------------------------
    def invariant_report(self):
        """Per-allocation ``(reserved, used, granted)`` triples.

        The ledger invariant holds iff ``reserved + used ≤ granted``
        for every row returned.
        """
        reserved = self.reserved_by_allocation()
        report = []
        for allocation in AllocationRecord.objects.using(self.db).all():
            report.append({
                "allocation_id": allocation.pk,
                "project": allocation.project,
                "reserved_su": reserved.get(allocation.pk, 0.0),
                "used_su": allocation.su_used,
                "granted_su": allocation.su_granted,
            })
        return report
