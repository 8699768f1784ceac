"""The SU allocation ledger: durable reservations for placed work.

The broker's money half.  Placement *books* the estimated SU cost of a
simulation against its allocation (a RESERVED row, written before the
simulation is stamped — write-ahead, like the operation journal);
CLEANUP *settles* the actual usage; migration or cancellation
*releases* the hold without charge.  The funding check the broker runs
("does this machine's allocation still fit this job?") subtracts both
``su_used`` and the sum of active reservations, so fifty QUEUED
simulations cannot collectively promise the same remaining SUs — the
ledger invariant:

    su_used + sum(active reserved estimates) ≤ su_granted

holds at every instant, crash or no crash.

Crash windows (see DESIGN.md §7 for the full ordering argument):

- between reservation write and simulation stamp → boot reconciliation
  **adopts** the row (stamps the simulation deterministically); the
  unique ``reservation_key`` means a re-run of placement can never
  book a second estimate;
- between settlement write and allocation charge → the reservation is
  already SETTLED, so the re-run of ``close_simulation`` does not
  charge twice; the books err *under*, never over.
"""

from __future__ import annotations

from ..core.models import (AllocationRecord, MACHINE_AUTO,
                           RESERVATION_RELEASED, RESERVATION_RESERVED,
                           RESERVATION_SETTLED, ReservationRecord,
                           SIM_CANCELLED, SIM_HOLD, SIM_QUEUED,
                           reservation_key)


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
    # Settlement (per completing simulation, from CLEANUP)
    # ------------------------------------------------------------------
    def settle(self, simulation, actual_su):
        """Settle the simulation's active reservation; True if one
        existed (the caller must then *not* charge the legacy path).

        Idempotent: a re-run after a crash finds no RESERVED row and
        reports the reservation already handled.  When migrations left
        several RESERVED rows (a crash between the broker's two bulk
        writes), the newest row — the one matching the machine the
        simulation actually ran on — settles and the rest release.
        """
        rows = list(ReservationRecord.objects.using(self.db).filter(
            simulation_id=simulation.pk).order_by("id"))
        if not rows:
            return False
        active = [row for row in rows if row.is_active]
        if not active:
            # Already settled (or all released): nothing more to charge.
            return True
        for stale in active[:-1]:
            self.release(stale, "superseded")
            stale.save(db=self.db)
        row = active[-1]
        row.state = RESERVATION_SETTLED
        row.reason = "settled"
        row.settled_su = float(actual_su)
        row.resolved_at = self.clock.now
        row.save(db=self.db)
        if actual_su > 0:
            try:
                allocation = AllocationRecord.objects.using(
                    self.db).get(pk=row.allocation_id)
            except AllocationRecord.DoesNotExist:
                return True
            allocation.su_used = allocation.su_used + float(actual_su)
            allocation.save(db=self.db)
        self.obs.events.emit(
            "sched.settlement", simulation=simulation.pk,
            trace_id=simulation.correlation_id,
            machine=row.machine_name,
            estimated_su=round(row.estimated_su, 6),
            settled_su=round(float(actual_su), 6))
        return True

    # ------------------------------------------------------------------
    # Boot reconciliation (the broker's half of the recovery sweep)
    # ------------------------------------------------------------------
    def reconcile(self, slice_filter):
        """Heal reservations a dead daemon left behind.

        Decision table, per RESERVED row (one SELECT, bulk writes):

        - simulation still QUEUED on the AUTO sentinel → **adopt**: the
          crash hit between the reservation write and the simulation
          stamp; finish the placement exactly as the dead process
          would have (the row records the chosen machine).
        - simulation QUEUED on this row's machine → healthy in-flight
          reservation; leave it.
        - several RESERVED rows for one simulation → keep the newest,
          **release** the rest (a crash between the migration sweep's
          bulk writes).
        - simulation finished, cancelled, or held for an administrator
          → **release**: the hold must not pin SUs nobody will spend.

        Returns ``(adopted, released)``.  Each daemon instance
        reconciles only the residue classes it just took over
        (*slice_filter*), so the replay never races a live owner's
        in-flight work.
        """
        rows = self.active_reservations(slice_filter)
        newest = {}
        for row in rows:
            newest[row.simulation_id] = row
        adopted, stamped, released = 0, [], []
        for row in rows:
            simulation = row.simulation
            if row is not newest[row.simulation_id]:
                released.append(self.release(row, "superseded"))
                continue
            if simulation.state == SIM_QUEUED:
                if simulation.machine_name == MACHINE_AUTO:
                    simulation.machine_name = row.machine_name
                    stamped.append(simulation)
                    adopted += 1
                continue
            if simulation.is_active:
                continue            # running under this reservation
            reason = ("cancelled" if simulation.state == SIM_CANCELLED
                      else "held" if simulation.state == SIM_HOLD
                      else "finished")
            released.append(self.release(row, reason))
        if stamped:
            from ..core.models import Simulation
            Simulation.objects.using(self.db).bulk_update(
                stamped, ["machine_name"])
        if released:
            ReservationRecord.objects.using(self.db).bulk_update(
                released, self.RESERVATION_FIELDS)
        return adopted, len(released)

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
