"""The AMP "core application" — shared ORM models.

The paper (§4.1): "we implemented most of the science gateway
functionality in a single core application consisting of ORM models and
support routines.  For example, the catalog of stars, their identifiers,
the simulations, and the constituent supercomputer jobs are all stored in
this core application. [...] Only this core application's models are
shared between the website and the GridAMP daemon."

Workflow status is two-level (§4.4): the *simulation* carries its
application-level state (the Listing 1 state machine), while each
constituent *grid job* carries a generic GRAM-level status updated by a
purpose-blind poll loop.
"""

from __future__ import annotations

from ..obs import correlation_id
from ..webstack import orm
from ..webstack.auth import AUTH_MODELS, User

# ----------------------------------------------------------------------
# Simulation state machine (Listing 1 + failure states)
# ----------------------------------------------------------------------
SIM_QUEUED = "QUEUED"
SIM_PREJOB = "PREJOB"
SIM_RUNNING = "RUNNING"
SIM_POSTJOB = "POSTJOB"
SIM_CLEANUP = "CLEANUP"
SIM_DONE = "DONE"
SIM_HOLD = "HOLD"          # model failure: needs administrator attention
SIM_CANCELLED = "CANCELLED"

SIM_STATES = (SIM_QUEUED, SIM_PREJOB, SIM_RUNNING, SIM_POSTJOB,
              SIM_CLEANUP, SIM_DONE, SIM_HOLD, SIM_CANCELLED)
SIM_ACTIVE_STATES = (SIM_QUEUED, SIM_PREJOB, SIM_RUNNING, SIM_POSTJOB,
                     SIM_CLEANUP)

KIND_DIRECT = "direct"
KIND_OPTIMIZATION = "optimization"

#: Sentinel machine name for broker-placed simulations: the portal's
#: "Auto — let AMP choose" option stores this, and the daemon's
#: placement phase (repro.sched) replaces it with a concrete machine
#: before the workflow is allowed to advance past QUEUED.
MACHINE_AUTO = "auto"

# Hold categories: why a simulation sits in SIM_HOLD.
HOLD_MODEL = "model"          # model failure — administrator attention
HOLD_RESOURCE = "resource"    # retry budget exhausted — auto-resumable

# Grid-job purposes within a simulation.
JOB_PREJOB = "prejob"
JOB_GA = "ga"
JOB_SOLUTION = "solution"
JOB_MODEL = "model"
JOB_POSTJOB = "postjob"
JOB_CLEANUP = "cleanup"
#: ``failure_reason`` of a chained job the gateway itself revoked.
JOB_REVOKED = "superfluous chained job cancelled by gateway"

# GRAM-level job states (mirrors repro.grid.gram).
GRAM_STATES = ("UNSUBMITTED", "PENDING", "ACTIVE", "DONE", "FAILED")
#: The states of a job still in flight: level 1 polls these.
GRAM_IN_FLIGHT = GRAM_STATES[:3]

# Operation-journal lifecycle (crash recovery).  An entry is written
# durably *before* the side-effecting grid call (INTENT) and marked
# COMMITTED only after the resulting database state has landed; an
# ABORTED entry records an operation that provably produced no remote
# side effect (transient failure, or reconciliation established the
# call never reached the fabric) and may safely be re-issued.
JOURNAL_INTENT = "INTENT"
JOURNAL_COMMITTED = "COMMITTED"
JOURNAL_ABORTED = "ABORTED"
JOURNAL_STATES = (JOURNAL_INTENT, JOURNAL_COMMITTED, JOURNAL_ABORTED)

# Journaled operation classes (the side-effecting grid calls).
JOURNAL_OP_SUBMIT = "submit"
JOURNAL_OP_STAGE_IN = "stage_in"
JOURNAL_OP_STAGE_OUT = "stage_out"
JOURNAL_OP_CANCEL = "cancel"
JOURNAL_OPS = (JOURNAL_OP_SUBMIT, JOURNAL_OP_STAGE_IN,
               JOURNAL_OP_STAGE_OUT, JOURNAL_OP_CANCEL)

# How reconciliation (or the normal commit path) resolved an entry.
OUTCOME_COMMITTED = "committed"    # normal two-phase completion
OUTCOME_REPLAYED = "replayed"      # DB already held the result; re-marked
OUTCOME_ADOPTED = "adopted"        # orphaned GRAM job found and adopted
OUTCOME_VERIFIED = "verified"      # transfer re-verified by size/digest
OUTCOME_REISSUED = "reissued"      # provably never happened; safe to redo
OUTCOME_TRANSIENT = "transient"    # the call failed transiently; no effect
OUTCOME_FAILED = "failed"          # the call failed permanently; no effect


# SU-reservation lifecycle (resource broker, repro.sched).  A
# reservation is written durably *before* the simulation is stamped
# with its placed machine (the same write-ahead discipline as the
# operation journal): RESERVED holds the estimated cost against the
# allocation, SETTLED records the actual usage charged at CLEANUP, and
# RELEASED marks a reservation withdrawn without charge (migration to
# another site, cancellation, or reconciliation of a stale row).
RESERVATION_RESERVED = "RESERVED"
RESERVATION_SETTLED = "SETTLED"
RESERVATION_RELEASED = "RELEASED"
RESERVATION_STATES = (RESERVATION_RESERVED, RESERVATION_SETTLED,
                      RESERVATION_RELEASED)


def reservation_key(simulation_pk, attempt):
    """The deterministic identity of one placement reservation.

    ``amp-sim-{pk}-reservation-{attempt}``: like the operation
    journal's idempotency keys, ``attempt`` is derived from durable
    rows, so a bounced daemon computes the same next key the dead one
    would have and the unique constraint refuses a double-reserve.
    """
    return f"amp-sim-{int(simulation_pk)}-reservation-{int(attempt)}"


# Daemon-fleet lease kinds.  A *slice* lease grants its owner one
# residue class of simulation primary keys (``pk % n_slices ==
# slice_index``); a *presence* row is one instance's durable heartbeat,
# which peers read to compute the live fleet size for fair sharing.
LEASE_KIND_SLICE = "slice"
LEASE_KIND_PRESENCE = "presence"
LEASE_KINDS = (LEASE_KIND_SLICE, LEASE_KIND_PRESENCE)


def slice_lease_key(slice_index, n_slices):
    """The deterministic identity of one work-partition lease."""
    return f"slice-{int(slice_index)}-of-{int(n_slices)}"


def presence_lease_key(owner):
    """The deterministic identity of one instance's presence row."""
    return f"presence-{owner}"


class Star(orm.Model):
    """A catalog star.  ``source`` records provenance (local | simbad)."""

    name = orm.CharField(max_length=80, unique=True)
    hd_number = orm.IntegerField(null=True, db_index=True)
    kic_number = orm.IntegerField(null=True, db_index=True)
    ra_deg = orm.FloatField(null=True, min_value=0.0, max_value=360.0)
    dec_deg = orm.FloatField(null=True, min_value=-90.0, max_value=90.0)
    in_kepler_catalog = orm.BooleanField(default=False)
    source = orm.CharField(max_length=16, default="local",
                           choices=[("local", "Local"),
                                    ("simbad", "SIMBAD")])
    created = orm.DateTimeField(auto_now_add=True)

    class Meta:
        table_name = "amp_star"
        ordering = ["name"]

    def identifier_strings(self):
        out = [self.name]
        if self.hd_number:
            out.append(f"HD {self.hd_number}")
        if self.kic_number:
            out.append(f"KIC {self.kic_number}")
        return out


class ObservationSet(orm.Model):
    """Observed asteroseismic data for a star (the GA's target).

    All user-supplied numbers pass through the bounded Float fields —
    the strict-typing half of the input-marshaling security argument.
    """

    star = orm.ForeignKey(Star, related_name="observations")
    label = orm.CharField(max_length=80, default="default")
    teff = orm.FloatField(min_value=3000.0, max_value=10000.0)
    teff_err = orm.FloatField(default=80.0, min_value=1.0, max_value=1000.0)
    luminosity = orm.FloatField(null=True, min_value=0.01, max_value=100.0)
    luminosity_err = orm.FloatField(default=0.1, min_value=0.001,
                                    max_value=10.0)
    delta_nu = orm.FloatField(null=True, min_value=5.0, max_value=400.0)
    delta_nu_err = orm.FloatField(default=1.0, min_value=0.01,
                                  max_value=50.0)
    d02 = orm.FloatField(null=True, min_value=0.0, max_value=50.0)
    d02_err = orm.FloatField(default=0.6, min_value=0.01, max_value=10.0)
    nu_max = orm.FloatField(null=True, min_value=100.0, max_value=10000.0)
    nu_max_err = orm.FloatField(default=60.0, min_value=1.0,
                                max_value=1000.0)
    frequencies = orm.JSONField(null=True)   # {"0": [...], "1": [...]}
    created = orm.DateTimeField(auto_now_add=True)

    class Meta:
        table_name = "amp_observation"

    def to_observed_star(self):
        from ..science.mpikaia.fitness import ObservedStar
        freqs = {}
        for key, values in (self.frequencies or {}).items():
            freqs[int(key)] = [float(v) for v in values]
        return ObservedStar(
            name=self.star.name if self.star_id else self.label,
            teff=self.teff, teff_err=self.teff_err,
            luminosity=self.luminosity, luminosity_err=self.luminosity_err,
            delta_nu=self.delta_nu, delta_nu_err=self.delta_nu_err,
            d02=self.d02, d02_err=self.d02_err,
            nu_max=self.nu_max, nu_max_err=self.nu_max_err,
            frequencies=freqs)


class MachineRecord(orm.Model):
    """Back-end registry of target machines (admin-managed).

    ``queue_depth``/``utilisation`` are *telemetry* columns the daemon
    refreshes each poll: the DB-mediated channel through which the
    grid-blind portal can hint users toward less congested systems
    (the paper's "additional computational volume" practice).
    """

    name = orm.CharField(max_length=40, unique=True)
    display_name = orm.CharField(max_length=80, default="")
    site = orm.CharField(max_length=40, default="")
    enabled = orm.BooleanField(default=True)
    #: The production machine ``init_db`` selected from the machine
    #: specs (the paper chose Kraken): the portal's default choice on
    #: the submission forms, read from here because a portal process
    #: carries no machine specs.
    production = orm.BooleanField(default=False)
    default_walltime_s = orm.FloatField(default=6 * 3600.0,
                                        min_value=600.0,
                                        max_value=48 * 3600.0)
    queue_depth = orm.IntegerField(default=0, min_value=0)
    utilisation = orm.FloatField(default=0.0, min_value=0.0,
                                 max_value=1.0)
    telemetry_updated = orm.DateTimeField(null=True)
    # Circuit-breaker telemetry, published by the daemon each poll: the
    # portal routes new submissions away from open-breaker machines and
    # the statistics page shows facility health — without the portal
    # ever touching the grid.
    breaker_state = orm.CharField(max_length=10, default="closed",
                                  choices=[("closed", "closed"),
                                           ("open", "open"),
                                           ("half-open", "half-open")])
    breaker_failures = orm.IntegerField(default=0, min_value=0)
    breaker_opened_at = orm.FloatField(null=True)   # sim-clock seconds

    class Meta:
        table_name = "amp_machine"
        ordering = ["name"]

    @property
    def is_busy(self):
        return self.queue_depth > 0 or self.utilisation > 0.95

    @property
    def is_available(self):
        """Healthy enough to accept new submissions."""
        return self.enabled and self.breaker_state != "open"


class AllocationRecord(orm.Model):
    """A TeraGrid allocation usable by the gateway (admin-managed)."""

    project = orm.CharField(max_length=40)
    machine = orm.ForeignKey(MachineRecord, related_name="allocations")
    su_granted = orm.FloatField(min_value=0.0, max_value=1e9)
    su_used = orm.FloatField(default=0.0, min_value=0.0, max_value=1e9)

    class Meta:
        table_name = "amp_allocation"
        unique_together = [("project", "machine_id")]

    @property
    def su_remaining(self):
        return self.su_granted - self.su_used


class UserProfile(orm.Model):
    """AMP's extension of the auth framework (§4.1): provenance and
    TeraGrid authentication metadata."""

    user = orm.ForeignKey(User, related_name="amp_profile")
    institution = orm.CharField(max_length=120, default="")
    teragrid_username = orm.CharField(max_length=60, default="")
    provenance = orm.JSONField(null=True)
    notify_on_completion = orm.BooleanField(default=True)
    notify_each_transition = orm.BooleanField(default=False)

    class Meta:
        table_name = "amp_profile"


class SubmitAuthorization(orm.Model):
    """Authorization for a user to submit to a machine under an
    allocation — the admin-adjustable "back-end parameter" the paper
    names explicitly."""

    user = orm.ForeignKey(User, related_name="authorizations")
    machine = orm.ForeignKey(MachineRecord, related_name="authorizations")
    allocation = orm.ForeignKey(AllocationRecord,
                                related_name="authorizations")
    active = orm.BooleanField(default=True)

    class Meta:
        table_name = "amp_submit_auth"
        unique_together = [("user_id", "machine_id")]


class CampaignRecord(orm.Model):
    """One bulk parameter-sweep submission through the campaign API.

    The spec the astronomer POSTed is kept verbatim for provenance;
    the member simulations point back via ``Simulation.campaign``.
    Both the campaign row and its simulations are written in one
    transaction, so a campaign either exists complete or not at all.
    """

    owner = orm.ForeignKey(User, related_name="campaigns")
    star = orm.ForeignKey(Star, related_name="campaigns")
    name = orm.CharField(max_length=120, default="")
    machine_name = orm.CharField(max_length=40, default=MACHINE_AUTO)
    spec = orm.JSONField(null=True)       # the validated sweep request
    sim_count = orm.IntegerField(default=0, min_value=0)
    created = orm.DateTimeField(auto_now_add=True)

    class Meta:
        table_name = "amp_campaign"
        ordering = ["-id"]

    def describe(self):
        label = self.name or f"campaign #{self.pk}"
        return f"{label} ({self.sim_count} simulations)"


class Simulation(orm.Model):
    """One AMP simulation (direct model run or optimization run).

    ``state`` is the application-level workflow state the user interface
    reads directly — "the user interface does not need to analyze the
    state of many individual grid jobs to determine the current state of
    a simulation" (§4.4).  ``status_message`` is the plain-text
    supplement describing transients.
    """

    star = orm.ForeignKey(Star, related_name="simulations")
    observation = orm.ForeignKey(ObservationSet, null=True,
                                 related_name="simulations")
    owner = orm.ForeignKey(User, related_name="simulations")
    #: Set when the simulation was submitted as part of a bulk
    #: parameter-sweep campaign (see :class:`CampaignRecord`).
    campaign = orm.ForeignKey(CampaignRecord, null=True,
                              related_name="simulations")
    kind = orm.CharField(max_length=16,
                         choices=[(KIND_DIRECT, "Direct model run"),
                                  (KIND_OPTIMIZATION, "Optimization run")])
    state = orm.CharField(max_length=12, default=SIM_QUEUED,
                          choices=[(s, s) for s in SIM_STATES],
                          db_index=True)
    machine_name = orm.CharField(max_length=40)
    parameters = orm.JSONField(null=True)     # direct runs: the 5 inputs
    config = orm.JSONField(null=True)         # optimization runs: GA cfg
    results = orm.JSONField(null=True)
    status_message = orm.TextField(default="")
    hold_reason = orm.TextField(default="")
    state_before_hold = orm.CharField(max_length=12, default="")
    # Why the simulation held: "model" needs an administrator; a
    # "resource" hold (retry budget exhausted against a sick machine) is
    # auto-resumed by the daemon once the machine's breaker closes.
    hold_category = orm.CharField(max_length=12, default="",
                                  choices=[("", "none"),
                                           (HOLD_MODEL, HOLD_MODEL),
                                           (HOLD_RESOURCE,
                                            HOLD_RESOURCE)])
    # Retry-budget bookkeeping (grid.retry): consecutive transient
    # failures per operation class, and the earliest virtual time the
    # daemon may retry this simulation (exponential backoff).
    retry_counts = orm.JSONField(null=True)
    retry_not_before = orm.FloatField(default=0.0, min_value=0.0)
    created = orm.DateTimeField(auto_now_add=True)
    updated = orm.DateTimeField(auto_now=True)

    class Meta:
        table_name = "amp_simulation"
        ordering = ["-id"]
        # The daemon's poll filters on state (active set) and the portal
        # statistics/list pages slice by kind+state and by star; "my
        # simulations" reads one owner's newest rows.
        indexes = [("kind", "state"), ("star_id", "kind", "state"),
                   ("owner_id",)]

    @property
    def is_active(self):
        return self.state in SIM_ACTIVE_STATES

    @property
    def correlation_id(self):
        """The simulation's trace id, threaded from portal submission
        through every daemon span, state-transition event, and grid
        command (see :mod:`repro.obs`)."""
        return correlation_id(self.pk)

    @property
    def remote_directory(self):
        return f"/scratch/amp/sim{self.pk}"

    def describe(self):
        kind = "Direct model run" if self.kind == KIND_DIRECT \
            else "Optimization run"
        return f"{kind} #{self.pk} [{self.state}]"


class OperationRecord(orm.Model):
    """One entry of the daemon's durable operation journal.

    Written *before* every side-effecting grid call (submit, stage-in,
    stage-out, cancel) and committed only after the resulting database
    write has landed.  A daemon that dies between the two leaves an
    INTENT entry behind; the boot-time reconciliation sweep replays the
    journal against the fabric and decides, per entry, whether the
    operation must be **adopted** (the remote side effect happened and
    its id is recoverable), **verified** (a transfer landed intact), or
    **re-issued** (provably never happened).  The journal doubles as the
    audit trail the crash-point property tests read: exactly one remote
    submission per logical phase, ever.
    """

    simulation = orm.ForeignKey(Simulation, related_name="operations")
    op = orm.CharField(max_length=12,
                       choices=[(o, o) for o in JOURNAL_OPS])
    #: Logical phase slug ("prejob", "ga-0-2", "stagein-amp_in", ...):
    #: one remote side effect is ever allowed per (simulation, phase).
    phase = orm.CharField(max_length=60)
    attempt = orm.IntegerField(default=1, min_value=1)
    idempotency_key = orm.CharField(max_length=100, unique=True)
    resource = orm.CharField(max_length=40)
    state = orm.CharField(max_length=12, default=JOURNAL_INTENT,
                          choices=[(s, s) for s in JOURNAL_STATES],
                          db_index=True)
    outcome = orm.CharField(max_length=12, default="")
    # Submit metadata: enough to rebuild the GridJobRecord an adopted
    # orphan deserves, exactly as the original submit would have.
    purpose = orm.CharField(max_length=12, default="")
    ga_index = orm.IntegerField(default=0)
    sequence = orm.IntegerField(default=0)
    service = orm.CharField(max_length=8, default="")
    rsl = orm.TextField(default="")
    gram_job_id = orm.IntegerField(null=True)
    #: The GridJobRecord this operation targets/produced (when known).
    job_record_id = orm.IntegerField(null=True)
    # Transfer metadata: reconciliation re-verifies a partial upload by
    # comparing the remote file's size/digest with the intended payload.
    remote_path = orm.CharField(max_length=200, default="")
    payload_size = orm.IntegerField(null=True)
    payload_digest = orm.CharField(max_length=40, default="")
    detail = orm.TextField(default="")
    #: Virtual (sim-clock) timestamps — the journal must replay
    #: byte-identically, so no wall-clock values appear in it.
    intent_at = orm.FloatField(default=0.0)
    resolved_at = orm.FloatField(null=True)

    class Meta:
        table_name = "amp_operation"
        ordering = ["id"]
        # Boot reconciliation scans by state; attempt numbering counts
        # per (simulation, op, phase).
        indexes = [("state",), ("simulation_id", "op", "phase")]


class ReservationRecord(orm.Model):
    """One SU reservation made by the resource broker.

    The ledger's unit of account: written *before* the simulation row
    is stamped with the placed machine, so a daemon crash between the
    two leaves an adoptable RESERVED row rather than a lost placement
    — and the unique ``reservation_key`` (attempt counted from durable
    rows) means re-running the placement can never book the estimate
    twice.  ``estimated_su`` is held against the allocation while the
    simulation runs; CLEANUP settles the actual charge and records it
    here, making the statistics page's placement digest and the
    ledger invariant (reserved + used ≤ granted) auditable from rows
    alone.
    """

    simulation = orm.ForeignKey(Simulation, related_name="reservations")
    allocation = orm.ForeignKey(AllocationRecord,
                                related_name="reservations")
    machine_name = orm.CharField(max_length=40)
    #: Which placement policy chose the site (least-wait, round-robin,
    #: pack-by-allocation) — the audit trail for "why here?".
    policy = orm.CharField(max_length=24, default="")
    attempt = orm.IntegerField(default=1, min_value=1)
    reservation_key = orm.CharField(max_length=100, unique=True)
    estimated_su = orm.FloatField(default=0.0, min_value=0.0)
    settled_su = orm.FloatField(null=True)
    state = orm.CharField(max_length=12, default=RESERVATION_RESERVED,
                          choices=[(s, s) for s in RESERVATION_STATES],
                          db_index=True)
    #: Why the reservation reached its terminal state ("settled",
    #: "migrated to ranger", "cancelled", ...).
    reason = orm.CharField(max_length=120, default="")
    #: Virtual (sim-clock) timestamps, like the operation journal.
    created_at = orm.FloatField(default=0.0)
    resolved_at = orm.FloatField(null=True)

    class Meta:
        table_name = "amp_reservation"
        ordering = ["id"]
        # The broker's sweep scans by state; settlement and attempt
        # numbering look up per simulation.
        indexes = [("state",), ("simulation_id", "state")]

    @property
    def is_active(self):
        return self.state == RESERVATION_RESERVED


class GridJobRecord(orm.Model):
    """Generic grid-job status row (the lower level of the two-level
    workflow status).  One row per GRAM request the daemon makes."""

    simulation = orm.ForeignKey(Simulation, related_name="grid_jobs")
    purpose = orm.CharField(
        max_length=12,
        choices=[(p, p) for p in (JOB_PREJOB, JOB_GA, JOB_SOLUTION,
                                  JOB_MODEL, JOB_POSTJOB, JOB_CLEANUP)])
    ga_index = orm.IntegerField(default=0)     # which GA run (0-based)
    sequence = orm.IntegerField(default=0)     # continuation segment no.
    resource = orm.CharField(max_length=40)
    service = orm.CharField(max_length=8, default="batch",
                            choices=[("fork", "fork"), ("batch", "batch")])
    gram_job_id = orm.IntegerField(null=True)
    rsl = orm.TextField(default="")
    #: The operation-journal key of the submit that produced this row
    #: (and the RSL ``clientTag`` the remote GRAM job carries) — how
    #: restart reconciliation matches journal intents to work that
    #: already landed, in either store.
    idempotency_key = orm.CharField(max_length=100, default="",
                                    db_index=True)
    state = orm.CharField(max_length=12, default="UNSUBMITTED",
                          choices=[(s, s) for s in GRAM_STATES],
                          db_index=True)
    failure_reason = orm.TextField(default="")
    created = orm.DateTimeField(auto_now_add=True)
    updated = orm.DateTimeField(auto_now=True)

    class Meta:
        table_name = "amp_gridjob"
        ordering = ["id"]
        # Workflow job lookups are always per-simulation, filtered by
        # purpose; the prefetch path batches on simulation_id.
        indexes = [("simulation_id", "purpose")]

    @property
    def is_terminal(self):
        return self.state in ("DONE", "FAILED")


class LeaseRecord(orm.Model):
    """One durable lease in the daemon fleet's work partition.

    Coordination lives in the database, not in any daemon process: a
    slice lease is *claimed* and *renewed* through single-writer
    conditional updates (``UPDATE ... WHERE owner/fencing_token`` still
    match — the ORM reports the rowcount, so exactly one contender
    wins), and becomes stealable the instant ``expires_at`` passes.
    Every successful claim bumps ``fencing_token``, so an instance that
    lost its lease while stalled can recognise the loss (its remembered
    token no longer matches) and never acts on a slice it no longer
    owns.  Presence rows reuse the same machinery as per-instance
    heartbeats: the live fleet size — and with it each instance's fair
    share of slices — is computable from unexpired presence rows alone.
    """

    slice_key = orm.CharField(max_length=80, unique=True)
    kind = orm.CharField(max_length=12, default=LEASE_KIND_SLICE,
                         choices=[(k, k) for k in LEASE_KINDS])
    #: Which residue class of simulation pks this lease grants
    #: (``pk % n_slices == slice_index``); -1 for presence rows.
    slice_index = orm.IntegerField(default=-1)
    n_slices = orm.IntegerField(default=0)
    owner = orm.CharField(max_length=60, default="")
    fencing_token = orm.IntegerField(default=0)
    #: Virtual (sim-clock) timestamps, like every durable record.
    acquired_at = orm.FloatField(default=0.0)
    renewed_at = orm.FloatField(default=0.0)
    expires_at = orm.FloatField(default=0.0)

    class Meta:
        table_name = "amp_lease"
        ordering = ["id"]
        indexes = [("kind",)]

    def is_expired(self, now):
        return self.expires_at <= now

    def is_claimable(self, now):
        return not self.owner or self.is_expired(now)


CORE_MODELS = [Star, ObservationSet, MachineRecord, AllocationRecord,
               UserProfile, SubmitAuthorization, CampaignRecord,
               Simulation, OperationRecord, ReservationRecord,
               GridJobRecord, LeaseRecord]
ALL_MODELS = AUTH_MODELS + CORE_MODELS
