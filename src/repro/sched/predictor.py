"""Queue-wait estimation: the single source of truth.

Two consumers share this module:

- the **analysis** experiment (:mod:`repro.analysis.queuewait`) builds
  empirically loaded resources and measures eligible-to-start waits of
  real (simulated) batch jobs — :func:`loaded_resource`,
  :func:`segment_jobs`, :func:`eligible_waits`;
- the **resource broker** (:mod:`repro.sched.broker`) needs a cheap
  analytic estimate it can evaluate for every candidate machine on
  every placement sweep, from nothing but the daemon's published
  telemetry — :func:`estimate_queue_wait_s`.

Keeping both here means the broker's scoring model and the C3
experiment's load model cannot drift apart silently.  This module
deliberately imports only :mod:`repro.hpc` (no ORM, no daemon): the
analysis layer and the scheduler layer both sit above it.
"""

from __future__ import annotations

import numpy as np

from ..hpc.cluster import ComputeResource
from ..hpc.scheduler import BatchJob
from ..hpc.simclock import DAY, HOUR, SimClock
from ..hpc.workload import BackgroundWorkload

#: AMP's work jobs request 512 cores (paper §5); the analytic model
#: treats a machine as draining its queue through ``total_cores / 512``
#: concurrent AMP-sized lanes.
AMP_JOB_CORES = 512


def loaded_resource(machine, *, load, seed, warmup_s=3 * DAY,
                    horizon_s=40 * DAY):
    """A ComputeResource under reproducible background load, warmed up.

    The shared experimental substrate: a fresh clock, the machine's
    scheduler, and a seeded :class:`BackgroundWorkload` driven past its
    warm-up so the queue is in steady state before measurement begins.
    Returns ``(clock, resource)``.
    """
    clock = SimClock()
    resource = ComputeResource(machine, clock)
    rng = np.random.default_rng(seed)
    workload = BackgroundWorkload(resource.scheduler, clock, rng,
                                  target_load=load)
    workload.start(horizon_s)
    clock.advance(warmup_s)
    return clock, resource


def segment_jobs(n_segments, *, cores, segment_runtime_s, walltime_s):
    """The AMP-shaped chain: K identical dependent batch segments."""
    return [BatchJob(name=f"amp-seg{i}", cores=cores,
                     walltime_limit_s=walltime_s,
                     runtime_fn=segment_runtime_s, user="amp")
            for i in range(n_segments)]


def eligible_waits(jobs):
    """Eligible-to-start queue wait per job of a dependent chain.

    A chained job's raw "wait" includes time blocked on its
    dependency; the queue wait the paper cares about is measured from
    the instant the job *could* have started: ``start − max(submit,
    previous segment's end)``.
    """
    waits = []
    for index, job in enumerate(jobs):
        eligible_from = job.submit_time
        if index > 0:
            eligible_from = max(eligible_from, jobs[index - 1].end_time)
        waits.append(job.start_time - eligible_from)
    return waits


def estimate_queue_wait_s(spec, *, queue_depth, utilisation,
                          walltime_s=None):
    """Analytic expected queue wait for a new AMP job on *spec*.

    The broker's scoring input: no simulation is run — the estimate is
    a function of the daemon's published telemetry only, so a placement
    sweep over every machine costs arithmetic, not scheduling.

    Model: the ``queue_depth`` jobs ahead of us each occupy one of the
    machine's AMP-sized lanes (``total_cores / 512``) for about one
    default walltime, and congestion stretches the drain by
    ``1 / (1 − utilisation)`` — the standard single-queue load
    amplification, floored so a saturated machine yields a large finite
    estimate instead of a pole.  Monotone in depth and utilisation,
    zero for an idle machine.
    """
    if walltime_s is None:
        walltime_s = min(6.0 * HOUR, spec.max_walltime_s)
    lanes = max(1.0, spec.total_cores / float(AMP_JOB_CORES))
    headroom = max(1.0 - float(utilisation), 0.05)
    return float(queue_depth) * float(walltime_s) / lanes / headroom
