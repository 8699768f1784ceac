"""Optimization run workflow (derived class) — the Figure 1 ensemble.

The work phase manages, per the paper §2:

- N independent GA runs in parallel (default 4), each a *chain* of
  sequential batch jobs: a job runs until its walltime budget would be
  exceeded, stages out a restart/progress file, and the daemon submits a
  continuation job once the prior job has finished;
- when every GA run reaches its iteration target, one solution-evaluation
  batch job forward-models the ensemble best at finer granularity.

Interpreting the partial progress files between continuation jobs is "the
most complex portion of the workflow" — the logic lives in
``check_work_job`` below.
"""

from __future__ import annotations

import posixpath

from ...grid.rsl import batch_spec
from ..journal import Operation
from ..models import (JOB_GA, JOB_REVOKED, JOB_SOLUTION, JOURNAL_OP_CANCEL,
                      KIND_OPTIMIZATION)
from ..remote import RUN_GA_SH, SOLUTION_SH
from ..staging import (generate_input_files, interpret_output_tarball,
                       interpret_progress)
from .base import ModelFailure, WorkflowManager


class OptimizationWorkflow(WorkflowManager):
    kind = KIND_OPTIMIZATION
    # RUNNING waits on nothing: its check downloads progress files,
    # extends chains and revokes surplus jobs whatever the jobs' states.

    # ------------------------------------------------------------------
    def _config(self, simulation):
        config = simulation.config or {}
        return {
            "n_ga_runs": int(config.get("n_ga_runs", 4)),
            "iterations": int(config.get("iterations", 200)),
            "population_size": int(config.get("population_size", 126)),
            "processors": int(config.get("processors", 128)),
            "walltime_s": float(
                config.get("walltime_s",
                           self.machine_spec(simulation).max_walltime_s)),
            # §6 future work, implemented: submit the whole continuation
            # chain up front with scheduler dependencies.
            "use_chaining": bool(config.get("use_chaining", False)),
        }

    def _estimated_chain_length(self, simulation, cfg):
        """Jobs per GA from the allocation-request arithmetic: one
        iteration costs at most ~1 benchmark time, a job fits
        ``0.96 × walltime`` of iterations, plus one job of slack."""
        import math
        spec = self.machine_spec(simulation)
        budget = cfg["walltime_s"] * 0.96 - 120.0
        per_job = max(int(budget // spec.stellar_benchmark_s), 1)
        return math.ceil(cfg["iterations"] / per_job) + 1

    def prejob_arguments(self, simulation):
        return [f"n_ga={self._config(simulation)['n_ga_runs']}"]

    def input_files(self, simulation):
        observation = simulation.observation
        return generate_input_files(simulation, observation)

    # ------------------------------------------------------------------
    def _ga_spec(self, simulation, ga_index, depends_on=None):
        cfg = self._config(simulation)
        walltime = min(cfg["walltime_s"],
                       self.machine_spec(simulation).max_walltime_s)
        spec = batch_spec(
            RUN_GA_SH, count=cfg["processors"],
            max_wall_time_s=walltime,
            directory=simulation.remote_directory,
            arguments=[f"ga={ga_index}", f"walltime={walltime:.0f}"])
        if depends_on is not None:
            spec["dependsOn"] = str(depends_on)
        return spec

    def submit_work_job(self, simulations):
        return self.each(simulations, self._launch_ga_runs)

    def _launch_ga_runs(self, simulation):
        """Launch every GA run: one first segment each, or — with
        chaining enabled — the whole dependency chain up front, so
        continuations queue while their predecessors run (§6)."""
        cfg = self._config(simulation)
        chain_length = self._estimated_chain_length(simulation, cfg) \
            if cfg["use_chaining"] else 1
        for ga_index in range(cfg["n_ga_runs"]):
            existing = self._latest_job(simulation, JOB_GA, ga_index)
            if existing is not None:
                continue
            previous_gram = None
            for sequence in range(chain_length):
                record = self._submit_batch(
                    simulation, JOB_GA,
                    self._ga_spec(simulation, ga_index,
                                  depends_on=previous_gram),
                    ga_index=ga_index, sequence=sequence)
                if record is None:
                    return False
                previous_gram = record.gram_job_id
        return True

    # ------------------------------------------------------------------
    def check_work_job(self, simulations):
        return self.each(simulations, self._check_ga_runs)

    def _check_ga_runs(self, simulation):
        """Propagate GA chains; then run the solution evaluation."""
        cfg = self._config(simulation)
        all_finished = True
        for ga_index in range(cfg["n_ga_runs"]):
            state = self._advance_ga_chain(simulation, ga_index)
            if state != "finished":
                all_finished = False
        if not all_finished:
            return False
        return self._check_solution_job(simulation)

    def _advance_ga_chain(self, simulation, ga_index):
        """One GA run's chain: 'running' | 'finished' (or raises).

        Handles both submission strategies: sequential (submit the next
        continuation when the prior job finishes) and chained (the whole
        chain was pre-submitted with dependencies; surplus jobs are
        revoked once the GA reaches its target).
        """
        jobs = list(self._jobs(simulation, JOB_GA, ga_index))
        if not jobs:
            # Transient hit during submit_work_job; resubmit now.
            self._submit_batch(
                simulation, JOB_GA, self._ga_spec(simulation, ga_index),
                ga_index=ga_index, sequence=0)
            return "running"
        for job in jobs:
            if job.state == "FAILED" \
                    and JOB_REVOKED not in job.failure_reason \
                    and "CANCELLED" not in job.failure_reason:
                raise ModelFailure(
                    f"GA run {ga_index} job #{job.pk} failed: "
                    f"{job.failure_reason or 'unknown'}")
        if not any(job.state == "DONE" for job in jobs):
            return "running"
        progress = self._fetch_progress(simulation, ga_index)
        if progress is None:
            return "running"        # transient while downloading
        if progress["finished"]:
            if not self._revoke_surplus_jobs(simulation, jobs):
                return "running"    # a cancel hit a transient
            return "finished"
        if all(job.is_terminal for job in jobs):
            # Chain exhausted before the iteration target: extend it.
            self._submit_batch(
                simulation, JOB_GA, self._ga_spec(simulation, ga_index),
                ga_index=ga_index,
                sequence=max(job.sequence for job in jobs) + 1)
        return "running"

    def _revoke_surplus_jobs(self, simulation, jobs):
        """Cancel pre-submitted chain jobs the finished GA no longer
        needs (the chained-submission analogue of qdel).

        Cancels are journaled like every other side effect: a crash
        between the cancel and the FAILED/JOB_REVOKED record save would
        otherwise let the next poll read the raw GRAM "cancelled by
        client" reason and mistake the gateway's own revocation for a
        model failure.  Reconciliation finalises the record from the
        intent row instead.  A cancel is classified like every other
        call: False while one failed transiently, its job still in
        flight for the next attempt.
        """
        def revoke(_result, _entry):
            job.state = "FAILED"
            job.failure_reason = JOB_REVOKED
            return True, job, {}

        for job in jobs:
            if not job.is_terminal and self._single(
                    JOURNAL_OP_CANCEL, Operation(
                        simulation, f"cancel-{job.pk}",
                        lambda _key: self.clients.job_cancel(
                            simulation.machine_name, job.gram_job_id),
                        purpose=job.purpose, gram_job_id=job.gram_job_id,
                        job_record_id=job.pk), revoke) is None:
                return False
        return True

    def _fetch_progress(self, simulation, ga_index):
        """Download and interpret a GA's partial progress file."""
        path = posixpath.join(simulation.remote_directory,
                              f"ga_{ga_index}", "progress.json")
        blob = self._stage_out(simulation, path)
        if blob is None:
            return None
        payload = interpret_progress(blob.decode("utf-8"))
        if payload["ga_index"] != ga_index:
            raise ModelFailure(
                f"Progress file for GA {ga_index} reports index "
                f"{payload['ga_index']}")
        return payload

    def _check_solution_job(self, simulation):
        record = self._latest_job(simulation, JOB_SOLUTION)
        if record is None:
            spec = batch_spec(
                SOLUTION_SH, count=1,
                max_wall_time_s=self.machine_spec(
                    simulation).max_walltime_s,
                directory=simulation.remote_directory)
            self._submit_batch(simulation, JOB_SOLUTION, spec)
            return False
        return self._check_job(simulation, record, label="solution")

    # ------------------------------------------------------------------
    def interpret_results(self, simulation, tarball):
        return interpret_output_tarball(tarball, KIND_OPTIMIZATION)

    def consumed_core_seconds(self, simulation):
        """Charge from the GA progress files' elapsed times."""
        results = simulation.results or {}
        cfg = self._config(simulation)
        total = 0.0
        for payload in (results.get("ga_progress") or {}).values():
            elapsed = payload.get("total_elapsed_s",
                                  payload.get("elapsed_s", 0.0))
            total += float(elapsed) * cfg["processors"]
        return total
