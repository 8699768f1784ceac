"""Direct model run workflow (derived class).

"Direct model runs are trivial to configure and execute: they require
five floating-point parameters as input, take 10-15 minutes to execute on
a single processor, and produce a few kilobytes of output."  The derived
class is accordingly tiny: one single-core batch job, then parse
``output.txt`` from the tarball.
"""

from __future__ import annotations

from ...grid.rsl import batch_spec
from ..models import JOB_MODEL, KIND_DIRECT
from ..remote import RUN_MODEL_SH
from ..staging import generate_input_files, interpret_output_tarball
from .base import WorkflowManager


class DirectRunWorkflow(WorkflowManager):
    kind = KIND_DIRECT
    #: RUNNING's check only reads the one model job's last-known state.
    waits_on = {**WorkflowManager.waits_on, "RUNNING": JOB_MODEL}

    def input_files(self, simulation):
        return generate_input_files(simulation)

    def submit_work_job(self, simulations):
        return self._submit_each(simulations, JOB_MODEL, self._model_spec,
                                 service="batch")

    def _model_spec(self, simulation):
        return batch_spec(
            RUN_MODEL_SH, count=1,
            max_wall_time_s=self.machine_spec(simulation).max_walltime_s,
            directory=simulation.remote_directory)

    def check_work_job(self, simulations):
        return self._check_jobs(simulations, JOB_MODEL, "model")

    def interpret_results(self, simulation, tarball):
        return interpret_output_tarball(tarball, KIND_DIRECT)

    def consumed_core_seconds(self, simulation):
        # One core for roughly the benchmark time; the few minutes of a
        # direct run are charged at the machine's benchmark estimate.
        return self.machine_spec(simulation).stellar_benchmark_s
