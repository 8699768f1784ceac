"""A compute resource: machine spec + scheduler + filesystem + fork host.

:class:`ComputeResource` is what a GRAM service fronts.  It bundles the
batch scheduler, the scratch filesystem, and a "fork service" that runs
small scripts immediately on the login node — the pre-job/post-job stages
the paper invokes "using shell scripts invoked by GRAM using the fork job
service".
"""

from __future__ import annotations

from .filesystem import RemoteFilesystem
from .scheduler import BatchScheduler

GB = 1024 ** 3


class ForkService:
    """Immediate execution of registered script callables.

    Scripts are registered by name (install step) and called with the
    resource plus keyword arguments.  Execution consumes zero virtual
    time — matching the paper's lightweight shell stages relative to the
    week-long compute jobs.
    """

    def __init__(self, resource):
        self.resource = resource
        self._scripts = {}
        self.invocations = []

    def install(self, name, fn):
        self._scripts[name] = fn

    def installed(self):
        return sorted(self._scripts)

    def run(self, name, **kwargs):
        if name not in self._scripts:
            raise KeyError(f"No script {name!r} installed on "
                           f"{self.resource.machine.name}")
        self.invocations.append((name, dict(kwargs)))
        return self._scripts[name](self.resource, **kwargs)


class ComputeResource:
    """One simulated TeraGrid system."""

    def __init__(self, machine, clock):
        self.machine = machine
        self.clock = clock
        self.scheduler = BatchScheduler(machine, clock)
        self.filesystem = RemoteFilesystem(
            quota_bytes=int(machine.scratch_disk_gb * GB))
        self.fork = ForkService(self)
        #: Batch-executable registry: name → callable(resource, job_args)
        #: returning an object with ``runtime_s`` and ``on_finish()``.
        #: This is the "science code installed by the PI with sudo" —
        #: GRAM only ever references executables by path.
        self.applications = {}
        #: When False the resource is "unreachable" — GRAM/GridFTP client
        #: calls fail with a transient error (fault injection).
        self.reachable = True
        #: A :class:`~repro.grid.faults.LatencyWindow` while one is
        #: scheduled: every n-th GRAM/GridFTP operation times out.
        self.latency_window = None

    def install_application(self, name, fn):
        """Install a batch executable (the PI's deployment step)."""
        self.applications[name] = fn

    @property
    def name(self):
        return self.machine.name

    def __repr__(self):  # pragma: no cover
        return f"<ComputeResource {self.machine.name}>"


def build_resources(machines, clock):
    """Instantiate resources for a machine list, keyed by name."""
    return {machine.name: ComputeResource(machine, clock)
            for machine in machines}
