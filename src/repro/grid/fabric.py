"""GridFabric — one object wiring resources, services, and credentials.

The "grid" a GridAMP daemon talks to: per-resource GRAM and GridFTP
services sharing one audit log, a community credential with its proxy
factory, the CTSS registry, and the crash schedule every journaled
boundary checks.  Build one with :func:`build_fabric`.
"""

from __future__ import annotations

from ..hpc.cluster import ComputeResource
from .audit import AuditLog
from .certificates import CommunityCredential, ProxyFactory
from .ctss import advertised_stack
from .errors import UnknownResourceError
from .faults import CrashSchedule
from .gram import GramService
from .gridftp import GridFTPService


class GridFabric:
    def __init__(self, clock, credential=None):
        self.clock = clock
        self.credential = credential or CommunityCredential(
            "/C=US/O=NCAR/OU=AMP/CN=amp-community")
        self.proxy_factory = ProxyFactory(self.credential, clock)
        self.audit = AuditLog()
        #: Lives with the fabric because the fabric survives a daemon
        #: kill: a restarted daemon meets the points still pending.
        self.crash_schedule = CrashSchedule()
        self._resources = {}
        self._gram = {}
        self._gridftp = {}

    # ------------------------------------------------------------------
    def add_resource(self, resource: ComputeResource):
        name = resource.name
        self._resources[name] = resource
        self._gram[name] = GramService(resource, self.proxy_factory,
                                       self.clock, self.audit)
        self._gridftp[name] = GridFTPService(resource, self.proxy_factory,
                                             self.clock, self.audit)
        return resource

    def resource(self, name):
        try:
            return self._resources[name]
        except KeyError:
            raise UnknownResourceError(f"No resource {name!r} on the grid")

    def gram(self, name):
        self.resource(name)
        return self._gram[name]

    def gridftp(self, name):
        self.resource(name)
        return self._gridftp[name]

    def resource_names(self):
        return sorted(self._resources)

    def stacks(self):
        """Advertised CTSS stacks for every resource."""
        return {name: advertised_stack(res.machine)
                for name, res in self._resources.items()}


def build_fabric(machines, clock, credential=None):
    """Create a fabric with one :class:`ComputeResource` per machine."""
    fabric = GridFabric(clock, credential)
    for machine in machines:
        fabric.add_resource(ComputeResource(machine, clock))
    return fabric
