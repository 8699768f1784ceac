"""Simulated TeraGrid compute resources.

Substrate package (DESIGN.md §3.3): a discrete-event clock, the Table 1
machine catalog, an FCFS+EASY-backfill batch scheduler with walltime
enforcement and job chaining, remote scratch filesystems with quotas,
SU accounting, and synthetic background workloads for queue-wait studies.
"""

from .accounting import (Allocation, AllocationBook, AllocationError,
                         LedgerEntry, cpu_hours, su_charge)
from .cluster import ComputeResource, ForkService, build_resources
from .filesystem import (FilesystemError, QuotaExceeded, RemoteFilesystem,
                         extract_tar_to_dict)
from .machines import (DISPLAY_NAMES, FROST, KRAKEN, LONESTAR, RANGER,
                       TABLE1_MACHINES, MachineSpec, get_machine,
                       select_production_machine)
from .scheduler import (CANCELLED, COMPLETED, FAILED, OK_STATES, PENDING,
                        RUNNING, TERMINAL_STATES, WALLTIME_EXCEEDED,
                        BatchJob, BatchScheduler)
from .simclock import (DAY, HOUR, MINUTE, SIM_EPOCH, Event, SimClock,
                       sim_datetime)
from .workload import BackgroundWorkload, warm_up

__all__ = [
    "Allocation", "AllocationBook", "AllocationError", "BackgroundWorkload",
    "BatchJob", "BatchScheduler", "CANCELLED", "COMPLETED", "ComputeResource",
    "DAY", "DISPLAY_NAMES", "Event", "FAILED", "FROST", "FilesystemError",
    "ForkService", "HOUR", "KRAKEN", "LONESTAR", "LedgerEntry", "MINUTE",
    "MachineSpec", "OK_STATES", "PENDING", "QuotaExceeded", "RANGER",
    "RUNNING", "RemoteFilesystem", "SimClock", "TABLE1_MACHINES",
    "TERMINAL_STATES", "WALLTIME_EXCEEDED", "build_resources", "cpu_hours",
    "extract_tar_to_dict", "get_machine", "select_production_machine",
    "su_charge", "warm_up",
]
