"""AMP — the paper's primary contribution (DESIGN.md §3.5).

Shared core models, the GridAMP workflow daemon with its Listing 1 state
machines, input marshaling, the catalog with SIMBAD fallback, the
security role scheme, notifications, the §6 Gantt tool, the portal, and
the three role-true constructors (``init_db``, ``PortalRuntime``,
``DaemonRuntime``) with their in-process composition
(:class:`~repro.core.bootstrap.AMPDeployment`).
"""

import importlib

#: Every public name, by the submodule that defines it.  Names resolve
#: on first use, so a process pays only for its side of the
#: architecture line: ``from repro.core import
#: build_prefork_app_factory`` loads the portal and the shared models
#: — no grid, cluster or science code — and ``GridAMPDaemon`` no portal.
_EXPORTS = {
    "bootstrap": "AMPDeployment DEFAULT_PROJECT DaemonRuntime init_db",
    "portal.runtime": "PortalRuntime",
    "portal.site": "build_prefork_app_factory",
    "catalog": "SimbadService StarCatalog",
    "daemon": "ExternalMonitor GridAMPDaemon",
    "leases": "LeaseManager",
    "models": (
        "ALL_MODELS CORE_MODELS AllocationRecord CampaignRecord "
        "GridJobRecord HOLD_MODEL HOLD_RESOURCE JOURNAL_ABORTED "
        "JOURNAL_COMMITTED JOURNAL_INTENT KIND_DIRECT KIND_OPTIMIZATION "
        "LEASE_KIND_PRESENCE LEASE_KIND_SLICE LeaseRecord MACHINE_AUTO "
        "MachineRecord ObservationSet OperationRecord "
        "RESERVATION_RELEASED RESERVATION_RESERVED RESERVATION_SETTLED "
        "ReservationRecord SIM_ACTIVE_STATES SIM_CANCELLED SIM_CLEANUP "
        "SIM_DONE SIM_HOLD SIM_POSTJOB SIM_PREJOB SIM_QUEUED SIM_RUNNING "
        "SIM_STATES Simulation Star SubmitAuthorization UserProfile "
        "idempotency_key presence_lease_key reservation_key "
        "slice_lease_key"),
    "notifications": ("AUDIENCE_ADMIN AUDIENCE_USER JargonLeak Mailer "
                      "NotificationPolicy"),
    "security": "audit_role_separation build_role_registry open_role",
    "staging": "StagingError generate_input_files",
    "workflow": ("DirectRunWorkflow ModelFailure OptimizationWorkflow "
                 "WorkflowManager"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(
        f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
