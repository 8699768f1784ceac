"""Simulated Globus/CTSS grid middleware (DESIGN.md §3.2).

GRAM fork/batch job services, GridFTP staging, proxy certificates with
GridShib SAML attributes, CTSS capability registry, auditing, fault
injection, and — critically for fidelity to the paper — *command-line*
client wrappers the daemon shells through.
"""

from .audit import AuditLog, AuditRecord
from .breaker import (BREAKER_STATES, BreakerEvent, BreakerPolicy,
                      BreakerRegistry, CircuitBreaker)
from .certificates import (CertificateInvalid, CommunityCredential,
                           ProxyCertificate, ProxyFactory, SAMLAssertion)
from .clients import (EXIT_OK, EXIT_PERMANENT, EXIT_TRANSIENT,
                      CommandResult, GridClients)
from .ctss import (REQUIRED_CAPABILITIES, DeploymentError, SoftwareStack,
                   advertised_stack, verify_deployment)
from .errors import (CredentialError, GridError, OperationTimeout,
                     PermanentGridError, ServiceUnreachable,
                     SubmitRejected, TransferFault, TransientGridError,
                     TruncatedTransfer, UnknownResourceError)
from .fabric import GridFabric, build_fabric
from .faults import (CrashPoint, CrashSchedule, DaemonCrash,
                     FaultInjector, LatencyWindow, OutageRecord)
from .gram import (ACTIVE, DONE, FAILED, PENDING, UNSUBMITTED, AppExecution,
                   GramJob, GramService)
from .gridftp import GridFTPService, checksum
from .retry import (RetryEvent, RetryPolicy, RetryTracker,
                    classify_operation, deterministic_jitter)
from .rsl import RSLError, batch_spec, fork_spec, format_rsl, parse_rsl

__all__ = [
    "ACTIVE", "AppExecution", "AuditLog", "AuditRecord",
    "BREAKER_STATES", "BreakerEvent", "BreakerPolicy", "BreakerRegistry",
    "CertificateInvalid", "CircuitBreaker", "CommandResult",
    "CommunityCredential", "CrashPoint", "CrashSchedule",
    "CredentialError", "DONE", "DaemonCrash", "DeploymentError",
    "EXIT_OK", "EXIT_PERMANENT", "EXIT_TRANSIENT", "FAILED",
    "FaultInjector", "GramJob", "GramService", "GridClients", "GridError",
    "GridFTPService", "GridFabric", "LatencyWindow", "OperationTimeout",
    "OutageRecord", "PENDING", "PermanentGridError", "ProxyCertificate",
    "ProxyFactory", "REQUIRED_CAPABILITIES", "RSLError", "RetryEvent",
    "RetryPolicy", "RetryTracker", "SAMLAssertion", "ServiceUnreachable",
    "SoftwareStack", "SubmitRejected", "TransferFault",
    "TransientGridError", "TruncatedTransfer", "UNSUBMITTED",
    "UnknownResourceError", "advertised_stack", "batch_spec",
    "build_fabric", "checksum", "classify_operation",
    "deterministic_jitter", "fork_spec", "format_rsl", "parse_rsl",
    "verify_deployment",
]
