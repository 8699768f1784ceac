"""The resource-brokering subsystem.

AstroGrid-D-style site selection for the AMP gateway: a
database-backed broker the daemon consults in a dedicated poll phase,
matching every "Auto"-submitted simulation to the best healthy,
authorized, funded TeraGrid machine; an SU allocation ledger that
books estimated costs write-ahead and settles actual usage at
CLEANUP; and breaker-aware failover that re-places still-QUEUED work
when a site goes dark.  The broker's entire state lives in the shared
database ("When Database Systems Meet the Grid"): a daemon bounce
loses no placement decision, and each sweep's writes commit in one
transaction, so a crash leaves nothing half-finished.
"""

from __future__ import annotations

from .broker import (CandidateSite, REFUSAL_MESSAGES, ResourceBroker,
                     least_wait)
from .ledger import SULedger
from .predictor import (eligible_waits, estimate_queue_wait_s,
                        loaded_resource, segment_jobs)

__all__ = ["ResourceBroker", "SULedger", "REFUSAL_MESSAGES",
           "CandidateSite", "least_wait", "eligible_waits",
           "estimate_queue_wait_s", "loaded_resource", "segment_jobs"]
