"""GRAM auditing — who did what, as which gateway user, on which system.

TeraGrid required end-to-end accountability for community-credential
gateways; every GRAM/GridFTP operation records the SAML-attributed
gateway user so resource providers can "disambiguate the real users
acting behind community credentials" (§3, and the Globus GRAM-auditing
acknowledgement).  The log keeps the newest
:data:`~repro.obs.events.KEEP` records; the queries answer for the
whole run from a tally of every one.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from ..obs.events import Ring


@dataclass(frozen=True)
class AuditRecord:
    timestamp: float
    operation: str          # gram-submit | gram-poll | gram-cancel |
                            # gridftp-put | gridftp-get | fork-run
    resource: str
    gateway_user: str
    detail: str = ""
    success: bool = True


class AuditLog:
    def __init__(self):
        self.records = Ring()
        self.tally = collections.Counter()      # (gateway_user, operation)
        self.failed = 0

    def record(self, clock, operation, resource, gateway_user, *,
               detail="", success=True):
        entry = AuditRecord(timestamp=clock.now, operation=operation,
                            resource=resource, gateway_user=gateway_user,
                            detail=detail, success=success)
        self.records.append(entry)
        self.tally[gateway_user, operation] += 1
        self.failed += not success
        return entry

    # -- queries (whole run) -----------------------------------------------
    def by_user(self, gateway_user):
        """``{operation: count}`` for one gateway user."""
        return {operation: n for (user, operation), n in self.tally.items()
                if user == gateway_user}

    def failures(self):
        return self.failed

    def distinct_users(self):
        return sorted({user for user, _ in self.tally})

    def __len__(self):
        return len(self.records)
