"""Grid error taxonomy.

The GridAMP daemon's failure-handling philosophy (§4.4) rests on three
categories, so the middleware surfaces them as three exception families:

- :class:`TransientGridError` — "anticipated transients, such as remote
  systems suddenly becoming unreachable": retried silently,
  administrators notified, users never bothered.
- :class:`PermanentGridError` — misconfiguration (bad credentials,
  unknown resource, quota): needs administrator action.
- Model failures are *not* grid errors; they surface from output parsing
  (:class:`~repro.science.astec.model.ModelOutputError`).
"""

from __future__ import annotations


class GridError(Exception):
    """Base class for all grid middleware errors."""


class TransientGridError(GridError):
    """Anticipated transient; safe to retry."""


class PermanentGridError(GridError):
    """Permanent failure; retrying will not help."""


class CredentialError(PermanentGridError):
    """Missing, expired, or unauthorised credential."""


class UnknownResourceError(PermanentGridError):
    """No such resource in the service registry."""


class ServiceUnreachable(TransientGridError):
    """The remote gatekeeper/GridFTP endpoint did not respond."""


class TransferFault(TransientGridError):
    """A GridFTP transfer aborted mid-stream."""


class TruncatedTransfer(TransferFault):
    """A GridFTP transfer delivered fewer bytes than the source holds
    (partial transfer; the checksum step catches it — retryable)."""


class SubmitRejected(TransientGridError):
    """The gatekeeper refused a GRAM submission (load shedding,
    transient middleware hiccough) — retryable."""


class OperationTimeout(TransientGridError):
    """An operation exceeded its client-side deadline during a latency
    spike — retryable."""

