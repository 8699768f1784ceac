"""Exception hierarchy for the webstack ORM.

The ORM deliberately mirrors the exception surface of the Django ORM that
the AMP paper relied on: lookups that find nothing raise
``Model.DoesNotExist`` (a per-model subclass of :class:`ObjectDoesNotExist`),
ambiguous ``get()`` calls raise ``MultipleObjectsReturned``, and validation
problems raise :class:`ValidationError` with a per-field error dict.
"""

from __future__ import annotations


class ORMError(Exception):
    """Base class for all ORM-level errors."""


class ObjectDoesNotExist(ORMError):
    """Requested row does not exist.

    Each model class carries its own subclass as ``Model.DoesNotExist`` so
    callers can catch misses for one model without masking others.
    """


class MultipleObjectsReturned(ORMError):
    """``get()`` matched more than one row."""


class FieldError(ORMError):
    """A query referenced an unknown field or used an unknown lookup."""


class IntegrityError(ORMError):
    """A database constraint (unique, foreign key, not-null) was violated."""


class PermissionDenied(ORMError):
    """The active database role is not granted the attempted operation.

    This implements the paper's security posture: the public web portal's
    database role has no business issuing, say, ``DELETE`` against the jobs
    table, and SQLite's authorizer refuses it before it runs.
    """


class ConnectionError(ORMError):
    """Database connection was unusable or misconfigured."""


class DeadlineExceeded(ORMError):
    """The current request's time budget is spent.

    Raised by a connection's ``deadline_hook`` (installed per request by
    the serving tier) before a statement runs, so an over-budget request
    stops doing database work and unwinds into a plain-language 504
    instead of holding its worker.  The message is shown to the user —
    keep it jargon-free.
    """


class DatabaseUnavailable(ConnectionError):
    """The database did not answer (outage, injected or real).

    Raised by wrappers around a failing connection (the test suite's
    database fault injector is one).  The serving tier turns it into a
    503 (or a stale cached copy of the page, when one is on hand).
    """


class ValidationError(ORMError):
    """Field-level or form-level validation failure.

    Parameters
    ----------
    message:
        Either a single message string or a mapping of field name to a
        list of message strings.
    """

    def __init__(self, message):
        if isinstance(message, dict):
            self.error_dict = {k: list(v) if isinstance(v, (list, tuple)) else [v]
                               for k, v in message.items()}
            self.messages = [m for msgs in self.error_dict.values() for m in msgs]
        else:
            self.error_dict = None
            self.messages = [str(message)]
        super().__init__("; ".join(self.messages))
