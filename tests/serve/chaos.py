"""Database chaos for the serving-tier tests.

:class:`DbFaultInjector` makes a portal connection slow or unavailable
on demand.  :meth:`DbFaultInjector.install` wraps the connection's
``statement_observer`` — the health tracker's intake, which the serving
tier attaches — so an injected fault takes the same path a genuine one
does: the tracker is told, and injected latency is spent before the
request's deadline check.
"""

import os

from repro.webstack.orm.exceptions import DatabaseUnavailable


class DbFaultInjector:
    """Deterministic database faults.

    Parameters
    ----------
    clock:
        The serving clock; injected latency advances it (a sim clock).
    latency_s:
        Virtual seconds every statement takes while set.
    fail:
        While True, every statement raises ``DatabaseUnavailable``.
    trigger_file:
        Optional path: while the file exists, statements fail — the
        cross-process switch (every prefork worker's injector sees it).
    """

    def __init__(self, clock=None, *, latency_s=0.0, fail=False,
                 trigger_file=None):
        self.clock = clock
        self.latency_s = float(latency_s)
        self.fail = bool(fail)
        self.trigger_file = trigger_file

    def install(self, db):
        """Wrap *db*'s statement observer: the inner observer begins,
        then the latency is spent or the outage raised; a raised outage
        reaches the inner observer's finish-callback first."""
        inner = db.statement_observer

        def begin(operation, table):
            finish = inner(operation, table)
            try:
                self._inject()
            except DatabaseUnavailable as exc:
                finish(exc)
                raise
            return finish

        db.statement_observer = begin
        return self

    def _inject(self):
        if self.latency_s > 0.0:
            self.clock.advance(self.latency_s)
        if self.fail or (self.trigger_file is not None
                         and os.path.exists(self.trigger_file)):
            raise DatabaseUnavailable(
                "The database did not answer (injected outage).")
