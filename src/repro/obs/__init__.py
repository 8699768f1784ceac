"""Observability subsystem: metrics, traces, and structured events.

The AMP operators ran the original gateway on external monitoring and
e-mail; a gateway aimed at production scale needs *queryable*
operational state.  This package is that state, in three coordinated
pieces sharing one injected clock:

- :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms, rendered as Prometheus text exposition by
  the portal's ``/metrics`` endpoint;
- :class:`~repro.obs.tracing.Tracer` — spans with parent links and a
  per-simulation **correlation id** threaded from portal submission
  through every daemon state transition and grid command;
- :class:`~repro.obs.events.EventLog` — the structured JSON-lines
  event log that replaces ad-hoc logging and doubles as the internal
  bus (notifications subscribe to breaker transitions instead of being
  called from the daemon's poll loop); like the spans, grid commands
  and audit records, it keeps a :class:`Ring` tail.

Everything is clock-injected and id-sequenced, so a fault schedule
replayed under the same seed yields identical metric values, an
identical span tree, and an identical event log — observability never
perturbs determinism.
"""

from __future__ import annotations

from .events import KEEP, EventLog, EventRecord, Ring
from .registry import (BACKOFF_BUCKETS, DEFAULT_BUCKETS,
                       QUERY_COUNT_BUCKETS, MetricsRegistry)
from .tracing import Span, Tracer

__all__ = ["Observability", "correlation_id", "EventLog", "EventRecord",
           "KEEP", "MetricsRegistry", "Ring", "Span", "Tracer",
           "DEFAULT_BUCKETS", "QUERY_COUNT_BUCKETS", "BACKOFF_BUCKETS"]


def correlation_id(simulation_pk):
    """The correlation (trace) id for one simulation.

    Deterministically derived from the primary key, so the portal (which
    mints it at submission), the daemon (which stamps it on every span
    and state-transition event), and the grid clients (which tag command
    events with the ambient trace) all agree without threading any extra
    state between processes.
    """
    return f"amp-sim-{int(simulation_pk):08d}"


class Observability:
    """The facade every layer is handed: one registry, tracer, and log.

    There is no off mode: every component takes the facade as a required
    argument, and a deployment shares one across its layers.
    """

    def __init__(self, clock):
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock)
        self.events = EventLog(clock)
        # Every event also counts: the statistics page reads totals
        # without scanning the log.
        counter = self.metrics.counter(
            "amp_events_total", help="Structured events by kind")
        self.events.subscribe_all(
            lambda record: counter.labels(kind=record.kind).inc())

    # ------------------------------------------------------------------
    def observe_database(self, db, slow_statement_s=None):
        """Count *db*'s statements into
        ``db_queries_total{role,operation}`` — each role's round-trip
        budget, measured continuously.  ``slow_statement_s`` arms the
        slow-statement log: statements over it emit
        ``db.slow_statement`` events carrying the placeholder SQL
        (parameter values are never interpolated, so nothing sensitive
        leaks) and count into ``db_slow_statements_total{role}``."""
        family = self.metrics.counter(
            "db_queries_total",
            help="ORM statements by connection role and operation")
        role = db.role
        db.on_execute = (
            lambda operation, table:
            family.labels(role=role, operation=operation).inc())
        if slow_statement_s is None:
            return
        slow_family = self.metrics.counter(
            "db_slow_statements_total",
            help="Statements slower than the slow-statement threshold, "
                 "by role")
        db.slow_statement_s = float(slow_statement_s)

        def on_slow(sql, duration_s, operation, table):
            slow_family.labels(role=role).inc()
            self.events.emit(
                "db.slow_statement", role=role, sql=sql,
                duration_s=duration_s, operation=operation, table=table,
                threshold_s=db.slow_statement_s)
        db.on_slow_statement = on_slow

    def health_summary(self):
        """The statistics-page digest of gateway operational state."""
        metrics = self.metrics
        commands = metrics.total("grid_commands_total")
        failed = 0.0
        family = metrics._families.get("grid_commands_total")
        if family is not None:
            for labels, child in family.children():
                if dict(labels).get("outcome") in ("transient",
                                                   "permanent",
                                                   "suppressed"):
                    failed += child.value
        return {
            "polls": int(metrics.total("daemon_polls_total")),
            "grid_commands": int(commands),
            "grid_failures": int(failed),
            "breaker_transitions":
                int(metrics.total("breaker_transitions_total")),
            "retries": int(metrics.total("grid_retries_total")),
            "transitions": int(metrics.total("sim_transitions_total")),
            "http_requests": int(metrics.total("http_requests_total")),
            "recovery_sweeps":
                int(metrics.total("daemon_recovery_sweeps_total")),
            "recovered_operations":
                int(metrics.total("daemon_recovery_operations_total")),
            "events": len(self.events),
            "spans": len(self.tracer.finished),
        }
