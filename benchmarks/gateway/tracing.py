"""Span wrappers for the traced pass, and the arithmetic over them.

The program has no request-path spans yet (ROADMAP item 4), so the
traced pass installs wrappers *from here* around the public entry
points of each layer.  A span is ``[name, start, end, parent, trace,
note]``: ``parent`` indexes the recorder's span list (-1 for a root),
``trace`` numbers the request or poll, ``note`` carries one count taken
at the same boundary (rows fetched, cache hit, tags bumped).  Spans stay
in memory and are written out once, when the process ends.

Both processes traced this way — a prefork worker and the daemon host —
run the wrapped code on one thread, so the open-span stack is a plain
list.
"""

from __future__ import annotations

import json
import time

NAME, START, END, PARENT, TRACE, NOTE = range(6)

ROOT_REQUEST = "serve.workers.app"
ROOT_POLL = "core.daemon.poll"

#: Middleware class -> span name (request phase, response phase).
MIDDLEWARE_SPANS = {
    "ObservabilityMiddleware": ("webstack.middleware.obs",) * 2,
    "AdmissionMiddleware": ("serve.admission.gate",) * 2,
    "RateLimitMiddleware": ("serve.ratelimit.check",) * 2,
    "SSLRequiredMiddleware": ("webstack.middleware.ssl",) * 2,
    "DeadlineMiddleware": ("serve.admission.deadline",) * 2,
    "DeadlineScopeMiddleware": ("serve.admission.deadline",) * 2,
    "CacheMiddleware": ("serve.cache.lookup", "serve.cache.fill"),
    "BrownoutMiddleware": ("serve.health.brownout",) * 2,
    "AuthMiddleware": ("webstack.auth.session",) * 2,
}

#: Span names whose metric is not simply ``<span>_ms``.
SPAN_METRIC = {
    ROOT_REQUEST: "webstack.application.dispatch_ms",
    "serve.cache.l1": "serve.cache.lookup_ms",
    "serve.cache.l2": "serve.cache.lookup_ms",
    "webstack.orm.connection.commit":
        "webstack.orm.connection.commit_wait_ms",
    "core.staging": "core.staging.ms",
    "grid.backends": "grid.backends.ms",
}


def metric_for(span_name):
    return SPAN_METRIC.get(span_name, span_name + "_ms")


class Recorder:
    """In-memory span list for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._traces = 0

    def wrap(self, fn, name, note=None):
        """*fn* recorded as a span called *name*.

        ``note(result, args)``, when given, computes the span's count
        from the call's result and positional arguments.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                trace = spans[parent][TRACE]
            else:
                parent = -1
                self._traces += 1
                trace = self._traces
            span = [name, clock(), 0.0, parent, trace, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[NOTE] = note(result, args)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def wrap_attrs(self, obj, attrs, name, note=None):
        """Wrap each of *obj*'s *attrs* that exists, in place."""
        for attr in attrs:
            fn = getattr(obj, attr, None)
            if fn is not None:
                setattr(obj, attr, self.wrap(fn, name, note))

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def install_orm(rec):
    """Wrap the ORM's compile / execute / hydrate / insert / commit
    entry points, process-wide."""
    from repro.webstack.orm.connection import Database, _Atomic
    from repro.webstack.orm.query import QuerySet, compiled_cache

    build_select = QuerySet._build_select
    served_from_cache = [False]

    def build_and_compare(queryset):
        compiles = compiled_cache.compiles
        compiled = build_select(queryset)
        served_from_cache[0] = compiled_cache.compiles == compiles
        return compiled

    QuerySet._build_select = rec.wrap(
        build_and_compare, "webstack.orm.query.compile",
        note=lambda _result, _args: int(served_from_cache[0]))
    QuerySet._fetch = rec.wrap(
        QuerySet._fetch, "webstack.orm.query.hydrate",
        note=lambda rows, _args: len(rows))
    QuerySet._bulk_insert = rec.wrap(
        QuerySet._bulk_insert, "webstack.orm.query.bulk_insert")
    Database.execute = rec.wrap(
        Database.execute, "webstack.orm.connection.execute")
    _Atomic.__exit__ = rec.wrap(
        _Atomic.__exit__, "webstack.orm.connection.commit")


def install_portal(rec, app):
    """Wrap one worker's portal application; returns the WSGI callable
    that opens a root span per request."""
    from repro.webstack.templates.engine import Template

    install_orm(rec)
    for middleware in app.middleware:
        on_request, on_response = MIDDLEWARE_SPANS.get(
            type(middleware).__name__, (ROOT_REQUEST,) * 2)
        rec.wrap_attrs(middleware, ["process_request"], on_request)
        rec.wrap_attrs(middleware, ["process_response"], on_response)
    resolver = app.resolver
    resolver.resolve_route = rec.wrap(resolver.resolve_route,
                                      "webstack.urls.resolve")
    for route, name in resolver.routes:
        span = ("core.portal.api.campaign"
                if name == "api-campaign-create" else "core.portal.view")
        route.view = rec.wrap(route.view, span)
    Template.render = rec.wrap(Template.render,
                               "webstack.templates.render")
    cache = app.serve_cache
    if cache is not None:
        def found(value, _args):
            return int(value is not None)
        cache.get = rec.wrap(cache.get, "serve.cache.l1", note=found)
        cache.shared.get = rec.wrap(cache.shared.get, "serve.cache.l2",
                                    note=found)
        cache.invalidate = rec.wrap(
            cache.invalidate, "serve.cache.invalidate",
            note=lambda _result, args: len(set(args[0])))
    return rec.wrap(app, ROOT_REQUEST,
                    note=lambda _body, args: args[0]["REQUEST_METHOD"])


def install_daemon(rec, deployment):
    """Wrap the daemon's phases and everything they call into."""
    from repro.core.workflow import directrun, optimization
    from repro.grid.backends import backend_names, get_backend

    install_orm(rec)
    daemon = deployment.daemon
    daemon.poll_once = rec.wrap(daemon.poll_once, ROOT_POLL)
    for phase in ("update_grid_jobs", "update_machine_telemetry",
                  "recover_resource_holds", "advance_simulations"):
        rec.wrap_attrs(daemon, [phase], f"core.daemon.{phase}")
    # Journal reconciliation only runs for simulations frozen behind an
    # unresolved intent; it is recovery work inside a poll.
    rec.wrap_attrs(daemon, ["reconcile_journal"],
                   "core.daemon.recover_resource_holds")
    rec.wrap_attrs(daemon.broker, ["place_pending"],
                   "sched.broker.place_pending")
    if daemon.leases is not None:
        rec.wrap_attrs(daemon.leases, ["sweep"], "core.leases.sweep")
    for workflow in daemon.workflows.values():
        rec.wrap_attrs(workflow, ["advance"], "core.workflow.advance")
    for module in (directrun, optimization):
        rec.wrap_attrs(module, ["generate_input_files",
                                "interpret_output_tarball",
                                "interpret_progress"], "core.staging")
    rec.wrap_attrs(daemon.policy, ["on_transition", "on_transient",
                                   "on_budget_exhausted", "on_hold",
                                   "on_breaker_transition",
                                   "on_auto_resume"],
                   "core.notifications.mail")
    rec.wrap_attrs(deployment.mailer, ["send"], "core.notifications.mail")
    rec.wrap_attrs(deployment.obs.events, ["emit"], "obs.emit")
    rec.wrap_attrs(deployment.clients,
                   ["ensure_proxy", "grid_proxy_init", "submit_job",
                    "globusrun", "queue_status", "job_status",
                    "job_lookup", "job_cancel", "stage_in", "stage_out",
                    "stage_stat", "reported_cost_su", "_run"],
                   "grid.clients.command")
    for name in backend_names():
        rec.wrap_attrs(get_backend(name),
                       ["submit", "poll", "cancel", "lookup", "stage_in",
                        "stage_out", "stage_stat", "queue_status",
                        "reported_cost_su"], "grid.backends")
    # Below the backends sits the simulated TeraGrid: reported so that
    # nobody optimises the simulator by accident.
    fabric = deployment.fabric
    for name in fabric.resource_names():
        rec.wrap_attrs(fabric.gram(name),
                       ["submit", "poll", "cancel", "find_by_tag",
                        "failure_reason"], "hpc.simulated")
        rec.wrap_attrs(fabric.gridftp(name),
                       ["put", "get", "exists", "stat"], "hpc.simulated")
    rec.wrap_attrs(deployment.clock, ["advance"], "hpc.simulated")


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------

def exclusive_ms(spans):
    """Self time of every span, in ms: its duration minus the part of
    it that its direct children cover."""
    self_ms = [(span[END] - span[START]) * 1000.0 for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            self_ms[span[PARENT]] -= (span[END] - span[START]) * 1000.0
    return self_ms


class Summary:
    """Totals over the traces that *keep* selects, from the span lists
    of one or more processes.

    ``self_ms[name]``/``count[name]``/``note[name]`` sum exclusive
    time, span count and numeric notes per span name; ``roots`` are the
    selected root spans.
    """

    def __init__(self, span_lists, keep):
        self.roots = []
        self.self_ms, self.count, self.note = {}, {}, {}
        #: Rows read from the database: a queryset iterated twice
        #: re-enters ``_fetch`` for its cached rows, which runs no
        #: statement and so has no child span.
        self.rows_fetched = 0
        for spans in span_lists:
            self._add(spans, keep)

    def _add(self, spans, keep):
        roots = [span for span in spans
                 if span[PARENT] < 0 and keep(span)]
        self.roots += roots
        traces = {span[TRACE] for span in roots}
        has_child = {span[PARENT] for span in spans}
        for index, (span, own) in enumerate(
                zip(spans, exclusive_ms(spans))):
            if span[TRACE] not in traces:
                continue
            name = span[NAME]
            self.self_ms[name] = self.self_ms.get(name, 0.0) + own
            self.count[name] = self.count.get(name, 0) + 1
            if isinstance(span[NOTE], int):
                self.note[name] = self.note.get(name, 0) + span[NOTE]
                if name == "webstack.orm.query.hydrate" \
                        and index in has_child:
                    self.rows_fetched += span[NOTE]

    def root_ms(self):
        return sum((span[END] - span[START]) * 1000.0
                   for span in self.roots)

    def layer_ms(self):
        """Exclusive ms per layer metric name (see :func:`metric_for`)."""
        layers = {}
        for name, total in self.self_ms.items():
            metric = metric_for(name)
            layers[metric] = layers.get(metric, 0.0) + total
        return layers
