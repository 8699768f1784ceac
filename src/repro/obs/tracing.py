"""Lightweight tracing: spans with parent links on the sim clock.

A **span** brackets one unit of gateway work — a daemon poll, one poll
phase, one simulation's workflow advance, one grid-job status check —
with virtual start/end times, a parent link, and a **trace id** (the
correlation id).  The trace id is minted once per simulation
(:func:`repro.obs.correlation_id`) and threaded from portal submission
through every daemon state transition and grid command, so an operator
can ask "show me everything the gateway did for simulation #17".

Span ids and root trace ids come from per-tracer monotone counters and all
timestamps come from the injected clock, so a fault schedule replayed
under the same seed produces an *identical* span tree —
:meth:`Tracer.tree_lines` renders the forest as text precisely so soak
tests can compare two runs with ``==``.
"""

from __future__ import annotations

import itertools

from .events import Ring


class Span:
    """One timed, attributed unit of work; as a context manager it is
    open on its tracer's stack for the ``with`` block.  The span owns
    the *attrs* dict it is given."""

    __slots__ = ("tracer", "span_id", "trace_id", "parent_id", "name",
                 "start", "end", "attrs", "status")

    def __init__(self, tracer, span_id, trace_id, parent_id, name, start,
                 attrs):
        self.tracer = tracer
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = None
        self.attrs = attrs
        self.status = "ok"

    @property
    def duration(self):
        return None if self.end is None else self.end - self.start

    def set_attr(self, key, value):
        self.attrs[key] = value

    def as_dict(self):
        return {"span_id": self.span_id, "trace_id": self.trace_id,
                "parent_id": self.parent_id, "name": self.name,
                "start": self.start, "end": self.end,
                "status": self.status, "attrs": dict(self.attrs)}

    def __repr__(self):  # pragma: no cover
        return (f"<Span #{self.span_id} {self.name!r} "
                f"trace={self.trace_id}>")

    def __enter__(self):
        self.tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self.tracer
        self.end = tracer.clock.now
        if exc_type is not None:
            self.status = "error"
            self.attrs["error"] = exc_type.__name__
        popped = tracer._stack.pop()
        assert popped is self, "span stack corrupted"
        tracer.finished.append(self)
        return False


class Tracer:
    """Mints spans against one clock; keeps the newest finished spans
    (a :class:`~repro.obs.events.Ring`; ``len(finished)`` counts all)."""

    def __init__(self, clock):
        self.clock = clock
        self.finished = Ring()
        self._stack = []
        self._ids = itertools.count(1)
        self._roots = itertools.count(1)

    # ------------------------------------------------------------------
    def span(self, name, *, trace_id=None, attrs=None):
        """Open a span; use as ``with tracer.span("daemon.poll"): ...``.

        The parent is whatever span is currently open on this tracer;
        the trace id defaults to the parent's (ambient propagation), or
        for a root span to a fresh ``trace-NNNNNN``, the root's ordinal
        (however many spans earlier roots recorded beneath them).
        *attrs* becomes the span's own dict: pass a fresh one.
        """
        span_id = next(self._ids)
        if self._stack:
            parent = self._stack[-1]
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        else:
            parent_id = None
            if trace_id is None:
                trace_id = f"trace-{next(self._roots):06d}"
        return Span(self, span_id, trace_id, parent_id, name,
                    self.clock.now, {} if attrs is None else attrs)

    @property
    def current_span(self):
        return self._stack[-1] if self._stack else None

    @property
    def current_trace_id(self):
        span = self.current_span
        return span.trace_id if span is not None else None

    def resume(self, span, fn, *args):
        """``fn(*args)`` with *span* — opened by :meth:`span`, still
        unfinished — the ambient parent and trace again, as its
        ``__enter__`` makes it: one span covers a simulation's share of
        each set-wide step of a poll."""
        depth = len(self._stack)
        span.__enter__()
        try:
            return fn(*args)
        finally:
            del self._stack[depth:]

    @staticmethod
    def finish(span):
        """Record *span*, only ever :meth:`resume`\\ d, as finished now:
        its one ``with`` block, empty."""
        with span:
            pass

    # -- read side ------------------------------------------------------
    def spans(self, trace_id=None, name=None):
        """Finished spans, optionally filtered by trace id and/or name."""
        return [s for s in self.finished
                if (trace_id is None or s.trace_id == trace_id)
                and (name is None or s.name == name)]

    def tree_lines(self, trace_id=None):
        """Render the span forest as deterministic indented text lines.

        Two runs of the same fault schedule must produce equal lists —
        this is the replay-determinism comparison surface.
        """
        spans = self.spans(trace_id=trace_id)
        by_parent = {}
        ids = {s.span_id for s in spans}
        for span in spans:
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)
        for children in by_parent.values():
            children.sort(key=lambda s: (s.start, s.span_id))
        lines = []

        def walk(span, depth):
            lines.append(f"{'  ' * depth}{span.name} "
                         f"[{span.trace_id}] "
                         f"t={span.start:.1f}..{span.end:.1f} "
                         f"{span.status}")
            for child in by_parent.get(span.span_id, []):
                walk(child, depth + 1)

        for root in by_parent.get(None, []):
            walk(root, 0)
        return lines
