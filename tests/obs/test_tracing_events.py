"""Tracer spans / parent links and the structured event log."""

import json

import pytest

from repro.hpc import SimClock
from repro.obs import EventLog, Observability, Tracer, correlation_id

pytestmark = pytest.mark.obs


class TestTracer:
    def test_nested_spans_link_to_their_parent(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("poll") as poll:
            clock.advance(5)
            with tracer.span("phase") as phase:
                clock.advance(2)
        assert phase.parent_id == poll.span_id
        assert phase.trace_id == poll.trace_id
        assert (poll.start, poll.end) == (0.0, 7.0)
        assert (phase.start, phase.end) == (5.0, 7.0)
        assert phase.duration == 2.0

    def test_explicit_trace_id_overrides_ambient(self):
        tracer = Tracer(SimClock())
        with tracer.span("poll"):
            with tracer.span("advance",
                             trace_id=correlation_id(17)) as span:
                assert tracer.current_trace_id == "amp-sim-00000017"
        assert span.trace_id == "amp-sim-00000017"
        assert span.parent_id is not None

    def test_exception_marks_span_as_error(self):
        tracer = Tracer(SimClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        (span,) = tracer.finished
        assert span.status == "error"
        assert span.attrs["error"] == "RuntimeError"
        assert tracer.current_span is None       # stack unwound

    def test_tree_lines_render_the_forest(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("poll", trace_id="t1"):
            with tracer.span("phase.a"):
                clock.advance(1)
            with tracer.span("phase.b"):
                clock.advance(1)
        assert tracer.tree_lines() == [
            "poll [t1] t=0.0..2.0 ok",
            "  phase.a [t1] t=0.0..1.0 ok",
            "  phase.b [t1] t=1.0..2.0 ok",
        ]

    def test_spans_filter_by_trace_and_name(self):
        tracer = Tracer(SimClock())
        with tracer.span("a", trace_id="t1"):
            pass
        with tracer.span("a", trace_id="t2"):
            pass
        assert len(tracer.spans(name="a")) == 2
        assert len(tracer.spans(trace_id="t1", name="a")) == 1
        assert {s.trace_id for s in tracer.finished} == {"t1", "t2"}

    def test_a_root_trace_id_counts_roots_not_spans(self):
        """A root's trace id is its ordinal among roots, however many
        spans the roots before it recorded beneath them."""
        tracer = Tracer(SimClock())
        with tracer.span("poll") as first:
            for _ in range(5):
                with tracer.span("job"):
                    pass
        with tracer.span("poll") as second:
            pass
        assert (first.trace_id, second.trace_id) == ("trace-000001",
                                                     "trace-000002")


class TestEventLog:
    def test_emit_stamps_seq_time_kind(self):
        clock = SimClock()
        log = EventLog(clock)
        clock.advance(30)
        record = log.emit("sim.transition", simulation=3,
                          from_state="QUEUED", to_state="PREJOB")
        assert (record.seq, record.time) == (1, 30.0)
        assert record.as_dict()["to_state"] == "PREJOB"
        assert log.of_kind("sim.transition") == [record]

    def test_reserved_field_names_are_rejected(self):
        log = EventLog(SimClock())
        for reserved in ("seq", "time", "kind"):
            with pytest.raises(ValueError):
                log.emit("x", **{reserved: 1})

    def test_jsonl_is_sorted_and_compact(self):
        log = EventLog(SimClock())
        log.emit("b.kind", zebra=1, alpha="two")
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert list(parsed) == sorted(parsed)
        assert parsed["kind"] == "b.kind"

    def test_kind_subscription_fires_only_for_its_kind(self):
        # The event log doubles as the internal bus: a subscriber sees
        # the kind it asked for and nothing else.
        log = EventLog(SimClock())
        seen = []
        log.subscribe("breaker.transition", seen.append)
        log.emit("breaker.transition", resource="frost")
        log.emit("other.kind")
        assert len(seen) == 1

    def test_subscribe_all_sees_every_kind(self):
        obs = Observability(SimClock())
        kinds = []
        obs.events.subscribe_all(lambda r: kinds.append(r.kind))
        obs.events.emit("a")
        obs.events.emit("b")
        assert kinds == ["a", "b"]
        assert {kind: obs.metrics.value("amp_events_total", kind=kind)
                for kind in kinds} == {"a": 1, "b": 1}


class TestObservabilityFacade:
    def test_every_event_also_counts_as_a_metric(self):
        obs = Observability(SimClock())
        obs.events.emit("sim.transition", simulation=1)
        obs.events.emit("sim.transition", simulation=2)
        assert obs.metrics.value("amp_events_total",
                                 kind="sim.transition") == 2

    def test_health_summary_shape(self):
        obs = Observability(SimClock())
        summary = obs.health_summary()
        assert set(summary) == {
            "polls", "grid_commands", "grid_failures",
            "breaker_transitions", "retries", "transitions",
            "http_requests", "recovery_sweeps",
            "recovered_operations", "events", "spans"}
        assert all(v == 0 for v in summary.values())

    def test_correlation_id_format(self):
        assert correlation_id(17) == "amp-sim-00000017"
        assert correlation_id("42") == "amp-sim-00000042"
