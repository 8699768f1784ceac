"""Metrics registry and Prometheus text exposition.

Pins the exposition contract the portal's ``/metrics`` endpoint serves:
label escaping, cumulative histogram buckets with the ``+Inf`` terminal,
gauge updates, and deterministic ordering independent of the order in
which samples arrived.
"""

import pytest

from repro.obs.registry import (DEFAULT_BUCKETS, MetricsRegistry,
                                escape_help, escape_label_value)

pytestmark = pytest.mark.obs


class TestCounters:
    def test_bare_and_labelled_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("grid_commands_total", help="Commands issued")
        fam.inc()
        fam.labels(program="globus-job-run", outcome="ok").inc(2)
        assert reg.value("grid_commands_total") == 1
        assert reg.value("grid_commands_total",
                         program="globus-job-run", outcome="ok") == 2
        assert reg.total("grid_commands_total") == 3

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_label_order_does_not_mint_new_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("c")
        fam.labels(a="1", b="2").inc()
        fam.labels(b="2", a="1").inc()
        assert reg.value("c", a="1", b="2") == 2

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


class TestGauges:
    def test_gauge_updates_render_last_value(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("breaker_open", help="1 when open")
        gauge.labels(resource="frost").set(1)
        assert 'breaker_open{resource="frost"} 1' \
            in reg.render_prometheus()
        gauge.labels(resource="frost").set(0)
        text = reg.render_prometheus()
        assert 'breaker_open{resource="frost"} 0' in text
        assert 'breaker_open{resource="frost"} 1' not in text

    def test_gauge_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        gauge.inc(5)
        gauge.dec(2)
        assert reg.value("g") == 3


class TestHistograms:
    def test_buckets_are_cumulative_and_end_at_inf(self):
        reg = MetricsRegistry()
        hist = reg.histogram("queries", buckets=(1, 5, 10))
        for value in (0.5, 0.5, 3, 7, 100):
            hist.observe(value)
        child = hist.labels()
        assert child.cumulative_buckets() == [
            (1.0, 2), (5.0, 3), (10.0, 4), (float("inf"), 5)]
        assert child.count == 5
        assert child.sum == pytest.approx(111.0)

    def test_rendered_bucket_counts_never_decrease(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=DEFAULT_BUCKETS)
        for value in (0.004, 0.2, 0.2, 4.0, 9999.0):
            hist.observe(value)
        text = reg.render_prometheus()
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("lat_bucket")]
        assert counts == sorted(counts)
        assert counts[-1] == 5          # the +Inf bucket
        assert 'lat_bucket{le="+Inf"} 5' in text
        assert "lat_count 5" in text

    def test_boundary_value_lands_in_its_le_bucket(self):
        # Prometheus ``le`` is inclusive: observe(5) counts in le="5".
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(5, 10))
        hist.observe(5)
        assert hist.labels().cumulative_buckets()[0] == (5.0, 1)


class TestExpositionFormat:
    def test_help_and_type_lines(self):
        reg = MetricsRegistry()
        reg.counter("polls_total", help="Daemon polls completed").inc()
        text = reg.render_prometheus()
        assert "# HELP polls_total Daemon polls completed\n" in text
        assert "# TYPE polls_total counter\n" in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        reg = MetricsRegistry()
        reg.counter("c").labels(path='C:\\dir "x"\nend').inc()
        line = [ln for ln in reg.render_prometheus().splitlines()
                if ln.startswith("c{")][0]
        assert line == 'c{path="C:\\\\dir \\"x\\"\\nend"} 1'

    def test_help_escaping(self):
        assert escape_help("line1\nline2\\x") == "line1\\nline2\\\\x"

    def test_rendering_is_insertion_order_independent(self):
        def fill(pairs):
            reg = MetricsRegistry()
            for name, labels in pairs:
                reg.counter(name).labels(**labels).inc()
            return reg.render_prometheus()

        samples = [("b_total", {"x": "2"}), ("a_total", {"y": "1"}),
                   ("b_total", {"x": "1"})]
        assert fill(samples) == fill(list(reversed(samples)))

    def test_integer_samples_render_without_decimal_point(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2.5)
        text = reg.render_prometheus()
        assert "c 3\n" in text
        assert "g 2.5" in text
