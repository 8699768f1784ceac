"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The gateway's operational state must be *queryable* (the lesson of the
grid information services AMP leaned on): every subsystem increments
named metrics and the portal exposes the whole registry in Prometheus
text format at ``/metrics``.  Three metric kinds cover the paper's
failure classes and the batch-layer budgets:

- **Counter** — monotone totals (grid commands, breaker transitions,
  retries, HTTP requests).
- **Gauge** — last-written values (breaker open flags, queue depth,
  heartbeat age).
- **Histogram** — fixed-bucket distributions (per-poll query counts,
  backoff delays, request latency).  Buckets are fixed at declaration,
  so two runs that observe the same values render byte-identical
  exposition — determinism is a feature, not an accident.

Nothing here reads a clock: time enters only through observed values,
which in this reproduction all derive from the shared
:class:`~repro.hpc.simclock.SimClock`.
"""

from __future__ import annotations

import bisect

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram bucket upper bounds (seconds-ish scale, Prometheus
#: convention); declare explicit buckets for count-valued histograms.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                   5.0, 10.0, 30.0, 60.0, 300.0, 1800.0, 7200.0)

#: Buckets for round-trip-count histograms (the batch-layer budgets).
QUERY_COUNT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500)

#: Buckets for retry/backoff delays (virtual seconds).
BACKOFF_BUCKETS = (60.0, 300.0, 600.0, 1200.0, 2400.0, 4800.0, 7200.0,
                   14400.0)


def _fmt(value):
    """Render a sample value the way Prometheus text format expects."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def escape_label_value(value):
    r"""Escape ``\``, ``"`` and newlines inside a label value."""
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def escape_help(text):
    r"""Escape ``\`` and newlines inside a ``# HELP`` line."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("Counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)

    def inc(self, amount=1.0):
        self.value += amount

    def dec(self, amount=1.0):
        self.value -= amount


class Histogram:
    """Fixed-bucket distribution; buckets are *cumulative* on render."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds):
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("A histogram needs at least one bucket")
        # Per-bucket (non-cumulative) counts; the +Inf bucket is implied
        # by ``count``.
        self.bucket_counts = [0] * len(self.bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1

    def cumulative_buckets(self):
        """``[(upper_bound, cumulative_count), ...]`` plus ``+Inf``."""
        out, running = [], 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


_KIND_CLASSES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class MetricFamily:
    """One named metric with labelled children.

    ``family.labels(route="home", status="200")`` returns (creating on
    first use) the child for that label set; the unlabelled child is the
    family itself used bare (``family.inc()``).
    """

    def __init__(self, name, kind, help="", buckets=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets) if buckets else None
        self._children = {}

    def _make_child(self):
        if self.kind == HISTOGRAM:
            return Histogram(self.buckets or DEFAULT_BUCKETS)
        return _KIND_CLASSES[self.kind]()

    def labels(self, **labels):
        key = tuple(sorted(labels.items()))
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    # Bare-family convenience: ``counter("x").inc()``.
    def inc(self, amount=1.0):
        self.labels().inc(amount)

    def dec(self, amount=1.0):
        self.labels().dec(amount)

    def set(self, value):
        self.labels().set(value)

    def observe(self, value):
        self.labels().observe(value)

    # ------------------------------------------------------------------
    def children(self):
        """Label-sorted ``[(labels_tuple, child), ...]``."""
        return sorted(self._children.items())

    def total(self):
        """Sum of child values (counter/gauge) or counts (histogram)."""
        if self.kind == HISTOGRAM:
            return sum(c.count for c in self._children.values())
        return sum(c.value for c in self._children.values())


class MetricsRegistry:
    """All metric families, renderable as Prometheus text exposition."""

    def __init__(self):
        self._families = {}

    # ------------------------------------------------------------------
    def _family(self, name, kind, help, buckets=None):
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help=help, buckets=buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"Metric {name!r} already registered as {family.kind}, "
                f"not {kind}")
        return family

    def counter(self, name, help=""):
        return self._family(name, COUNTER, help)

    def gauge(self, name, help=""):
        return self._family(name, GAUGE, help)

    def histogram(self, name, help="", buckets=None):
        return self._family(name, HISTOGRAM, help, buckets=buckets)

    # -- read side ------------------------------------------------------
    def value(self, name, **labels):
        """Current value of one child (0.0 when never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(sorted(labels.items()))
        child = family._children.get(key)
        if child is None:
            return 0.0
        return child.count if family.kind == HISTOGRAM else child.value

    def total(self, name):
        family = self._families.get(name)
        return family.total() if family is not None else 0.0

    def family_names(self):
        return sorted(self._families)

    # ------------------------------------------------------------------
    def render_prometheus(self):
        """The whole registry in Prometheus text exposition format.

        Families sort by name and children by label set, so two
        registries that recorded the same samples render identical text
        — the determinism surface the replay tests compare.
        """
        lines = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for labels, child in family.children():
                if family.kind == HISTOGRAM:
                    lines.extend(self._render_histogram(name, labels,
                                                        child))
                else:
                    lines.append(f"{name}{self._label_text(labels)} "
                                 f"{_fmt(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _label_text(labels, extra=()):
        items = list(labels) + list(extra)
        if not items:
            return ""
        inner = ",".join(f'{k}="{escape_label_value(v)}"'
                         for k, v in items)
        return "{" + inner + "}"

    @classmethod
    def _render_histogram(cls, name, labels, child):
        lines = []
        for bound, cumulative in child.cumulative_buckets():
            le = "+Inf" if bound == float("inf") else _fmt(bound)
            lines.append(f"{name}_bucket"
                         f"{cls._label_text(labels, [('le', le)])} "
                         f"{cumulative}")
        lines.append(f"{name}_sum{cls._label_text(labels)} "
                     f"{_fmt(child.sum)}")
        lines.append(f"{name}_count{cls._label_text(labels)} "
                     f"{child.count}")
        return lines
