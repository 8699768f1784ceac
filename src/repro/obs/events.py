"""The structured event log: JSON-lines records plus subscriptions.

Replaces ad-hoc logging across the reproduction: anything operationally
interesting — a workflow state transition, a breaker opening, a retry
being scheduled, a portal submission — is one :class:`EventRecord` with
a virtual timestamp, a monotone sequence number, a ``kind``, and flat
JSON-serialisable fields.  The log keeps the newest :data:`KEEP` (a
:class:`Ring`; ``amp_events_total`` counts all) and ``to_jsonl()``
renders them with sorted keys: two deterministic runs match byte for byte.

The log is also the gateway's internal bus: components *subscribe* to
kinds instead of being called directly.  That is what deduplicates the
breaker-notification path — the breaker emits its transition exactly
once, here, and the admin-mail policy is just one subscriber.
"""

from __future__ import annotations

import collections
import itertools
import json

#: Items each in-memory log (events, spans, grid commands, GRAM audit)
#: keeps for a daemon that runs as long as the gateway; the rest are counted.
KEEP = 1000


class Ring:
    """An append-only log that retains its newest :data:`KEEP` items.

    Iteration yields the retained items oldest first, ``reversed()``
    newest first.  ``len()`` is the number of items *ever appended* —
    how many happened, not how many are kept — so indices count back
    from the newest item (``ring[-1]``) and a non-negative one raises.
    """

    def __init__(self):
        self._items = collections.deque(maxlen=KEEP)
        self.appended = 0

    def append(self, item):
        self._items.append(item)
        self.appended += 1

    def __iter__(self):
        return iter(self._items)

    def __reversed__(self):
        return reversed(self._items)

    def __getitem__(self, index):
        if index >= 0:
            raise IndexError("a Ring is indexed back from its newest item")
        return self._items[index]

    def __len__(self):
        return self.appended


class EventRecord:
    """One structured event."""

    __slots__ = ("seq", "time", "kind", "fields")

    def __init__(self, seq, time, kind, fields):
        self.seq = seq
        self.time = time
        self.kind = kind
        self.fields = fields

    def as_dict(self):
        out = {"seq": self.seq, "time": self.time, "kind": self.kind}
        out.update(self.fields)
        return out

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True,
                          default=str, separators=(",", ":"))

    def __repr__(self):  # pragma: no cover
        return f"<Event #{self.seq} {self.kind} t={self.time:.1f}>"


class EventLog:
    """Structured log of the newest :data:`KEEP` events, with
    kind-keyed subscriptions; ``len()`` counts every recorded event."""

    def __init__(self, clock):
        self.clock = clock
        self.records = Ring()
        self._seq = itertools.count(1)
        self._subscribers = {}
        self._all_subscribers = []

    # ------------------------------------------------------------------
    def emit(self, kind, /, **fields):
        """Record and deliver one event.

        Reserved keys (``seq``/``time``/``kind``) may not appear in
        *fields*; everything else must be JSON-serialisable (non-native
        values fall back to ``str``).
        """
        for reserved in ("seq", "time", "kind"):
            if reserved in fields:
                raise ValueError(f"Reserved event field {reserved!r}")
        record = EventRecord(next(self._seq), self.clock.now, kind,
                             fields)
        self.records.append(record)
        for subscriber in self._subscribers.get(kind, ()):
            subscriber(record)
        for subscriber in self._all_subscribers:
            subscriber(record)
        return record

    def subscribe(self, kind, fn):
        self._subscribers.setdefault(kind, []).append(fn)
        return fn

    def subscribe_all(self, fn):
        self._all_subscribers.append(fn)
        return fn

    def unsubscribe(self, kind, fn):
        """Detach one subscriber (daemon restart: the dead process's
        handlers must not keep delivering)."""
        handlers = self._subscribers.get(kind, [])
        if fn in handlers:
            handlers.remove(fn)

    # -- read side ------------------------------------------------------
    def of_kind(self, kind):
        return [r for r in self.records if r.kind == kind]

    def to_jsonl(self, kind=None):
        records = self.records if kind is None else self.of_kind(kind)
        return "\n".join(r.to_json() for r in records)

    def __len__(self):
        return len(self.records)
