"""Minimal signal dispatch (Django's ``django.dispatch`` equivalent).

AMP uses signals for decoupled bookkeeping — e.g. stamping provenance
metadata when auth users are created, and letting the notification layer
observe workflow state transitions without the workflow importing it.
"""

from __future__ import annotations


class Signal:
    """A named event with connected receivers.

    Receivers are called synchronously in connection order with
    ``(sender, **kwargs)``.  ``send`` collects ``(receiver, result)``
    pairs; a receiver's exception propagates to the sender.
    """

    def __init__(self, name=""):
        self.name = name
        self._receivers = []

    def connect(self, receiver, sender=None):
        self._receivers.append((receiver, sender))
        return receiver

    def disconnect(self, receiver):
        self._receivers = [(r, s) for r, s in self._receivers
                           if r is not receiver]

    def send(self, sender, **kwargs):
        responses = []
        for receiver, wanted in list(self._receivers):
            if wanted is not None and wanted is not sender \
                    and wanted != type(sender):
                continue
            responses.append((receiver, receiver(sender, **kwargs)))
        return responses

    def receiver_count(self):
        return len(self._receivers)


# Framework-level signals.
#
# ``post_save`` and ``post_delete`` are sent by the ORM on every
# mutation path — ``Model.save``/``Model.delete`` with the instance,
# and the set-oriented ``QuerySet`` writes (``update``, ``bulk_create``,
# ``bulk_update``) with ``instances`` where the rows are in hand and
# ``instance=None`` otherwise.  The serving tier's
# cache invalidation hangs off these; with no receivers connected the
# send is a no-op over an empty list.
pre_save = Signal("pre_save")
post_save = Signal("post_save")
post_delete = Signal("post_delete")
request_started = Signal("request_started")
request_finished = Signal("request_finished")
user_logged_in = Signal("user_logged_in")
user_logged_out = Signal("user_logged_out")
