"""User and administrator notifications.

The paper's policy (§4.4): users are never exposed to grid jargon or
transient failures; they may opt into completion e-mails or
per-transition e-mails.  Transients notify administrators only.  Model
failures (HOLD) notify both.  Daemon failures are watched externally
(here, a heartbeat the external monitor can assert on).
"""

from __future__ import annotations

from dataclasses import dataclass

AUDIENCE_USER = "user"
AUDIENCE_ADMIN = "admin"

#: Terms users must never see in a notification (§5: "the word
#: 'certificate' is not even mentioned anywhere on the site").
GRID_JARGON = ("certificate", "proxy", "gram", "gridftp", "globus",
               "rsl", "gatekeeper", "saml")


@dataclass(frozen=True)
class Message:
    audience: str
    recipient: str
    subject: str
    body: str
    timestamp: float


class JargonLeak(AssertionError):
    """A user-facing message contained grid jargon — a policy bug."""


class Mailer:
    """Outbox-recording mailer with the jargon firewall built in."""

    def __init__(self, clock, admin_address="amp-admin@ucar.edu"):
        self.clock = clock
        self.admin_address = admin_address
        self.outbox = []

    def send(self, audience, recipient, subject, body):
        if audience == AUDIENCE_USER:
            import re
            lowered = (subject + " " + body).lower()
            for word in GRID_JARGON:
                # Word-boundary match: "GRAM" is jargon, "diagram" is
                # legitimate astronomy vocabulary.
                if re.search(rf"\b{word}\b", lowered):
                    raise JargonLeak(
                        f"User-facing message contains {word!r}: "
                        f"{subject!r}")
        message = Message(audience=audience, recipient=recipient,
                          subject=subject, body=body,
                          timestamp=self.clock.now)
        self.outbox.append(message)
        return message

    # -- convenience -------------------------------------------------------
    def notify_admin(self, subject, body=""):
        return self.send(AUDIENCE_ADMIN, self.admin_address, subject, body)

    def notify_user(self, email, subject, body=""):
        return self.send(AUDIENCE_USER, email, subject, body)

    def to_user(self, email=None):
        return [m for m in self.outbox if m.audience == AUDIENCE_USER
                and (email is None or m.recipient == email)]

    def to_admin(self):
        return [m for m in self.outbox if m.audience == AUDIENCE_ADMIN]


class NotificationPolicy:
    """Implements the per-event audience rules."""

    def __init__(self, mailer: Mailer, db):
        self.mailer = mailer
        self.db = db

    def on_transition(self, simulations, old_state, new_state):
        """Mail the owners of *simulations*, which moved together from
        *old_state* to *new_state*.  Their profiles load in one SELECT,
        and for DONE the stars to name in one more."""
        from .models import Star, UserProfile
        profiles = {}
        for profile in UserProfile.objects.using(self.db).filter(
                user_id__in_json=sorted({simulation.owner_id
                                         for simulation in simulations})):
            profiles.setdefault(profile.user_id, profile)
        if new_state != "DONE":
            for simulation in simulations:
                profile = profiles.get(simulation.owner_id)
                if profile is not None and profile.notify_each_transition:
                    self.mailer.notify_user(
                        simulation.owner.email,
                        f"AMP simulation #{simulation.pk}: {new_state}",
                        f"Your simulation moved from {old_state} to "
                        f"{new_state}.")
            return
        done = [simulation for simulation in simulations
                if (profile := profiles.get(simulation.owner_id)) is None
                or profile.notify_on_completion
                or profile.notify_each_transition]
        if not done:
            return
        stars = {star.pk: star for star in Star.objects.using(self.db)
                 .filter(pk__in_json=sorted({simulation.star_id
                                             for simulation in done}))}
        for simulation in done:
            self.mailer.notify_user(
                simulation.owner.email,
                f"AMP simulation #{simulation.pk} complete",
                f"Your {simulation.kind} run for "
                f"{stars[simulation.star_id].name} has completed and its "
                f"results are available on the website.")

    def on_transient(self, simulation, detail):
        # Administrators only; the user-visible surface is the plain-text
        # status message on the simulation row, set by the workflow.
        self.mailer.notify_admin(
            f"Transient on simulation #{simulation.pk}",
            detail)

    def on_budget_exhausted(self, simulation, operation, attempts,
                            detail):
        """A transient stopped being silent: the retry budget is spent.

        Administrators get the full grid detail (including the
        copy-pasteable command line); the user-facing surface is the
        hold notification that follows, which carries no jargon.
        """
        self.mailer.notify_admin(
            f"Retry budget exhausted on simulation #{simulation.pk} "
            f"({operation} × {attempts})", detail)

    def on_hold(self, simulation, reason, category="model"):
        if category == "resource":
            self.mailer.notify_admin(
                f"Simulation #{simulation.pk} HELD: resource "
                f"unavailable", reason)
            self.mailer.notify_user(
                simulation.owner.email,
                f"AMP simulation #{simulation.pk} is paused",
                "The computing facility running your simulation has "
                "been unavailable for an extended period.  Your "
                "simulation is paused and will resume automatically "
                "once the facility recovers; no action is needed from "
                "you.")
            return
        self.mailer.notify_admin(
            f"Simulation #{simulation.pk} HELD: model failure", reason)
        self.mailer.notify_user(
            simulation.owner.email,
            f"AMP simulation #{simulation.pk} needs attention",
            "Your simulation encountered a problem during model "
            "processing.  The gateway administrators have been notified "
            "and will resume it shortly; no action is needed from you.")

    def on_breaker_transition(self, event):
        """Administrators track resource health transitions."""
        self.mailer.notify_admin(
            f"Resource {event.resource} circuit {event.to_state} "
            f"(was {event.from_state})", event.reason)

    def on_auto_resume(self, simulation):
        self.mailer.notify_admin(
            f"Simulation #{simulation.pk} auto-resumed",
            f"{simulation.machine_name} recovered; the paused "
            f"simulation re-entered {simulation.state}.")
