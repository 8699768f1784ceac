"""The auth framework's persistent models.

The paper: "we also adopted Django's built-in authentication 'auth'
framework [... and] extended [it] to support additional information
required by AMP and TeraGrid, such as data provenance and user
authentication metadata."  Extension happens through a one-to-one profile
model in the core application; the base ``User`` here carries only the
framework-generic columns.
"""

from __future__ import annotations

import datetime as _dt
import secrets

from ..orm import (BooleanField, CharField, DateTimeField, EmailField,
                   JSONField, Model)
from . import hashers


class AnonymousUser:
    """The request.user before login.  Never persisted."""

    pk = None
    username = ""
    is_active = False
    is_staff = False
    is_superuser = False

    @property
    def is_authenticated(self):
        return False

    def has_perm(self, perm):
        return False

    def __repr__(self):  # pragma: no cover
        return "<AnonymousUser>"


class User(Model):
    """A gateway account.

    ``is_staff`` gates the (non-public) admin interface; ``is_active``
    is False until an administrator approves the registration — AMP
    accounts are approved manually after the CAPTCHA-gated request.
    """

    username = CharField(max_length=150, unique=True)
    email = EmailField(max_length=254)
    password = CharField(max_length=256, editable=False)
    first_name = CharField(max_length=150, default="")
    last_name = CharField(max_length=150, default="")
    is_active = BooleanField(default=False)
    is_staff = BooleanField(default=False)
    is_superuser = BooleanField(default=False)
    date_joined = DateTimeField(auto_now_add=True)
    last_login = DateTimeField(null=True)
    # Framework-generic extension point (paper: provenance + TeraGrid
    # authentication metadata live here or in a linked profile).
    metadata = JSONField(null=True)

    class Meta:
        table_name = "auth_user"
        ordering = ["username"]

    @property
    def is_authenticated(self):
        return True

    def set_password(self, raw):
        self.password = hashers.make_password(raw)

    def check_password(self, raw):
        return hashers.check_password(raw, self.password)

    def has_perm(self, perm):
        return bool(self.is_superuser)

    def __repr__(self):  # pragma: no cover
        return f"<User: {self.username}>"


class Session(Model):
    """Server-side session rows keyed by an opaque cookie token."""

    session_key = CharField(max_length=64, unique=True)
    user_id_ref = CharField(max_length=32, null=True)
    data = JSONField(default=dict)
    expires_at = DateTimeField(null=True)

    class Meta:
        table_name = "auth_session"

    @staticmethod
    def new_key():
        return secrets.token_urlsafe(32)

    def is_expired(self, now=None):
        if self.expires_at is None:
            return False
        now = now or _dt.datetime.utcnow()
        return now >= self.expires_at


AUTH_MODELS = [User, Session]
