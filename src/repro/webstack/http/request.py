"""HTTP request parsing.

Requests arrive as WSGI environ dictionaries (from the dev server or the
in-process test client) and are normalised into :class:`HttpRequest`
objects with Django-compatible attribute names (``GET``, ``POST``,
``COOKIES``, ``META``, ``user``, ``session``) because the portal view code
is written against that interface.
"""

from __future__ import annotations

import io
import json
from urllib.parse import parse_qsl


class QueryDict(dict):
    """A dict whose values may be multi-valued (repeated form keys).

    ``qd[key]`` returns the *last* value (Django semantics);
    ``qd.getlist(key)`` returns all of them.
    """

    def __init__(self, pairs=()):
        super().__init__()
        self._lists = {}
        for key, value in pairs:
            self.appendlist(key, value)

    def appendlist(self, key, value):
        self._lists.setdefault(key, []).append(value)
        super().__setitem__(key, value)

    def __setitem__(self, key, value):
        self._lists[key] = [value]
        super().__setitem__(key, value)

    def getlist(self, key, default=None):
        return self._lists.get(key, default if default is not None else [])

    @classmethod
    def from_query_string(cls, qs):
        return cls(parse_qsl(qs or "", keep_blank_values=True))


def parse_cookies(header):
    """Parse a ``Cookie:`` header value into a plain dict."""
    cookies = {}
    for chunk in (header or "").split(";"):
        if "=" in chunk:
            key, _, value = chunk.strip().partition("=")
            cookies[key] = value
    return cookies


class HttpRequest:
    """A parsed HTTP request.

    Attributes
    ----------
    method, path:
        Verb and URL path.
    GET, POST:
        :class:`QueryDict` of query string / form body parameters.
    COOKIES:
        Plain dict of cookies.
    META:
        The raw WSGI environ.
    user, session:
        Populated by the auth middleware; ``user`` defaults to an
        anonymous user until then.
    is_secure:
        True when the request arrived over SSL — the portal requires this
        for all authenticated activity (paper §4.2).
    """

    def __init__(self, environ):
        self.META = environ
        self.method = environ.get("REQUEST_METHOD", "GET").upper()
        self.path = environ.get("PATH_INFO", "/") or "/"
        self.GET = QueryDict.from_query_string(environ.get("QUERY_STRING", ""))
        self.COOKIES = parse_cookies(environ.get("HTTP_COOKIE", ""))
        self.content_type = environ.get("CONTENT_TYPE", "")
        self._body = None
        self._post = None
        self.user = None
        self.session = None
        self.resolver_kwargs = {}

    @property
    def is_secure(self):
        return (self.META.get("wsgi.url_scheme") == "https"
                or self.META.get("HTTPS") == "on")

    @property
    def body(self):
        if self._body is None:
            try:
                length = int(self.META.get("CONTENT_LENGTH") or 0)
            except ValueError:
                length = 0
            stream = self.META.get("wsgi.input") or io.BytesIO()
            self._body = stream.read(length) if length else b""
        return self._body

    @property
    def POST(self):
        if self._post is None:
            if (self.method in ("POST", "PUT")
                    and self.content_type.startswith(
                        "application/x-www-form-urlencoded")):
                self._post = QueryDict(
                    parse_qsl(self.body.decode("utf-8"),
                              keep_blank_values=True))
            else:
                self._post = QueryDict()
        return self._post

    def json(self):
        """Decode a JSON request body (AJAX endpoints)."""
        return json.loads(self.body.decode("utf-8"))

    def get_host(self):
        return self.META.get("HTTP_HOST", "testserver")

    def build_absolute_uri(self, path=None):
        scheme = "https" if self.is_secure else "http"
        return f"{scheme}://{self.get_host()}{path or self.path}"

    def __repr__(self):  # pragma: no cover
        return f"<HttpRequest {self.method} {self.path}>"
