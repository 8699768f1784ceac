"""In-process test client for :class:`WebApplication`.

Builds WSGI environs directly — no sockets — and maintains a cookie jar so
login sessions persist across requests, mirroring ``django.test.Client``.
All requests default to ``https`` because the portal requires SSL for
authenticated activity.
"""

from __future__ import annotations

import io
from urllib.parse import urlencode, urlsplit

from .http import HttpRequest


class Client:
    def __init__(self, app, *, secure=True, host="amp.ucar.edu"):
        self.app = app
        self.secure = secure
        self.host = host
        self.cookies = {}

    # ------------------------------------------------------------------
    def _environ(self, method, path, query="", body=b"", content_type="",
                 headers=None):
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_TYPE": content_type,
            "CONTENT_LENGTH": str(len(body)),
            "HTTP_HOST": self.host,
            "wsgi.input": io.BytesIO(body),
            "wsgi.url_scheme": "https" if self.secure else "http",
        }
        for name, value in (headers or {}).items():
            key = "HTTP_" + name.upper().replace("-", "_")
            environ[key] = value
        if self.cookies:
            environ["HTTP_COOKIE"] = "; ".join(
                f"{k}={v}" for k, v in self.cookies.items())
        return environ

    def _absorb_cookies(self, response):
        for morsel in response.cookies.values():
            head = morsel.split(";", 1)[0]
            key, _, value = head.partition("=")
            if "Max-Age=0" in morsel:
                self.cookies.pop(key, None)
            else:
                self.cookies[key] = value

    def request(self, method, path, data=None, json_body=None,
                headers=None):
        parts = urlsplit(path)
        body, content_type = b"", ""
        query = parts.query
        if method in ("POST", "PUT") and data is not None:
            body = urlencode(data, doseq=True).encode("utf-8")
            content_type = "application/x-www-form-urlencoded"
        elif json_body is not None:
            import json as _json
            body = _json.dumps(json_body).encode("utf-8")
            content_type = "application/json"
        elif method == "GET" and data is not None:
            extra = urlencode(data, doseq=True)
            query = f"{query}&{extra}" if query else extra
        environ = self._environ(method, parts.path, query, body,
                                content_type, headers)
        request = HttpRequest(environ)
        response = self.app.handle(request)
        self._absorb_cookies(response)
        return response

    def get(self, path, data=None, headers=None):
        return self.request("GET", path, data, headers=headers)

    def post(self, path, data=None, json_body=None, headers=None):
        return self.request("POST", path, data, json_body,
                            headers=headers)

    # ------------------------------------------------------------------
    def login(self, username, password, login_path="/accounts/login/"):
        """POST the login form; returns True on redirect (success)."""
        response = self.post(login_path, {"username": username,
                                          "password": password})
        return response.status_code == 302
