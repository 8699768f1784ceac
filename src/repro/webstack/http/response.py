"""HTTP response types."""

from __future__ import annotations

import json

REASON_PHRASES = {
    200: "OK", 201: "Created", 204: "No Content",
    301: "Moved Permanently", 302: "Found", 304: "Not Modified",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    410: "Gone", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class Http404(Exception):
    """Raised by views; converted to a 404 response by the handler."""


class HttpResponse:
    """A basic HTTP response with headers and cookie support."""

    status_code = 200

    def __init__(self, content=b"", content_type="text/html; charset=utf-8",
                 status=None):
        if isinstance(content, str):
            content = content.encode("utf-8")
        self.content = content
        if status is not None:
            self.status_code = status
        self.headers = {"Content-Type": content_type}
        self._cookies = {}

    # ------------------------------------------------------------------
    def __setitem__(self, header, value):
        self.headers[header] = value

    def __getitem__(self, header):
        return self.headers[header]

    def get(self, header, default=None):
        return self.headers.get(header, default)

    def set_cookie(self, key, value, *, max_age=None, path="/",
                   httponly=True, secure=False):
        morsel = f"{key}={value}; Path={path}"
        if max_age is not None:
            morsel += f"; Max-Age={int(max_age)}"
        if httponly:
            morsel += "; HttpOnly"
        if secure:
            morsel += "; Secure"
        self._cookies[key] = morsel

    def delete_cookie(self, key, path="/"):
        self._cookies[key] = f"{key}=; Path={path}; Max-Age=0"

    @property
    def cookies(self):
        return dict(self._cookies)

    # ------------------------------------------------------------------
    @property
    def reason_phrase(self):
        return REASON_PHRASES.get(self.status_code, "Unknown")

    @property
    def text(self):
        return self.content.decode("utf-8")

    def wsgi_headers(self):
        headers = list(self.headers.items())
        headers.extend(("Set-Cookie", morsel)
                       for morsel in self._cookies.values())
        return headers

    def __repr__(self):  # pragma: no cover
        return f"<HttpResponse {self.status_code}>"


class HttpResponseRedirect(HttpResponse):
    status_code = 302

    def __init__(self, location):
        super().__init__(b"")
        self.headers["Location"] = location

    @property
    def url(self):
        return self.headers["Location"]


class HttpResponseNotFound(HttpResponse):
    status_code = 404


class HttpResponseBadRequest(HttpResponse):
    status_code = 400


class HttpResponseForbidden(HttpResponse):
    status_code = 403


class HttpResponseServerError(HttpResponse):
    status_code = 500


class JsonResponse(HttpResponse):
    """JSON payload response (the portal's AJAX suggestion endpoints)."""

    def __init__(self, data, status=None):
        super().__init__(json.dumps(data),
                         content_type="application/json", status=status)
        self.data = data
