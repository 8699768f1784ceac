"""URL routing with typed path converters.

Routes are declared Django-style::

    urlpatterns = [
        path("stars/", star_list, name="star-list"),
        path("stars/<int:pk>/", star_detail, name="star-detail"),
        path("catalog/<str:survey>/<int:number>/", catalog_entry),
    ]

Supported converters: ``int``, ``str`` (no slash), ``path`` (greedy),
``float``.  The portal composes its independent Django-style apps
(stars / results / submit / accounts) into one site by concatenating
their route lists.
"""

from __future__ import annotations

import re

from .http import Http404

_CONVERTERS = {
    "int": (r"\d+", int),
    "str": (r"[^/]+", str),
    "path": (r".+", str),
    "float": (r"[0-9]+(?:\.[0-9]+)?", float),
    "slug": (r"[-a-zA-Z0-9_]+", str),
}

_PARAM_RE = re.compile(r"<(?:(?P<conv>\w+):)?(?P<name>\w+)>")


class Route:
    """One compiled URL pattern."""

    def __init__(self, pattern, view, name=None):
        self.pattern = pattern
        self.view = view
        self.name = name
        self.regex, self.converters = self._compile(pattern)

    @staticmethod
    def _compile(pattern):
        regex_parts, converters = [], {}
        pos = 0
        for match in _PARAM_RE.finditer(pattern):
            regex_parts.append(re.escape(pattern[pos:match.start()]))
            conv = match.group("conv") or "str"
            name = match.group("name")
            if conv not in _CONVERTERS:
                raise ValueError(f"Unknown path converter {conv!r}")
            sub_re, caster = _CONVERTERS[conv]
            converters[name] = caster
            regex_parts.append(f"(?P<{name}>{sub_re})")
            pos = match.end()
        regex_parts.append(re.escape(pattern[pos:]))
        return re.compile("^" + "".join(regex_parts) + "$"), converters

    def match(self, path):
        m = self.regex.match(path)
        if m is None:
            return None
        return {name: self.converters[name](value)
                for name, value in m.groupdict().items()}


def path(pattern, view, name=None):
    return Route(pattern, view, name=name)


class URLResolver:
    """Resolves request paths to views."""

    def __init__(self, urlpatterns):
        #: ``(route, name)`` pairs in match order.
        self.routes = [(route, route.name) for route in urlpatterns]

    def resolve_route(self, request_path):
        """Return ``(route, name, kwargs)`` for a path, or raise
        :class:`~repro.webstack.http.Http404`.

        The route's name (or, for anonymous routes, the pattern) is
        what request metrics label by — a bounded route cardinality where
        raw paths would explode the label space.
        """
        path_ = request_path.lstrip("/")
        for route, name in self.routes:
            kwargs = route.match(path_)
            if kwargs is not None:
                return route, name or route.pattern, kwargs
        raise Http404(f"No URL pattern matches {request_path!r}")
