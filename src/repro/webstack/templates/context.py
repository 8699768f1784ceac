"""Template rendering context with scoped variable resolution."""

from __future__ import annotations


class VariableDoesNotExist(Exception):
    pass


class SafeString(str):
    """A string exempt from autoescaping (already-safe HTML)."""

    def __html_safe__(self):
        return True


def mark_safe(value):
    return SafeString(value)


def escape(value):
    """HTML-escape a value unless it is already marked safe."""
    if isinstance(value, SafeString):
        return value
    text = str(value)
    return SafeString(text.replace("&", "&amp;").replace("<", "&lt;")
                      .replace(">", "&gt;").replace('"', "&quot;")
                      .replace("'", "&#x27;"))


class Context:
    """A stack of variable scopes.

    ``push()``/``pop()`` bracket block scopes ({% for %} bodies),
    so loop variables never leak.  Resolution of a dotted path tries, in
    order: dict key, attribute, list index — and calls zero-argument
    callables, matching Django's lookup order that the portal templates
    rely on (``star.simulations.count``).
    """

    def __init__(self, data=None):
        self.stack = [dict(data or {})]
        # Render-time state owned by {% block %} inheritance.
        self.block_overrides = {}

    def push(self, data=None):
        self.stack.append(dict(data or {}))

    def pop(self):
        if len(self.stack) == 1:
            raise RuntimeError("Cannot pop the root context scope")
        self.stack.pop()

    def __getitem__(self, key):
        for scope in reversed(self.stack):
            if key in scope:
                return scope[key]
        raise KeyError(key)

    # ------------------------------------------------------------------
    def resolve(self, path):
        """Resolve a dotted variable path; raises VariableDoesNotExist."""
        parts = path.split(".")
        try:
            current = self[parts[0]]
        except KeyError:
            raise VariableDoesNotExist(parts[0])
        for part in parts[1:]:
            current = _lookup(current, part)
        if callable(current) and not getattr(current, "do_not_call", False):
            current = current()
        return current


def _lookup(obj, key):
    if isinstance(obj, dict):
        if key in obj:
            return obj[key]
    try:
        value = getattr(obj, key)
        if callable(value) and not getattr(value, "do_not_call", False):
            return value()
        return value
    except AttributeError:
        pass
    try:
        return obj[int(key)]
    except (TypeError, ValueError, IndexError, KeyError):
        pass
    raise VariableDoesNotExist(f"Cannot resolve {key!r} on {type(obj).__name__}")
