"""Built-in template filters.

The set implemented is the set the AMP portal templates use: formatting
of star parameters (``floatformat``), counts in words (``pluralize``,
``yesno``), lists (``join``) and defensive defaults (``default``).  A
template naming any other filter is refused when it is compiled.
"""

from __future__ import annotations


def _default(value, fallback=""):
    if value in (None, "", [], {}):
        return fallback
    return value


def _join(value, sep=", "):
    return str(sep).join(str(v) for v in value)


def _floatformat(value, places=1):
    """Format a float to *places* decimals (Django's floatformat)."""
    try:
        number = float(value)
        places = int(places)
    except (TypeError, ValueError):
        return value
    return f"{number:.{places}f}"


def _yesno(value, arg="yes,no"):
    choices = str(arg).split(",")
    if len(choices) == 2:
        choices.append(choices[1])
    if value is None:
        return choices[2]
    return choices[0] if value else choices[1]


def _pluralize(value, suffix="s"):
    try:
        count = len(value)
    except TypeError:
        try:
            count = int(value)
        except (TypeError, ValueError):
            return ""
    return "" if count == 1 else str(suffix)


FILTERS = {"default": _default, "join": _join, "floatformat": _floatformat,
           "yesno": _yesno, "pluralize": _pluralize}


def get_filter(name):
    try:
        return FILTERS[name]
    except KeyError:
        raise ValueError(f"Unknown template filter {name!r}")
