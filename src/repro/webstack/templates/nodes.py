"""Template parse-tree nodes and expression evaluation."""

from __future__ import annotations

import re

from .context import SafeString, VariableDoesNotExist, escape
from .filters import get_filter
from .lexer import TemplateSyntaxError

_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")


class Literal:
    def __init__(self, value):
        self.value = value

    def resolve(self, context):
        return self.value


class VariablePath:
    def __init__(self, path):
        self.path = path

    def resolve(self, context):
        return context.resolve(self.path)


def parse_atom(text):
    """Parse one expression atom: quoted string, number, or variable path."""
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return Literal(text[1:-1])
    if _NUMBER_RE.match(text):
        return Literal(float(text) if "." in text else int(text))
    if text == "True":
        return Literal(True)
    if text == "False":
        return Literal(False)
    if text == "None":
        return Literal(None)
    return VariablePath(text)


class FilterExpression:
    """``variable.path|filter:arg|filter`` — the {{ }} expression syntax."""

    _FILTER_RE = re.compile(
        r"\|(\w+)(?::((?:'[^']*')|(?:\"[^\"]*\")|[^|]+))?")

    def __init__(self, expression):
        head = self._FILTER_RE.split(expression)[0].strip()
        self.atom = parse_atom(head)
        self.filters = []
        for match in self._FILTER_RE.finditer(expression):
            name = match.group(1)
            arg_text = match.group(2)
            arg = parse_atom(arg_text) if arg_text is not None else None
            self.filters.append((get_filter(name), arg, name))

    def resolve(self, context, fail_silently=True):
        try:
            value = self.atom.resolve(context)
        except VariableDoesNotExist:
            if not fail_silently:
                raise
            value = ""
        for fn, arg, _name in self.filters:
            if arg is None:
                value = fn(value)
            else:
                value = fn(value, arg.resolve(context))
        return value


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------

class Node:
    def render(self, context):  # pragma: no cover - interface
        raise NotImplementedError


class NodeList(list):
    def render(self, context):
        return "".join(node.render(context) for node in self)


class TextNode(Node):
    def __init__(self, text):
        self.text = text

    def render(self, context):
        return self.text


class VarNode(Node):
    def __init__(self, expression):
        self.expr = FilterExpression(expression)

    def render(self, context):
        value = self.expr.resolve(context)
        if value is None:
            value = ""
        if isinstance(value, SafeString):
            return str(value)
        return str(escape(value))


class IfNode(Node):
    """{% if %} / {% elif %} / {% else %} chains.

    Each condition is one atom; a variable that does not resolve is
    false.
    """

    def __init__(self, branches):
        self.branches = branches  # list of (atom|None, NodeList)

    def render(self, context):
        for condition, body in self.branches:
            if condition is None or self._true(condition, context):
                return body.render(context)
        return ""

    @staticmethod
    def _true(condition, context):
        try:
            return bool(condition.resolve(context))
        except VariableDoesNotExist:
            return False


class ForNode(Node):
    """{% for x in items %} ... {% empty %} ... {% endfor %}.

    Exposes ``forloop.counter`` / ``counter0`` / ``first`` / ``last`` /
    ``revcounter`` exactly like Django.  Multiple loop variables unpack
    tuples (``{% for key, value in pairs %}``).
    """

    def __init__(self, loopvars, iterable, body, empty):
        self.loopvars = loopvars
        self.iterable = iterable
        self.body = body
        self.empty = empty

    def render(self, context):
        try:
            items = self.iterable.resolve(context)
        except VariableDoesNotExist:
            items = None
        items = list(items) if items else []
        if not items:
            return self.empty.render(context) if self.empty else ""
        out = []
        total = len(items)
        for index, item in enumerate(items):
            scope = {"forloop": {
                "counter": index + 1, "counter0": index,
                "revcounter": total - index, "first": index == 0,
                "last": index == total - 1,
            }}
            if len(self.loopvars) == 1:
                scope[self.loopvars[0]] = item
            else:
                unpacked = list(item)
                if len(unpacked) != len(self.loopvars):
                    raise TemplateSyntaxError(
                        f"Cannot unpack {len(unpacked)} values into "
                        f"{len(self.loopvars)} loop variables")
                scope.update(zip(self.loopvars, unpacked))
            context.push(scope)
            try:
                out.append(self.body.render(context))
            finally:
                context.pop()
        return "".join(out)


class BlockNode(Node):
    """{% block name %} — an override point for template inheritance."""

    def __init__(self, name, body):
        self.name = name
        self.body = body

    def render(self, context):
        override = context.block_overrides.get(self.name)
        if override is not None and override is not self:
            # block.super support: expose parent body via a scope entry.
            context.push({"block": {"super": SafeString(
                self.body.render(context))}})
            try:
                return override.body.render(context)
            finally:
                context.pop()
        return self.body.render(context)


class ExtendsNode(Node):
    """{% extends "parent.html" %} — must be the template's first tag."""

    def __init__(self, parent_expr, child_blocks, engine):
        self.parent_expr = parent_expr
        self.child_blocks = child_blocks
        self.engine = engine

    def render(self, context):
        parent_name = self.parent_expr.resolve(context)
        parent = self.engine.get_template(parent_name)
        # Child overrides win over any the parent (itself a child) set.
        for name, block in self.child_blocks.items():
            context.block_overrides.setdefault(name, block)
        return parent.nodelist.render(context)
