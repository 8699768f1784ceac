"""Template parser and engine.

Templates are handed to the engine as named strings (the portal ships
its templates as Python-embedded strings so the whole site is one
importable code base).  Parsed templates are cached per engine.

The tags are the ones the portal's pages use: ``if``/``elif``/``else``,
``for``/``empty``, ``block`` and ``extends``.  Any other tag is refused
when the template is compiled, never rendered as empty text.
"""

from __future__ import annotations

import re

from .context import Context
from .lexer import (TOKEN_COMMENT, TOKEN_TAG, TOKEN_TEXT, TOKEN_VAR,
                    TemplateSyntaxError, tokenize)
from .nodes import (BlockNode, ExtendsNode, FilterExpression, ForNode,
                    IfNode, NodeList, TextNode, VarNode, parse_atom)


class Parser:
    def __init__(self, tokens, engine):
        self.tokens = tokens
        self.engine = engine
        self.pos = 0
        self.blocks = {}

    def parse(self, until=()):
        """Parse until one of the *until* tag names; returns a NodeList.

        The terminating token is left available via ``self.next_tag``.
        """
        nodelist = NodeList()
        self.next_tag = None
        while self.pos < len(self.tokens):
            token = self.tokens[self.pos]
            self.pos += 1
            if token.kind == TOKEN_TEXT:
                nodelist.append(TextNode(token.contents))
            elif token.kind == TOKEN_COMMENT:
                continue
            elif token.kind == TOKEN_VAR:
                nodelist.append(VarNode(token.contents))
            elif token.kind == TOKEN_TAG:
                name, _, rest = token.contents.partition(" ")
                rest = rest.strip()
                if name in until:
                    self.next_tag = (name, rest)
                    return nodelist
                nodelist.append(self._parse_tag(name, rest, token))
        if until:
            raise TemplateSyntaxError(
                f"Unclosed block: expected one of {until}")
        return nodelist

    # ------------------------------------------------------------------
    def _parse_tag(self, name, rest, token):
        method = getattr(self, f"_tag_{name}", None)
        if method is None:
            raise TemplateSyntaxError(
                f"Unknown tag {{% {name} %}} at line {token.lineno}")
        return method(rest)

    @staticmethod
    def _condition(rest):
        """An ``if``/``elif`` tests the truth of one value."""
        if len(rest.split()) != 1:
            raise TemplateSyntaxError(
                f"{{% if %}} takes one value, not {rest!r}")
        return parse_atom(rest)

    def _tag_if(self, rest):
        branches = []
        condition = self._condition(rest)
        while True:
            body = self.parse(until=("elif", "else", "endif"))
            branches.append((condition, body))
            tag, tag_rest = self.next_tag
            if tag == "elif":
                condition = self._condition(tag_rest)
                continue
            if tag == "else":
                body = self.parse(until=("endif",))
                branches.append((None, body))
            return IfNode(branches)

    def _tag_for(self, rest):
        match = re.match(r"^(.+?)\s+in\s+(.+)$", rest)
        if not match:
            raise TemplateSyntaxError(f"Malformed for tag: {rest!r}")
        loopvars = [v.strip() for v in match.group(1).split(",")]
        iterable = FilterExpression(match.group(2).strip())
        body = self.parse(until=("empty", "endfor"))
        empty = None
        if self.next_tag[0] == "empty":
            empty = self.parse(until=("endfor",))
        return ForNode(loopvars, iterable, body, empty)

    def _tag_block(self, rest):
        name = rest.strip()
        if not name:
            raise TemplateSyntaxError("{% block %} requires a name")
        body = self.parse(until=("endblock",))
        node = BlockNode(name, body)
        if name in self.blocks:
            raise TemplateSyntaxError(f"Duplicate block {name!r}")
        self.blocks[name] = node
        return node

    def _tag_extends(self, rest):
        parent = parse_atom(rest)
        # Everything after extends is parsed normally so blocks register.
        remainder = self.parse(until=())
        del remainder  # only the collected blocks matter
        return ExtendsNode(parent, self.blocks, self.engine)


class Template:
    """A compiled template."""

    def __init__(self, source, engine=None, name="<string>"):
        self.name = name
        self.engine = engine or Engine()
        parser = Parser(tokenize(source), self.engine)
        self.nodelist = parser.parse()
        self.blocks = parser.blocks

    def render(self, data=None, context=None):
        context = context or Context(data or {})
        return self.nodelist.render(context)


class Engine:
    """Template registry + cache: *templates* maps each template name to
    its source string."""

    def __init__(self, templates=None):
        self.sources = dict(templates or {})
        self._cache = {}

    def get_template(self, name):
        if name in self._cache:
            return self._cache[name]
        source = self.sources.get(name)
        if source is None:
            raise TemplateSyntaxError(f"Template {name!r} not found")
        template = Template(source, engine=self, name=name)
        self._cache[name] = template
        return template
