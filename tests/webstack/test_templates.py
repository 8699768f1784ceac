"""Template engine: lexing, tags, filters, inheritance, escaping."""

import pytest

from repro.core.portal.templates import TEMPLATES
from repro.webstack.templates import (FILTERS, Context, Engine, Template,
                                      TemplateSyntaxError, mark_safe)


def render(source, data=None):
    return Template(source).render(data or {})


class TestVariables:
    def test_simple(self):
        assert render("Hi {{ name }}", {"name": "AMP"}) == "Hi AMP"

    def test_dotted_dict(self):
        assert render("{{ star.name }}", {"star": {"name": "Sun"}}) == "Sun"

    def test_dotted_attribute(self):
        class Star:
            name = "Vega"
        assert render("{{ s.name }}", {"s": Star()}) == "Vega"

    def test_dotted_index(self):
        assert render("{{ xs.1 }}", {"xs": ["a", "b"]}) == "b"

    def test_callable_is_called(self):
        assert render("{{ f }}", {"f": lambda: "called"}) == "called"

    def test_method_call(self):
        class Counter:
            def count(self):
                return 7
        assert render("{{ c.count }}", {"c": Counter()}) == "7"

    def test_missing_renders_empty(self):
        assert render("[{{ nothing }}]") == "[]"

    def test_none_renders_empty(self):
        assert render("[{{ x }}]", {"x": None}) == "[]"


class TestEscaping:
    def test_autoescape_on_by_default(self):
        out = render("{{ x }}", {"x": "<b>&</b>"})
        assert out == "&lt;b&gt;&amp;&lt;/b&gt;"

    def test_mark_safe_bypasses(self):
        assert render("{{ x }}", {"x": mark_safe("<i>")}) == "<i>"

    def test_quotes_escaped(self):
        assert "&quot;" in render("{{ x }}", {"x": '"'})


class TestFilters:
    # Explicit ids: a case keeps its id when the list around it changes.
    @pytest.mark.parametrize("source,data,expected", [
        pytest.param("{{ x|default:'n/a' }}", {"x": ""}, "n/a",
                     id="{{ x|default:'n/a' }}-data3-n/a"),
        pytest.param("{{ x|default:'n/a' }}", {"x": "v"}, "v",
                     id="{{ x|default:'n/a' }}-data4-v"),
        pytest.param("{{ x|join:', ' }}", {"x": ["a", "b"]}, "a, b",
                     id="{{ x|join:', ' }}-data5-a, b"),
        pytest.param("{{ x|floatformat:2 }}", {"x": 3.14159}, "3.14",
                     id="{{ x|floatformat:2 }}-data6-3.14"),
        pytest.param("{{ x|floatformat:0 }}", {"x": 61.9}, "62",
                     id="{{ x|floatformat:0 }}-data7-62"),
        pytest.param("{{ x|yesno:'up,down' }}", {"x": True}, "up",
                     id="{{ x|yesno:'up,down' }}-data10-up"),
        pytest.param("{{ x|yesno:'up,down' }}", {"x": False}, "down",
                     id="{{ x|yesno:'up,down' }}-data11-down"),
        pytest.param("{{ n }} job{{ n|pluralize }}", {"n": 1}, "1 job",
                     id="{{ n }} job{{ n|pluralize }}-data12-1 job"),
        pytest.param("{{ n }} job{{ n|pluralize }}", {"n": 4}, "4 jobs",
                     id="{{ n }} job{{ n|pluralize }}-data13-4 jobs"),
    ])
    def test_filter(self, source, data, expected):
        assert render(source, data) == expected

    def test_chained_filters(self):
        t = "{{ x|default:0|floatformat:1 }}"
        assert render(t, {"x": None}) == "0.0"
        assert render(t, {"x": 2.26}) == "2.3"

    def test_unknown_filter_raises(self):
        with pytest.raises(ValueError):
            Template("{{ x|nonexistent }}")


class TestIfTag:
    def test_if_else(self):
        t = "{% if ok %}Y{% else %}N{% endif %}"
        assert render(t, {"ok": True}) == "Y"
        assert render(t, {"ok": False}) == "N"

    def test_elif(self):
        t = "{% if one %}one{% elif two %}two{% else %}many{% endif %}"
        assert render(t, {"one": 0, "two": 1}) == "two"
        assert render(t, {"one": 0, "two": 0}) == "many"

    def test_missing_variable_is_falsy(self):
        assert render("{% if ghost %}Y{% else %}N{% endif %}") == "N"

    def test_unclosed_if_raises(self):
        with pytest.raises(TemplateSyntaxError):
            Template("{% if x %}oops")


class TestForTag:
    def test_basic_loop(self):
        out = render("{% for x in xs %}{{ x }},{% endfor %}",
                     {"xs": [1, 2, 3]})
        assert out == "1,2,3,"

    def test_empty_clause(self):
        t = "{% for x in xs %}{{ x }}{% empty %}none{% endfor %}"
        assert render(t, {"xs": []}) == "none"

    def test_forloop_counters(self):
        t = ("{% for x in xs %}{{ forloop.counter }}:{{ forloop.counter0 }}"
             "{% if forloop.last %}!{% endif %} {% endfor %}")
        assert render(t, {"xs": "ab"}) == "1:0 2:1! "

    def test_forloop_first(self):
        t = "{% for x in xs %}{% if forloop.first %}>{% endif %}{{ x }}{% endfor %}"
        assert render(t, {"xs": "ab"}) == ">ab"

    def test_tuple_unpacking(self):
        t = "{% for k, v in items %}{{ k }}={{ v }};{% endfor %}"
        assert render(t, {"items": [("a", 1), ("b", 2)]}) == "a=1;b=2;"

    def test_loop_variable_scoped(self):
        out = render("{% for x in xs %}{% endfor %}[{{ x }}]",
                     {"xs": [1]})
        assert out == "[]"

    def test_nested_loops(self):
        t = ("{% for row in grid %}{% for c in row %}{{ c }}{% endfor %}|"
             "{% endfor %}")
        assert render(t, {"grid": [[1, 2], [3]]}) == "12|3|"


class TestInheritance:
    def make_engine(self):
        return Engine(templates={
            "base.html": ("<t>{% block title %}Base{% endblock %}</t>"
                          "<c>{% block content %}none{% endblock %}</c>"),
            "mid.html": ('{% extends "base.html" %}'
                         "{% block title %}Mid{% endblock %}"),
            "leaf.html": ('{% extends "mid.html" %}'
                          "{% block content %}Leaf{% endblock %}"),
            "super.html": ('{% extends "base.html" %}'
                           "{% block title %}{{ block.super }}+"
                           "{% endblock %}"),
        })

    def test_single_level(self):
        eng = self.make_engine()
        assert eng.get_template("mid.html").render() == \
            "<t>Mid</t><c>none</c>"

    def test_two_levels(self):
        eng = self.make_engine()
        assert eng.get_template("leaf.html").render() == \
            "<t>Mid</t><c>Leaf</c>"

    def test_block_super(self):
        eng = self.make_engine()
        assert eng.get_template("super.html").render() == \
            "<t>Base+</t><c>none</c>"

    def test_missing_template_raises(self):
        with pytest.raises(TemplateSyntaxError):
            Engine().get_template("ghost.html")

    def test_template_cache(self):
        eng = Engine(templates={"a.html": "x"})
        assert eng.get_template("a.html") is eng.get_template("a.html")


class TestComments:
    def test_inline_comment_removed(self):
        assert render("a{# hidden #}b") == "ab"


class TestContext:
    def test_scope_push_pop(self):
        ctx = Context({"a": 1})
        ctx.push({"a": 2})
        assert ctx["a"] == 2
        ctx.pop()
        assert ctx["a"] == 1

    def test_cannot_pop_root(self):
        with pytest.raises(RuntimeError):
            Context().pop()


class TestErrors:
    def test_unknown_tag(self):
        with pytest.raises(TemplateSyntaxError):
            Template("{% bogus %}")

    def test_malformed_for(self):
        with pytest.raises(TemplateSyntaxError):
            Template("{% for x %}{% endfor %}")

    def test_duplicate_block(self):
        with pytest.raises(TemplateSyntaxError):
            Template("{% block a %}{% endblock %}{% block a %}"
                     "{% endblock %}")

    def test_unclosed_var(self):
        with pytest.raises(TemplateSyntaxError):
            Template("{{ x ")


class TestPortalSubset:
    """The engine is the portal's size: every portal page compiles, and
    anything outside the subset is refused when compiled — a template
    that used it fails loudly instead of rendering empty text."""

    def test_every_portal_template_compiles(self):
        engine = Engine(templates=TEMPLATES)
        for name in TEMPLATES:
            assert engine.get_template(name).nodelist

    @pytest.mark.parametrize("source", [
        '{% include "b.html" %}',
        "{% with y=x %}{{ y }}{% endwith %}",
        "{% url 'home' %}",
        "{% comment %}x{% endcomment %}",
        "{% autoescape off %}{{ x }}{% endautoescape %}",
        "{% if a and b %}Y{% endif %}",
        "{% if a or b %}Y{% endif %}",
        "{% if not a %}Y{% endif %}",
        "{% if a >= 3 %}Y{% endif %}",
        "{% if x in xs %}Y{% endif %}",
        "{% if x not in xs %}Y{% endif %}",
        "{% if a %}Y{% elif a == b %}Z{% endif %}",
        "{{ x|upper }}",
        "{{ x|safe }}",
    ] + ["{{ x|%s }}" % name for name in (
        "lower", "title", "capfirst", "length", "intcomma", "date",
        "truncatechars", "urlencode", "escape", "linebreaksbr", "first",
        "last", "slice")])
    def test_refused_at_compile(self, source):
        with pytest.raises((TemplateSyntaxError, ValueError)):
            Template(source)

    def test_filters_are_the_portal_set(self):
        assert sorted(FILTERS) == ["default", "floatformat", "join",
                                   "pluralize", "yesno"]
