"""HTTP primitives, URL routing and application dispatch."""

import io

import pytest

from repro.webstack import (Http404, HttpRequest, HttpResponse,
                            HttpResponseRedirect, JsonResponse,
                            WebApplication, path)
from repro.webstack.http.request import QueryDict
from repro.webstack.templates import Engine
from repro.webstack.testclient import Client
from repro.webstack.urls import URLResolver


def environ(method="GET", path_="/", query="", body=b"", ctype=""):
    return {
        "REQUEST_METHOD": method, "PATH_INFO": path_,
        "QUERY_STRING": query, "CONTENT_TYPE": ctype,
        "CONTENT_LENGTH": str(len(body)), "wsgi.input": io.BytesIO(body),
        "HTTP_HOST": "amp.ucar.edu", "wsgi.url_scheme": "https",
    }


class TestRequest:
    def test_get_parsing(self):
        req = HttpRequest(environ(query="q=16+Cyg&limit=5"))
        assert req.GET["q"] == "16 Cyg"
        assert req.GET["limit"] == "5"

    def test_post_parsing(self):
        req = HttpRequest(environ(
            "POST", body=b"mass=1.0&age=4.6",
            ctype="application/x-www-form-urlencoded"))
        assert req.POST["mass"] == "1.0"

    def test_multi_valued(self):
        qd = QueryDict.from_query_string("tag=a&tag=b")
        assert qd["tag"] == "b"
        assert qd.getlist("tag") == ["a", "b"]

    def test_cookies(self):
        env = environ()
        env["HTTP_COOKIE"] = "sessionid=abc; theme=dark"
        req = HttpRequest(env)
        assert req.COOKIES == {"sessionid": "abc", "theme": "dark"}

    def test_json_body(self):
        req = HttpRequest(environ("POST", body=b'{"a": 1}',
                                  ctype="application/json"))
        assert req.json() == {"a": 1}

    def test_is_secure(self):
        assert HttpRequest(environ()).is_secure
        env = environ()
        env["wsgi.url_scheme"] = "http"
        assert not HttpRequest(env).is_secure


class TestResponse:
    def test_cookie_header(self):
        resp = HttpResponse(b"x")
        resp.set_cookie("k", "v", max_age=60, secure=True)
        headers = dict(resp.wsgi_headers())
        assert "Max-Age=60" in headers["Set-Cookie"]
        assert "Secure" in headers["Set-Cookie"]

    def test_delete_cookie(self):
        resp = HttpResponse(b"")
        resp.delete_cookie("k")
        assert "Max-Age=0" in resp.cookies["k"]

    def test_json_response(self):
        resp = JsonResponse({"stars": ["Sun"]})
        assert resp["Content-Type"] == "application/json"
        assert b"Sun" in resp.content

    def test_redirect(self):
        resp = HttpResponseRedirect("/next/")
        assert resp.status_code == 302
        assert resp.url == "/next/"


class TestRouting:
    def make_resolver(self):
        def v(request, **kw):
            return HttpResponse(b"")
        return URLResolver([
            path("", v, name="home"),
            path("stars/<int:pk>/", v, name="star-detail"),
            path("catalog/<str:survey>/<int:number>/", v, name="catalog"),
        ])

    def test_static_match(self):
        resolver = self.make_resolver()
        _, name, kwargs = resolver.resolve_route("/")
        assert (name, kwargs) == ("home", {})

    def test_int_converter(self):
        resolver = self.make_resolver()
        _, _, kwargs = resolver.resolve_route("/stars/42/")
        assert kwargs == {"pk": 42}
        assert isinstance(kwargs["pk"], int)

    def test_int_converter_rejects_text(self):
        resolver = self.make_resolver()
        with pytest.raises(Http404):
            resolver.resolve_route("/stars/abc/")

    def test_multiple_params(self):
        resolver = self.make_resolver()
        _, _, kwargs = resolver.resolve_route("/catalog/HD/128620/")
        assert kwargs == {"survey": "HD", "number": 128620}

    def test_no_match_raises_404(self):
        resolver = self.make_resolver()
        with pytest.raises(Http404):
            resolver.resolve_route("/nonexistent/")


class TestApplication:
    def make_app(self):
        eng = Engine(templates={"page.html": "Hello {{ who }}"})

        def hello(request, who):
            return request.app.render(request, "page.html", {"who": who})

        def boom(request):
            raise RuntimeError("kaboom")

        def not_a_response(request):
            return "plain string"

        return WebApplication(
            [path("hello/<str:who>/", hello, name="hello"),
             path("boom/", boom), path("bad/", not_a_response)],
            engine=eng)

    def test_dispatch_and_render(self):
        client = Client(self.make_app())
        response = client.get("/hello/world/")
        assert response.status_code == 200
        assert "Hello world" in response.text

    def test_404(self):
        client = Client(self.make_app())
        assert client.get("/missing/").status_code == 404

    def test_500_hides_details_without_debug(self):
        client = Client(self.make_app())
        response = client.get("/boom/")
        assert response.status_code == 500
        assert "kaboom" not in response.text

    def test_view_must_return_response(self):
        client = Client(self.make_app())
        assert client.get("/bad/").status_code == 500

    def test_wsgi_callable(self):
        app = self.make_app()
        captured = {}

        def start_response(status, headers):
            captured["status"] = status
        body = app(environ(path_="/hello/wsgi/"), start_response)
        assert captured["status"].startswith("200")
        assert b"Hello wsgi" in b"".join(body)

    def test_middleware_short_circuit(self):
        class Blocker:
            def process_request(self, request):
                return HttpResponse(b"blocked", status=403)
        app = WebApplication([path("", lambda r: HttpResponse(b"x"))],
                             middleware=[Blocker()])
        assert Client(app).get("/").status_code == 403

    def test_middleware_response_hook_runs_in_reverse(self):
        order = []

        class Tag:
            def __init__(self, label):
                self.label = label

            def process_response(self, request, response):
                order.append(self.label)
                return response

        app = WebApplication([path("", lambda r: HttpResponse(b"x"))],
                             middleware=[Tag("a"), Tag("b")])
        Client(app).get("/")
        assert order == ["b", "a"]

    def test_response_phase_failure_does_not_abort_outer_chain(self):
        """A middleware that blows up in its response phase yields a
        500, but the middleware outside it still gets to run (the
        admission gate releases its in-flight ticket there)."""
        ran = []

        class Outer:
            def process_response(self, request, response):
                ran.append(response.status_code)
                return response

        class Exploding:
            def process_response(self, request, response):
                raise RuntimeError("boom in response phase")

        app = WebApplication([path("", lambda r: HttpResponse(b"x"))],
                             middleware=[Outer(), Exploding()])
        response = Client(app).get("/")
        assert response.status_code == 500
        assert ran == [500]
