"""SSL enforcement (§4.2) and serving the portal over a real socket."""

import urllib.request

import pytest

from repro.webstack.middleware import SSLRequiredMiddleware
from repro.webstack.testclient import Client


class TestSSLEnforcement:
    def test_public_pages_allowed_over_http(self, deployment):
        client = Client(deployment.build_portal(), secure=False)
        assert client.get("/").status_code == 200
        assert client.get("/stars/").status_code == 200

    def test_auth_area_redirects_to_https(self, deployment):
        client = Client(deployment.build_portal(), secure=False)
        response = client.get("/accounts/login/")
        assert response.status_code == 301
        assert response["Location"].startswith("https://")
        assert response["Location"].endswith("/accounts/login/")

    def test_submit_area_redirects(self, deployment):
        client = Client(deployment.build_portal(), secure=False)
        response = client.get("/submit/direct/1/")
        assert response.status_code == 301

    def test_redirect_preserves_query_string(self, deployment):
        client = Client(deployment.build_portal(), secure=False)
        response = client.get("/accounts/login/?next=/stars/")
        assert response["Location"].endswith("?next=/stars/")

    def test_session_bearing_request_redirects(self, deployment,
                                               astronomer):
        secure = Client(deployment.build_portal(), secure=True)
        assert secure.login("metcalfe", "pw12345")
        insecure = Client(deployment.build_portal(), secure=False)
        insecure.cookies.update(secure.cookies)
        response = insecure.get("/stars/")   # public page, but session
        assert response.status_code == 301

    def test_https_requests_untouched(self, deployment, astronomer):
        client = Client(deployment.build_portal(), secure=True)
        assert client.login("metcalfe", "pw12345")
        assert client.get("/accounts/preferences/").status_code == 200

    def test_session_cookie_secure_flag(self, deployment, astronomer):
        client = Client(deployment.build_portal(), secure=True)
        response = client.post("/accounts/login/",
                               {"username": "metcalfe",
                                "password": "pw12345"})
        assert "Secure" in response.cookies["sessionid"]

    def test_middleware_configurable_prefixes(self):
        middleware = SSLRequiredMiddleware(protected_prefixes=("/x/",))

        class FakeRequest:
            is_secure = False
            path = "/x/page"
            COOKIES = {}
            META = {}

            def get_host(self):
                return "h"
        assert middleware.process_request(FakeRequest()) is not None


class TestPortalOverRealSocket:
    def test_full_site_serves_over_http_socket(self, tmp_path):
        """The portal behind the prefork server ``cli serve`` runs, over
        one database file — what Apache fronted in production."""
        from repro.core import AMPDeployment, build_prefork_app_factory
        from repro.serve import PreforkServer
        from .conftest import submit_direct
        from .test_workflow import drive
        database = str(tmp_path / "portal.sqlite")
        deployment = AMPDeployment(database_uri=database)
        astronomer = deployment.create_astronomer("metcalfe",
                                                  password="pw12345")
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        deployment.close()
        server = PreforkServer(build_prefork_app_factory(
            database, str(tmp_path / "cache.sqlite")), workers=1).start()
        try:
            with urllib.request.urlopen(f"{server.url}/",
                                        timeout=10) as response:
                body = response.read().decode()
            assert "Asteroseismic Modeling Portal" in body
            with urllib.request.urlopen(
                    f"{server.url}/api/suggest/?q=16",
                    timeout=10) as response:
                assert b"16 Cyg" in response.read()
            # The RSS feed over the wire.
            with urllib.request.urlopen(
                    f"{server.url}/feeds/star/{sim.star_id}/"
                    "results.rss", timeout=10) as response:
                assert response.headers["Content-Type"].startswith(
                    "application/rss+xml")
        finally:
            server.shutdown(timeout=10)
