"""Admin interface: sign-in, registration, changelist, change/add views."""

import pytest

from repro.webstack import WebApplication
from repro.webstack.admin import AdminSite
from repro.webstack.auth import (AUTH_MODELS, AuthMiddleware,
                                 create_superuser, create_user)
from repro.webstack.orm import Database, bind, create_all
from repro.webstack.testclient import Client

from .conftest import MODELS, Author, Book


@pytest.fixture()
def setup():
    db = Database(":memory:")
    create_all(AUTH_MODELS + MODELS, db)
    bind(AUTH_MODELS + MODELS, db)
    create_superuser(db, "ops", "ops@x.yz", "pw")
    create_user(db, "mortal", "m@x.yz", "pw", is_active=True)

    site = AdminSite(db)
    site.register(Author)
    site.register(Book)
    app = WebApplication(site.routes(), middleware=[AuthMiddleware(db)],
                         db=db)
    client = Client(app)
    assert client.login("ops", "pw", login_path="/admin/login/")
    yield db, site, app, client
    bind(AUTH_MODELS + MODELS, None)
    db.close()


class TestAccessControl:
    def test_anonymous_forbidden(self, setup):
        db, site, app, _ = setup
        anon = Client(app)
        assert anon.get("/admin/").status_code == 403

    def test_non_staff_forbidden(self, setup):
        db, site, app, _ = setup
        client = Client(app)
        assert not client.login("mortal", "pw", login_path="/admin/login/")
        assert client.get("/admin/").status_code == 403

    def test_staff_allowed(self, setup):
        _, _, _, client = setup
        assert client.get("/admin/").status_code == 200


class TestViews:
    def test_index_lists_models(self, setup):
        _, _, _, client = setup
        text = client.get("/admin/").text
        assert "Author" in text and "Book" in text

    def test_changelist(self, setup):
        db, _, _, client = setup
        Author.objects.create(name="Listed")
        text = client.get("/admin/ws_author/").text
        assert "Listed" in text

    def test_add(self, setup):
        _, _, _, client = setup
        response = client.post("/admin/ws_author/add/",
                               {"name": "Added", "active": "on"})
        assert response.status_code == 302
        assert Author.objects.filter(name="Added").exists()

    def test_change(self, setup):
        _, _, _, client = setup
        author = Author.objects.create(name="Before", email="e@x.yz")
        response = client.post(f"/admin/ws_author/{author.pk}/",
                               {"name": "After", "email": "e@x.yz",
                                "active": "on"})
        assert response.status_code == 302
        author.refresh_from_db()
        assert author.name == "After"

    def test_change_unchecked_boolean_false(self, setup):
        _, _, _, client = setup
        author = Author.objects.create(name="A", active=True)
        client.post(f"/admin/ws_author/{author.pk}/", {"name": "A"})
        author.refresh_from_db()
        assert author.active is False

    def test_change_invalid_returns_400(self, setup):
        _, _, _, client = setup
        author = Author.objects.create(name="A")
        response = client.post(f"/admin/ws_author/{author.pk}/",
                               {"name": "x" * 100})
        assert response.status_code == 400

    def test_missing_pk_404(self, setup):
        _, _, _, client = setup
        assert client.get("/admin/ws_author/9999/").status_code == 404

    def test_unregistered_model_404(self, setup):
        _, _, _, client = setup
        assert client.get("/admin/nope/").status_code == 404

    def test_paper_use_case_approving_users(self, setup):
        """The admin workflow the paper describes: approving accounts."""
        from repro.webstack.auth import User
        db, site, app, client = setup
        site.register(User)
        pending = create_user(db, "newuser", "n@x.yz", "pw")
        assert pending.is_active is False
        response = client.post(
            f"/admin/auth_user/{pending.pk}/",
            {"username": "newuser", "email": "n@x.yz", "is_active": "on",
             "first_name": "", "last_name": ""})
        assert response.status_code == 302
        pending.refresh_from_db()
        assert pending.is_active is True
