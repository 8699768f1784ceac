"""The portal web application: every app, plus the non-public admin."""

import re

import pytest

from repro.core import ObservationSet, Simulation, Star, UserProfile
from repro.core.catalog import SimbadService
from repro.core.models import KIND_OPTIMIZATION, SIM_DONE
from repro.core.portal.site import build_admin_app
from repro.webstack.testclient import Client

from .conftest import submit_direct, submit_optimization
from .test_workflow import drive


@pytest.fixture()
def portal(deployment):
    return Client(deployment.build_portal())


@pytest.fixture()
def logged_in(deployment, astronomer, portal):
    assert portal.login("metcalfe", "pw12345")
    return portal


def solve_captcha(client, page_text):
    question = re.search(r"What is the HD number for ([^?]+)\?",
                         page_text).group(1)
    return str(SimbadService.REFERENCE[question][0])


class TestPublicPages:
    def test_home(self, portal):
        response = portal.get("/")
        assert response.status_code == 200
        assert "Asteroseismic Modeling Portal" in response.text

    def test_home_counts(self, portal, deployment):
        response = portal.get("/")
        assert "star" in response.text

    def test_star_list(self, portal):
        response = portal.get("/stars/")
        assert "16 Cyg A" in response.text

    def test_star_detail(self, deployment, portal):
        star, _ = deployment.catalog.search("16 Cyg B")
        response = portal.get(f"/stars/{star.pk}/")
        assert "HD 186427" in response.text

    def test_star_detail_404(self, portal):
        assert portal.get("/stars/99999/").status_code == 404

    def test_no_certificate_jargon_anywhere(self, deployment, portal,
                                            astronomer):
        """§5: 'the word certificate is not even mentioned anywhere on
        the site.'"""
        star, _ = deployment.catalog.search("16 Cyg B")
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        portal.login("metcalfe", "pw12345")
        pages = ["/", "/stars/", f"/stars/{star.pk}/", "/simulations/",
                 f"/simulations/{sim.pk}/", "/accounts/login/",
                 "/accounts/register/"]
        for page in pages:
            text = portal.get(page).text.lower()
            for word in ("certificate", "proxy", "globus", "gram"):
                assert not re.search(rf"\b{word}\b", text), (page, word)

    def test_hpc_terminology_remains_visible(self, deployment, portal,
                                             astronomer):
        """...but familiar HPC concepts stay: simulations, computing
        facilities."""
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        text = portal.get(f"/simulations/{sim.pk}/").text
        assert "Computing facility" in text


class TestSearch:
    def test_search_redirects_to_star(self, portal):
        response = portal.get("/stars/search/?q=16 Cyg B")
        assert response.status_code == 302

    def test_search_simbad_import(self, deployment, portal):
        response = portal.get("/stars/search/?q=Eta Boo")
        assert response.status_code == 302
        star = Star.objects.using(deployment.databases.portal).get(
            name="Eta Boo")
        assert star.source == "simbad"

    def test_search_not_found(self, portal):
        response = portal.get("/stars/search/?q=Planet Nine")
        assert response.status_code == 200
        assert "was found" in response.text

    def test_suggest_json(self, portal):
        response = portal.get("/api/suggest/?q=Tau")
        names = [s["name"] for s in response.data["suggestions"]]
        assert "Tau Ceti" in names

    def test_suggest_empty(self, portal):
        response = portal.get("/api/suggest/")
        assert response.data == {"suggestions": []}


class TestRegistration:
    def test_register_with_captcha(self, deployment, portal):
        page = portal.get("/accounts/register/")
        answer = solve_captcha(portal, page.text)
        response = portal.post("/accounts/register/", {
            "username": "newbie", "email": "n@obs.edu",
            "institution": "Obs", "password": "longpass1",
            "captcha_answer": answer})
        assert "received" in response.text
        from repro.webstack.auth import User
        user = User.objects.using(deployment.databases.admin).get(
            username="newbie")
        assert user.is_active is False   # awaits approval
        profile = UserProfile.objects.using(
            deployment.databases.admin).get(user_id=user.pk)
        assert profile.provenance["requested_via"] == "portal"

    def test_wrong_captcha_rejected(self, deployment, portal):
        portal.get("/accounts/register/")
        response = portal.post("/accounts/register/", {
            "username": "bot", "email": "b@x.yz",
            "institution": "", "password": "longpass1",
            "captcha_answer": "0"})
        assert "not correct" in response.text
        from repro.webstack.auth import User
        assert not User.objects.using(deployment.databases.admin).filter(
            username="bot").exists()

    def test_captcha_question_has_hint_link(self, portal):
        page = portal.get("/accounts/register/")
        assert "Look" in page.text and "simbad" in page.text.lower()

    def test_unapproved_user_cannot_login(self, deployment, portal):
        page = portal.get("/accounts/register/")
        answer = solve_captcha(portal, page.text)
        portal.post("/accounts/register/", {
            "username": "pending", "email": "p@x.yz", "institution": "",
            "password": "longpass1", "captcha_answer": answer})
        assert not portal.login("pending", "longpass1")

    @pytest.mark.parametrize("target,location", [
        ("https://evil.example/phish", "/"),
        ("//evil.example/x", "/"),
        ("/simulations/", "/simulations/")])
    def test_login_follows_only_a_local_next(self, astronomer, portal,
                                             target, location):
        response = portal.post(f"/accounts/login/?next={target}",
                               {"username": "metcalfe",
                                "password": "pw12345"})
        assert response.status_code == 302
        assert response["Location"] == location

    def test_invalid_form_rerenders(self, portal):
        portal.get("/accounts/register/")
        response = portal.post("/accounts/register/", {
            "username": "x", "email": "not-an-email",
            "institution": "", "password": "short",
            "captcha_answer": "0"})
        assert response.status_code == 200
        assert 'class="error"' in response.text


class TestSubmission:
    def test_requires_login(self, deployment, portal):
        star, _ = deployment.catalog.search("16 Cyg B")
        response = portal.get(f"/submit/direct/{star.pk}/")
        assert response.status_code == 302
        assert "login" in response["Location"]

    def test_direct_submission(self, deployment, logged_in):
        star, _ = deployment.catalog.search("16 Cyg B")
        response = logged_in.post(f"/submit/direct/{star.pk}/", {
            "mass": "1.1", "z": "0.02", "y": "0.27", "alpha": "2.0",
            "age": "3.0"})
        assert response.status_code == 302
        sim_pk = int(response["Location"].rstrip("/").split("/")[-1])
        sim = Simulation.objects.using(deployment.databases.admin).get(
            pk=sim_pk)
        assert sim.kind == "direct"
        assert sim.machine_name == "kraken"  # production selection
        assert sim.parameters["mass"] == 1.1

    def test_direct_submission_bounds_rejected(self, deployment,
                                               logged_in):
        star, _ = deployment.catalog.search("16 Cyg B")
        response = logged_in.post(f"/submit/direct/{star.pk}/", {
            "mass": "12", "z": "0.02", "y": "0.27", "alpha": "2.0",
            "age": "3.0"})
        assert response.status_code == 200
        assert 'class="error"' in response.text
        assert Simulation.objects.using(
            deployment.databases.admin).count() == 0

    def test_optimization_submission(self, deployment, logged_in,
                                     astronomer):
        sim0, _ = submit_optimization(deployment, astronomer)  # seeds obs
        star = sim0.star
        response = logged_in.post(
            f"/submit/optimization/{star.pk}/",
            {"observation": str(sim0.observation_id),
             "machine": "kraken", "iterations": "150"})
        assert response.status_code == 302
        sim_pk = int(response["Location"].rstrip("/").split("/")[-1])
        sim = Simulation.objects.using(deployment.databases.admin).get(
            pk=sim_pk)
        assert sim.kind == KIND_OPTIMIZATION
        assert sim.config["iterations"] == 150
        assert sim.config["n_ga_runs"] == 4
        assert len(set(sim.config["ga_seeds"])) >= 2

    def test_optimization_requires_observation_set(self, deployment,
                                                   logged_in):
        star, _ = deployment.catalog.search("Tau Ceti")
        response = logged_in.get(f"/submit/optimization/{star.pk}/")
        assert response.status_code == 404

    def test_unauthorized_machine_rejected(self, deployment,
                                           astronomer):
        limited = deployment.create_astronomer("limited",
                                               password="pw12345",
                                               machines=["frost"])
        client = Client(deployment.build_portal())
        assert client.login("limited", "pw12345")
        sim0, _ = submit_optimization(deployment, astronomer)
        response = client.post(
            f"/submit/optimization/{sim0.star_id}/",
            {"observation": str(sim0.observation_id),
             "machine": "kraken", "iterations": "100"})
        assert response.status_code == 200
        assert "not authorized" in response.text


class TestResultsViews:
    def test_simulation_detail_shows_status(self, deployment, logged_in,
                                            astronomer):
        sim = submit_direct(deployment, astronomer)
        response = logged_in.get(f"/simulations/{sim.pk}/")
        assert "QUEUED" in response.text

    def test_completed_results_table(self, deployment, logged_in,
                                     astronomer):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        response = logged_in.get(f"/simulations/{sim.pk}/")
        assert "Effective temperature" in response.text
        assert "Large separation" in response.text

    def test_hr_data_endpoint(self, deployment, logged_in, astronomer):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        response = logged_in.get(f"/simulations/{sim.pk}/hr/")
        series = response.data["series"]
        assert len(series) > 10
        assert series[0]["age_gyr"] < series[-1]["age_gyr"]

    def test_echelle_data_endpoint(self, deployment, logged_in,
                                   astronomer):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        response = logged_in.get(f"/simulations/{sim.pk}/echelle/")
        payload = response.data
        assert payload["delta_nu"] > 0
        assert all(0 <= p["modulo"] <= payload["delta_nu"] * 1.001
                   for p in payload["points"])

    def test_plots_unavailable_until_done(self, deployment, logged_in,
                                          astronomer):
        sim = submit_direct(deployment, astronomer)
        assert logged_in.get(f"/simulations/{sim.pk}/hr/"
                             ).status_code == 404


class TestPreferences:
    def test_update_preferences(self, deployment, logged_in,
                                astronomer):
        response = logged_in.post("/accounts/preferences/",
                                  {"notify_each_transition": "on"})
        assert "saved" in response.text.lower()
        profile = UserProfile.objects.using(
            deployment.databases.admin).get(user_id=astronomer.pk)
        assert profile.notify_each_transition is True
        assert profile.notify_on_completion is False  # unchecked box


class TestAdminProject:
    def test_admin_approves_pending_user(self, deployment, portal):
        # Register through the public portal...
        page = portal.get("/accounts/register/")
        answer = solve_captcha(portal, page.text)
        portal.post("/accounts/register/", {
            "username": "pending2", "email": "p2@x.yz",
            "institution": "", "password": "longpass1",
            "captcha_answer": answer})
        # ...then approve through the separate admin project.
        admin_app, _site = build_admin_app(deployment)
        deployment.create_admin("ops", "adminpw1")
        admin_client = Client(admin_app)
        assert admin_client.get("/admin/").status_code == 403
        assert admin_client.login("ops", "adminpw1",
                                  login_path="/admin/login/")
        assert admin_client.get("/admin/").status_code == 200
        from repro.webstack.auth import User
        user = User.objects.using(deployment.databases.admin).get(
            username="pending2")
        assert not portal.login("pending2", "longpass1")
        row = admin_client.post(
            f"/admin/auth_user/{user.pk}/",
            {"username": "pending2", "email": "p2@x.yz",
             "first_name": "", "last_name": "", "is_active": "on"})
        assert row.status_code == 302
        assert portal.login("pending2", "longpass1")

    def test_portal_has_no_admin_routes(self, portal):
        assert portal.get("/admin/").status_code == 404
