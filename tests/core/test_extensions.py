"""§6 future-work features: RSS feeds, SVG plots, gateway job chaining."""

import pytest

from repro.core import GridJobRecord, SIM_DONE
from repro.core.plots import echelle_svg, hr_diagram_svg
from repro.hpc import HOUR
from repro.webstack.testclient import Client

from .conftest import submit_direct, submit_optimization
from .test_workflow import drive


@pytest.fixture()
def portal(deployment):
    return Client(deployment.build_portal())


class TestRSSFeeds:
    def test_results_feed_lists_completed(self, deployment, astronomer,
                                          portal):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        response = portal.get(f"/feeds/star/{sim.star_id}/results.rss")
        assert response.status_code == 200
        assert response["Content-Type"].startswith(
            "application/rss+xml")
        assert "<rss" in response.text
        assert f"run #{sim.pk} complete" in response.text
        assert "Teff" in response.text

    def test_results_feed_excludes_active(self, deployment, astronomer,
                                          portal):
        sim = submit_direct(deployment, astronomer)  # still QUEUED
        response = portal.get(f"/feeds/star/{sim.star_id}/results.rss")
        assert f"run #{sim.pk}" not in response.text

    def test_progress_feed_shows_state(self, deployment, astronomer,
                                       portal):
        sim = submit_direct(deployment, astronomer)
        response = portal.get(f"/feeds/star/{sim.star_id}/progress.rss")
        assert f"Simulation #{sim.pk}: QUEUED" in response.text

    def test_feed_404_for_unknown_star(self, portal):
        assert portal.get("/feeds/star/9999/results.rss"
                          ).status_code == 404

    def test_feed_has_no_grid_jargon(self, deployment, astronomer,
                                     portal):
        import re
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        text = portal.get(
            f"/feeds/star/{sim.star_id}/results.rss").text.lower()
        for word in ("certificate", "proxy", "globus"):
            assert not re.search(rf"\b{word}\b", text)

    def test_feed_items_have_guids(self, deployment, astronomer,
                                   portal):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        text = portal.get(f"/feeds/star/{sim.star_id}/results.rss").text
        assert f"amp-sim-{sim.pk}-done" in text

    def test_star_page_links_feeds(self, deployment, portal):
        star, _ = deployment.catalog.search("16 Cyg B")
        text = portal.get(f"/stars/{star.pk}/").text
        assert "results.rss" in text and "progress.rss" in text


class TestSVGPlots:
    def test_hr_svg_structure(self):
        track = [(age, 5800 - age * 50, 0.8 + age * 0.05, 1.0)
                 for age in range(1, 11)]
        svg = hr_diagram_svg(track, star_name="Test",
                             current=(5650.0, 1.1))
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "polyline" in svg       # the track
        assert "circle" in svg         # the current-model marker
        assert "Hertzsprung" in svg

    def test_hr_svg_empty_track_rejected(self):
        with pytest.raises(ValueError):
            hr_diagram_svg([])

    def test_echelle_svg_structure(self):
        freqs = {"0": [2800.0, 2935.0, 3070.0],
                 "1": [2865.0, 3000.0],
                 "2": [2790.0, 2925.0]}
        svg = echelle_svg(freqs, 135.0, star_name="Test")
        assert svg.count("<circle") >= 3 + 3    # l=0 modes + legend
        assert "<rect" in svg                   # l=1 squares
        assert "polygon" in svg                 # l=2 triangles

    def test_echelle_svg_empty_rejected(self):
        with pytest.raises(ValueError):
            echelle_svg({}, 135.0)

    def test_portal_serves_hr_svg(self, deployment, astronomer,
                                  portal):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        portal.login("metcalfe", "pw12345")
        response = portal.get(f"/simulations/{sim.pk}/hr.svg")
        assert response.status_code == 200
        assert response["Content-Type"] == "image/svg+xml"
        assert b"<svg" in response.content

    def test_portal_serves_echelle_svg(self, deployment, astronomer,
                                       portal):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        response = portal.get(f"/simulations/{sim.pk}/echelle.svg")
        assert response.status_code == 200
        assert b"Echelle" in response.content

    def test_svg_unavailable_before_done(self, deployment, astronomer,
                                         portal):
        sim = submit_direct(deployment, astronomer)
        assert portal.get(f"/simulations/{sim.pk}/hr.svg"
                          ).status_code == 404


class TestGatewayChaining:
    def _run(self, deployment, astronomer, *, use_chaining):
        sim, truth = submit_optimization(
            deployment, astronomer, n_ga_runs=2, iterations=30,
            population_size=64, walltime_s=6 * HOUR)
        config = dict(sim.config)
        config["use_chaining"] = use_chaining
        sim.config = config
        sim.save(db=deployment.databases.portal)
        drive(deployment, sim)
        return sim

    def test_chained_run_completes(self, deployment, astronomer):
        sim = self._run(deployment, astronomer, use_chaining=True)
        assert sim.state == SIM_DONE
        progress = sim.results["ga_progress"]
        assert all(p["iterations_completed"] == 30
                   for p in progress.values())

    def test_chain_pre_submitted(self, deployment, astronomer):
        """All chain jobs exist in the DB after one RUNNING poll."""
        sim, _ = submit_optimization(
            deployment, astronomer, n_ga_runs=2, iterations=30,
            population_size=64, walltime_s=6 * HOUR)
        sim.config = {**sim.config, "use_chaining": True}
        sim.save(db=deployment.databases.portal)
        while sim.state != "RUNNING":
            deployment.clock.advance(600)
            deployment.daemon.poll_once()
            sim.refresh_from_db()
        jobs = GridJobRecord.objects.using(
            deployment.databases.admin).filter(
            simulation_id=sim.pk, purpose="ga")
        # Whole chains queued up front (≥2 segments per GA estimated).
        per_ga = {}
        for job in jobs:
            per_ga.setdefault(job.ga_index, []).append(job)
        assert all(len(chain) >= 2 for chain in per_ga.values())

    def test_chained_science_identical_to_sequential(self, deployment,
                                                     astronomer):
        """Chaining is a scheduling optimisation: results are bit-equal."""
        chained = self._run(deployment, astronomer, use_chaining=True)
        sequential = self._run(deployment, astronomer,
                               use_chaining=False)
        assert chained.results["solution_meta"]["parameters"] == \
            sequential.results["solution_meta"]["parameters"]

    def test_surplus_jobs_revoked(self, deployment, astronomer):
        """Over-provisioned chain jobs are cancelled once the GA
        finishes, and their revocation does not hold the simulation."""
        sim, _ = submit_optimization(
            deployment, astronomer, n_ga_runs=1, iterations=5,
            population_size=32, walltime_s=24 * HOUR)
        # Force a long chain for a short GA.
        sim.config = {**sim.config, "use_chaining": True,
                      "iterations": 5}
        sim.save(db=deployment.databases.portal)
        drive(deployment, sim)
        assert sim.state == SIM_DONE
        jobs = list(GridJobRecord.objects.using(
            deployment.databases.admin).filter(
            simulation_id=sim.pk, purpose="ga"))
        # At least one surplus job was revoked or ran as a no-op.
        assert len(jobs) >= 2

    def test_chaining_rejected_without_scheduler_support(self, obs):
        """GRAM refuses dependsOn on machines without chaining."""
        from repro.grid import batch_spec, build_fabric
        from tests.conftest import grid_clients
        from repro.hpc import KRAKEN, MachineSpec, SimClock
        import dataclasses
        no_chain = dataclasses.replace(KRAKEN, name="nochain",
                                       scheduler_supports_chaining=False)
        clock = SimClock()
        fabric = build_fabric([no_chain], clock)
        from repro.core.remote import deploy_amp
        deploy_amp(fabric.resource("nochain"))
        clients = grid_clients(fabric, obs)
        clients.grid_proxy_init("u")
        spec = batch_spec("/usr/local/amp/run_ga.sh", count=128,
                          max_wall_time_s=6 * HOUR, directory="/d")
        first = clients.globusrun("nochain", spec)
        spec["dependsOn"] = first.stdout
        second = clients.globusrun("nochain", spec)
        status = clients.globus_job_status("nochain", second.stdout)
        assert status.stdout.startswith("FAILED")
        assert "chaining" in status.stdout


class TestCancelSimulation:
    def test_owner_cancels_queued(self, deployment, astronomer, portal):
        portal.login("metcalfe", "pw12345")
        sim = submit_direct(deployment, astronomer)
        response = portal.post(f"/simulations/{sim.pk}/cancel/")
        assert response.status_code == 302
        sim.refresh_from_db()
        assert sim.state == "CANCELLED"
        # The daemon never touches it.
        deployment.run_daemon_until_idle(poll_interval_s=300,
                                         max_polls=5)
        sim.refresh_from_db()
        assert sim.state == "CANCELLED"

    def test_non_owner_forbidden(self, deployment, astronomer, portal):
        deployment.create_astronomer("other", password="pw12345")
        sim = submit_direct(deployment, astronomer)
        portal.login("other", "pw12345")
        assert portal.post(
            f"/simulations/{sim.pk}/cancel/").status_code == 403

    def test_anonymous_forbidden(self, deployment, astronomer, portal):
        sim = submit_direct(deployment, astronomer)
        assert portal.post(
            f"/simulations/{sim.pk}/cancel/").status_code == 403

    def test_running_simulation_not_cancellable(self, deployment,
                                                astronomer, portal):
        portal.login("metcalfe", "pw12345")
        sim = submit_direct(deployment, astronomer)
        deployment.clock.advance(300)
        deployment.daemon.poll_once()       # now PREJOB or later
        sim.refresh_from_db()
        assert sim.state != "QUEUED"
        assert portal.post(
            f"/simulations/{sim.pk}/cancel/").status_code == 400

    def test_get_rejected(self, deployment, astronomer, portal):
        portal.login("metcalfe", "pw12345")
        sim = submit_direct(deployment, astronomer)
        assert portal.get(
            f"/simulations/{sim.pk}/cancel/").status_code == 400
