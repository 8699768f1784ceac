"""The CLI entry points and result deduplication."""

import pytest

from repro.cli import build_parser, main
from repro.webstack.testclient import Client

from .conftest import submit_direct
from .test_workflow import drive


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("table1", "convergence", "queuewait", "demo",
                        "gantt"):
            args = parser.parse_args([command])
            assert callable(args.fn)

    def test_table1_command(self, capsys):
        code = main(["table1", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NICS Kraken" in out
        assert "shape checks: all pass" in out

    def test_queuewait_command(self, capsys):
        code = main(["queuewait", "--load", "0.8", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "wait reduction" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestResultDeduplication:
    def test_identical_direct_run_reused(self, deployment, astronomer):
        """§1: results are disseminated 'without repetition'."""
        portal = Client(deployment.build_portal())
        portal.login("metcalfe", "pw12345")
        star, _ = deployment.catalog.search("18 Sco")
        params = {"mass": "1.0", "z": "0.018", "y": "0.27",
                  "alpha": "2.1", "age": "4.6"}
        first = portal.post(f"/submit/direct/{star.pk}/", params)
        sim_pk = int(first["Location"].rstrip("/").split("/")[-1])
        from repro.core import Simulation
        sim = Simulation.objects.using(deployment.databases.admin).get(
            pk=sim_pk)
        drive(deployment, sim)
        # Resubmitting identical parameters redirects to the existing
        # result instead of creating a new simulation.
        again = portal.post(f"/submit/direct/{star.pk}/", params)
        assert f"/simulations/{sim_pk}/" in again["Location"]
        assert "reused=1" in again["Location"]
        assert Simulation.objects.using(
            deployment.databases.admin).count() == 1

    def test_different_parameters_not_deduplicated(self, deployment,
                                                   astronomer):
        portal = Client(deployment.build_portal())
        portal.login("metcalfe", "pw12345")
        star, _ = deployment.catalog.search("18 Sco")
        base = {"mass": "1.0", "z": "0.018", "y": "0.27",
                "alpha": "2.1", "age": "4.6"}
        portal.post(f"/submit/direct/{star.pk}/", base)
        portal.post(f"/submit/direct/{star.pk}/",
                    {**base, "age": "5.0"})
        from repro.core import Simulation
        assert Simulation.objects.using(
            deployment.databases.admin).count() == 2

    def test_incomplete_run_not_reused(self, deployment, astronomer):
        """Only DONE simulations are reused — an active duplicate still
        queues (the user may want the result sooner than never)."""
        portal = Client(deployment.build_portal())
        portal.login("metcalfe", "pw12345")
        star, _ = deployment.catalog.search("18 Sco")
        params = {"mass": "1.0", "z": "0.018", "y": "0.27",
                  "alpha": "2.1", "age": "4.6"}
        portal.post(f"/submit/direct/{star.pk}/", params)  # QUEUED
        portal.post(f"/submit/direct/{star.pk}/", params)
        from repro.core import Simulation
        assert Simulation.objects.using(
            deployment.databases.admin).count() == 2
