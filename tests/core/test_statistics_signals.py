"""The statistics page, pagination in the portal, and signal dispatch."""

import pytest

from repro.webstack.signals import Signal, user_logged_in
from repro.webstack.testclient import Client

from .conftest import submit_direct
from .test_workflow import drive


@pytest.fixture()
def portal(deployment):
    return Client(deployment.build_portal())


class TestStatisticsPage:
    def test_counts_by_state(self, deployment, astronomer, portal):
        done = submit_direct(deployment, astronomer)
        drive(deployment, done)
        submit_direct(deployment, astronomer)   # stays QUEUED
        text = portal.get("/statistics/").text
        assert "DONE: 1" in text
        assert "QUEUED: 1" in text
        assert "direct: 2" in text

    def test_allocation_usage_shown(self, deployment, astronomer,
                                    portal):
        sim = submit_direct(deployment, astronomer)
        drive(deployment, sim)
        text = portal.get("/statistics/").text
        assert "NICS Kraken" in text
        assert "TG-AST090056" in text

    def test_machine_breakdown(self, deployment, astronomer, portal):
        submit_direct(deployment, astronomer, machine="frost")
        submit_direct(deployment, astronomer, machine="kraken")
        text = portal.get("/statistics/").text
        assert "frost: 1" in text and "kraken: 1" in text


class TestStarListPagination:
    def test_first_page_and_nav(self, deployment, portal):
        text = portal.get("/stars/").text
        assert "page 1 of" in text
        assert "next" in text

    def test_second_page_differs(self, deployment, portal):
        first = portal.get("/stars/?page=1").text
        second = portal.get("/stars/?page=2").text
        assert first != second
        assert "previous" in second

    def test_bad_page_clamped(self, deployment, portal):
        assert portal.get("/stars/?page=999").status_code == 200
        assert portal.get("/stars/?page=bogus").status_code == 200


class TestSignals:
    def test_connect_and_send(self):
        signal = Signal("test")
        seen = []
        signal.connect(lambda sender, **kw: seen.append((sender, kw)))
        responses = signal.send("me", value=7)
        assert seen == [("me", {"value": 7})]
        assert len(responses) == 1

    def test_disconnect(self):
        signal = Signal("test")
        receiver = lambda sender, **kw: None  # noqa: E731
        signal.connect(receiver)
        signal.disconnect(receiver)
        assert signal.receiver_count() == 0

    def test_sender_filter(self):
        signal = Signal("test")
        seen = []
        signal.connect(lambda sender, **kw: seen.append(sender),
                       sender="only-this")
        signal.send("other")
        signal.send("only-this")
        assert seen == ["only-this"]

    def test_send_propagates_exceptions(self):
        signal = Signal("test")
        signal.connect(lambda sender, **kw: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            signal.send("x")

    def test_login_signal_fires(self, deployment, astronomer, portal):
        events = []
        receiver = lambda sender, **kw: events.append(  # noqa: E731
            sender.username)
        user_logged_in.connect(receiver)
        try:
            portal.login("metcalfe", "pw12345")
        finally:
            user_logged_in.disconnect(receiver)
        assert events == ["metcalfe"]
