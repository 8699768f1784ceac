"""The paper's topology, run for real: ``cli init-db``, then ``cli
serve`` (a supervisor and two portal workers) and ``cli daemon`` as
child processes whose only meeting point is one database file.

An astronomer signs up and submits a direct run over HTTP; the daemon
process picks the row up and drives it to ``DONE``; the portal's page
says so.  Both services drain on SIGTERM with status 0 and leave the
file complete on its own (no ``-wal``/``-shm``).
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.parse

import pytest

import repro
from repro.core import AllocationRecord, MachineRecord, SubmitAuthorization
from repro.core.catalog import SimbadService
from repro.core.security import open_role
from repro.webstack.auth import User

pytestmark = pytest.mark.db


def _cli(*args, **popen):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    # HTTPS=on is what Apache sets behind TLS (and what each worker
    # turns into wsgi.url_scheme "https"): sessions are served, not
    # redirected.
    env = dict(os.environ, PYTHONPATH=src, HTTPS="on")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args], env=env,
        stdout=subprocess.PIPE, text=True, **popen)


def _serve(database):
    process = _cli("serve", "--db", database, "--workers", "2",
                   "--port", "0")
    banner = process.stdout.readline()
    return process, re.search(r"http://[\d.]+:\d+", banner).group(0)


class Browser:
    """A cookie-keeping HTTP client that follows redirects.  (Cookies
    by hand: the portal marks them ``Secure`` and ``http.cookiejar``
    would keep them off this plain-HTTP loopback connection.)"""

    def __init__(self, base):
        self.base = urllib.parse.urlsplit(base)
        self.cookies = {}

    def request(self, path, data=None):
        connection = http.client.HTTPConnection(
            self.base.hostname, self.base.port, timeout=30)
        headers = {"Cookie": "; ".join(
            f"{k}={v}" for k, v in self.cookies.items())}
        if data is None:
            connection.request("GET", path, headers=headers)
        else:
            headers["Content-Type"] = "application/x-www-form-urlencoded"
            connection.request("POST", path,
                               urllib.parse.urlencode(data), headers)
        reply = connection.getresponse()
        body = reply.read().decode()
        connection.close()
        for cookie in reply.headers.get_all("Set-Cookie") or ():
            name, _, value = cookie.split(";", 1)[0].partition("=")
            self.cookies[name] = value
        if reply.status in (301, 302):
            return self.request(
                urllib.parse.urlsplit(reply.headers["Location"]).path)
        assert reply.status == 200, (path, reply.status, body)
        return path, body


def _approve(database, username):
    """The administrators' side of a signup (their interface is not
    public): activate the account and authorize it on Kraken."""
    admin = open_role(database, "admin")
    user = User.objects.using(admin).get(username=username)
    user.is_active = True
    user.save(db=admin)
    kraken = MachineRecord.objects.using(admin).get(name="kraken")
    SubmitAuthorization(
        user_id=user.pk, machine_id=kraken.pk, active=True,
        allocation_id=AllocationRecord.objects.using(admin).get(
            machine_id=kraken.pk).pk).save(db=admin)
    admin.close()


def test_signup_submit_and_done_across_three_processes(tmp_path):
    database = str(tmp_path / "amp.sqlite")
    assert _cli("init-db", "--db", database).wait(timeout=60) == 0
    children = []
    try:
        portal, url = _serve(database)
        children.append(portal)
        daemon = _cli("daemon", "--db", database)
        children.append(daemon)
        assert "GridAMP daemon" in daemon.stdout.readline()

        browser = Browser(url)
        _, page = browser.request("/accounts/register/")
        question = re.search(r"What is the HD number for ([^?]+)\?",
                             page).group(1)
        _, page = browser.request("/accounts/register/", {
            "username": "newbie", "email": "n@obs.edu",
            "institution": "Obs", "password": "longpass1",
            "captcha_answer": str(SimbadService.REFERENCE[question][0])})
        assert "received" in page
        _approve(database, "newbie")
        browser.request("/accounts/login/", {
            "username": "newbie", "password": "longpass1"})
        # Star 2 is 16 Cyg B (the seeded ids are pinned by a golden
        # test); the redirect lands on the new simulation's page.
        sim_path, page = browser.request("/submit/direct/2/", {
            "mass": "1.04", "z": "0.021", "y": "0.27", "alpha": "2.1",
            "age": "6.1"})
        assert re.fullmatch(r"/simulations/\d+/", sim_path)

        deadline = time.monotonic() + 60
        while "DONE" not in page:
            assert time.monotonic() < deadline, "the run never finished"
            time.sleep(0.2)
            _, page = browser.request(sim_path)

        # A second ``cli serve`` on the same file serves the same rows.
        second, second_url = _serve(database)
        children.append(second)
        listings = [json.loads(Browser(base).request(
            "/api/v1/simulations")[1]) for base in (url, second_url)]
        assert listings[0] == listings[1]
        assert [sim["state"] for sim in listings[0]["simulations"]] \
            == ["DONE"]

        for child in children:
            child.send_signal(signal.SIGTERM)
        assert [child.wait(timeout=30) for child in children] == [0, 0, 0]
    finally:
        # SIGTERM first even on failure: a killed supervisor would
        # orphan its workers.
        for child in children:
            if child.poll() is None:
                child.terminate()
                try:
                    child.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    child.kill()
    assert sorted(os.listdir(tmp_path)) == ["amp.sqlite"]
