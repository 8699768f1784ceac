"""The paper's architecture line, as processes: ``init_db`` is the only
admin, a portal process is a portal (one role, no grid code), and the
in-process ``AMPDeployment`` serves exactly what a ``PortalRuntime``
over the same file serves."""

import hashlib
import json
import os
import re
import sqlite3
import subprocess
import sys

import pytest

import repro
from repro.core import AMPDeployment, Simulation, Star, init_db
from repro.core.models import ALL_MODELS, KIND_DIRECT
from repro.core.portal.runtime import PortalRuntime
from repro.core.security import open_role
from repro.science.observations import kepler_input_catalog
from repro.serve import ServeConfig
from repro.webstack.orm import bind
from repro.webstack.testclient import Client

#: Written against the parent commit, where the identifiers were drawn
#: from a materialised ``np.arange(7_500_000, 12_300_000)``.
KEPLER_40 = [
    7525273, 7766549, 8071595, 8130912, 8580987, 8723370, 8836438,
    8868313, 8940789, 8954550, 9136924, 9139690, 9636360, 9746078,
    9795109, 9898964, 9921826, 9945343, 10156782, 10275783, 10296200,
    10486459, 10500434, 10784038, 10861315, 10953449, 11223264,
    11304774, 11325915, 11376782, 11419017, 11441876, 11501497,
    11693032, 11806593, 11880566, 12035506, 12247008, 12254194,
    12278395]
#: sha256 over ``repr`` of the 48 seeded star rows ``(id, name,
#: hd_number, kic_number, in_kepler_catalog)`` at the parent commit.
SEEDED_STARS = ("d4da9f522a4b4b865e0043e556f3ff5b"
                "d888f9b38a179dee43b26c379da26540")

PAGES = ["/", "/stars/", "/stars/?page=2", "/simulations/",
         "/simulations/5/", "/statistics/", "/api/v1/simulations",
         "/healthz", "/readyz"]


@pytest.fixture(autouse=True)
def unbind_models():
    yield
    bind(ALL_MODELS, None)


def test_kepler_identifiers_are_the_parent_commits():
    assert kepler_input_catalog() == [f"KIC {n}" for n in KEPLER_40]


def test_seeded_star_rows_are_the_parent_commits(tmp_path):
    path = str(tmp_path / "amp.sqlite")
    init_db(path)
    db = open_role(path, "portal")
    rows = [(s.pk, s.name, s.hd_number, s.kic_number, s.in_kepler_catalog)
            for s in Star.objects.using(db).order_by("id")]
    db.close()
    assert len(rows) == 48
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SEEDED_STARS


def _dump(path):
    connection = sqlite3.connect(path)
    try:
        tables = [name for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "ORDER BY name")]
        return {table: connection.execute(
            f'SELECT * FROM "{table}" ORDER BY 1').fetchall()
            for table in tables}
    finally:
        connection.close()


def test_init_db_twice_changes_no_row(tmp_path):
    path = str(tmp_path / "amp.sqlite")
    init_db(path)
    first = _dump(path)
    assert [row for row in first["amp_machine"] if "kraken" in row]
    init_db(path)
    assert _dump(path) == first
    # ... and leaves the main file complete on its own.
    assert sorted(os.listdir(tmp_path)) == ["amp.sqlite"]


def _populate(path):
    """A file with an astronomer, six finished direct runs and the
    lease rows of a two-daemon fleet (so the statistics page has row
    ages to compute)."""
    init_db(path)
    deployment = AMPDeployment(database_uri=path)
    user = deployment.create_astronomer("metcalfe", password="pw12345")
    star, _ = deployment.catalog.search("16 Cyg B")
    for index in range(6):
        Simulation(star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
                   machine_name="kraken",
                   parameters={"mass": 1.0 + index / 100, "z": 0.02,
                               "y": 0.27, "alpha": 2.0, "age": 5.0}
                   ).save(db=deployment.databases.portal)
    deployment.start_fleet(2)
    deployment.run_daemon_until_idle()
    assert Simulation.objects.using(deployment.databases.admin).filter(
        state="DONE").count() == 6
    deployment.close()


# ----------------------------------------------------------------------
# (i) A portal process holds one role and none of the grid's code.
# ----------------------------------------------------------------------

PORTAL_PROCESS = r"""
import gc, json, re, sys
from repro.core.catalog import SimbadService
from repro.core.portal.runtime import PortalRuntime
from repro.core.security import open_role
from repro.serve import ServeConfig
from repro.webstack.orm import Database, PermissionDenied
from repro.webstack.testclient import Client

runtime = PortalRuntime(open_role(sys.argv[1], "portal"))
client = Client(runtime.build_portal(serve=ServeConfig()))
statuses = {path: client.get(path).status_code
            for path in ["/", "/stars/", "/stars/1/", "/simulations/",
                         "/statistics/", "/api/v1/simulations"]}
page = client.get("/accounts/register/").text
question = re.search(r"What is the HD number for ([^?]+)\?", page).group(1)
signup = client.post("/accounts/register/", {
    "username": "newbie", "email": "n@obs.edu", "institution": "Obs",
    "password": "longpass1",
    "captcha_answer": str(SimbadService.REFERENCE[question][0])})
assert client.login("metcalfe", "pw12345")
campaign = client.post("/api/v1/campaigns", json_body={
    "star": 2, "name": "sweep", "machine": "kraken",
    "sweep": {"mass": [1.1, 1.2], "z": 0.02, "y": 0.27, "alpha": 2.0,
              "age": 4.5}})


def allowed(db, operation, table):
    try:
        db.check_permission(operation, table)
    except PermissionDenied:
        return False
    return True


print(json.dumps({
    "statuses": statuses,
    "signup": "received" in signup.text,
    "campaign": [campaign.status_code, json.loads(campaign.text)],
    "foreign_modules": sorted(
        name for name in sys.modules
        if name.split(".")[0] == "numpy" or name.startswith(
            ("repro.grid", "repro.hpc", "repro.science", "repro.sched"))),
    "databases": [
        {"role": db.role,
         "grid_writes": [f"{op} {table}"
                         for op in ("insert", "update")
                         for table in ("amp_gridjob", "amp_operation")
                         if allowed(db, op, table)],
         "ddl": allowed(db, "create", "amp_star"),
         "raw_sql": db._grant.allow_raw_sql}
        for db in gc.get_objects() if isinstance(db, Database)],
}))
"""


def test_a_portal_process_is_a_portal(tmp_path):
    """The paper's security argument, true of the process: compromise
    a worker and there is no grid client to call, no credential to
    read, and no connection that may write a grid job.

    The one allowed exception is not exercised here: the HR-diagram SVG
    view (``/simulations/<id>/hr.svg``) imports ``zams_locus`` from
    ``repro.science`` the first time it is requested.
    """
    path = str(tmp_path / "amp.sqlite")
    _populate(path)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", PORTAL_PROCESS, path],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["statuses"].values()) == {200}
    assert report["signup"]
    status, body = report["campaign"]
    assert status == 201 and body["created"] == 2
    assert report["foreign_modules"] == []
    assert report["databases"] == [
        {"role": "portal", "grid_writes": [], "ddl": False,
         "raw_sql": False}]
    # What the process wrote is there for everybody else.
    admin = open_role(path, "admin")
    assert Simulation.objects.using(admin).filter(
        campaign_id=body["campaign"]).count() == 2
    admin.close()


# ----------------------------------------------------------------------
# (iii) Same pages from the composition and from the bare runtime.
# ----------------------------------------------------------------------

#: The three indicators on ``/statistics/`` that count the *daemon's*
#: boot (its recovery sweep, with one event and one span): 1 where the
#: daemon shares the process and its observability facade, 0 in a
#: portal process.  Everything else on the page — lease ages against
#: the clock included — must agree.
DAEMON_BOOT_ROWS = re.compile(
    r"<td>(Daemon recovery sweeps|Events recorded|Spans recorded)</td>"
    r"<td>\d+</td>")


def _walk(app):
    seen = {}
    for who in ("anonymous", "metcalfe"):
        client = Client(app)
        if who != "anonymous":
            assert client.login(who, "pw12345")
        for page in PAGES:
            response = client.get(page)
            body = DAEMON_BOOT_ROWS.sub(r"<td>\1</td>", response.text)
            seen[who, page] = (
                response.status_code, sorted(response.headers.items()),
                hashlib.sha256(body.encode()).hexdigest())
    return seen


def test_runtime_serves_what_the_deployment_serves(tmp_path):
    path = str(tmp_path / "amp.sqlite")
    _populate(path)
    deployment = AMPDeployment(database_uri=path)
    composed = _walk(deployment.build_portal(serve=ServeConfig()))
    # The page under comparison does age lease rows against the clock.
    assert "Daemon fleet" in Client(deployment.portal_app).get(
        "/statistics/").text
    deployment.close()
    runtime = PortalRuntime(open_role(path, "portal"))
    alone = _walk(runtime.build_portal(serve=ServeConfig()))
    runtime.close()
    assert {key: status for key, (status, _, _) in alone.items()} == \
        dict.fromkeys(alone, 200)
    assert alone == composed
