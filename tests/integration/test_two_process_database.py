"""The deployment shape, not threads: two OS processes over one file.

``serverhost`` and ``daemonhost`` (and ``cli serve``'s workers) each
build ``AMPDeployment(database_uri=path)`` in their own process; the
write gate is process-local, so across processes writers meet only at
SQLite's own lock and the busy handler.  This test crosses that
boundary at the ORM layer: a commit in one process is visible to the
other's next statement, and interleaved writers from both lose nothing.
"""

import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.core import AMPDeployment, Star

pytestmark = pytest.mark.db

N_EACH = 25

PEER = """
import sys
from repro.core import AMPDeployment, Star
deployment = AMPDeployment(database_uri=sys.argv[1])
portal = deployment.databases.portal
print("ready", flush=True)
for line in sys.stdin:
    command = line.strip()
    if command == "count":
        print(Star.objects.using(portal).count(), flush=True)
    elif command == "write":
        try:
            for n in range(int(sys.argv[2])):
                Star(name=f"peer-{n}").save(db=portal)
        except Exception as exc:
            print(f"error {exc!r}", flush=True)
        else:
            print("written", flush=True)
deployment.close()
"""


@pytest.fixture()
def deployment(tmp_path):
    dep = AMPDeployment(database_uri=str(tmp_path / "amp.sqlite"))
    yield dep
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    dep.close()


@pytest.fixture()
def peer(deployment):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    process = subprocess.Popen(
        [sys.executable, "-c", PEER, deployment.databases.uri,
         str(N_EACH)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env)
    assert process.stdout.readline().strip() == "ready"

    def ask(command):
        process.stdin.write(command + "\n")
        process.stdin.flush()
        return process.stdout.readline().strip()

    yield ask
    process.stdin.close()
    assert process.wait(timeout=30) == 0


def test_commits_cross_the_process_boundary_and_no_write_is_lost(
        deployment, peer):
    portal = deployment.databases.portal
    seeded = Star.objects.using(portal).count()
    assert int(peer("count")) == seeded

    # A row committed here is visible to the peer's very next statement.
    Star(name="committed-here").save(db=portal)
    assert int(peer("count")) == seeded + 1

    # Both processes write at once; neither sees ``database is locked``.
    answer = []
    peer_writer = threading.Thread(
        target=lambda: answer.append(peer("write")))
    peer_writer.start()
    for n in range(N_EACH):
        Star(name=f"here-{n}").save(db=portal)
    peer_writer.join(timeout=60)
    assert answer == ["written"]
    expected = seeded + 1 + 2 * N_EACH
    assert Star.objects.using(portal).count() == expected
    assert int(peer("count")) == expected
