"""The default topology on a real file: WAL, busy handler, one gate.

These tests use actual files, threads and wall-clock waits, so they
live in the ``db`` CI row rather than tier-1.  What they pin down:

- every role connection of ``DeploymentDatabases(uri=file)`` runs
  ``journal_mode=WAL``, ``synchronous=FULL`` and a 5 s busy handler;
- a writer holding an open transaction does not block another role's
  reads, which see the pre-transaction snapshot and then the committed
  row at once;
- writers serialize losslessly, and a write that does lose the lock
  leaves no dangling transaction behind;
- ``close()`` leaves the main file complete with no ``-wal`` beside it.
"""

import shutil
import sqlite3
import threading

import pytest

from repro.webstack.orm import Database, DeploymentDatabases, create_all

from .conftest import MODELS, Author
from .test_db_router import make_roles

pytestmark = pytest.mark.db


def role_connections(databases):
    return [databases.admin, databases.portal, databases.daemon]


def pragma(db, name):
    return db.connection.execute(f"PRAGMA {name}").fetchone()[0]


@pytest.fixture()
def file_db(tmp_path):
    databases = DeploymentDatabases(make_roles(),
                                    uri=str(tmp_path / "wal.db"))
    create_all(MODELS, databases.admin)
    yield databases
    databases.close()


def test_file_backed_store_runs_in_wal_mode(file_db):
    for db in role_connections(file_db):
        assert pragma(db, "journal_mode") == "wal"
        assert db.journal_mode == "wal"
        # Durable commits: the operation journal's INTENT row must be
        # on disk before the grid command leaves.
        assert pragma(db, "synchronous") == 2


def test_memory_store_keeps_its_journal():
    databases = DeploymentDatabases(make_roles())
    for db in role_connections(databases):
        assert pragma(db, "journal_mode") == "memory"
    databases.close()


def test_busy_timeout_armed_on_every_connection(file_db):
    for db in role_connections(file_db):
        assert pragma(db, "busy_timeout") == 5000


def test_writer_mid_transaction_does_not_block_readers(file_db):
    """The WAL promise: while the daemon holds an open write
    transaction, portal reads complete immediately — seeing the
    pre-transaction snapshot — instead of waiting for COMMIT."""
    databases = file_db
    Author.objects.using(databases.admin).create(name="before")

    txn_open = threading.Event()
    release_txn = threading.Event()
    writer_done = threading.Event()

    def long_writer():
        with databases.daemon.atomic():
            Author.objects.using(databases.daemon).create(
                name="uncommitted")
            txn_open.set()
            release_txn.wait(timeout=30)
        writer_done.set()

    read_names = []
    reader_error = []

    def reader():
        try:
            read_names.append(sorted(
                a.name for a in Author.objects.using(databases.portal)))
        except Exception as exc:  # noqa: BLE001 - recorded for assert
            reader_error.append(exc)

    writer = threading.Thread(target=long_writer)
    writer.start()
    assert txn_open.wait(timeout=10)
    reader_thread = threading.Thread(target=reader)
    reader_thread.start()
    # The decisive assertion: the read finishes while the write
    # transaction is still open.
    reader_thread.join(timeout=5)
    still_running = reader_thread.is_alive()
    release_txn.set()
    writer.join(timeout=30)
    assert not still_running, \
        "portal read blocked behind an open daemon transaction"
    assert not reader_error, f"reader failed: {reader_error}"
    assert read_names == [["before"]]   # snapshot: uncommitted invisible
    assert writer_done.is_set()
    # The very next statement after COMMIT sees the row: on one SQLite
    # file there is no replication delay to wait out.
    assert Author.objects.using(databases.portal).count() == 2


def test_concurrent_writers_serialize_through_the_gate(file_db):
    """Two roles writing through the shared gate never corrupt the
    store or deadlock: every row lands."""
    databases = file_db
    n_each = 25
    errors = []

    def writer(db, prefix):
        try:
            for n in range(n_each):
                Author.objects.using(db).create(name=f"{prefix}-{n}")
        except Exception as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=writer,
                         args=(databases.portal, "portal")),
        threading.Thread(target=writer,
                         args=(databases.daemon, "daemon")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert Author.objects.using(databases.admin).count() == 2 * n_each


def test_failed_write_outside_atomic_leaves_no_open_transaction(
        tmp_path):
    """A writer that loses the lock after ``busy_timeout`` must not keep
    the driver's implicit transaction open: it would read a frozen
    snapshot forever and pin the WAL against checkpoints."""
    path = str(tmp_path / "contended.db")
    winner = Database(path)
    loser = Database(path, busy_timeout_s=0.05)
    create_all(MODELS, winner)
    Author.objects.using(winner).create(name="first")
    with winner.atomic():
        Author.objects.using(winner).create(name="second")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            Author.objects.using(loser).create(name="lost")
        assert loser.connection.in_transaction is False
    # The loser sees the winner's later commits ...
    Author.objects.using(winner).create(name="third")
    assert Author.objects.using(loser).count() == 3
    # ... and can write again, as can the winner.
    Author.objects.using(loser).create(name="fourth")
    Author.objects.using(winner).create(name="fifth")
    assert Author.objects.using(winner).count() == 5
    loser.close()
    winner.close()


def test_wal_survives_reopen(tmp_path):
    """A store closed with ``close()`` has no ``-wal`` sibling and
    reopens with every row."""
    path = tmp_path / "durable.db"
    databases = DeploymentDatabases(make_roles(), uri=str(path))
    create_all(MODELS, databases.admin)
    for n in range(10):
        Author.objects.using(databases.daemon).create(name=f"a{n}")
    databases.close()
    assert not path.with_name(path.name + "-wal").exists()

    reopened = DeploymentDatabases(make_roles(), uri=str(path))
    assert Author.objects.using(reopened.admin).count() == 10
    reopened.close()


def test_close_checkpoints_even_with_another_connection_open(tmp_path):
    """Callers copy the main file alone (the gateway benchmark's
    fixture does): after ``close()`` it holds every row even while
    some other process still has the store open."""
    path = tmp_path / "shared.db"
    databases = DeploymentDatabases(make_roles(), uri=str(path))
    create_all(MODELS, databases.admin)
    other = sqlite3.connect(str(path))    # e.g. a daemon process
    other.execute('SELECT COUNT(*) FROM "ws_author"').fetchone()
    try:
        for n in range(10):
            Author.objects.using(databases.portal).create(name=f"a{n}")
        databases.close()
        copy = tmp_path / "copy.db"
        shutil.copyfile(path, copy)
    finally:
        other.close()
    copied = sqlite3.connect(str(copy))
    assert copied.execute(
        'SELECT COUNT(*) FROM "ws_author"').fetchone()[0] == 10
    copied.close()
