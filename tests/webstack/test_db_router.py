"""The connection layer's one statement funnel, and the deployment's
one topology.

``execute``, ``executescript`` and ``ping`` all pass through the same
hook chain (observer → deadline → count → run); the deployment builds
three plain role connections behind one write gate.
Everything here runs on in-memory stores (tier-1 fast); what the same
topology does on a real WAL file is covered by the ``db``-marked suite
in ``test_wal_concurrency.py``.

(The file keeps the name of PR 10's router suite so the surviving test
ids stay stable; the router itself is gone.)
"""

import pytest

from repro.webstack.orm import (Database, DeploymentDatabases, Grant,
                                PermissionDenied, RoleRegistry)
from repro.webstack.orm.connection import OPERATIONS

from .conftest import Author


def make_roles():
    roles = RoleRegistry()
    grant = Grant({"ws_author": set(OPERATIONS),
                   "ws_book": set(OPERATIONS)})
    roles.define("portal", grant)
    roles.define("daemon", grant)
    return roles


# ----------------------------------------------------------------------
# One hook order for every entry point
# ----------------------------------------------------------------------

ENTRY_POINTS = {
    "execute": lambda db: db.execute("SELECT 1", operation="select",
                                     table="sqlite_master"),
    "executescript": lambda db: db.executescript("SELECT 1;"),
    "ping": lambda db: db.ping(),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_runs_the_hooks_in_one_order(entry):
    db = Database(":memory:")
    calls = []

    def observer(operation, table):
        calls.append("observe")
        return lambda error: calls.append(("finish", error))

    db.statement_observer = observer
    db.deadline_hook = lambda operation, table: calls.append("deadline")
    db.on_execute = lambda operation, table: calls.append("count")
    before = db.queries_executed
    ENTRY_POINTS[entry](db)
    counted = [] if entry == "ping" else ["count"]
    assert calls == ["observe", "deadline", *counted, ("finish", None)]
    # The probe never counts against a round-trip budget.
    assert db.queries_executed == before + len(counted)


# ----------------------------------------------------------------------
# executescript hook-chain regression (the seed bypassed everything)
# ----------------------------------------------------------------------

def test_executescript_runs_the_full_hook_chain():
    db = Database(":memory:")
    seen, finished = [], []

    def observer(operation, table):
        seen.append((operation, table))
        return finished.append

    db.statement_observer = observer
    before = db.queries_executed
    db.executescript("CREATE TABLE t (x INTEGER);")
    assert seen == [("script", "<script>")]
    assert finished == [None]
    assert db.queries_executed == before + 1
    assert db.queries_by_operation.get("script") == 1


def test_executescript_respects_the_deadline_hook():
    db = Database(":memory:")
    errors = []

    def observer(operation, table):
        return errors.append

    def spent(operation, table):
        raise TimeoutError("budget gone")

    db.statement_observer = observer
    db.deadline_hook = spent
    with pytest.raises(TimeoutError, match="budget gone"):
        db.executescript("CREATE TABLE t (x INTEGER);")
    assert [type(error) for error in errors] == [TimeoutError]
    # The script never reached SQLite: the table must not exist.
    db.deadline_hook = None
    assert "t" not in db.table_names()


def test_executescript_still_denied_without_raw_sql_grant():
    portal = Database(":memory:", role="portal", roles=make_roles())
    with pytest.raises(PermissionDenied,
                       match="Role 'portal' may not CREATE on table '\\*'"):
        portal.executescript("CREATE TABLE t (x INTEGER);")


# ----------------------------------------------------------------------
# Transactions and the deployment wiring
# ----------------------------------------------------------------------

def test_reads_inside_transaction_see_their_own_writes(db):
    Author.objects.using(db).create(name="Ada")
    with pytest.raises(RuntimeError):
        with db.atomic():
            author = Author.objects.using(db).get(name="Ada")
            author.name = "Ada L."
            author.save(db=db)
            # The uncommitted rename is visible to this read ...
            assert Author.objects.using(db).filter(
                name="Ada L.").count() == 1
            raise RuntimeError("abandon the transaction")
    # ... and gone again once the scope rolls back.
    assert [a.name for a in Author.objects.using(db)] == ["Ada"]


def test_deployment_roles_share_one_write_gate():
    databases = DeploymentDatabases(make_roles())
    roles = [databases.admin, databases.portal, databases.daemon]
    assert all(type(db) is Database for db in roles)
    assert databases.write_gate is not None
    assert all(db.write_gate is databases.write_gate for db in roles)
    databases.close()
