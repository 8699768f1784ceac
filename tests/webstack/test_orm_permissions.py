"""Role-based connection grants — the paper's security architecture."""

import sqlite3

import pytest

from repro.webstack.orm import (Database, DeploymentDatabases, Grant,
                                PermissionDenied, RoleRegistry, create_all,
                                shared_memory_uri)

from .conftest import MODELS, Author, Book


@pytest.fixture()
def roles():
    registry = RoleRegistry()
    registry.define("portal", Grant({
        "ws_author": {"select", "insert", "update"},
        "ws_book": {"select", "insert"},
    }))
    registry.define("daemon", Grant({
        "ws_author": {"select"},
        "ws_book": {"select", "update"},
    }))
    return registry


@pytest.fixture()
def deployment(roles):
    dep = DeploymentDatabases(roles)
    create_all(MODELS, dep.admin)
    yield dep
    dep.close()


class TestGrants:
    def test_grant_allows(self):
        grant = Grant({"t": {"select", "insert"}})
        assert grant.allows("select", "t")
        assert not grant.allows("delete", "t")

    def test_wildcard_grant(self):
        grant = Grant({"*": {"select"}})
        assert grant.allows("select", "anything")
        assert not grant.allows("insert", "anything")

    def test_unknown_role_rejected(self, roles):
        with pytest.raises(PermissionDenied):
            Database(":memory:", role="nosuch", roles=roles)


class TestRoleSeparation:
    def test_portal_can_insert_but_not_delete(self, deployment):
        portal = deployment.portal
        author = Author.objects.using(portal).create(name="User Input")
        with pytest.raises(PermissionDenied):
            author.delete()

    def test_portal_cannot_update_books(self, deployment):
        author = Author.objects.using(deployment.portal).create(name="A")
        Book.objects.using(deployment.portal).create(
            author=author, title="t")
        with pytest.raises(PermissionDenied):
            Book.objects.using(deployment.portal).all().update(pages=5)

    def test_daemon_cannot_write_authors(self, deployment):
        Author.objects.using(deployment.portal).create(name="A")
        with pytest.raises(PermissionDenied):
            Author.objects.using(deployment.daemon).create(name="B")

    def test_daemon_sees_portal_writes(self, deployment):
        """The asynchronous DB-mediated coupling of portal and daemon."""
        Author.objects.using(deployment.portal).create(name="Shared")
        assert Author.objects.using(
            deployment.daemon).filter(name="Shared").exists()

    def test_daemon_update_visible_to_portal(self, deployment):
        author = Author.objects.using(deployment.portal).create(name="A")
        Book.objects.using(deployment.portal).create(author=author,
                                                     title="sim")
        Book.objects.using(deployment.daemon).filter(
            title="sim").update(pages=99)
        assert Book.objects.using(
            deployment.portal).get(title="sim").pages == 99

    def test_portal_cannot_create_tables(self, deployment):
        with pytest.raises(PermissionDenied):
            create_all(MODELS, deployment.portal)

    def test_portal_cannot_run_raw_sql(self, deployment):
        with pytest.raises(PermissionDenied):
            deployment.portal.executescript("DROP TABLE ws_author")

    def test_admin_has_full_access(self, deployment):
        author = Author.objects.using(deployment.admin).create(name="A")
        author.delete()
        assert not Author.objects.using(deployment.admin).exists()

    def test_statement_log_records_operations(self, deployment):
        ops = []

        def record(operation, table):
            ops.append((operation, table))

        deployment.portal.statement_observer = record
        Author.objects.using(deployment.portal).create(name="Logged")
        Author.objects.using(deployment.portal).count()
        assert ("insert", "ws_author") in ops
        assert ("select", "ws_author") in ops


    def test_a_subquery_needs_select_on_the_table_it_reads(self):
        registry = RoleRegistry()
        registry.define("portal", Grant({"ws_book": {"select"}}))
        registry.define("daemon", Grant({"ws_author": {"select"},
                                         "ws_book": {"select"}}))
        dep = DeploymentDatabases(registry)
        try:
            create_all(MODELS, dep.admin)
            authors = Author.objects.filter(name="A")
            for _ in range(2):           # the cold compile and a hit
                with pytest.raises(PermissionDenied):
                    Book.objects.using(dep.portal).filter(
                        author__in=authors).count()
                assert Book.objects.using(dep.daemon).filter(
                    author__in=authors).count() == 0
        finally:
            dep.close()


class TestEngineEnforcement:
    """The grant lives in SQLite's authorizer: it decides on the SQL
    itself, however the statement reaches the connection."""

    def test_the_engine_refuses_the_raw_driver_path(self, deployment):
        deployment.admin.executescript("CREATE TABLE secret (token TEXT)")
        raw = deployment.portal.connection      # the sqlite3 connection
        with pytest.raises(sqlite3.DatabaseError,
                           match="access to secret.token is prohibited"):
            raw.execute("SELECT token FROM secret")
        with pytest.raises(sqlite3.DatabaseError, match="not authorized"):
            raw.execute("DELETE FROM ws_author")
        with pytest.raises(sqlite3.DatabaseError, match="not authorized"):
            raw.execute("ATTACH ':memory:' AS other")
        with pytest.raises(sqlite3.DatabaseError, match="not authorized"):
            raw.execute("PRAGMA foreign_keys = OFF")
        # Inside the grant the same raw path runs.
        Author.objects.using(deployment.portal).create(name="Cooked")
        raw.execute("UPDATE ws_author SET name = 'Raw'")
        raw.commit()
        assert raw.execute(
            "SELECT name FROM ws_author").fetchall()[0][0] == "Raw"
        assert raw.execute("PRAGMA foreign_keys").fetchone()[0] == 1

    def test_a_declared_table_is_only_a_label(self, deployment):
        deployment.admin.executescript("CREATE TABLE secret (token TEXT)")
        with pytest.raises(PermissionDenied,
                           match="Role 'portal' may not SELECT on table "
                                 "'secret'"):
            deployment.portal.execute("SELECT token FROM secret",
                                      operation="select",
                                      table="ws_author")
        with pytest.raises(PermissionDenied,
                           match="Role 'daemon' may not DELETE on table "
                                 "'ws_book'"):
            deployment.daemon.execute("DELETE FROM ws_book",
                                      operation="select", table="ws_book")

    def test_a_join_needs_select_on_every_table_it_reads(self):
        registry = RoleRegistry()
        registry.define("portal", Grant({"ws_book": {"select"}}))
        registry.define("daemon", Grant())
        dep = DeploymentDatabases(registry)
        try:
            create_all(MODELS, dep.admin)
            with pytest.raises(PermissionDenied,
                               match="SELECT on table 'ws_author'"):
                list(Book.objects.using(dep.portal)
                     .select_related("author"))
            assert list(Book.objects.using(dep.portal)) == []
        finally:
            dep.close()

    @pytest.mark.parametrize("role", ["portal", "daemon"])
    def test_in_json_first_on_a_fresh_connection(self, deployment, role):
        """``json_each``'s first use on a connection reports an UPDATE
        and a READ of ``sqlite_master``: refused, it would fail with
        ``vtable constructor failed: json_each``."""
        db = getattr(deployment, role)
        db.close()                             # the next statement opens
        assert list(Book.objects.using(db).filter(
            pk__in_json=[1, 2, 3])) == []
        assert Author.objects.using(db).filter(
            pk__in_json=[1]).count() == 0


class TestSharedMemoryUri:
    def test_unique_by_default(self):
        assert shared_memory_uri() != shared_memory_uri()

    def test_named_is_stable(self):
        assert shared_memory_uri("x") == shared_memory_uri("x")

    def test_sanitises_name(self):
        assert "?" not in shared_memory_uri("a?b c").split("?mode")[0]
