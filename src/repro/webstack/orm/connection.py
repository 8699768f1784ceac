"""Database connections with role-based table permissions.

The AMP architecture places the web portal, the GridAMP daemon, and the
database on three separate servers, and grants each process's database
account only the table privileges it needs.  The paper:

    "Incoming user data is parsed by the web server and uploaded to
    database tables with strict data type constraints. [...] even a full
    root compromise of the web server does not provide access to any
    credentials used for access to any other system."

We reproduce that privilege model at the connection layer: a
:class:`Database` is opened *as a role*, and every statement the ORM
compiles declares the operation and target table so the grant table can be
checked before SQLite ever sees the SQL.  Raw SQL is only accepted from
the ``admin`` role.

Multiple logical "servers" sharing one database file is modelled by
opening several :class:`Database` objects (one per role) against the same
path — or against the same ``:memory:`` store via SQLite shared-cache URIs.
"""

from __future__ import annotations

import itertools
import re
import sqlite3
import threading
import time

from .exceptions import ConnectionError, IntegrityError, PermissionDenied

#: Operations a grant can name.
OPERATIONS = ("select", "insert", "update", "delete", "create")

_memory_uri_counter = itertools.count(1)


class Grant:
    """Privilege set for one role: ``{table_name: set(operations)}``.

    The wildcard table ``"*"`` grants the listed operations on every
    table.  Schema creation requires an explicit ``create`` grant.
    """

    def __init__(self, table_ops=None, *, allow_raw_sql=False):
        self.table_ops = {t: set(ops) for t, ops in (table_ops or {}).items()}
        self.allow_raw_sql = allow_raw_sql

    def allows(self, operation, table):
        ops = self.table_ops.get(table, set()) | self.table_ops.get("*", set())
        return operation in ops

    @classmethod
    def all_privileges(cls):
        return cls({"*": set(OPERATIONS)}, allow_raw_sql=True)

    @classmethod
    def read_only(cls, tables=("*",)):
        return cls({t: {"select"} for t in tables})


class RoleRegistry:
    """Named grants for a deployment.

    ``admin`` is always present with full privileges (it is the role the
    developers' non-public admin interface uses).
    """

    def __init__(self):
        self._grants = {"admin": Grant.all_privileges()}

    def define(self, role, grant):
        self._grants[role] = grant

    def grant_for(self, role):
        try:
            return self._grants[role]
        except KeyError:
            raise PermissionDenied(f"Unknown database role: {role!r}")

    def roles(self):
        return sorted(self._grants)


class Database:
    """A role-scoped SQLite connection.

    Parameters
    ----------
    path:
        Filesystem path, or ``":memory:"`` for a private in-memory store,
        or a ``file:...?cache=shared`` URI to share an in-memory store
        between several role connections (see :func:`shared_memory_uri`).
    role:
        Role name looked up in *roles*; defaults to ``admin``.
    roles:
        A :class:`RoleRegistry`; defaults to a registry containing only
        ``admin``.
    """

    def __init__(self, path=":memory:", role="admin", roles=None, *,
                 busy_timeout_s=5.0, write_gate=None):
        self.path = path
        self.role = role
        self.roles = roles or RoleRegistry()
        self._grant = self.roles.grant_for(role)
        self._local = threading.local()
        self._lock = threading.RLock()
        #: Every connection waits this long on a locked database before
        #: surfacing SQLITE_BUSY, so brief writer bursts never bubble up
        #: as errors (set as ``PRAGMA busy_timeout`` at connect time).
        self.busy_timeout_s = float(busy_timeout_s)
        #: Single-writer discipline: when several role connections share
        #: one store, they share this reentrant lock and every write
        #: statement (and every transaction scope) funnels through it —
        #: one writer at a time at the application layer, matching
        #: SQLite's own one-writer rule without ever hitting
        #: SQLITE_BUSY on the hot path.  Process-local: writers in
        #: other processes meet only at SQLite's lock + busy handler.
        #: A connection opened on its own gets a private gate.
        self.write_gate = (write_gate if write_gate is not None
                           else threading.RLock())
        #: Journal mode SQLite reported at connect time (``wal`` for
        #: file stores, ``memory`` for in-memory stores); None until
        #: the first connection opens.
        self.journal_mode = None
        #: Slow-statement log: when ``slow_statement_s`` is a number,
        #: any statement whose execution (lock wait included) takes
        #: longer fires ``on_slow_statement(sql, duration_s, operation,
        #: table)``.  The SQL text carries only ``?`` placeholders —
        #: parameter values are never handed to the log.
        self.slow_statement_s = None
        self.on_slow_statement = None
        # Statement log: (operation, table) tuples, used by the security
        # audit in tests/benches to prove what each role actually did.
        self.statement_log = []
        self.log_statements = False
        # Cheap per-connection round-trip counter: one increment per
        # statement the ORM executes.  ``count_queries()`` snapshots it
        # so tests and benches can assert round-trip budgets.
        self.queries_executed = 0
        self.queries_by_operation = {}
        # Optional ``(operation, table)`` callback fired per statement;
        # the observability layer attaches one to feed per-role query
        # counters without the ORM importing it.
        self.on_execute = None
        # Serving-tier resilience hooks (see repro.serve).  Both are
        # ``callable(operation, table)`` and default to None (zero cost
        # when the tier is off):
        #
        # - ``deadline_hook`` — installed per request by the deadline
        #   middleware; raises :class:`DeadlineExceeded` once the
        #   request's time budget is spent, so no further statement
        #   starts (and a statement whose injected latency spent the
        #   budget is discarded).
        # - ``fault_hook`` — the overload chaos harness's injection
        #   point: adds (virtual) latency and/or raises
        #   :class:`DatabaseUnavailable`.
        #
        # ``statement_observer`` is the health tracker's intake: a
        # begin-callback called with ``(operation, table)`` before a
        # statement runs, returning a finish-callback called with the
        # exception (or None) once the statement ends.  Because it
        # wraps the *actual* execution — not just the injection hooks
        # — the tracker sees genuine sqlite errors and real statement
        # latency, not only injected ones.
        self.deadline_hook = None
        self.fault_hook = None
        self.statement_observer = None

    # ------------------------------------------------------------------
    @property
    def connection(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            try:
                conn = sqlite3.connect(
                    self.path, uri=self.path.startswith("file:"),
                    detect_types=0, check_same_thread=False)
            except sqlite3.Error as exc:
                raise ConnectionError(str(exc)) from exc
            conn.execute("PRAGMA foreign_keys = ON")
            # Every connection gets a busy handler: a statement landing
            # on a momentarily-locked database waits instead of erroring.
            conn.execute(f"PRAGMA busy_timeout = "
                         f"{int(self.busy_timeout_s * 1000)}")
            if is_memory_uri(self.path):
                mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            else:
                # File stores run WAL: every connection (in this or any
                # other process) reads a committed snapshot while one
                # writer writes.  synchronous=FULL because the
                # operation journal's write-ahead rule needs the INTENT
                # row on disk before the grid command leaves.
                mode = conn.execute(
                    "PRAGMA journal_mode = WAL").fetchone()[0]
                conn.execute("PRAGMA synchronous = FULL")
            self.journal_mode = mode
            conn.row_factory = sqlite3.Row
            self._local.conn = conn
        return conn

    def close(self):
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------
    def check_permission(self, operation, table):
        """Raise :class:`PermissionDenied` unless the role allows it."""
        if not self._grant.allows(operation, table):
            raise PermissionDenied(
                f"Role {self.role!r} may not {operation.upper()} on "
                f"table {table!r}")

    def _through_hooks(self, operation, table, run, *, counted=True):
        """The one statement funnel (after the caller's grant check):
        deadline → fault → deadline → count → *run*, all inside the
        ``statement_observer`` so the health tracker sees injected and
        genuine failures alike.  :meth:`execute`, :meth:`executescript`
        and :meth:`ping` differ only in their grant and in *run*."""
        observer = self.statement_observer
        finish = observer(operation, table) if observer is not None \
            else None
        try:
            deadline = self.deadline_hook
            if deadline is not None:
                # Budget check before any work starts.
                deadline(operation, table)
            if self.fault_hook is not None:
                # Chaos injection: may advance the (virtual) clock to
                # model a slow database, or raise DatabaseUnavailable.
                self.fault_hook(operation, table)
                if deadline is not None:
                    # Injected latency may have spent the budget: the
                    # statement "ran", but its requester is out of time
                    # — discard the result rather than keep building a
                    # page nobody will wait for.
                    deadline(operation, table)
            if counted:
                self.queries_executed += 1
                self.queries_by_operation[operation] = \
                    self.queries_by_operation.get(operation, 0) + 1
                if self.on_execute is not None:
                    self.on_execute(operation, table)
                if self.log_statements:
                    self.statement_log.append((operation, table))
            result = run()
        except BaseException as exc:
            if finish is not None:
                finish(exc)
            raise
        if finish is not None:
            finish(None)
        return result

    def execute(self, sql, params=(), *, operation, table):
        """Run one compiled statement after a grant check.

        All ORM-generated SQL flows through here with its operation and
        table declared, which is what makes the grant check airtight: the
        compiler, not a SQL parser, is the source of truth.
        """
        self.check_permission(operation, table)
        return self._through_hooks(
            operation, table,
            lambda: self._run_statement(sql, params, operation, table))

    def _run_statement(self, sql, params, operation, table):
        writes = operation != "select"
        started = (time.perf_counter()
                   if self.slow_statement_s is not None else None)
        if writes:
            self.write_gate.acquire()
        try:
            with self._lock:
                in_txn = getattr(self._local, "txn_depth", 0) > 0
                try:
                    cur = self.connection.execute(sql, params)
                    if operation != "select" and not in_txn:
                        self.connection.commit()
                    return cur
                except sqlite3.Error as exc:
                    # Outside atomic() a failed statement must not leave
                    # the driver's implicit transaction open: a writer
                    # that lost the lock after busy_timeout would
                    # otherwise read a frozen snapshot forever and pin
                    # the WAL against checkpoints.
                    if not in_txn:
                        self.connection.rollback()
                    if isinstance(exc, sqlite3.IntegrityError):
                        raise IntegrityError(str(exc)) from exc
                    raise
        finally:
            if writes:
                self.write_gate.release()
            if started is not None:
                duration = time.perf_counter() - started
                if duration > self.slow_statement_s \
                        and self.on_slow_statement is not None:
                    self.on_slow_statement(sql, duration, operation,
                                           table)

    def executescript(self, script):
        """Run a raw script; restricted to roles with ``allow_raw_sql``.

        Scripts flow through the same hook chain as :meth:`execute` —
        grant check first, then deadline/fault hooks, the
        ``statement_observer``, the query counters, and the statement
        log (as one ``("script", "<script>")`` round trip) — so a
        schema-bootstrap script can neither dodge an injected outage
        nor hide from the health tracker or a round-trip budget.
        """
        if not self._grant.allow_raw_sql:
            raise PermissionDenied(
                f"Role {self.role!r} may not execute raw SQL")

        def run_script():
            with self.write_gate, self._lock:
                self.connection.executescript(script)
                self.connection.commit()

        self._through_hooks("script", "<script>", run_script)

    def atomic(self):
        """Context manager for a transaction (BEGIN ... COMMIT/ROLLBACK)."""
        return _Atomic(self)

    def count_queries(self):
        """Context manager counting statements executed in its scope.

        Usage::

            with db.count_queries() as counter:
                daemon.poll_once()
            assert counter.count <= 10
            assert counter.by_operation.get("update", 0) <= 2

        The counter is the testing surface for the batch query layer:
        set-oriented call sites assert a *fixed* round-trip budget
        regardless of row count, so an accidental reintroduction of a
        per-row loop fails loudly.
        """
        return QueryCounter(self)

    def ping(self):
        """One trivial statement through the resilience hooks.

        The readiness probe: exercises ``deadline_hook``/``fault_hook``
        (so an injected outage fails the probe exactly like it fails a
        page render) and a constant ``SELECT 1`` on the raw connection.
        Touches no table, needs no grant, and does not count against
        any round-trip budget.
        """
        def select_one():
            with self._lock:
                self.connection.execute("SELECT 1")

        self._through_hooks("select", "<ping>", select_one,
                            counted=False)

    def table_names(self):
        self.check_permission("select", "sqlite_master")
        with self._lock:
            cur = self.connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name")
            return [r[0] for r in cur.fetchall()]

    def __repr__(self):  # pragma: no cover
        return f"<Database {self.path!r} role={self.role!r}>"


class _Atomic:
    """Transaction scope: statements inside are committed or rolled
    back together.  Python's sqlite3 driver auto-begins a transaction
    at the first DML statement; we just suppress per-statement commits
    while the scope is open and finish it on exit."""

    def __init__(self, db):
        self.db = db

    def __enter__(self):
        # Lock order: write gate (shared across the deployment's writer
        # connections — the single-writer discipline) before the
        # per-connection lock.  Both are reentrant, so nested scopes
        # and writes inside the transaction re-enter cleanly.
        self.db.write_gate.acquire()
        self.db._lock.acquire()
        self.db._local.txn_depth = getattr(self.db._local, "txn_depth",
                                           0) + 1
        return self.db

    def __exit__(self, exc_type, exc, tb):
        try:
            self.db._local.txn_depth -= 1
            if self.db._local.txn_depth == 0:
                if exc_type is None:
                    self.db.connection.commit()
                else:
                    self.db.connection.rollback()
        finally:
            self.db._lock.release()
            self.db.write_gate.release()
        return False


class QueryCounter:
    """Live view of queries executed on one connection since ``__enter__``.

    ``count`` and ``by_operation`` stay readable after the scope closes
    (they freeze at exit time).
    """

    def __init__(self, db):
        self.db = db
        self._start_total = 0
        self._start_ops = {}
        self._final_total = None
        self._final_ops = None

    def __enter__(self):
        self._start_total = self.db.queries_executed
        self._start_ops = dict(self.db.queries_by_operation)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._final_total = self.count
        self._final_ops = self.by_operation
        return False

    @property
    def count(self):
        if self._final_total is not None:
            return self._final_total
        return self.db.queries_executed - self._start_total

    @property
    def by_operation(self):
        if self._final_ops is not None:
            return dict(self._final_ops)
        return {op: total - self._start_ops.get(op, 0)
                for op, total in self.db.queries_by_operation.items()
                if total - self._start_ops.get(op, 0)}

    def __repr__(self):  # pragma: no cover
        return f"<QueryCounter count={self.count} {self.by_operation}>"


def shared_memory_uri(name=None):
    """Return a URI for an in-memory database shareable across connections.

    Each call without *name* mints a fresh store, so tests get isolation
    for free while the portal/daemon role pair in one deployment share
    state by using the same URI.
    """
    if name is None:
        name = f"webstack_mem_{next(_memory_uri_counter)}"
    name = re.sub(r"[^A-Za-z0-9_]", "_", name)
    return f"file:{name}?mode=memory&cache=shared"


def is_memory_uri(uri):
    """True when *uri* names an in-memory store (no WAL possible)."""
    return uri == ":memory:" or "mode=memory" in uri


class DeploymentDatabases:
    """The multi-server database layout of the AMP deployment.

    One shared store, three role-scoped connections:

    - ``portal``  — the public web server's account,
    - ``daemon``  — the GridAMP daemon's account,
    - ``admin``   — the developers' account (full privileges).

    A keeper connection holds the shared in-memory store alive for the
    lifetime of this object.  All three connections share one reentrant
    *write gate* (single-writer discipline inside this process); a
    file-backed store runs in WAL mode, a memory store keeps its
    journal — :class:`Database` decides from the URI.
    """

    def __init__(self, roles, uri=None):
        self.uri = uri or shared_memory_uri()
        self.roles = roles
        self._keeper = sqlite3.connect(self.uri, uri=True,
                                       check_same_thread=False)
        self.write_gate = threading.RLock()
        self.admin = Database(self.uri, role="admin", roles=roles,
                              write_gate=self.write_gate)
        self.portal = Database(self.uri, role="portal", roles=roles,
                               write_gate=self.write_gate)
        self.daemon = Database(self.uri, role="daemon", roles=roles,
                               write_gate=self.write_gate)

    def close(self):
        for db in (self.admin, self.portal, self.daemon):
            db.close()
        if not is_memory_uri(self.uri):
            # Leave the main file complete on its own (callers copy it
            # without its ``-wal``), even while another process still
            # has the store open; the last close then removes the log.
            self._keeper.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._keeper.close()
