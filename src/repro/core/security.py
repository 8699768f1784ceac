"""The deployment's database privilege scheme (§3).

Three roles on the shared database, mirroring the paper's three-server
architecture:

- **portal** — the public web server.  May read the catalog and results,
  create stars/observations/simulations from validated form data, manage
  its own auth sessions, and update narrow user-owned fields.  It may
  *never* touch grid-job rows' content, delete simulations, or read or
  write anything credential-like (there is nothing credential-like in
  the database to begin with — credentials live only on the daemon
  host).
- **daemon** — the GridAMP daemon.  May read everything it orchestrates
  and write workflow state, grid jobs, results, and allocation usage.
  It has no business in session rows and cannot create accounts.
- **admin** — developers' role for the (non-public) admin interface;
  full privileges.
"""

from __future__ import annotations

from ..webstack.orm import Database, Grant, PermissionDenied, RoleRegistry

PORTAL_GRANTS = {
    # Auth: registration, login bookkeeping, sessions.
    "auth_user": {"select", "insert", "update"},
    "auth_session": {"select", "insert", "update", "delete"},
    # Catalog: browse/search and SIMBAD-import.
    "amp_star": {"select", "insert"},
    "amp_observation": {"select", "insert"},
    # Submission and monitoring.
    "amp_simulation": {"select", "insert", "update"},
    # Bulk campaign submissions land through the portal's API; the
    # campaign row and its simulations insert in one transaction.
    "amp_campaign": {"select", "insert"},
    "amp_gridjob": {"select"},
    # The operation journal is read-only for the portal (the statistics
    # page digests the last recovery sweep); only the daemon writes it.
    "amp_operation": {"select"},
    # The SU-reservation ledger likewise: the statistics page renders
    # the placement digest from it, but only the daemon's broker books
    # and settles reservations.
    "amp_reservation": {"select"},
    # Fleet leases: the statistics page renders the fleet digest
    # (instances, slices, heartbeats); only daemons claim and renew.
    "amp_lease": {"select"},
    # Back-end registry: read-only for form choices.
    "amp_machine": {"select"},
    "amp_allocation": {"select"},
    "amp_profile": {"select", "insert", "update"},
    "amp_submit_auth": {"select"},
}

DAEMON_GRANTS = {
    "auth_user": {"select"},                 # e-mail addresses
    "amp_star": {"select"},
    "amp_observation": {"select"},
    "amp_campaign": {"select"},              # campaign membership
    "amp_simulation": {"select", "update"},
    "amp_gridjob": {"select", "insert", "update"},
    # The write-ahead operation journal: the daemon owns it outright.
    "amp_operation": {"select", "insert", "update"},
    # The broker's SU-reservation ledger: daemon-owned too.
    "amp_reservation": {"select", "insert", "update"},
    # Work-partition leases: claimed/renewed/stolen through
    # conditional updates; rows are never deleted, only expired.
    "amp_lease": {"select", "insert", "update"},
    "amp_machine": {"select", "update"},   # queue telemetry
    "amp_allocation": {"select", "update"},  # SU charging
    "amp_profile": {"select"},
    "amp_submit_auth": {"select"},
}


def build_role_registry():
    registry = RoleRegistry()
    registry.define("portal", Grant(PORTAL_GRANTS))
    registry.define("daemon", Grant(DAEMON_GRANTS))
    return registry


def open_role(uri, role):
    """One *role*-scoped connection to the deployment database."""
    return Database(uri, role=role, roles=build_role_registry())


def refuses(db, statement, *, script=False):
    """True when SQLite's authorizer refuses *statement* on *db*'s
    connection.  ``EXPLAIN`` prepares it, where the authorizer decides,
    and runs nothing; a *script* goes through ``executescript`` and runs."""
    try:
        if script:
            db.executescript(statement)
        else:
            db.execute("EXPLAIN " + statement, operation="select",
                       table="<explain>")
    except PermissionDenied:
        return True
    return False


def audit_role_separation(databases):
    """Structural audit used by tests/benches for the Figure 2 claims.

    Returns a dict of booleans, all of which must be True — each one a
    refusal by SQLite on the role's own connection:

    - the portal role cannot write grid jobs,
    - the portal role cannot delete simulations,
    - the daemon role cannot create users or touch sessions,
    - neither non-admin role can run DDL, compiled or as a raw script
      (one that would change nothing if it ran: the table exists).
    """
    portal, daemon = databases.portal, databases.daemon
    ddl = 'CREATE TABLE IF NOT EXISTS "amp_star" ("id" INTEGER)'
    return {
        "portal_cannot_write_gridjobs":
            refuses(portal, "INSERT INTO amp_gridjob DEFAULT VALUES")
            and refuses(portal, "UPDATE amp_gridjob SET id = id"),
        "portal_cannot_delete_simulations":
            refuses(portal, "DELETE FROM amp_simulation"),
        "daemon_cannot_create_users":
            refuses(daemon, "INSERT INTO auth_user DEFAULT VALUES"),
        "daemon_cannot_touch_sessions":
            refuses(daemon, "SELECT * FROM auth_session")
            and refuses(daemon, "INSERT INTO auth_session DEFAULT VALUES"),
        "portal_cannot_run_ddl": refuses(portal, ddl),
        "daemon_cannot_run_ddl": refuses(daemon, ddl),
        "portal_no_raw_sql": refuses(portal, ddl, script=True),
        "daemon_no_raw_sql": refuses(daemon, ddl, script=True),
    }
