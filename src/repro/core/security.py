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

from ..webstack.orm import Database, Grant, RoleRegistry

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


def audit_role_separation(databases):
    """Structural audit used by tests/benches for the Figure 2 claims.

    Returns a dict of booleans, all of which must be True:

    - the portal role cannot write grid jobs,
    - the portal role cannot delete simulations,
    - the daemon role cannot create users or touch sessions,
    - neither non-admin role can run raw SQL or DDL.
    """
    portal = databases.portal
    daemon = databases.daemon

    def denied(db, operation, table):
        from ..webstack.orm import PermissionDenied
        try:
            db.check_permission(operation, table)
        except PermissionDenied:
            return True
        return False

    return {
        "portal_cannot_write_gridjobs":
            denied(portal, "insert", "amp_gridjob")
            and denied(portal, "update", "amp_gridjob"),
        "portal_cannot_delete_simulations":
            denied(portal, "delete", "amp_simulation"),
        "daemon_cannot_create_users":
            denied(daemon, "insert", "auth_user"),
        "daemon_cannot_touch_sessions":
            denied(daemon, "select", "auth_session")
            and denied(daemon, "insert", "auth_session"),
        "portal_cannot_run_ddl":
            denied(portal, "create", "amp_star"),
        "daemon_cannot_run_ddl":
            denied(daemon, "create", "amp_star"),
        "portal_no_raw_sql": not portal._grant.allow_raw_sql,
        "daemon_no_raw_sql": not daemon._grant.allow_raw_sql,
    }
