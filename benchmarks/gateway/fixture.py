"""The seeded database every workload starts from.

Built once per invocation and copied per launch: the full seed catalog,
64 approved astronomers with one live session each, 60 direct
simulations that the real daemon drives to ``DONE`` (so detail pages
render real results), and 1 940 bulk-created history rows — 2 000
simulations in all.  Everything that varies comes from ``--seed``;
timestamps are the only columns that differ between two builds of one
seed, and the content hash leaves them out.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import platform
import random
import shutil
import sqlite3
import subprocess
import sys
import time

from . import ROOT

N_ASTRONOMERS = 64
N_DIRECT = 60
N_SIMULATIONS = 2000

#: One history row in this many was withdrawn; the others finished.
HISTORY_WITHDRAWN_EVERY = 10

#: Columns of each hashed table that a seed determines.
HASHED_COLUMNS = {
    "auth_user": "id, username, is_active",
    "auth_session": "session_key, data",
    "amp_star": "id, name",
    "amp_simulation": ("id, star_id, owner_id, kind, state, "
                       "machine_name, parameters, results"),
}


def stellar_parameters(rng):
    """One direct-run input inside the solar-like box, where the
    stellar model always converges (no simulation ends in ``HOLD``)."""
    return {"mass": round(rng.uniform(0.85, 1.30), 4),
            "z": round(rng.uniform(0.010, 0.030), 5),
            "y": round(rng.uniform(0.25, 0.30), 4),
            "alpha": round(rng.uniform(1.8, 2.4), 3),
            "age": round(rng.uniform(1.0, 6.0), 3)}


def machine_for(index, machines):
    """Machines in blocks of four: 0-3 on the first, 4-7 on the next."""
    return machines[(index // 4) % len(machines)]


def _create_astronomers(deployment):
    """What ``AMPDeployment.create_astronomer`` writes, in three bulk
    inserts and with one password hash: 64 PBKDF2 derivations would be
    half the build and no workload ever logs in with a password."""
    from repro.core import SubmitAuthorization, UserProfile
    from repro.webstack.auth import User, hashers
    admin = deployment.databases.admin
    hashed = hashers.make_password("gateway-bench", salt="gatewaybench")
    users = [User(username=f"astro{i:02d}", email=f"astro{i:02d}@ucar.edu",
                  password=hashed, is_active=True)
             for i in range(N_ASTRONOMERS)]
    User.objects.using(admin).bulk_create(users)
    UserProfile.objects.using(admin).bulk_create([
        UserProfile(user_id=user.pk, institution="NCAR",
                    provenance={"requested_via": "portal",
                                "approved_by": "gateway-admin"})
        for user in users])
    SubmitAuthorization.objects.using(admin).bulk_create([
        SubmitAuthorization(
            user_id=user.pk,
            machine_id=deployment.machine_records[name].pk,
            allocation_id=deployment.allocations[name].pk, active=True)
        for user in users for name in deployment.machine_specs])
    return users


def _create_sessions(deployment, users, seed):
    """One logged-in session per astronomer, keyed from the seed."""
    from repro.webstack.auth import Session
    expires = datetime.datetime.utcnow() + datetime.timedelta(hours=12)
    sessions = [
        Session(session_key=hashlib.sha256(
                    f"gateway-bench:{seed}:{user.pk}".encode()
                ).hexdigest()[:40],
                user_id_ref=str(user.pk),
                data={"_auth_user_id": user.pk}, expires_at=expires)
        for user in users]
    Session.objects.using(deployment.databases.admin).bulk_create(sessions)
    return sessions


def _run_direct_simulations(deployment, rng, stars, users):
    """Submit through the portal role, finish through the daemon."""
    from repro.core import KIND_DIRECT, SIM_DONE, Simulation
    machines = sorted(deployment.machine_specs)
    first_star = rng.randrange(len(stars))
    sims = [Simulation(star_id=stars[(first_star + index) % len(stars)].pk,
                       owner_id=rng.choice(users).pk, kind=KIND_DIRECT,
                       machine_name=machine_for(index, machines),
                       parameters=stellar_parameters(rng))
            for index in range(N_DIRECT)]
    Simulation.objects.using(deployment.databases.portal).bulk_create(sims)
    deployment.run_daemon_until_idle(poll_interval_s=900.0)
    finished = list(Simulation.objects.using(
        deployment.databases.admin).filter(state=SIM_DONE).order_by("id"))
    if len(finished) != N_DIRECT:
        raise RuntimeError(
            f"fixture: {len(finished)} of {N_DIRECT} direct simulations "
            "reached DONE")
    return finished


def _create_history(deployment, rng, finished, stars, users):
    """The long tail of the simulation table: copies of finished runs
    (so any detail page renders results) under other owners.

    Stars take the rows in turn and every tenth row was withdrawn, so
    each star lists the same number of simulations whatever the seed:
    the cost of a page must not depend on which seed drew it.
    """
    from repro.core import (KIND_DIRECT, SIM_CANCELLED, SIM_DONE,
                            Simulation)
    first_star = rng.randrange(len(stars))
    rows = []
    for index in range(N_SIMULATIONS - N_DIRECT):
        source = rng.choice(finished)
        done = index % HISTORY_WITHDRAWN_EVERY != 0
        rows.append(Simulation(
            star_id=stars[(first_star + index) % len(stars)].pk,
            owner_id=rng.choice(users).pk,
            kind=KIND_DIRECT, machine_name=source.machine_name,
            parameters=source.parameters,
            state=SIM_DONE if done else SIM_CANCELLED,
            results=source.results if done else None,
            status_message="" if done
            else "Cancelled before processing began."))
    Simulation.objects.using(deployment.databases.admin).bulk_create(rows)


def build(path, seed):
    """Create the fixture database at *path*; returns its description
    (the generated inputs the workload plans are made from)."""
    from repro.core import AMPDeployment, Star
    started = time.perf_counter()
    rng = random.Random(f"fixture:{seed}")
    deployment = AMPDeployment(database_uri=str(path))
    try:
        users = _create_astronomers(deployment)
        sessions = _create_sessions(deployment, users, seed)
        stars = list(Star.objects.using(
            deployment.databases.admin).order_by("id"))
        finished = _run_direct_simulations(deployment, rng, stars, users)
        _create_history(deployment, rng, finished, stars, users)
        machines = sorted(deployment.machine_specs)
    finally:
        deployment.close()
    description = {
        "path": str(path), "seed": seed,
        "stars": [[star.pk, star.name] for star in stars],
        "users": [user.pk for user in users],
        "sessions": [session.session_key for session in sessions],
        "done_simulations": [sim.pk for sim in finished],
        "machines": machines,
    }
    description.update(inspect(path))
    description["build_s"] = time.perf_counter() - started
    return description


def inspect(path):
    """Row counts per table and the content hash of a fixture file."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        tables = [name for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
        rows = {table: connection.execute(
            f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
            for table in tables}
        digest = hashlib.sha256()
        for table, columns in sorted(HASHED_COLUMNS.items()):
            order = columns.split(",")[0]
            for row in connection.execute(
                    f'SELECT {columns} FROM "{table}" ORDER BY {order}'):
                digest.update(repr(row).encode("utf-8"))
        journal_mode = connection.execute(
            "PRAGMA journal_mode").fetchone()[0]
    finally:
        connection.close()
    return {"rows": rows, "content_hash": digest.hexdigest(),
            "journal_mode": journal_mode}


def copy(description, destination):
    """A private copy of the fixture for one launch."""
    shutil.copyfile(description["path"], destination)
    return str(destination)


def environment(description):
    """What the numbers were measured on; heads every report."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"      # the driver's checkout is not a repository
    return {"commit": commit,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "sqlite": sqlite3.sqlite_version,
            "journal_mode": description["journal_mode"],
            "nproc": os.cpu_count()}
