"""Round-trip budgets and telemetry robustness of the daemon poll.

The batch query layer's contract is that a steady-state poll costs a
*fixed* number of database round trips no matter how many simulations
and grid jobs are in flight — these tests pin that budget so a per-row
loop cannot creep back in unnoticed.  The portal's listing pages have
the same contract, and what they print is checked against counts taken
straight from SQLite.
"""

import datetime
import html
import re

import pytest

from repro.core import Simulation, Star
from repro.core.models import (KIND_DIRECT, SIM_DONE, SIM_QUEUED,
                               MachineRecord)
from repro.grid.clients import EXIT_OK, CommandResult
from repro.webstack.orm.query import QuerySet, compiled_cache
from repro.webstack.testclient import Client

from .conftest import poll_levels, submit_direct


class TestPollRoundTripBudget:
    def test_fifty_active_simulations_stay_in_budget(self, deployment,
                                                     astronomer):
        for _ in range(50):
            submit_direct(deployment, astronomer)
        # The first polls perform the submissions (writes necessarily
        # scale with brand-new work: QUEUED → PREJOB → RUNNING); the
        # budget holds once all 50 are waiting on their batch jobs.
        for _ in range(3):
            deployment.daemon.poll_once()
        db = deployment.databases.daemon
        with db.count_queries() as counter:
            deployment.daemon.poll_once()
        assert counter.count <= 10, repr(counter)

    def test_steady_state_poll_is_seven_statements_plus_the_sweep(
            self, deployment, astronomer):
        """The lease protocol's share of a poll, as numbers: one read
        while the leases have more than half their lifetime left, and
        two conditional renewals (presence, slice 0) on top of it once
        they do not — beside the seven statements of the scan itself
        (level 2 counts the active simulations for its gauge and loads
        none: every simulation is waiting)."""
        for _ in range(50):
            submit_direct(deployment, astronomer)
        for _ in range(3):
            deployment.daemon.poll_once()
        db = deployment.databases.daemon
        leases = deployment.daemon.leases
        with db.count_queries() as poll:
            deployment.daemon.poll_once()
        with db.count_queries() as sweep:
            assert leases.sweep() == ([], [])
        assert sweep.count == 1, repr(sweep)
        assert poll.count == 7 + sweep.count, repr(poll)
        deployment.clock.advance(leases.ttl_s / 2)
        with db.count_queries() as renewing:
            assert leases.sweep() == ([], [])
        assert renewing.count == 3, repr(renewing)
        assert renewing.by_operation["update"] == 2

    @pytest.mark.parametrize("n", [10, 100, 200])
    def test_scan_poll_hydrates_no_simulation_in_level_2(
            self, deployment, astronomer, monkeypatch, n):
        """Every RUNNING simulation waits on its in-flight model job and
        every job is listed in the state its row records: level 1's one
        query returns no job, level 2's returns no simulation and no
        job is prefetched, at 10 simulations as at 200, while the
        active gauge, one ``COUNT``, still counts all of them."""
        for _ in range(n):
            submit_direct(deployment, astronomer)
        for _ in range(3):
            deployment.daemon.poll_once()
        assert poll_levels(deployment, monkeypatch) == (0, {
            "update_grid_jobs": (1, [("GridJobRecord", 0)]),
            "advance_simulations": (2, [("Simulation", 0)])})
        assert deployment.obs.metrics.value(
            "daemon_active_simulations", instance="daemon-0") == n

    def test_budget_independent_of_population(self, deployment,
                                              astronomer):
        """The poll cost at 5 active simulations equals the cost at 25 —
        set-oriented, not per-row."""
        db = deployment.databases.daemon
        for _ in range(5):
            submit_direct(deployment, astronomer)
        for _ in range(3):
            deployment.daemon.poll_once()
        with db.count_queries() as small:
            deployment.daemon.poll_once()
        for _ in range(20):
            submit_direct(deployment, astronomer)
        for _ in range(3):
            deployment.daemon.poll_once()
        with db.count_queries() as large:
            deployment.daemon.poll_once()
        assert large.count == small.count


class TestWorkingPollBudget:
    """Listing 1 set at a time: a step costs its group a fixed number of
    statements and commits — one journal batch per grid operation, one
    state write — so per transition both fall as the group grows."""

    @staticmethod
    def per_transition(n):
        """Statements and commits per transition of the daemon's polls
        while *n* direct runs go from QUEUED to DONE."""
        from repro.core import AMPDeployment
        deployment = AMPDeployment()
        try:
            user = deployment.create_astronomer("batch")
            for _ in range(n):
                submit_direct(deployment, user)
            daemon, db = deployment.daemon, deployment.databases.daemon
            done = Simulation.objects.using(deployment.databases.admin) \
                .filter(state=SIM_DONE)
            statements = commits = transitions = polls = 0
            while done.count() < n:
                polls += 1
                assert polls <= 50, "the drive did not finish"
                deployment.clock.advance(1800.0)
                with db.count_queries() as counter:
                    transitions += daemon.poll_once()
                statements += counter.count
                commits += counter.commits
            assert transitions == 5 * n
            return statements / transitions, commits / transitions
        finally:
            deployment.close()

    def test_statements_and_commits_per_transition_fall_with_the_group(
            self):
        costs = {n: self.per_transition(n) for n in (1, 10, 100)}
        statements = [costs[n][0] for n in (1, 10, 100)]
        commits = [costs[n][1] for n in (1, 10, 100)]
        assert statements == sorted(statements, reverse=True), costs
        assert len(set(statements)) == 3, costs
        assert commits == sorted(commits, reverse=True), costs
        assert len(set(commits)) == 3, costs
        assert statements[-1] <= 2.0, costs
        assert commits[-1] <= 1.0, costs


class TestScanPollCommands:
    def test_steady_state_scan_signs_with_each_owners_wallet_proxy(
            self, deployment):
        """N RUNNING simulations of K owners, nothing due: one ``qstat``
        per machine and not one status command or proxy issued, since
        every job's listed state is the one its row records; once the
        jobs finish, one status command per job, each attributed to its
        owner, and still no proxy issued — every owner's proxy is
        already in the wallet."""
        owners = [deployment.create_astronomer(f"owner{k}")
                  for k in range(3)]
        n = 12
        for index in range(n):
            submit_direct(deployment, owners[index % len(owners)])
        for _ in range(3):
            deployment.daemon.poll_once()
        assert Simulation.objects.using(deployment.databases.admin) \
            .filter(state="RUNNING").count() == n
        clients, audit = deployment.clients, deployment.fabric.audit
        machines = MachineRecord.objects.using(
            deployment.databases.admin).count()

        def poll_programs():
            logged = len(clients.command_log)
            transitions = deployment.daemon.poll_once()
            new = len(clients.command_log) - logged
            return transitions, [result.argv[0] for result in
                                 list(clients.command_log)[-new:]]

        polls = dict(audit.tally)
        transitions, programs = poll_programs()
        assert transitions == 0
        assert programs == ["globus-job-run"] * machines
        assert dict(audit.tally) == polls
        # Every model job finishes and leaves the listing: each is
        # re-polled once, under its owner's proxy.
        deployment.clock.advance(4 * 3600.0)
        _, programs = poll_programs()
        assert programs.count("grid-proxy-init") == 0
        assert programs.count("globus-job-status") == n
        for owner in owners:
            key = (owner.username, "gram-poll")
            assert audit.tally[key] - polls.get(key, 0) == n // len(owners)


class TestCatalogBatching:
    def test_local_search_hit_is_one_query(self, deployment):
        db = deployment.databases.portal
        with db.count_queries() as counter:
            star, created = deployment.catalog.search("16 Cyg B")
        assert star is not None and not created
        assert counter.count == 1
        assert deployment.simbad.lookups == 0


class TestTelemetryRobustness:
    @pytest.mark.parametrize("stdout", [
        "",                                  # empty reply
        "error: cannot contact server",      # qstat error text on stdout
        "12",                                # depth but no utilisation
        "-3 0.5",                            # negative queue depth
        "7 nan",                             # NaN utilisation
        "7 not-a-float",                     # unparsable utilisation
    ])
    def test_malformed_queue_status_keeps_stale_values(self, deployment,
                                                       stdout):
        from repro.core.models import MachineRecord
        admin = deployment.databases.admin
        deployment.daemon.poll_once()        # publish a clean sample

        def snapshot():
            return {r.name: (r.queue_depth, r.utilisation,
                             r.telemetry_updated)
                    for r in MachineRecord.objects.using(admin).all()}
        before = snapshot()
        clients = deployment.daemon.clients
        original = clients.queue_status
        clients.queue_status = lambda name: CommandResult(
            ["globus-job-run", name, "/usr/bin/qstat", "-Q"],
            EXIT_OK, stdout=stdout)
        try:
            deployment.daemon.poll_once()    # must not raise
        finally:
            clients.queue_status = original
        assert snapshot() == before

    def test_telemetry_timestamp_is_timezone_aware(self, deployment):
        from repro.core.models import MachineRecord
        from repro.hpc import sim_datetime
        deployment.daemon.poll_once()
        record = MachineRecord.objects.using(
            deployment.databases.admin).get(name="kraken")
        stamp = record.telemetry_updated
        assert stamp is not None
        assert stamp.tzinfo is not None
        assert stamp.utcoffset() == datetime.timedelta(0)
        # Stamped from the injected sim clock (not wall clock), so
        # replays are deterministic: the timestamp maps the virtual
        # "now" onto the simulation epoch.
        age = sim_datetime(deployment.clock.now) - stamp
        assert datetime.timedelta(0) <= age < datetime.timedelta(minutes=5)


# ----------------------------------------------------------------------
# Portal pages: statement budgets, rows read, and what they print
# ----------------------------------------------------------------------

@pytest.fixture()
def history(deployment, astronomer):
    """Two owners and 130 simulations spread unevenly over the catalog
    (stars take 0-5 each; every fourth row is still QUEUED)."""
    other = deployment.create_astronomer("woitaszek", password="pw12345")
    stars = list(Star.objects.using(deployment.databases.admin)
                 .order_by("id"))
    assert len(stars) > 25              # /stars/ has a second page
    rows = [Simulation(
        star_id=stars[(index * index) % len(stars)].pk,
        owner_id=(astronomer if index % 3 else other).pk,
        kind=KIND_DIRECT, machine_name="kraken",
        state=SIM_QUEUED if index % 4 == 0 else SIM_DONE,
        parameters={"mass": 1.0}, results={"scalars": {"teff": 5777.0}},
        status_message=f"note {index} <&>")
        for index in range(130)]
    Simulation.objects.using(deployment.databases.admin).bulk_create(rows)
    return deployment


def sql_rows(deployment, sql, params=()):
    """Straight to SQLite, past the ORM under test."""
    return [tuple(row) for row in
            deployment.databases.admin.connection.execute(sql, params)]


def clients(deployment):
    anonymous = Client(deployment.build_portal())
    logged_in = Client(deployment.build_portal())
    assert logged_in.login("metcalfe", "pw12345")
    return {"anonymous": anonymous, "logged in": logged_in}


STAR_ROW = re.compile(
    r'<tr><td><a href="/stars/(\d+)/">([^<]*)</a></td>\s*'
    r'<td>[^<]*</td>\s*<td>(?:yes|no)</td>\s*<td>(\d+)</td></tr>')
STAR_COUNTS = (
    'SELECT s.id, s.name, (SELECT COUNT(*) FROM amp_simulation m '
    'WHERE m.star_id = s.id) FROM amp_star s {where} '
    'ORDER BY s.name LIMIT {limit} OFFSET {offset}')


class TestPortalPages:
    @pytest.mark.parametrize("url, where, limit, offset", [
        ("/stars/", "", 25, 0),
        ("/stars/?page=2", "", 25, 25),
        ("/stars/search/?q=KIC 1", "WHERE s.name LIKE '%KIC 1%'", 50, 0),
    ])
    def test_star_listings_print_the_sql_counts(self, history, url,
                                                where, limit, offset):
        expected = sql_rows(history, STAR_COUNTS.format(
            where=where, limit=limit, offset=offset))
        assert len(expected) > 1
        assert len({count for _, _, count in expected}) > 1
        for who, client in clients(history).items():
            response = client.get(url)
            assert response.status_code == 200, who
            listed = [(int(pk), html.unescape(name), int(count))
                      for pk, name, count
                      in STAR_ROW.findall(response.text)]
            assert listed == expected, who

    def test_home_lists_the_ten_newest_done(self, history):
        expected = sql_rows(
            history,
            "SELECT m.id, s.name FROM amp_simulation m JOIN amp_star s "
            "ON s.id = m.star_id WHERE m.state = 'DONE' "
            "ORDER BY m.id DESC LIMIT 10")
        total, = sql_rows(history, "SELECT COUNT(*) FROM amp_simulation")
        for who, client in clients(history).items():
            text = client.get("/").text
            listed = re.findall(
                r'<li><a href="/simulations/(\d+)/">Direct model run '
                r'#\1 \[DONE\]</a>\s*— ([^<]*)</li>', text)
            assert [(int(pk), html.unescape(name))
                    for pk, name in listed] == expected, who
            assert f"{total[0]} simulations total" in text

    def test_simulation_listing_matches_sql(self, history, astronomer):
        newest = (
            "SELECT m.id, m.kind, s.name, m.state, m.status_message "
            "FROM amp_simulation m JOIN amp_star s ON s.id = m.star_id "
            "{where} ORDER BY m.id DESC LIMIT 50")
        expected = {
            "anonymous": sql_rows(history, newest.format(where="")),
            "logged in": sql_rows(
                history, newest.format(where="WHERE m.owner_id = ?"),
                [astronomer.pk]),
        }
        assert expected["anonymous"] != expected["logged in"]
        for who, client in clients(history).items():
            listed = re.findall(
                r'<tr><td><a href="/simulations/(\d+)/">#\1\s*'
                r'\(([^)]*)\)</a></td>\s*<td>([^<]*)</td><td>([^<]*)</td>'
                r'\s*<td>([^<]*)</td></tr>', client.get("/simulations/").text)
            assert [(int(pk), kind, html.unescape(name), state,
                     html.unescape(note))
                    for pk, kind, name, state, note in listed] \
                == expected[who], who

    def test_my_simulations_uses_the_owner_index(self, history,
                                                 astronomer):
        mine = (Simulation.objects.using(history.databases.portal)
                .order_by("-id").select_related("star")
                .defer("results", "parameters", "config")
                .filter(owner_id=astronomer.pk)[:50])
        sql, params, _ = mine._build_select()
        plan = " ".join(row[-1] for row in sql_rows(
            history, "EXPLAIN QUERY PLAN " + sql, params))
        assert "USING INDEX idx_amp_simulation_owner_id" in plan, plan
        assert "TEMP B-TREE" not in plan, plan      # index order is -id

    @pytest.mark.parametrize("url", ["/", "/stars/", "/stars/?page=2"])
    def test_statement_budget(self, history, url):
        db = history.databases.portal
        for who, client in clients(history).items():
            client.get(url)
            with db.count_queries() as counter:
                assert client.get(url).status_code == 200
            assert counter.count <= 5, (who, repr(counter))

    def test_star_list_rows_do_not_grow_with_simulations(
            self, history, astronomer, monkeypatch):
        """The page prints 25 counts: a star gaining 500 simulations
        changes one of the numbers, not how many rows are hydrated."""
        hydrated = []
        fetch = QuerySet._fetch

        def counting_fetch(queryset):
            fresh = queryset._result_cache is None
            rows = fetch(queryset)
            if fresh:
                hydrated.append(len(rows))
            return rows

        monkeypatch.setattr(QuerySet, "_fetch", counting_fetch)
        client = clients(history)["logged in"]
        db = history.databases.portal

        def read():
            del hydrated[:]
            with db.count_queries() as counter:
                text = client.get("/stars/").text
            return sum(hydrated), counter.count, text

        rows_before, statements_before, _ = read()
        first = Star.objects.using(history.databases.admin).order_by(
            "name").first()
        had = first.simulations.count()
        Simulation.objects.using(history.databases.admin).bulk_create([
            Simulation(star_id=first.pk, owner_id=astronomer.pk,
                       kind=KIND_DIRECT, machine_name="kraken",
                       parameters={"mass": 1.0}) for _ in range(500)])
        rows_after, statements_after, text = read()
        assert int(STAR_ROW.search(text).group(3)) == had + 500
        assert rows_after == rows_before <= 30
        assert statements_after == statements_before


# ----------------------------------------------------------------------
# Warm path: every statement is a compiled-cache hit
# ----------------------------------------------------------------------

class TestWarmPathCompilesNothing:
    """The second time a page or a poll runs, each of its statements is
    one walk of its conditions and one cache probe: none is compiled
    again, whichever kind of statement it is (a ``GROUP BY`` on
    ``/stars/``, aggregates on ``/statistics/``)."""

    @pytest.mark.parametrize("url", [
        "/", "/stars/", "/stars/1/", "/simulations/", "/simulations/5/",
        "/statistics/", "/api/v1/simulations", "/api/suggest/?q=16"])
    def test_second_get_is_all_hits(self, history, url):
        client = clients(history)["logged in"]
        assert client.get(url).status_code == 200
        before = compiled_cache.stats()
        with history.databases.portal.count_queries() as counter:
            assert client.get(url).status_code == 200
        after = compiled_cache.stats()
        assert counter.count >= 3, repr(counter)
        assert after["hits"] - before["hits"] == counter.count, repr(counter)
        assert after["compiles"] == before["compiles"]

    def test_warm_scan_poll_is_all_hits(self, deployment, astronomer):
        for _ in range(50):
            submit_direct(deployment, astronomer)
        for _ in range(4):
            deployment.daemon.poll_once()
        before = compiled_cache.stats()
        with deployment.databases.daemon.count_queries() as counter:
            deployment.daemon.poll_once()
        after = compiled_cache.stats()
        selects = counter.by_operation["select"]
        assert selects >= 5, repr(counter)
        assert after["hits"] - before["hits"] == selects, repr(counter)
        assert after["compiles"] == before["compiles"]
