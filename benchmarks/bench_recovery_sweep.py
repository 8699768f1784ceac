"""Recovery sweep cost: cold-start reconciliation over a 200-op backlog.

A daemon that died mid-call leaves uncommitted INTENT entries in the
operation journal; the next boot must resolve every one against the
fabric before polling resumes.  This bench pins the two properties that
make that sweep safe to run on every start: the database round trips
are bounded (set-oriented access, flat in the backlog size) and the
wall time of a 200-op cold start stays under twice a normal poll.
"""

import time

from repro.analysis.reporting import format_table
from repro.core import OperationRecord, Simulation, idempotency_key
from repro.core.models import (JOURNAL_INTENT, JOURNAL_OP_SUBMIT,
                               KIND_DIRECT)

from .conftest import fresh_deployment


def _submit_direct(deployment, user, index):
    star, _ = deployment.catalog.search("16 Cyg B")
    sim = Simulation(
        star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
        machine_name="kraken",
        parameters={"mass": 1.0 + (index % 40) * 0.005, "z": 0.02,
                    "y": 0.27, "alpha": 2.0, "age": 5.0})
    sim.save(db=deployment.databases.portal)
    return sim


def _forge_intents(deployment, sims, count, tag):
    """Leave *count* journal entries as a crashed daemon would: INTENT
    written, side effect never issued (the fabric holds no job with the
    entry's clientTag), so reconciliation must classify every one."""
    clock = deployment.clock
    entries = []
    for i in range(count):
        sim = sims[i % len(sims)]
        phase = f"{tag}-{i}"
        entries.append(OperationRecord(
            simulation_id=sim.pk, op=JOURNAL_OP_SUBMIT, phase=phase,
            attempt=1, idempotency_key=idempotency_key(sim.pk, phase, 1),
            resource="kraken", state=JOURNAL_INTENT, intent_at=clock.now,
            purpose="MODEL", service="batch",
            rsl=f"&(executable=/usr/local/amp/amp.sh)"
                f"(clientTag={idempotency_key(sim.pk, phase, 1)})"))
    OperationRecord.objects.using(
        deployment.databases.admin).bulk_create(entries)


def _timed_restart(deployment):
    db = deployment.databases.daemon
    with db.count_queries() as counter:
        start = time.perf_counter()
        daemon = deployment.restart_daemon()
        elapsed = time.perf_counter() - start
    return daemon, counter.count, elapsed


def test_cold_start_reconciliation(benchmark):
    """200 uncommitted ops: bounded queries, < 2x a normal poll."""
    deployment = fresh_deployment()
    user = deployment.create_astronomer("sweep", password="pw12345")
    sims = [_submit_direct(deployment, user, i) for i in range(100)]
    for _ in range(2):          # QUEUED -> PREJOB -> steady state
        deployment.clock.advance(900)
        deployment.daemon.poll_once()

    # Baseline: a normal poll over the 100 active simulations.
    poll_times = []
    for _ in range(3):
        deployment.clock.advance(900)
        start = time.perf_counter()
        deployment.daemon.poll_once()
        poll_times.append(time.perf_counter() - start)
    poll_s = sum(poll_times) / len(poll_times)

    rows = []
    results = {}
    for backlog in (50, 200):
        _forge_intents(deployment, sims, backlog, f"crash{backlog}")
        if backlog == 200:
            daemon, queries, sweep_s = benchmark.pedantic(
                _timed_restart, args=(deployment,),
                rounds=1, iterations=1)
        else:
            daemon, queries, sweep_s = _timed_restart(deployment)
        summary = daemon.last_recovery
        assert summary["intents"] == backlog
        assert summary["reissued"] == backlog
        assert summary["held"] == 0
        results[backlog] = (queries, sweep_s)
        rows.append([backlog, queries, f"{sweep_s * 1e3:.1f}",
                     f"{sweep_s / poll_s:.2f}x"])

    print("\nCold-start reconciliation sweep "
          f"(normal poll: {poll_s * 1e3:.1f} ms):")
    print(format_table(
        ["backlog ops", "queries", "sweep ms", "vs poll"], rows))

    # Set-oriented access: the reads are flat in the backlog (one
    # SELECT for intents, one per prefetch, plus breaker/retry
    # restoration); only the bulk settle grows, one UPDATE per
    # parameter-budget chunk of ~69 rows — never one query per op.
    assert results[200][0] - results[50][0] <= 2
    assert results[200][0] <= 15
    assert results[200][0] < 200 // 10
    # The 200-op cold start costs less than two normal polls.
    assert results[200][1] < 2 * poll_s
    # Nothing is left behind: the journal is fully settled and no
    # simulation stays frozen.
    leftover = OperationRecord.objects.using(
        deployment.databases.admin).filter(state=JOURNAL_INTENT).count()
    assert leftover == 0
    assert not deployment.daemon.journal.blocked
