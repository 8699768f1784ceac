"""Data-tier bench — one connection per role, and the compiled-query
cache.

Two claims:

1. **Reader throughput under a writing daemon.**  Readers that share
   the writer's ``Database`` object serialize behind its transaction on
   that object's lock.  The default topology gives each role its own
   connection (WAL on file stores), so ``portal`` reads through an open
   ``daemon`` transaction: at least **2x** the reads per second.  What
   is measured is separate role connections vs one shared connection
   object — nothing more.

2. **Compiled-query cache.**  On a 50-simulation poll sweep every
   statement shape compiles exactly once (``compiles == misses ==
   size``, and exactly ``SWEEP_SHAPES`` of them); a second sweep over
   fresh simulations and the steady state compile no SQL at all —
   string assembly leaves the hot path entirely.
"""

import threading
import time as wall

from repro.core import Simulation
from repro.webstack.orm import (Database, DeploymentDatabases,
                                compiled_cache, create_all)

from tests.webstack.conftest import MODELS, Author
from tests.webstack.test_db_router import make_roles
from .conftest import fresh_deployment


# ----------------------------------------------------------------------
# 1. Reader throughput while a daemon writes
# ----------------------------------------------------------------------

HOLD_S = 0.8             # how long the daemon's transaction stays open
N_READERS = 4


def _drive(read_db, write_db, *, n_rows=50):
    """Reads completed while one daemon write transaction is open.

    The daemon's poll cycle does real work inside its write
    transactions; the portal's fate during those windows is the whole
    story.  Sharing the writer's connection object, every read blocks
    on its lock until COMMIT; on its own role connection a reader
    never sees the writer's lock at all.
    """
    for n in range(n_rows):
        Author.objects.using(write_db).create(name=f"seed-{n}")
    txn_open = threading.Event()
    committed = threading.Event()
    reads = [0] * N_READERS
    errors = []

    def writer():
        try:
            with write_db.atomic():
                Author.objects.using(write_db).create(name="held")
                txn_open.set()
                wall.sleep(HOLD_S)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            txn_open.set()
            committed.set()

    def reader(slot):
        try:
            txn_open.wait(timeout=10)
            while not committed.is_set():
                Author.objects.using(read_db).count()
                reads[slot] += 1
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(N_READERS)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    return sum(reads)


def test_reader_throughput_scales_past_the_writing_daemon(
        benchmark, tmp_path):
    roles = make_roles()

    # Baseline (bench-only): one connection object, every reader and
    # the writer contending on its lock.
    single = Database(str(tmp_path / "single.db"), role="admin",
                      roles=roles)
    create_all(MODELS, single)
    baseline_reads = _drive(single, single)
    single.close()

    # The default topology: portal reads on its own connection while
    # the daemon's connection holds the transaction.
    databases = DeploymentDatabases(roles,
                                    uri=str(tmp_path / "per_role.db"))
    create_all(MODELS, databases.admin)
    per_role_reads = [0]

    def per_role_run():
        per_role_reads[0] = _drive(databases.portal, databases.daemon)

    benchmark.pedantic(per_role_run, rounds=1, iterations=1)
    databases.close()

    ratio = per_role_reads[0] / max(1, baseline_reads)
    print(f"\nreads completed while a daemon write transaction stays "
          f"open ({HOLD_S:.1f}s hold, {N_READERS} readers):")
    print(f"  single shared connection : "
          f"{baseline_reads / HOLD_S:8.0f} reads/s")
    print(f"  one connection per role  : "
          f"{per_role_reads[0] / HOLD_S:8.0f} reads/s")
    print(f"  speedup                  : {ratio:8.1f}x  (claim: >= 2x)")
    assert ratio >= 2.0, (
        f"per-role reader throughput only {ratio:.2f}x the "
        f"single-connection baseline")


# ----------------------------------------------------------------------
# 2. Compiled-query cache on the 50-sim poll sweep
# ----------------------------------------------------------------------

#: The statement shapes a direct simulation's life meets from submit
#: to DONE.  The set-oriented work poll looks each one up once per
#: step, not once per simulation, so a hit rate over this sweep
#: measures the lookups around the shapes, not the cache.
SWEEP_SHAPES = 16

def _submit_sweep(deployment):
    """A deployment with the sweep's 50 direct simulations submitted."""
    user = deployment.create_astronomer("sweep")
    star, _ = deployment.catalog.search("18 Sco")
    for index in range(50):
        Simulation(
            star_id=star.pk, owner_id=user.pk, kind="direct",
            machine_name="kraken",
            parameters={"mass": 0.9 + index * 0.005, "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6},
        ).save(db=deployment.databases.portal)
    return deployment


def test_compiled_cache_hit_rate_on_poll_sweep(benchmark):
    deployment = _submit_sweep(fresh_deployment())
    compiled_cache.clear()

    def sweep():
        deployment.run_daemon_until_idle(poll_interval_s=300.0)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    stats = compiled_cache.stats()
    print(f"\ncompiled-query cache over the 50-sim poll sweep:")
    print(f"  hits {stats['hits']}  misses {stats['misses']}  "
          f"compiles {stats['compiles']}  shapes {stats['size']}")
    print(f"  hit rate: {stats['hit_rate']:.1%}")
    # Every shape the sweep meets compiles exactly once, and the sweep
    # meets exactly its SWEEP_SHAPES: a shape that recompiles, or a
    # new one, fails here whatever the number of lookups around it.
    assert stats["compiles"] == stats["misses"] == stats["size"] \
        == SWEEP_SHAPES

    # The same sweep again, on a second deployment, finds every shape
    # compiled: it compiles nothing.
    twin = _submit_sweep(fresh_deployment())
    before = compiled_cache.stats()["compiles"]
    twin.run_daemon_until_idle(poll_interval_s=300.0)
    after = compiled_cache.stats()["compiles"]
    print(f"  second sweep compiles: {after - before} (claim: 0)")
    assert after == before
    twin.close()

    # Steady state: once every shape of the poll loop has been seen,
    # a further poll compiles no SQL at all.
    deployment.clock.advance(300.0)
    deployment.daemon.poll_once()
    before = compiled_cache.stats()["compiles"]
    deployment.clock.advance(300.0)
    deployment.daemon.poll_once()
    after = compiled_cache.stats()["compiles"]
    print(f"  steady-state compiles per poll: {after - before} "
          f"(claim: 0)")
    assert after == before

    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()
