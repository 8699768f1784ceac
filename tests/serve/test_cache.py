"""Unit tests for the two-layer tag-versioned cache."""

import pytest

from repro.hpc.simclock import SimClock
from repro.serve import (InMemorySharedStore, PortalCache,
                         SqliteSharedStore)


@pytest.fixture()
def clock():
    return SimClock()


def test_read_through_computes_once(clock, obs):
    cache = PortalCache(clock, obs=obs)
    calls = []

    def loader():
        calls.append(1)
        return "page"

    assert cache.read_through("k", loader, ttl=60) == "page"
    assert cache.read_through("k", loader, ttl=60) == "page"
    assert len(calls) == 1


def test_write_during_render_is_not_pinned_stale(clock, obs):
    """A write that bumps a tag while the loader renders must leave
    the stored entry stale: versions are snapshotted pre-render, so
    the next read re-renders instead of serving pre-write content
    until the TTL."""
    cache = PortalCache(clock, obs=obs)

    def loader():
        cache.invalidate({"sims"})      # the interleaved write
        return "pre-write page"

    assert cache.read_through("k", loader, tags={"sims"},
                              ttl=600) == "pre-write page"
    assert cache.get("k") is None       # already stale, not pinned


def test_ttl_expires_against_the_clock(clock, obs):
    cache = PortalCache(clock, obs=obs)
    cache.set("k", "v", ttl=30)
    assert cache.get("k") == "v"
    clock.advance(31)
    assert cache.get("k") is None


def test_l1_lru_evicts_oldest(clock, obs):
    cache = PortalCache(clock, obs=obs, l1_capacity=2)
    cache.set("a", 1, ttl=600)
    cache.set("b", 2, ttl=600)
    cache.get("a")            # refresh a
    cache.set("c", 3, ttl=600)
    assert cache.l1_entries == 2
    # b was least recently used; it fell out of L1 but survives in L2.
    assert cache.get("b") == 2


def test_tag_invalidation_is_targeted(clock, obs):
    cache = PortalCache(clock, obs=obs)
    cache.set("sim-page", "s", tags={"sim:1", "sims"}, ttl=600)
    cache.set("star-page", "t", tags={"star:7"}, ttl=600)
    cache.invalidate({"sim:1"})
    assert cache.get("sim-page") is None
    assert cache.get("star-page") == "t"


def test_shared_tag_invalidation_crosses_instances(clock, obs):
    """A 'write' seen by one worker's cache makes every other worker's
    L1 copy stale — the tag version lives in the shared store."""
    shared = InMemorySharedStore()
    worker_a = PortalCache(clock, obs=obs, shared=shared)
    worker_b = PortalCache(clock, obs=obs, shared=shared)
    worker_a.set("k", "v", tags={"sims"}, ttl=600)
    assert worker_b.get("k") == "v"     # promoted into b's L1
    worker_a.invalidate({"sims"})
    assert worker_b.get("k") is None    # b's L1 copy fails the check
    assert worker_a.get("k") is None


def test_sqlite_store_round_trips_entries(tmp_path, clock, obs):
    shared = SqliteSharedStore(str(tmp_path / "cache.sqlite"))
    cache = PortalCache(clock, obs=obs, shared=shared)
    frozen = (200, b"<html>ok</html>", {"Content-Type": "text/html"})
    cache.set("page", frozen, tags={"stars"}, ttl=600)

    # A second process (modelled as a second store on the same file).
    shared2 = SqliteSharedStore(str(tmp_path / "cache.sqlite"))
    other = PortalCache(clock, obs=obs, shared=shared2)
    assert other.get("page") == frozen
    cache.invalidate({"stars"})
    assert other.get("page") is None
    shared.close()
    shared2.close()


def test_sqlite_store_prunes_expired_and_caps_size(tmp_path, clock, obs):
    """The shared file does not grow without bound: expired rows are
    swept and the table is capped, soonest-to-expire evicted first."""
    shared = SqliteSharedStore(str(tmp_path / "cache.sqlite"),
                               capacity=4)
    cache = PortalCache(clock, obs=obs, shared=shared)
    for i in range(8):
        cache.set(f"short{i}", i, ttl=10)
    clock.advance(11)
    assert shared.prune(clock.now, force=True) == 8
    count = shared._connection().execute(
        "SELECT COUNT(*) FROM cache_entries").fetchone()[0]
    assert count == 0
    for i in range(8):                   # fresh entries over capacity
        cache.set(f"fresh{i}", i, ttl=600)
    shared.prune(clock.now, force=True)
    count = shared._connection().execute(
        "SELECT COUNT(*) FROM cache_entries").fetchone()[0]
    assert count == 4
    assert shared.evictions >= 4
    shared.close()


def test_sqlite_prune_is_amortised_over_sets(tmp_path, clock, obs):
    shared = SqliteSharedStore(str(tmp_path / "cache.sqlite"))
    cache = PortalCache(clock, obs=obs, shared=shared)
    cache.set("k0", "v", ttl=5)
    clock.advance(6)
    # Under PRUNE_EVERY sets: the expired row may linger...
    for i in range(SqliteSharedStore.PRUNE_EVERY):
        cache.set(f"k{i + 1}", "v", ttl=600)
    # ...but a full window of writes guarantees a sweep ran.
    count = shared._connection().execute(
        "SELECT COUNT(*) FROM cache_entries WHERE key = 'k0'"
    ).fetchone()[0]
    assert count == 0
    shared.close()


def test_model_write_purges_via_signals(deployment, astronomer):
    """An ORM save through any role connection bumps the right tags."""
    from repro.serve import PortalCache
    from tests.core.conftest import submit_direct
    cache = PortalCache(deployment.clock,
                        obs=deployment.obs).connect_invalidation()
    try:
        cache.set("list", "page", tags={"sims"}, ttl=600)
        cache.set("suggest", "names", tags={"star-suggest"}, ttl=600)
        submit_direct(deployment, astronomer)
        assert cache.get("list") is None
        assert cache.get("suggest") == "names"
    finally:
        cache.close()


def test_disconnected_cache_ignores_writes(deployment, astronomer):
    from repro.serve import PortalCache
    from tests.core.conftest import submit_direct
    cache = PortalCache(deployment.clock,
                        obs=deployment.obs).connect_invalidation()
    cache.close()
    cache.set("list", "page", tags={"sims"}, ttl=600)
    submit_direct(deployment, astronomer)
    assert cache.get("list") == "page"


def test_hit_miss_counters(deployment):
    obs = deployment.obs
    cache = PortalCache(deployment.clock, obs=obs)
    cache.get("k", route="sim-list")             # miss
    cache.set("k", "v", tags={"sims"}, ttl=600)
    cache.get("k", route="sim-list")             # hit (l1)
    metrics = obs.metrics
    assert metrics.value("serve_cache_misses_total",
                         route="sim-list") == 1
    assert metrics.value("serve_cache_hits_total",
                         route="sim-list", layer="l1") == 1
    # The counters are part of /metrics exposition.
    text = metrics.render_prometheus()
    assert "serve_cache_hits_total" in text
    assert "serve_cache_l1_entries" in text
