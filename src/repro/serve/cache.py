"""Read-through response cache with tag-versioned write invalidation.

The serving tier's answer to "fetch once, serve many" (the JHU/SDSS
batch-access argument): catalog, star, feed, and statistics pages are
rendered once and then served from cache until either their TTL lapses
or a *write* to the rows they render from invalidates them.

Two layers, one correctness scheme:

- **L1** — a per-worker in-process LRU holding ready-to-send response
  tuples.  Fast path: a dict hit plus a tag-version check.
- **L2** — a shared store every worker can reach.  In-process
  deployments use :class:`InMemorySharedStore`; the prefork runner can
  point every worker at one :class:`SqliteSharedStore` file.

Invalidation never enumerates keys.  Every cached entry records the
*versions* of the tags it depends on (``sim:42``, ``stars``, ``stats``,
...); a write bumps the affected tags' versions in the shared store,
and any entry — in any worker's L1 or in L2 — whose recorded versions
lag the current ones is stale and treated as a miss on its next read.
That makes a purge O(tags bumped) rather than O(entries cached), and
makes it *targeted*: a write to simulation 42 leaves star pages, the
suggest endpoint, and every other simulation's detail page warm.

The model→tags map lives in :data:`MODEL_INVALIDATION`; receivers are
connected to the ORM's ``post_save``/``post_delete`` signals, so a
write through *any* role connection — portal form POST, daemon poll,
admin edit — purges the same keys.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict

#: Seconds past expiry a cached page stays servable as *stale* (the
#: brownout's raw material): :meth:`PortalCache.get_stale` serves it and
#: :meth:`SqliteSharedStore.prune` keeps its row that long.
STALE_GRACE_S = 300.0


class CacheEntry:
    """One cached value plus the metadata that decides its freshness."""

    __slots__ = ("value", "expires_at", "tag_versions")

    def __init__(self, value, expires_at, tag_versions):
        self.value = value
        self.expires_at = expires_at
        self.tag_versions = dict(tag_versions)


class InMemorySharedStore:
    """Thread-safe shared cache store: LRU entries + tag versions.

    "Shared" here means shared between every consumer holding a
    reference — the portal's request threads and the daemon's
    invalidation receivers in an in-process deployment.
    """

    def __init__(self, capacity=2048):
        self.capacity = int(capacity)
        self._entries = OrderedDict()
        self._tag_versions = {}
        self._lock = threading.Lock()
        self.evictions = 0

    # -- entries -------------------------------------------------------
    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def set(self, key, entry):
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def delete(self, key):
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self):
        return len(self._entries)

    # -- tag versions --------------------------------------------------
    def tag_versions(self, tags):
        with self._lock:
            return {tag: self._tag_versions.get(tag, 0) for tag in tags}

    def bump_tags(self, tags):
        with self._lock:
            for tag in tags:
                self._tag_versions[tag] = \
                    self._tag_versions.get(tag, 0) + 1


class SqliteSharedStore:
    """File-backed shared store for cross-process (prefork) serving.

    Each worker process opens its own connection to one cache file;
    entries are pickled response tuples.  Tag versions live in their
    own table, so the L1 freshness check is one tiny indexed SELECT.

    The file is kept bounded by :meth:`prune` (called by
    :meth:`PortalCache.set`, amortised over writes): expired rows are
    deleted and the table is capped at *capacity* entries — without
    it, unique-query anonymous traffic would grow the file without
    bound, since an expired row is otherwise only removed when that
    exact key is read again.
    """

    #: ``set`` calls between prune sweeps (amortises the DELETEs).
    PRUNE_EVERY = 64

    def __init__(self, path, capacity=8192):
        self.path = path
        self.capacity = int(capacity)
        self._local = threading.local()
        self.evictions = 0
        self._sets_since_prune = 0
        self._connection().executescript(
            "CREATE TABLE IF NOT EXISTS cache_entries ("
            " key TEXT PRIMARY KEY, value BLOB, expires_at REAL,"
            " tag_versions BLOB);"
            "CREATE TABLE IF NOT EXISTS cache_tags ("
            " tag TEXT PRIMARY KEY, version INTEGER NOT NULL);")

    def _connection(self):
        import sqlite3
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path, check_same_thread=False,
                                   timeout=5.0)
            conn.isolation_level = None   # autocommit; single statements
            self._local.conn = conn
        return conn

    def close(self):
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def get(self, key):
        row = self._connection().execute(
            "SELECT value, expires_at, tag_versions FROM cache_entries"
            " WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        return CacheEntry(pickle.loads(row[0]), row[1],
                          pickle.loads(row[2]))

    def set(self, key, entry):
        self._connection().execute(
            "INSERT OR REPLACE INTO cache_entries"
            " (key, value, expires_at, tag_versions) VALUES (?, ?, ?, ?)",
            (key, pickle.dumps(entry.value), entry.expires_at,
             pickle.dumps(entry.tag_versions)))

    def delete(self, key):
        self._connection().execute(
            "DELETE FROM cache_entries WHERE key = ?", (key,))

    def prune(self, now, *, force=False):
        """Drop rows past expiry plus :data:`STALE_GRACE_S` (younger
        ones may still be served stale) and cap the table; returns rows
        removed.

        Runs a real sweep only every :data:`PRUNE_EVERY` calls (every
        call on ``force=True``); when over *capacity* afterwards, the
        soonest-to-expire entries are evicted first.
        """
        self._sets_since_prune += 1
        if not force and self._sets_since_prune < self.PRUNE_EVERY:
            return 0
        self._sets_since_prune = 0
        conn = self._connection()
        removed = conn.execute(
            "DELETE FROM cache_entries WHERE expires_at <= ?",
            (now - STALE_GRACE_S,)).rowcount
        excess = conn.execute(
            "SELECT COUNT(*) FROM cache_entries").fetchone()[0] \
            - self.capacity
        if excess > 0:
            conn.execute(
                "DELETE FROM cache_entries WHERE key IN ("
                " SELECT key FROM cache_entries"
                " ORDER BY expires_at LIMIT ?)", (excess,))
            removed += excess
        self.evictions += max(0, removed)
        return removed

    def tag_versions(self, tags):
        tags = list(tags)
        if not tags:
            return {}
        marks = ", ".join("?" for _ in tags)
        rows = self._connection().execute(
            f"SELECT tag, version FROM cache_tags WHERE tag IN ({marks})",
            tags).fetchall()
        found = dict(rows)
        return {tag: found.get(tag, 0) for tag in tags}

    def bump_tags(self, tags):
        """Bump every tag in one transaction: a reader sees all of a
        write's invalidation or none of it, and the file syncs once."""
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT INTO cache_tags (tag, version) VALUES (?, 1)"
                " ON CONFLICT(tag) DO UPDATE SET version = version + 1",
                ((tag,) for tag in tags))
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise


class PortalCache:
    """The two-layer read-through cache one serving process uses.

    Parameters
    ----------
    clock:
        Object with a ``now`` attribute (the deployment's
        :class:`~repro.hpc.simclock.SimClock`, or a wall-clock shim in
        the prefork runner).  TTLs are measured against it.
    shared:
        The cross-worker store (defaults to a private
        :class:`InMemorySharedStore`).
    l1_capacity:
        Entries held in this process's L1 LRU.
    obs:
        The :class:`~repro.obs.Observability` facade; hit/miss/
        eviction/invalidation counters land in its metrics registry.

    An entry stays *servable as stale* via :meth:`get_stale`
    (stale-while-revalidate / serve-stale-on-error) for
    :data:`STALE_GRACE_S` past its expiry.
    """

    def __init__(self, clock, *, obs, shared=None, l1_capacity=256):
        self.clock = clock
        self.shared = shared if shared is not None \
            else InMemorySharedStore()
        self.l1_capacity = int(l1_capacity)
        self._l1 = OrderedDict()
        self._lock = threading.Lock()
        self.obs = obs
        self._receivers = []

    # -- metrics -------------------------------------------------------
    def _count(self, name, **labels):
        helps = {
            "serve_cache_hits_total":
                "Cache hits by route and layer (l1/l2)",
            "serve_cache_misses_total":
                "Cache misses (cold or invalidated) by route",
            "serve_cache_evictions_total":
                "L1 LRU evictions",
            "serve_cache_invalidations_total":
                "Tag bumps by tag kind",
            "serve_cache_stale_hits_total":
                "Expired entries served during degraded mode or in "
                "place of an error, by route",
        }
        self.obs.metrics.counter(name, help=helps.get(name, "")).labels(
            **labels).inc()

    def _gauge_entries(self):
        self.obs.metrics.gauge(
            "serve_cache_l1_entries",
            help="Entries currently in this worker's L1").set(
            len(self._l1))

    # -- core protocol -------------------------------------------------
    def _fresh(self, entry):
        if entry is None:
            return False
        if entry.expires_at <= self.clock.now:
            return False
        if entry.tag_versions:
            current = self.shared.tag_versions(entry.tag_versions)
            for tag, version in entry.tag_versions.items():
                if current.get(tag, 0) != version:
                    return False
        return True

    def _within_grace(self, entry):
        """May *entry* still be served as stale?  Expiry plus grace is
        the only bound — a stale serve deliberately ignores tag
        versions, because during a brownout "recent" beats "nothing"."""
        return self.clock.now <= entry.expires_at + STALE_GRACE_S

    def get(self, key, route="<anon>"):
        """Fresh cached value for *key*, or None (counting the miss)."""
        with self._lock:
            entry = self._l1.get(key)
            if entry is not None:
                self._l1.move_to_end(key)
        if self._fresh(entry):
            self._count("serve_cache_hits_total", route=route,
                        layer="l1")
            return entry.value
        if entry is not None and not self._within_grace(entry):
            with self._lock:
                self._l1.pop(key, None)
        entry = self.shared.get(key)
        if self._fresh(entry):
            with self._lock:    # promote to L1
                self._l1[key] = entry
                self._evict_l1()
            self._gauge_entries()
            self._count("serve_cache_hits_total", route=route,
                        layer="l2")
            return entry.value
        if entry is not None and not self._within_grace(entry):
            self.shared.delete(key)
        self._count("serve_cache_misses_total", route=route)
        return None

    def get_stale(self, key, route="<anon>"):
        """Best recent value for *key*, fresh or not, within the stale
        grace window — or None.

        The degraded-mode read: TTL expiry and tag invalidation are
        both ignored (a superseded page from minutes ago is still the
        honest best answer while the database is down); only entries
        older than ``expires_at + STALE_GRACE_S`` are refused.  Counts
        a stale hit only when the entry would *not* have been served
        by :meth:`get`.
        """
        with self._lock:
            entry = self._l1.get(key)
        if entry is None:
            entry = self.shared.get(key)
        if entry is None:
            return None
        if self._fresh(entry):
            return entry.value
        if not self._within_grace(entry):
            return None
        self._count("serve_cache_stale_hits_total", route=route)
        return entry.value

    def set(self, key, value, *, tags=(), ttl=60.0, tag_versions=None):
        """Store *value* under *key*, pinned to tag versions.

        ``tag_versions`` is the snapshot taken *before* the value was
        rendered (see :meth:`read_through`); when omitted, the current
        versions are read — only safe when no time passed between
        rendering and storing.
        """
        if tag_versions is None:
            tag_versions = self.shared.tag_versions(tags)
        entry = CacheEntry(value, self.clock.now + ttl, tag_versions)
        self.shared.set(key, entry)
        prune = getattr(self.shared, "prune", None)
        if prune is not None:
            prune(self.clock.now)
        with self._lock:
            self._l1[key] = entry
            self._l1.move_to_end(key)
            self._evict_l1()
        self._gauge_entries()

    def _evict_l1(self):
        while len(self._l1) > self.l1_capacity:
            self._l1.popitem(last=False)
            self._count("serve_cache_evictions_total", layer="l1")

    def read_through(self, key, loader, *, tags=(), ttl=60.0,
                     route="<anon>"):
        """``get`` or compute-and-``set``: the canonical usage.

        Tag versions are snapshotted *before* the loader runs: a write
        that commits while the value renders bumps a tag past the
        snapshot, so the entry stored here is already stale and the
        next read re-renders — the loader's result can never be pinned
        to post-write versions.
        """
        value = self.get(key, route=route)
        if value is None:
            versions = self.shared.tag_versions(tags)
            value = loader()
            self.set(key, value, tags=tags, ttl=ttl,
                     tag_versions=versions)
        return value

    def invalidate(self, tags):
        """Bump *tags*: every entry depending on any of them is stale."""
        tags = set(tags)
        if not tags:
            return
        self.shared.bump_tags(tags)
        for tag in sorted(tags):
            kind = tag.split(":", 1)[0]
            self._count("serve_cache_invalidations_total", kind=kind)

    @property
    def l1_entries(self):
        return len(self._l1)

    # -- model-write invalidation --------------------------------------
    def connect_invalidation(self):
        """Subscribe to ORM write signals; call :meth:`close` to undo."""
        from ..webstack.signals import post_delete, post_save

        def on_save(sender, instance=None, instances=None, **kwargs):
            self._on_write(sender, instance, instances)

        def on_delete(sender, instance=None, instances=None, **kwargs):
            self._on_write(sender, instance, instances)

        post_save.connect(on_save)
        post_delete.connect(on_delete)
        self._receivers = [(post_save, on_save), (post_delete, on_delete)]
        return self

    def close(self):
        for signal, receiver in self._receivers:
            signal.disconnect(receiver)
        self._receivers = []
        close = getattr(self.shared, "close", None)
        if close is not None:
            close()

    def _on_write(self, sender, instance, instances):
        rule = MODEL_INVALIDATION.get(getattr(sender, "__name__", None))
        if rule is None:
            return
        instance_tags, coarse_tags = rule
        if instance is not None:
            self.invalidate(instance_tags(instance))
        elif instances:
            tags = set()
            for obj in instances:
                tags |= instance_tags(obj)
            self.invalidate(tags)
        else:
            # Set-oriented write with no rows in hand (queryset
            # ``update``/``delete``): bump the model-wide tags, which
            # detail pages carry alongside their per-entity tag.
            self.invalidate(coarse_tags)


# ----------------------------------------------------------------------
# What a write to each model makes stale.
#
# Per-entity tags (``sim:42``) keep invalidation targeted; the
# ``*-wide`` tags exist only so that set-oriented writes without
# instances can still reach detail pages conservatively.
# ----------------------------------------------------------------------

def _simulation_tags(sim):
    tags = {"sims", "stats", "home", "stars"}
    if sim.pk is not None:
        tags.add(f"sim:{sim.pk}")
    star_id = getattr(sim, "star_id", None)
    if star_id:
        tags.add(f"star:{star_id}")
    owner_id = getattr(sim, "owner_id", None)
    if owner_id:
        tags.add(f"user-sims:{owner_id}")
    campaign_id = getattr(sim, "campaign_id", None)
    if campaign_id:
        tags.add(f"campaign:{campaign_id}")
    return tags


def _star_tags(star):
    tags = {"stars", "star-suggest", "home", "stats"}
    if star.pk is not None:
        tags.add(f"star:{star.pk}")
    return tags


def _observation_tags(observation):
    star_id = getattr(observation, "star_id", None)
    return {f"star:{star_id}"} if star_id else {"star-wide"}


def _campaign_tags(campaign):
    return {f"campaign:{campaign.pk}"} if campaign.pk is not None \
        else set()


def _telemetry_tags(_record):
    return {"stats"}


MODEL_INVALIDATION = {
    # model name -> (per-instance tags, coarse tags for row-less writes)
    "Simulation": (_simulation_tags,
                   {"sims", "sim-wide", "stats", "home", "stars",
                    "star-wide", "user-sims-wide"}),
    "Star": (_star_tags,
             {"stars", "star-wide", "star-suggest", "home", "stats"}),
    "ObservationSet": (_observation_tags, {"star-wide"}),
    "CampaignRecord": (_campaign_tags, {"campaign-wide"}),
    # Daemon telemetry and ledger rows feed only the statistics digest.
    "MachineRecord": (_telemetry_tags, {"stats"}),
    "AllocationRecord": (_telemetry_tags, {"stats"}),
    "ReservationRecord": (_telemetry_tags, {"stats"}),
    "LeaseRecord": (_telemetry_tags, {"stats"}),
}


# ----------------------------------------------------------------------
# Route-level read-through: which portal pages are cacheable, for how
# long, and which tags they depend on.
# ----------------------------------------------------------------------

class CacheRule:
    """TTL + tag builder for one cacheable route."""

    __slots__ = ("ttl", "tags")

    def __init__(self, ttl, tags):
        self.ttl = float(ttl)
        self.tags = tags     # callable(view kwargs) -> set of tags


def _kw(tag_format, extra=()):
    def build(kwargs):
        tags = {tag_format.format(**kwargs)}
        tags.update(extra)
        return tags
    return build


def _const(*tags):
    fixed = set(tags)
    return lambda kwargs: set(fixed)


DEFAULT_CACHE_RULES = {
    "home": CacheRule(120, _const("home")),
    "star-list": CacheRule(600, _const("stars")),
    "star-detail": CacheRule(600, _kw("star:{pk}", ("star-wide",))),
    "star-suggest": CacheRule(600, _const("star-suggest")),
    "sim-list": CacheRule(60, _const("sims")),
    "sim-detail": CacheRule(60, _kw("sim:{pk}", ("sim-wide",))),
    "sim-hr": CacheRule(600, _kw("sim:{pk}", ("sim-wide",))),
    "sim-echelle": CacheRule(600, _kw("sim:{pk}", ("sim-wide",))),
    "sim-hr-svg": CacheRule(600, _kw("sim:{pk}", ("sim-wide",))),
    "sim-echelle-svg": CacheRule(600, _kw("sim:{pk}", ("sim-wide",))),
    "statistics": CacheRule(300, _const("stats")),
    "feed-star-results": CacheRule(300, _kw("star:{pk}",
                                            ("star-wide",))),
    "feed-star-progress": CacheRule(300, _kw("user-sims:{pk}",
                                             ("user-sims-wide",))),
    "api-sim-list": CacheRule(30, _const("sims")),
    "api-campaign-detail": CacheRule(30, _kw("campaign:{pk}",
                                             ("sim-wide",))),
}


def _canonical_query(query_string):
    if not query_string:
        return ""
    return "&".join(sorted(query_string.split("&")))


#: Routes that must never be cached (nor rate limited — see
#: :class:`~repro.serve.ratelimit.RateLimitMiddleware`): probes and
#: scrapes are only useful live, and a cached "ready" would lie to the
#: load balancer exactly when the truth matters.
EXEMPT_ROUTES = frozenset({"metrics", "healthz", "readyz"})


class CacheMiddleware:
    """Route-granular read-through caching of whole responses.

    Only anonymous GETs of configured routes are served from cache —
    a request carrying a session cookie always goes to the view, so a
    logged-in astronomer never receives (or populates) a shared page.
    Responses are stored as plain tuples, which is what lets the
    shared store hold them across process boundaries.

    The cache also brownouts gracefully: while the *health* tracker
    reports degraded, expired-but-recent copies are served with
    ``X-Cache: stale``; and any request that ends in a 5xx is answered
    with its stale copy when one exists (serve-stale-on-error),
    regardless of mode.
    """

    def __init__(self, cache, rules=None, *, health):
        self.cache = cache
        self.rules = dict(DEFAULT_CACHE_RULES if rules is None
                          else rules)
        for route in EXEMPT_ROUTES:
            self.rules.pop(route, None)
        self.health = health

    @staticmethod
    def _key(request):
        query = _canonical_query(request.META.get("QUERY_STRING", ""))
        return f"{request.path}?{query}"

    def process_request(self, request):
        from ..webstack.http import HttpResponse
        from ..webstack.middleware import ObservabilityMiddleware
        if request.method != "GET":
            return None
        ObservabilityMiddleware.resolve_route(request)
        route = getattr(request, "route_name", None)
        if route in EXEMPT_ROUTES:
            return None
        rule = self.rules.get(route)
        if rule is None or request.COOKIES.get("sessionid"):
            return None
        key = self._key(request)
        frozen = self.cache.get(key, route=route)
        if frozen is not None:
            return self._frozen_response(request, frozen, "hit")
        if self.health.degraded:
            # Brownout: a recent saved copy beats both an error page
            # and another trip to a struggling database.
            frozen = self.cache.get_stale(key, route=route)
            if frozen is not None:
                return self._frozen_response(request, frozen, "stale")
        match = getattr(request, "_route_match", None)
        kwargs = match[2] if match else {}
        tags = rule.tags(kwargs)
        # Snapshot the tag versions *now*, before the view renders: a
        # write that commits while the view runs bumps a tag past this
        # snapshot, so the entry stored in process_response is already
        # stale — pre-write content is never pinned to post-write
        # versions.
        versions = self.cache.shared.tag_versions(tags)
        request._cache_fill = (key, rule, route, tags, versions)
        return None

    @staticmethod
    def _frozen_response(request, frozen, verdict):
        from ..webstack.http import HttpResponse
        status, content, headers = frozen
        response = HttpResponse(content, status=status)
        response.headers = dict(headers)
        response["X-Cache"] = verdict
        request._cache_hit = True
        return response

    def process_response(self, request, response):
        fill = getattr(request, "_cache_fill", None)
        if fill is None or getattr(request, "_cache_hit", False):
            return response
        if response.status_code >= 500:
            # Serve-stale-on-error: the render failed (database down,
            # deadline spent, crash) — a recent copy, if we kept one,
            # is the better answer for an anonymous GET.
            key, rule, route, tags, versions = fill
            frozen = self.cache.get_stale(key, route=route)
            if frozen is not None:
                return self._frozen_response(request, frozen, "stale")
            return response
        if response.status_code != 200 or response.cookies:
            return response
        key, rule, route, tags, versions = fill
        frozen = (response.status_code, bytes(response.content),
                  dict(response.headers))
        self.cache.set(key, frozen, tags=tags, ttl=rule.ttl,
                       tag_versions=versions)
        response["X-Cache"] = "miss"
        return response
