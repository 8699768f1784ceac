"""Token-bucket rate limiting: bucket math, middleware 429s,
determinism under the virtual clock."""

import json

import pytest

from repro.hpc.simclock import SimClock
from repro.serve import RateLimiter, RatePolicy, ServeConfig
from repro.webstack.testclient import Client


@pytest.fixture()
def clock():
    return SimClock()


def test_bucket_exhausts_then_refills(clock, obs):
    limiter = RateLimiter(clock, obs=obs, policies={},
                          default=RatePolicy(3, 1.0))
    for _ in range(3):
        allowed, _ = limiter.check("home", "addr:a")
        assert allowed
    allowed, retry_after = limiter.check("home", "addr:a")
    assert not allowed
    assert retry_after == pytest.approx(1.0)
    clock.advance(1.0)
    allowed, _ = limiter.check("home", "addr:a")
    assert allowed


def test_clients_have_independent_budgets(clock, obs):
    limiter = RateLimiter(clock, obs=obs, policies={},
                          default=RatePolicy(1, 0.1))
    assert limiter.check("home", "addr:a")[0]
    assert not limiter.check("home", "addr:a")[0]
    assert limiter.check("home", "addr:b")[0]


def test_per_route_policy_overrides_default(clock, obs):
    limiter = RateLimiter(
        clock, obs=obs,
        policies={"api-campaign-create": RatePolicy(1, 0.01)},
        default=RatePolicy(100, 10.0))
    assert limiter.check("api-campaign-create", "addr:a")[0]
    assert not limiter.check("api-campaign-create", "addr:a")[0]
    assert limiter.check("sim-list", "addr:a")[0]


def test_bucket_table_is_lru_bounded(clock, obs):
    limiter = RateLimiter(clock, obs=obs, policies={},
                          default=RatePolicy(1, 0.001), max_buckets=10)
    for i in range(50):
        limiter.check("home", f"addr:{i}")
    assert len(limiter._buckets) <= 10


def test_deterministic_under_sim_clock(obs):
    """Two identical request sequences produce identical decisions."""
    def run():
        clock = SimClock()
        limiter = RateLimiter(clock, obs=obs, policies={},
                              default=RatePolicy(2, 0.5))
        decisions = []
        for step in range(8):
            decisions.append(limiter.check("home", "addr:a"))
            clock.advance(0.7)
        return decisions
    assert run() == run()


def test_api_burst_yields_plain_language_429(deployment, astronomer):
    """Hammering the campaign endpoint returns a jargon-free JSON 429
    with Retry-After, and never reaches the view."""
    app = deployment.build_portal(serve=ServeConfig())
    app.rate_limiter.policies["api-campaign-create"] = \
        RatePolicy(2, 1.0 / 60.0)
    client = Client(app)
    client.login("metcalfe", "pw12345")
    responses = [client.post("/api/v1/campaigns", json_body={})
                 for _ in range(3)]
    assert [r.status_code for r in responses] == [400, 400, 429]
    throttled = responses[-1]
    assert throttled["Retry-After"]
    body = json.loads(throttled.text)["error"]
    assert "wait" in body["message"]
    for jargon in ("429", "token", "bucket", "quota", "HTTP"):
        assert jargon not in body["message"]
    assert deployment.obs.metrics.value(
        "serve_throttled_total", route="api-campaign-create") == 1


@pytest.fixture()
def one_request_portal(deployment):
    """The served portal under a limiter that refuses every client's
    second request, whatever the route."""
    app = deployment.build_portal(serve=ServeConfig())
    app.rate_limiter.policies = {}
    app.rate_limiter.default = RatePolicy(1, 0.001)
    return app


def test_html_pages_get_html_429(one_request_portal):
    client = Client(one_request_portal)
    assert client.get("/").status_code == 200
    throttled = client.get("/")
    assert throttled.status_code == 429
    assert "slow down" in throttled.text.lower()
    assert throttled["Retry-After"]


def test_throttled_requests_keep_their_route_label(one_request_portal,
                                                   deployment):
    """The observability middleware sees the resolved route name even
    though the limiter short-circuited before dispatch."""
    client = Client(one_request_portal)
    client.get("/")
    client.get("/")   # throttled
    assert deployment.obs.metrics.value(
        "http_requests_total", route="home", status="429") == 1
    assert deployment.obs.metrics.value(
        "http_requests_total", route="<unrouted>", status="429") == 0


# ----------------------------------------------------------------------
# LRU bucket eviction under a spoofed-client flood
# ----------------------------------------------------------------------

def test_spoofed_client_flood_respects_max_buckets(clock, deployment):
    """An attacker rotating spoofed client addresses cannot grow the
    bucket table past its cap, and the flood's own throttle decisions
    are still counted correctly."""
    limiter = RateLimiter(clock, policies={},
                          default=RatePolicy(2, 0.001), max_buckets=64,
                          obs=deployment.obs)
    throttled = 0
    for i in range(1000):
        client = f"addr:10.0.{i % 200}.{i // 200}"
        for _ in range(3):               # 3 hits per visit: 1 throttled
            allowed, _ = limiter.check("home", client)
            throttled += 0 if allowed else 1
    assert len(limiter._buckets) <= 64
    assert throttled > 0
    assert deployment.obs.metrics.value(
        "serve_throttled_total", route="home") == throttled


def test_evicted_client_refills_in_its_own_favour(clock, obs):
    """Dropping the least-recently-active bucket forgets that client's
    spending — the error is a fresh (full) budget, never a stricter
    one."""
    limiter = RateLimiter(clock, obs=obs, policies={},
                          default=RatePolicy(1, 0.0001), max_buckets=4)
    assert limiter.check("home", "addr:victim")[0]
    assert not limiter.check("home", "addr:victim")[0]   # spent
    for i in range(10):                  # flood evicts the victim
        limiter.check("home", f"addr:flood{i}")
    assert ("home", "addr:victim") not in limiter._buckets
    allowed, _ = limiter.check("home", "addr:victim")
    assert allowed                       # full bucket again


# ----------------------------------------------------------------------
# Probe/scrape exemption (regression: these must never 429 or cache)
# ----------------------------------------------------------------------

def test_probes_and_metrics_are_never_throttled_or_cached(
        one_request_portal):
    """/healthz, /readyz, and /metrics answer live every time, even
    under a rate policy that throttles everything else after one hit."""
    client = Client(one_request_portal)
    assert client.get("/").status_code == 200
    assert client.get("/").status_code == 429      # the default bites...
    for path in ("/healthz", "/readyz", "/metrics"):
        for _ in range(5):                         # ...but never probes
            response = client.get(path)
            assert response.status_code == 200
            assert response.get("X-Cache") is None


def test_exempt_routes_never_enter_the_cache_rules(deployment, obs):
    """Even a hand-written rule set cannot opt a probe into caching."""
    from repro.serve import CacheMiddleware, CacheRule, PortalCache
    from repro.serve.cache import EXEMPT_ROUTES
    cache = PortalCache(SimClock(), obs=obs)
    middleware = CacheMiddleware(cache, rules={
        "metrics": CacheRule(60, lambda kwargs: {"stats"}),
        "healthz": CacheRule(60, lambda kwargs: set()),
        "readyz": CacheRule(60, lambda kwargs: set()),
        "home": CacheRule(60, lambda kwargs: {"home"}),
    })
    for route in EXEMPT_ROUTES:
        assert route not in middleware.rules
    assert "home" in middleware.rules
