"""Per-route token-bucket rate limiting for the serving tier.

Each (route, client) pair gets a token bucket: *capacity* tokens,
refilled at *refill_per_s*.  A request costs one token; an empty bucket
yields a 429 with a plain-language body and a ``Retry-After`` header
telling the client exactly how long until a token is available.  Time
comes from the injected clock, so under the sim clock the limiter is
fully deterministic (and twin soak runs stay byte-stable).

Clients are identified by their session cookie when present (one
astronomer = one budget, wherever they connect from) and by remote
address otherwise.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from .cache import EXEMPT_ROUTES


class RatePolicy:
    """Bucket shape for one route (or the default)."""

    __slots__ = ("capacity", "refill_per_s")

    def __init__(self, capacity, refill_per_s):
        if capacity < 1 or refill_per_s <= 0:
            raise ValueError("capacity >= 1 and refill_per_s > 0 required")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)


#: Routes the paper's workload hits hardest get generous browse budgets;
#: the write-heavy campaign endpoint is deliberately tight — one bulk
#: request replaces thousands of form POSTs, so bursts of them are
#: almost certainly a runaway script.
DEFAULT_RATE_POLICIES = {
    "api-campaign-create": RatePolicy(5, 1.0 / 60.0),
    "api-sim-list": RatePolicy(60, 2.0),
    "star-suggest": RatePolicy(120, 10.0),
}

DEFAULT_POLICY = RatePolicy(240, 20.0)


class TokenBucket:
    __slots__ = ("tokens", "updated_at")

    def __init__(self, capacity, now):
        self.tokens = capacity
        self.updated_at = now

    def consume(self, policy, now):
        """Take one token; returns (allowed, seconds-until-next-token)."""
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(policy.capacity,
                          self.tokens + elapsed * policy.refill_per_s)
        self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / policy.refill_per_s


class RateLimiter:
    """Token buckets over (route, client), LRU-bounded.

    The bucket table is capped so a scan of spoofed clients cannot grow
    memory without bound; the least-recently-active bucket is dropped
    first (dropping a bucket refills it, which only ever errs in the
    client's favour).
    """

    def __init__(self, clock, *, obs, policies=None, default=None,
                 max_buckets=10_000):
        self.clock = clock
        self.policies = dict(DEFAULT_RATE_POLICIES if policies is None
                             else policies)
        self.default = default or DEFAULT_POLICY
        self.max_buckets = int(max_buckets)
        self._buckets = OrderedDict()
        self.obs = obs

    def policy_for(self, route):
        return self.policies.get(route, self.default)

    def check(self, route, client):
        """Returns (allowed, retry_after_seconds)."""
        now = self.clock.now
        policy = self.policy_for(route)
        key = (route, client)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = TokenBucket(policy.capacity, now)
            self._buckets[key] = bucket
        self._buckets.move_to_end(key)
        while len(self._buckets) > self.max_buckets:
            self._buckets.popitem(last=False)
        allowed, retry_after = bucket.consume(policy, now)
        if not allowed:
            self.obs.metrics.counter(
                "serve_throttled_total",
                help="Requests refused by the rate limiter, by route"
            ).labels(route=route or "<unrouted>").inc()
            self.obs.events.emit("serve.throttled", route=route,
                                 retry_after_s=round(retry_after, 3))
        return allowed, retry_after


class RateLimitMiddleware:
    """Turn an exhausted bucket into a jargon-free 429."""

    def __init__(self, limiter):
        self.limiter = limiter

    @staticmethod
    def _client(request):
        session = request.COOKIES.get("sessionid")
        if session:
            return f"session:{session}"
        return f"addr:{request.META.get('REMOTE_ADDR', 'unknown')}"

    def process_request(self, request):
        from ..webstack.http import HttpResponse, JsonResponse
        from ..webstack.middleware import ObservabilityMiddleware
        ObservabilityMiddleware.resolve_route(request)
        route = getattr(request, "route_name", None)
        if route in EXEMPT_ROUTES:
            # Probes and scrapes must keep answering *especially* while
            # the site is melting down: a throttled probe looks exactly
            # like a dead worker to the thing watching it.
            return None
        allowed, retry_after = self.limiter.check(
            route, self._client(request))
        if allowed:
            return None
        wait = max(1, math.ceil(retry_after))
        if request.path.startswith("/api/"):
            response = JsonResponse({"error": {
                "message": ("You have sent requests faster than this "
                            "service can accept them. Please wait "
                            f"{wait} seconds and try again."),
                "retry_after_seconds": wait,
            }}, status=429)
        else:
            response = HttpResponse(
                ("<html><body><h1>Please slow down</h1>"
                 "<p>You have loaded pages faster than this site can "
                 f"serve them. Please wait {wait} seconds and try "
                 "again.</p></body></html>"),
                status=429)
        response["Retry-After"] = str(wait)
        return response
