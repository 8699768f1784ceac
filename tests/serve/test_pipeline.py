"""The one serving pipeline: its order, its four settings, and what
``build_portal`` does when asked for a differently built app."""

import inspect

import pytest

from repro.serve import ServeConfig

#: Names, not classes: ``benchmarks/gateway/tracing.py`` keys its
#: per-layer spans by ``type(middleware).__name__``.
PIPELINE = ["ObservabilityMiddleware", "AdmissionMiddleware",
            "RateLimitMiddleware", "SSLRequiredMiddleware",
            "DeadlineMiddleware", "CacheMiddleware", "BrownoutMiddleware",
            "AuthMiddleware", "DeadlineScopeMiddleware"]


def _names(app):
    return [type(m).__name__ for m in app.middleware]


def test_pipeline_order_and_settings_are_pinned(deployment):
    from repro.core.portal.site import build_portal_app
    assert _names(deployment.build_portal()) == PIPELINE
    other = build_portal_app(deployment)
    assert _names(other) == PIPELINE
    other.serve_cache.close()
    assert list(inspect.signature(ServeConfig).parameters) == [
        "clock", "shared_store", "worker_index", "watchdog_s"]


def test_default_build_is_the_served_pipeline(deployment):
    app = deployment.build_portal()
    for handle in ("serve_cache", "rate_limiter", "admission",
                   "serve_health"):
        assert getattr(app, handle) is not None, handle


def test_second_config_after_served_build_is_refused(deployment):
    config = ServeConfig()
    served = deployment.build_portal(serve=config)
    assert served.serve_cache is not None
    other = ServeConfig()
    with pytest.raises(ValueError) as excinfo:
        deployment.build_portal(serve=other)
    assert repr(config) in str(excinfo.value)
    assert repr(other) in str(excinfo.value)
    # Asking again for what is cached — by its config or with no
    # ``serve`` at all — keeps returning it.
    assert deployment.build_portal(serve=config) is served
    assert deployment.build_portal() is served
