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
BARE = ["ObservabilityMiddleware", "SSLRequiredMiddleware",
        "AuthMiddleware"]


def _names(app):
    return [type(m).__name__ for m in app.middleware]


def test_pipeline_order_and_settings_are_pinned(deployment):
    from repro.core.portal.site import build_portal_app
    assert _names(deployment.build_portal(serve=ServeConfig())) == PIPELINE
    assert _names(build_portal_app(deployment)) == BARE
    assert list(inspect.signature(ServeConfig).parameters) == [
        "clock", "shared_store", "worker_index", "watchdog_s"]


def test_served_request_after_bare_build_is_refused(deployment):
    bare = deployment.build_portal()
    assert bare.serve_cache is None
    config = ServeConfig()
    with pytest.raises(ValueError) as excinfo:
        deployment.build_portal(serve=config)
    assert "serve=None" in str(excinfo.value)
    assert repr(config) in str(excinfo.value)
    assert deployment.build_portal() is bare


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
