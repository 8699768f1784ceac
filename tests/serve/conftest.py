"""Fixtures for the serving-tier suite: a deployment with the full
tier (rate limiter + read-through cache) in front of the portal."""

import pytest

from repro.core import AMPDeployment
from repro.serve import ServeConfig


@pytest.fixture()
def deployment():
    dep = AMPDeployment()
    yield dep
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    dep.close()


@pytest.fixture()
def portal(deployment):
    """The portal app behind the serving tier."""
    return deployment.build_portal(serve=ServeConfig())


@pytest.fixture()
def client(portal):
    from repro.webstack.testclient import Client
    return Client(portal)


@pytest.fixture()
def astronomer(deployment):
    return deployment.create_astronomer("metcalfe", password="pw12345")
