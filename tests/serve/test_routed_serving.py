"""Slow-statement log on the deployment's role connections.

What is left of PR 10's routed-serving suite: the router is gone, and
the serving-tier guarantees it re-checked per route (grants, request
deadlines, brownout and recovery, cache invalidation by portal and
daemon writes) are covered where they always were — ``test_deadline``,
``test_health``, ``test_invalidation``, ``test_cache`` and
``tests/webstack/test_orm_permissions`` — against the one data path.
(The file keeps its name so the surviving test id stays stable.)
"""

from repro.core import AMPDeployment, Simulation


def test_slow_statement_log_redacts_parameters():
    dep = AMPDeployment(slow_statement_s=0.0)
    try:
        Simulation.objects.using(dep.databases.portal).filter(
            machine_name="kraken' OR secret").count()
        events = dep.obs.events.of_kind("db.slow_statement")
        assert events
        slow = events[-1].fields
        assert slow["role"] == "portal"
        assert slow["duration_s"] > 0.0
        assert "?" in slow["sql"]
        # The parameter value never reaches the log.
        assert "secret" not in slow["sql"]
        assert dep.obs.metrics.value("db_slow_statements_total",
                                     role="portal") >= 1
    finally:
        from repro.core.models import ALL_MODELS
        from repro.webstack.orm import bind
        bind(ALL_MODELS, None)
        dep.close()
