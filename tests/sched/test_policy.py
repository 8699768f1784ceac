"""The least-wait placement choice and the shared queue-wait predictor
(pure units).

No deployment, no database: the choice sees candidate sites and must
make a deterministic, total-ordered pick; the predictor must be
monotone in the telemetry it scores.  These run in tier-1 — the heavier
end-to-end broker suites carry the ``sched`` marker.
"""

from types import SimpleNamespace

import pytest

from repro.hpc.machines import TABLE1_MACHINES
from repro.hpc.simclock import HOUR
from repro.sched import (CandidateSite, eligible_waits,
                         estimate_queue_wait_s, least_wait)

SPECS = {m.name: m for m in TABLE1_MACHINES}


def site(name, *, wait=0.0, su=1.0):
    return CandidateSite(machine_name=name, allocation=None,
                         estimated_wait_s=wait, estimated_su=su)


class TestPolicies:
    def test_least_wait_prefers_short_queue(self):
        chosen = least_wait([
            site("kraken", wait=3600.0), site("ranger", wait=60.0),
            site("frost", wait=7200.0)])
        assert chosen.machine_name == "ranger"

    def test_least_wait_ties_break_on_su_then_name(self):
        chosen = least_wait([
            site("lonestar", wait=0.0, su=1.9),
            site("frost", wait=0.0, su=0.6)])
        assert chosen.machine_name == "frost"
        chosen = least_wait([
            site("ranger", wait=0.0, su=1.0),
            site("kraken", wait=0.0, su=1.0)])
        assert chosen.machine_name == "kraken"


class TestPredictor:
    def test_idle_machine_waits_nothing(self):
        spec = SPECS["kraken"]
        assert estimate_queue_wait_s(spec, queue_depth=0,
                                     utilisation=0.0) == 0.0

    def test_monotone_in_depth_and_utilisation(self):
        spec = SPECS["kraken"]
        shallow = estimate_queue_wait_s(spec, queue_depth=2,
                                        utilisation=0.5)
        deep = estimate_queue_wait_s(spec, queue_depth=8,
                                     utilisation=0.5)
        hot = estimate_queue_wait_s(spec, queue_depth=2,
                                    utilisation=0.9)
        assert 0.0 < shallow < deep
        assert shallow < hot

    def test_bigger_machines_drain_faster(self):
        # Ranger's 4096 cores give eight AMP-sized lanes to Kraken's
        # two: the same backlog clears four times faster.
        kraken = estimate_queue_wait_s(SPECS["kraken"], queue_depth=4,
                                       utilisation=0.5,
                                       walltime_s=6 * HOUR)
        ranger = estimate_queue_wait_s(SPECS["ranger"], queue_depth=4,
                                       utilisation=0.5,
                                       walltime_s=6 * HOUR)
        assert ranger == pytest.approx(kraken / 4.0)

    def test_saturation_is_floored_not_a_pole(self):
        spec = SPECS["frost"]
        saturated = estimate_queue_wait_s(spec, queue_depth=1,
                                          utilisation=1.0)
        over = estimate_queue_wait_s(spec, queue_depth=1,
                                     utilisation=1.0)
        assert saturated == over < float("inf")

    def test_eligible_waits_discount_dependency_blocking(self):
        jobs = [
            SimpleNamespace(submit_time=0.0, start_time=10.0,
                            end_time=100.0),
            # Submitted at t=0 but only *eligible* when segment 1 ends
            # at t=100; its queue wait is 20, not 120.
            SimpleNamespace(submit_time=0.0, start_time=120.0,
                            end_time=200.0),
        ]
        assert eligible_waits(jobs) == [10.0, 20.0]
