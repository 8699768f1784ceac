"""Pluggable placement policies for the resource broker.

A policy sees one simulation and the list of *eligible* candidate
sites — machines that are enabled, breaker-closed, authorized for the
simulation's owner, and funded (estimated SU cost fits the
allocation's unreserved remainder).  Eligibility is the broker's job;
the policy only expresses *preference* among survivors.

Every policy must be deterministic from durable inputs (telemetry
rows, simulation pks) — placement decisions are part of the replayable
story the ``sched.*`` events tell, so nothing here may consult wall
clocks, random generators, or in-memory counters that a daemon bounce
would reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CandidateSite:
    """One eligible (machine, allocation) pair, scored for placement."""

    machine_name: str
    record: object = field(repr=False)            # MachineRecord row
    spec: object = field(repr=False)              # MachineSpec
    allocation: object = field(repr=False)        # AllocationRecord row
    #: Analytic queue-wait estimate from the shared predictor, seconds.
    estimated_wait_s: float = 0.0
    #: Estimated SU cost of *this* simulation on *this* machine.
    estimated_su: float = 0.0
    #: Allocation SUs not yet used *or* reserved by in-flight work.
    su_available: float = 0.0


class PlacementPolicy:
    name = "base"

    def choose(self, simulation, candidates):
        """Pick one of *candidates* (non-empty) for *simulation*."""
        raise NotImplementedError


class LeastWaitPolicy(PlacementPolicy):
    """Minimise expected queue wait; break ties toward the cheaper SU
    charge, then alphabetically (total order → reproducible)."""

    name = "least-wait"

    def choose(self, simulation, candidates):
        return min(candidates,
                   key=lambda c: (c.estimated_wait_s, c.estimated_su,
                                  c.machine_name))


class RoundRobinPolicy(PlacementPolicy):
    """Rotate through sites by simulation pk.

    The pk is durable, so a bounced daemon re-deciding the same
    simulation lands on the same site — an in-memory counter would
    fork the story after every restart.
    """

    name = "round-robin"

    def choose(self, simulation, candidates):
        ordered = sorted(candidates, key=lambda c: c.machine_name)
        return ordered[int(simulation.pk) % len(ordered)]


class PackByAllocationPolicy(PlacementPolicy):
    """Send work where the most SUs remain — drains grants evenly over
    a campaign, the allocation-stewardship counterpart of least-wait."""

    name = "pack-by-allocation"

    def choose(self, simulation, candidates):
        return min(candidates,
                   key=lambda c: (-c.su_available, c.machine_name))


_POLICIES = {cls.name: cls for cls in (LeastWaitPolicy, RoundRobinPolicy,
                                       PackByAllocationPolicy)}

POLICY_NAMES = tuple(sorted(_POLICIES))


def get_policy(name):
    """Instantiate a policy by its registered name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"Unknown placement policy {name!r}; "
            f"choose one of {', '.join(POLICY_NAMES)}")
