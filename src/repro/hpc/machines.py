"""The TeraGrid machine catalog.

Speed and charging parameters are calibrated to the paper's Table 1: the
measured single-processor stellar-model benchmark time per system, and the
TeraGrid service-unit (SU) charge factor per CPU-hour.  Everything else
the reproduction derives (optimization run time, CPU-hours, SU cost) must
come out of the simulation, not these constants — that is the point of
the Table 1 bench.

The CTSS-related attributes (WS-GRAM support, scratch disk) reproduce the
paper's resource-selection discussion: Kraken was chosen for production
because Lonestar's scratch disk was too small and Ranger lacked WS-GRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simclock import MINUTE


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one TeraGrid compute resource."""

    name: str
    site: str
    nodes: int
    cores_per_node: int
    #: Measured ASTEC benchmark wall time on one core, in virtual seconds.
    #: (Table 1 "Stellar Model Run Time (min)" × 60.)
    stellar_benchmark_s: float
    #: TeraGrid SUs charged per CPU-hour (Table 1 "SUs/CPUh").
    su_charge_factor: float
    #: Batch queue maximum walltime, seconds (paper §6: "usually 6 or 24
    #: hours").
    max_walltime_s: float
    #: Scratch disk quota in GB (drives the Lonestar disk-space concern).
    scratch_disk_gb: float
    #: Whether the resource provides WS-GRAM (drives the Ranger concern).
    has_ws_gram: bool
    #: Typical background utilisation (0..1) for queue-wait modelling.
    background_load: float = 0.7
    #: Oversubscription pressure: relative allocation demand (paper: TACC
    #: systems were oversubscribed at the time).
    oversubscription: float = 1.0
    scheduler_supports_chaining: bool = True

    @property
    def total_cores(self):
        return self.nodes * self.cores_per_node

    @property
    def stellar_benchmark_min(self):
        return self.stellar_benchmark_s / MINUTE


def _m(name, site, nodes, cpn, bench_min, su, wall_h, disk, wsgram,
       load=0.7, oversub=1.0):
    return MachineSpec(
        name=name, site=site, nodes=nodes, cores_per_node=cpn,
        stellar_benchmark_s=bench_min * MINUTE, su_charge_factor=su,
        max_walltime_s=wall_h * 3600.0, scratch_disk_gb=disk,
        has_ws_gram=wsgram, background_load=load, oversubscription=oversub)


#: Table 1 systems.  Benchmark minutes and SU factors are the paper's
#: measured/published values; node geometry approximates the real 2009
#: systems (scaled down where noted to keep simulations laptop-sized —
#: AMP's jobs need 512 cores, which all of these provide).
FROST = _m("frost", "NCAR", nodes=512, cpn=2, bench_min=110.0, su=0.558,
           wall_h=24.0, disk=2000.0, wsgram=True, load=0.60)
KRAKEN = _m("kraken", "NICS", nodes=256, cpn=4, bench_min=23.6, su=1.623,
            wall_h=24.0, disk=3000.0, wsgram=True, load=0.70)
LONESTAR = _m("lonestar", "TACC", nodes=256, cpn=4, bench_min=15.1,
              su=1.935, wall_h=24.0, disk=100.0, wsgram=True,
              load=0.80, oversub=1.4)
RANGER = _m("ranger", "TACC", nodes=256, cpn=16, bench_min=21.1, su=1.644,
            wall_h=24.0, disk=4000.0, wsgram=False, load=0.80, oversub=1.3)

TABLE1_MACHINES = [FROST, KRAKEN, LONESTAR, RANGER]

#: Display names used by the paper's Table 1.
DISPLAY_NAMES = {
    "frost": "NCAR Frost",
    "kraken": "NICS Kraken",
    "lonestar": "TACC Lonestar",
    "ranger": "TACC Ranger",
}


def get_machine(name):
    for machine in TABLE1_MACHINES:
        if machine.name == name:
            return machine
    raise KeyError(f"Unknown machine {name!r}")


def select_production_machine(machines, *, required_disk_gb=500.0,
                              require_ws_gram=True,
                              oversubscription_limit=1.25):
    """Reproduce the paper's production resource selection.

    Ranks candidate machines by estimated solution time (the stellar
    benchmark) but excludes systems failing the operational constraints
    the paper names: insufficient scratch disk (Lonestar), no WS-GRAM
    (Ranger), or heavy allocation oversubscription (both TACC systems).
    Returns the surviving machine with the shortest benchmark time —
    Kraken, for the Table 1 catalog.
    """
    eligible = [
        m for m in machines
        if m.scratch_disk_gb >= required_disk_gb
        and (m.has_ws_gram or not require_ws_gram)
        and m.oversubscription <= oversubscription_limit
    ]
    if not eligible:
        raise ValueError("No machine satisfies the operational constraints")
    return min(eligible, key=lambda m: m.stellar_benchmark_s)
