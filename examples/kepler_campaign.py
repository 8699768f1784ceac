"""A Kepler analysis campaign — the paper's motivating workload.

Several astronomers fit several stars at once: synthetic "observed"
frequency sets are generated from known ground-truth parameters, the
gateway runs the 4-GA optimization ensembles on Kraken, and the campaign
report compares recovered vs true parameters, lists SU consumption per
user (the TeraGrid end-to-end accounting requirement), and prints the
queue Gantt for one simulation.

Run:  python examples/kepler_campaign.py
"""

from repro.analysis.reporting import format_table
from repro.core import AMPDeployment, ObservationSet, Simulation
from repro.core.gantt import render_ascii, simulation_gantt
from repro.core.models import KIND_OPTIMIZATION
from repro.hpc import HOUR
from repro.science import StellarParameters, synthetic_target

#: name -> (ground truth parameters, noise seed)
CAMPAIGN = {
    "16 Cyg A": (StellarParameters(1.08, 0.021, 0.25, 2.0, 6.9), 101),
    "16 Cyg B": (StellarParameters(1.04, 0.021, 0.27, 2.1, 6.1), 102),
    "18 Sco": (StellarParameters(1.01, 0.019, 0.27, 2.1, 4.0), 103),
}


def main():
    deployment = AMPDeployment()
    observers = {
        "16 Cyg A": deployment.create_astronomer("metcalfe"),
        "16 Cyg B": deployment.create_astronomer("woitaszek"),
        "18 Sco": deployment.create_astronomer("shorrock"),
    }

    simulations = {}
    for star_name, (truth, seed) in CAMPAIGN.items():
        star, _ = deployment.catalog.search(star_name)
        target, _ = synthetic_target(star_name, truth, seed=seed)
        observation = ObservationSet(
            star_id=star.pk, label=f"Kepler {star_name}",
            teff=target.teff, luminosity=target.luminosity,
            frequencies={str(l): v
                         for l, v in target.frequencies.items()})
        observation.save(db=deployment.databases.portal)
        simulation = Simulation(
            star_id=star.pk, observation_id=observation.pk,
            owner_id=observers[star_name].pk, kind=KIND_OPTIMIZATION,
            machine_name="kraken",
            config={"n_ga_runs": 4, "iterations": 60,
                    "population_size": 64, "processors": 128,
                    "walltime_s": 24 * HOUR,
                    "ga_seeds": [seed, seed + 1, seed + 2, seed + 3]})
        simulation.save(db=deployment.databases.portal)
        simulations[star_name] = (simulation, truth)
        print(f"Submitted optimization for {star_name} "
              f"(owner {observers[star_name].username})")

    print("\nRunning the campaign through the GridAMP daemon...")
    polls = deployment.run_daemon_until_idle(poll_interval_s=1800)
    print(f"Campaign finished after {polls} polls "
          f"({deployment.clock.now / 86400.0:.1f} virtual days).\n")

    rows = []
    for star_name, (simulation, truth) in simulations.items():
        simulation.refresh_from_db()
        best = simulation.results["solution_meta"]["parameters"]
        rows.append([
            star_name, simulation.state,
            f"{best[0]:.3f}", f"{truth.mass:.3f}",
            f"{best[4]:.2f}", f"{truth.age:.2f}",
            f"{simulation.results['scalars']['teff']:.0f}",
        ])
    print(format_table(
        ["Star", "State", "Mass (fit)", "Mass (true)", "Age (fit)",
         "Age (true)", "Teff (K)"], rows,
        title="Campaign results — recovered vs ground truth"))

    # Per-user accounting (the GridShib requirement).
    from repro.core import AllocationRecord
    allocation = AllocationRecord.objects.using(
        deployment.databases.admin).get(
        pk=deployment.allocations["kraken"].pk)
    print(f"\nSUs used on kraken: {allocation.su_used:,.0f} "
          f"of {allocation.su_granted:,.0f}")
    usage = {user: n for (user, operation), n
             in deployment.fabric.audit.tally.items()
             if operation == "gram-submit"}
    print("GRAM submissions per gateway user:", usage)

    # The §6 tool on one simulation.
    simulation, _ = simulations["16 Cyg B"]
    print("\nJob wait vs execution Gantt for 16 Cyg B:")
    print(render_ascii(simulation_gantt(deployment, simulation)))


if __name__ == "__main__":
    main()
