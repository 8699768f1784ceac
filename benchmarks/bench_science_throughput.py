"""Science-substrate throughput — the vectorisation that makes the
reproduction laptop-sized.

The guides' core idiom (vectorise the hot loop) is what lets a 4-GA ×
200-iteration × 126-member optimization run — ~100k stellar models —
complete in about a second of real time.  These benches pin that down
so regressions are visible.
"""

import time

import numpy as np

from repro.science import StellarParameters, make_ga, synthetic_target
from repro.science.astec.model import (population_observables,
                                       run_astec)
from repro.science.mpikaia.fitness import ChiSquareFitness

#: Calls timed by hand for the per-model floor.
TIMED_CALLS = 50

_RNG = np.random.default_rng(3)
_POP = np.column_stack([
    _RNG.uniform(0.75, 1.75, 126), _RNG.uniform(0.002, 0.05, 126),
    _RNG.uniform(0.22, 0.32, 126), _RNG.uniform(1.0, 3.0, 126),
    _RNG.uniform(0.01, 13.8, 126)])


def test_vectorised_population_eval(benchmark):
    """One vectorised evaluation of a full 126-member population."""
    def evaluate():
        return population_observables(_POP[:, 0], _POP[:, 1], _POP[:, 2],
                                      _POP[:, 3], _POP[:, 4])
    result = benchmark(evaluate)
    assert result["teff"].shape == (126,)
    # Sanity: per-model cost must stay in the microsecond regime.
    # Timed here, so the floor holds under --benchmark-disable too.
    start = time.perf_counter()
    for _ in range(TIMED_CALLS):
        evaluate()
    mean_s = (time.perf_counter() - start) / TIMED_CALLS
    per_model_us = mean_s / 126 * 1e6
    print(f"\n{per_model_us:.2f} us per stellar model "
          "(vectorised; the real ASTEC took ~15-110 minutes)")
    assert per_model_us < 100.0


def test_fitness_eval_throughput(benchmark):
    target, _ = synthetic_target(
        "bench", StellarParameters(1.05, 0.02, 0.27, 2.1, 4.0), seed=1)
    fitness = ChiSquareFitness(target)
    scores = benchmark(lambda: fitness(_POP))
    assert scores.shape == (126,)


def test_ga_generation_rate(benchmark):
    target, _ = synthetic_target(
        "bench", StellarParameters(1.05, 0.02, 0.27, 2.1, 4.0), seed=1)
    ga = make_ga(target, seed=1, population_size=126)
    ga.evaluate()
    benchmark(ga.step)
    print(f"\none GA generation (126 members) per call; "
          f"iteration {ga.iteration} reached")


def test_single_forward_model(benchmark):
    params = StellarParameters.solar()
    model = benchmark(lambda: run_astec(params, with_track=True))
    assert model.teff > 5000
