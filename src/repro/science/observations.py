"""Observed targets: reference stars and synthetic Kepler-style data.

The paper's science driver is Kepler asteroseismology of Sun-like stars.
We ship (a) a solar reference target, (b) a small catalog of bright
solar-like stars with literature-flavoured global parameters, and (c) a
generator that manufactures a noisy "observed" frequency set from known
input parameters — the ground-truth workflow every pipeline validation
uses (feed synthetic observations to the GA, check it recovers the
inputs).
"""

from __future__ import annotations

import numpy as np

from .astec.model import StellarParameters, run_astec
from .mpikaia.fitness import ObservedStar


def solar_target():
    """The Sun as an AMP target (frequencies from the forward model)."""
    model = run_astec(StellarParameters.solar(), with_track=False)
    return ObservedStar(
        name="Sun", teff=5777.0, luminosity=1.0,
        delta_nu=model.delta_nu, d02=model.small_separation_02,
        nu_max=model.nu_max,
        frequencies={l: list(map(float, nus))
                     for l, nus in model.frequencies.items()})


def synthetic_target(name, params: StellarParameters, *, seed=0,
                     freq_noise=0.15, teff_noise=60.0):
    """Manufacture a Kepler-style observation from known parameters.

    Gaussian noise is added to every mode frequency and to Teff so the
    GA has a realistic (non-zero) χ² floor.  Returns the target and the
    ground-truth parameters.
    """
    rng = np.random.default_rng(seed)
    model = run_astec(params, with_track=False)
    noisy = {
        l: [float(nu + rng.normal(0.0, freq_noise)) for nu in nus]
        for l, nus in model.frequencies.items()
    }
    target = ObservedStar(
        name=name,
        teff=float(model.teff + rng.normal(0.0, teff_noise)),
        teff_err=max(teff_noise, 1.0),
        luminosity=float(model.luminosity * (1 + rng.normal(0, 0.03))),
        frequencies=noisy,
    )
    return target, params


#: Literature-flavoured bright solar-like stars (HD numbers real; global
#: parameters rounded from published asteroseismology).  These seed the
#: portal's star catalog.
BRIGHT_TARGETS = {
    "16 Cyg A": dict(hd=186408, teff=5825, lum=1.56, dnu=103.5, numax=2188),
    "16 Cyg B": dict(hd=186427, teff=5750, lum=1.27, dnu=117.0, numax=2561),
    "Alpha Cen A": dict(hd=128620, teff=5790, lum=1.52, dnu=106.0,
                        numax=2300),
    "Alpha Cen B": dict(hd=128621, teff=5260, lum=0.50, dnu=161.5,
                        numax=4090),
    "Beta Hydri": dict(hd=2151, teff=5870, lum=3.5, dnu=57.5, numax=1000),
    "Mu Arae": dict(hd=160691, teff=5800, lum=1.90, dnu=90.0, numax=2000),
    "Tau Ceti": dict(hd=10700, teff=5340, lum=0.52, dnu=170.0, numax=4490),
    "18 Sco": dict(hd=146233, teff=5810, lum=1.06, dnu=134.4, numax=3170),
}


def bright_star_target(name):
    """An :class:`ObservedStar` for one catalog entry."""
    entry = BRIGHT_TARGETS[name]
    return ObservedStar(
        name=name, teff=float(entry["teff"]),
        luminosity=float(entry["lum"]),
        delta_nu=float(entry["dnu"]), nu_max=float(entry["numax"]))


def kepler_input_catalog(n=40, seed=7):
    """Synthetic KIC-style identifiers for the portal's Kepler catalog."""
    rng = np.random.default_rng(seed)
    # Drawn from the population *size*: the same numbers as choosing
    # from a materialised arange(7.5M, 12.3M), without its 38 MB.
    numbers = sorted((7_500_000 + rng.choice(4_800_000, size=n,
                                             replace=False)).tolist())
    return [f"KIC {number}" for number in numbers]
