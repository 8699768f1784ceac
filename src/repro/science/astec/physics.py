"""Microphysics scalings for the simplified stellar model.

The reproduction's ASTEC stand-in is built on classical homology
relations (Kippenhahn & Weigert) with composition entering through the
mean molecular weight, a Kramers-like opacity, and pp-chain energy
generation.  Every function here broadcasts over NumPy arrays so the
genetic algorithm can evaluate whole populations in one vectorised call
(guide idiom: vectorise the hot loop, no per-member Python iteration).

Solar calibration constants are taken at the standard values used in
asteroseismology (e.g. Metcalfe et al. 2009).
"""

from __future__ import annotations

import numpy as np

from ...parameters import PARAMETER_BOUNDS

# Solar reference values.
TEFF_SUN = 5777.0        # K
DNU_SUN = 134.9          # μHz, solar large frequency separation
NUMAX_SUN = 3090.0       # μHz, solar frequency of maximum power
LOGG_SUN = 4.438         # cgs dex
AGE_SUN = 4.6            # Gyr
Z_SUN = 0.018            # heavy-element mass fraction (GS98-ish)
Y_SUN = 0.270            # helium mass fraction
ALPHA_SUN = 2.1          # mixing-length parameter
X_SUN = 1.0 - Y_SUN - Z_SUN



def hydrogen_fraction(z, y):
    """X = 1 - Y - Z."""
    return 1.0 - np.asarray(y) - np.asarray(z)


def mean_molecular_weight(z, y):
    """Fully-ionised mean molecular weight μ = 4 / (3 + 5X - Z)."""
    x = hydrogen_fraction(z, y)
    return 4.0 / (3.0 + 5.0 * x - np.asarray(z))


MU_SUN = float(mean_molecular_weight(Z_SUN, Y_SUN))


def opacity_factor(z, y):
    """Kramers-like opacity relative to solar, κ/κ☉.

    Bound-free opacity scales with the metal content Z(1+X); electron
    scattering adds a floor ∝ (1+X).  Normalised to 1 at solar
    composition.
    """
    z = np.asarray(z, dtype=float)
    x = hydrogen_fraction(z, y)
    kramers = z * (1.0 + x)
    scattering = 0.05 * (1.0 + x)
    solar = Z_SUN * (1.0 + X_SUN) + 0.05 * (1.0 + X_SUN)
    return (kramers + scattering) / solar


def energy_generation_factor(z, y):
    """pp-chain energy generation relative to solar, ε/ε☉ ∝ X²."""
    x = hydrogen_fraction(z, y)
    return (x / X_SUN) ** 2


def validate_parameters(mass, z, y, alpha, age):
    """Raise ``ValueError`` for parameters outside the AMP search box.

    This mirrors the strict marshaling chain: by the time numbers reach
    the science code they must already be physical; the model refuses to
    extrapolate.
    """
    values = {"mass": mass, "z": z, "y": y, "alpha": alpha, "age": age}
    for name, value in values.items():
        low, high = PARAMETER_BOUNDS[name]
        arr = np.asarray(value, dtype=float)
        if np.any(~np.isfinite(arr)):
            raise ValueError(f"Parameter {name} is not finite")
        if np.any(arr < low) or np.any(arr > high):
            raise ValueError(
                f"Parameter {name}={value} outside bounds [{low}, {high}]")
