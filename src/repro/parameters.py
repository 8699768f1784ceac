"""The AMP search box: the five physical parameters and their bounds.

Shared by the portal (form and API validation) and the science code
(the MPIKAIA search box, the model's refusal to extrapolate).  It lives
outside :mod:`repro.science` and imports nothing, so a portal process
validates submissions without loading numpy or the stellar model.
"""

#: Mass in solar units, Z and Y mass fractions, mixing-length alpha,
#: age in Gyr — the MPIKAIA search-box bounds for solar-like stars.
PARAMETER_BOUNDS = {
    "mass": (0.75, 1.75),
    "z": (0.002, 0.05),
    "y": (0.22, 0.32),
    "alpha": (1.0, 3.0),
    "age": (0.01, 13.8),
}
