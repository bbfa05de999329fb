"""Dark-soliton perturbation engine for the defocusing NLS.

Computes the adiabatic evolution of dark/grey soliton core parameters under
small forcing, the O(eps) shelf that develops around the core (magnitude and
phase plateaus bounded by Airy transition layers moving at +-u_inf), and
validates the predictions against direct simulation of the perturbed PDE.
"""

from .soliton import ConservedQuantities, CoreParams, ab_from_background, grey_profile
from .perturbations import Perturbation, check_phase_symmetry, dispersive_damping, linear_damping, two_photon
from .asymptotics import (
    ParameterTrajectory,
    ShelfParams,
    evolve_background,
    evolve_core_parameters,
    grey_parameter_rhs,
    phase_conservation_check,
)
from .boundary_layer import LayerProfile, shelf_magnitude_profile, shelf_phase_profile
from .airy import airy_ai, airy_ai_integral
from .simulator import FieldState, Grid, SimBackground, SimConfig, run

__version__ = "0.1.0"

__all__ = [
    "ConservedQuantities", "CoreParams", "ab_from_background", "grey_profile",
    "Perturbation", "check_phase_symmetry", "dispersive_damping", "linear_damping", "two_photon",
    "ParameterTrajectory", "ShelfParams",
    "evolve_background", "evolve_core_parameters", "grey_parameter_rhs", "phase_conservation_check",
    "LayerProfile", "shelf_magnitude_profile",
    "shelf_phase_profile", "airy_ai", "airy_ai_integral",
    "FieldState", "Grid", "SimBackground", "SimConfig", "run",
]
