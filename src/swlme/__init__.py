"""1D shallow water linearized moment equations: model, solver, and energy diagnostics."""

from swlme.basis import ClosureTensors, Variant, compute_tensors
from swlme.model import (
    DryStateError,
    EnergyPair,
    EntropyVars,
    ModelParams,
    boussinesq_beta,
    energy,
    entropy_vars,
    flux,
    max_wave_speed,
    to_conserved,
    to_primitive,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureTensors",
    "DryStateError",
    "EnergyPair",
    "EntropyVars",
    "ModelParams",
    "Variant",
    "boussinesq_beta",
    "compute_tensors",
    "energy",
    "entropy_vars",
    "flux",
    "max_wave_speed",
    "to_conserved",
    "to_primitive",
]
