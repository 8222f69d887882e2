"""Two-tone microwave transmission toolkit for optomechanical cavities.

Simulates, sweeps and fits the probe transmission of a pumped side-coupled
cavity whose response carries a narrow mechanically induced transparency or
absorption feature.  All internal frequencies and rates are angular (rad/s);
file and CLI boundaries speak Hz.
"""

from .model import (
    HBAR,
    DENOMINATOR_GUARD,
    TWO_PI,
    CavityParams,
    MechanicalParams,
    PumpConfig,
    PumpScheme,
    SingularDenominator,
    cavity_susceptibility,
    cooperativity,
    effective_linewidth,
    intracavity_photon_number,
    mechanical_susceptibility,
    probe_transmission,
)
from .sweeps import (
    NoiseSpec,
    SweepMap,
    SweepTrace,
    add_noise,
    dbm_to_watts,
    default_delta_grid,
    default_line_grid,
    emulate_protocol,
    simulate_line_cut,
    simulate_map,
    watts_to_dbm,
)
from .fitting import (
    FeatureNotFound,
    InsufficientData,
    UnderResolved,
    FitDataset,
    FitProblem,
    FitResult,
    ParamBinding,
    extract_linewidth,
    fit,
    residuals,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "DENOMINATOR_GUARD",
    "TWO_PI",
    "CavityParams",
    "MechanicalParams",
    "PumpConfig",
    "PumpScheme",
    "SingularDenominator",
    "cavity_susceptibility",
    "cooperativity",
    "effective_linewidth",
    "intracavity_photon_number",
    "mechanical_susceptibility",
    "probe_transmission",
    "NoiseSpec",
    "SweepMap",
    "SweepTrace",
    "add_noise",
    "dbm_to_watts",
    "default_delta_grid",
    "default_line_grid",
    "emulate_protocol",
    "simulate_line_cut",
    "simulate_map",
    "watts_to_dbm",
    "FeatureNotFound",
    "InsufficientData",
    "UnderResolved",
    "FitDataset",
    "FitProblem",
    "FitResult",
    "ParamBinding",
    "extract_linewidth",
    "fit",
    "residuals",
    "__version__",
]
