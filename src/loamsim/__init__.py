"""loamsim: constellation design and SER simulation for amplitude-only receivers.

An envelope receiver observes z = |h*x + b + n| and loses the phase of the
incident field. This package designs the max-min-distance constellation for
that observation model (adapting to the channel gain h and the reference
signal b), provides PAM/QAM/PSK baselines, a nearest-magnitude detector,
exact verification oracles, and a deterministic parallel Monte-Carlo
symbol-error-rate engine.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelState,
    effective_min_distance,
    snr_db_to_sigma2,
)
from .constellations import (
    Constellation,
    DesignOutcome,
    InfeasibleDesignError,
    Regime,
    classify_regime,
    constellation_to_json,
    design_loam,
    design_to_json,
    gen_pam,
    gen_psk,
    gen_qam,
    mean_power,
    spacing_strong,
    spacing_weak,
    strong_reference_threshold,
)
from .detector import DetectorTable, build_detector, detect
from .oracle import (
    FreeSearchResult,
    RaySearchResult,
    oracle_free_search_m2,
    oracle_ray_search,
    power_feasible,
)
from .simulate import (
    ConfigError,
    FixedChannel,
    FixedReference,
    RayleighPerTrial,
    SerPoint,
    SweepConfig,
    ThresholdRatioReference,
    ZeroReference,
    run_sweep,
    ser_points_to_csv,
    ser_points_to_json,
    sweep_config_from_dict,
    theoretical_ser_asymptotic,
)

__all__ = [
    "__version__",
    "ChannelState",
    "snr_db_to_sigma2",
    "effective_min_distance",
    "Regime",
    "Constellation",
    "DesignOutcome",
    "InfeasibleDesignError",
    "classify_regime",
    "strong_reference_threshold",
    "spacing_strong",
    "spacing_weak",
    "design_loam",
    "gen_pam",
    "gen_psk",
    "gen_qam",
    "mean_power",
    "design_to_json",
    "constellation_to_json",
    "DetectorTable",
    "build_detector",
    "detect",
    "power_feasible",
    "RaySearchResult",
    "oracle_ray_search",
    "FreeSearchResult",
    "oracle_free_search_m2",
    "FixedChannel",
    "RayleighPerTrial",
    "ZeroReference",
    "FixedReference",
    "ThresholdRatioReference",
    "SweepConfig",
    "SerPoint",
    "ConfigError",
    "run_sweep",
    "sweep_config_from_dict",
    "theoretical_ser_asymptotic",
    "ser_points_to_csv",
    "ser_points_to_json",
]
