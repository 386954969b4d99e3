import importlib

import loamsim

PUBLIC_NAMES = [
    "ChannelState",
    "ConfigError",
    "Constellation",
    "DetectorTable",
    "FixedChannel",
    "FixedReference",
    "FreeSearchResult",
    "RaySearchResult",
    "RayleighPerTrial",
    "Regime",
    "SerPoint",
    "SweepConfig",
    "ThresholdRatioReference",
    "ZeroReference",
    "__version__",
    "build_detector",
    "design_loam",
    "design_to_json",
    "detect",
    "effective_min_distance",
    "gen_pam",
    "gen_psk",
    "gen_qam",
    "mean_power",
    "oracle_free_search_m2",
    "oracle_ray_search",
    "run_sweep",
    "ser_points_to_csv",
    "ser_points_to_json",
    "snr_db_to_sigma2",
    "spacing_strong",
    "strong_reference_threshold",
    "sweep_config_from_dict",
    "theoretical_ser_asymptotic",
]


def test_public_names_are_pinned():
    assert sorted(loamsim.__all__) == PUBLIC_NAMES
    for name in loamsim.__all__:
        assert hasattr(loamsim, name), name


def test_submodule_names_are_reexported():
    for module in ("channel", "constellations", "detector", "oracle", "simulate"):
        mod = importlib.import_module(f"loamsim.{module}")
        for name in mod.__all__:
            assert name in loamsim.__all__, f"{module}.{name}"
            assert getattr(loamsim, name) is getattr(mod, name), f"{module}.{name}"
