import dataclasses
import math

import numpy as np
import pytest

from loamsim import (
    ChannelState,
    ConfigError,
    FixedChannel,
    FixedReference,
    RayleighPerTrial,
    SweepConfig,
    ThresholdRatioReference,
    ZeroReference,
    design_loam,
    run_sweep,
    ser_points_to_csv,
    ser_points_to_json,
    strong_reference_threshold,
    sweep_config_from_dict,
    theoretical_ser_asymptotic,
)
from loamsim.simulate import _loam_fading_design, _loam_fading_levels


def sweep(schemes, order=4, snrs=(40.0,), trials=100_000, seed=99, h=1.0 + 0j,
          reference=None, channel=None, power=1.0, workers=None):
    cfg = SweepConfig(
        schemes=tuple(schemes),
        order=order,
        snr_grid_db=tuple(snrs),
        trials_per_point=trials,
        seed=seed,
        channel_mode=channel or FixedChannel(h=h),
        reference_mode=reference or ZeroReference(),
        power=power,
    )
    return run_sweep(cfg, workers=workers)


# ---------------------------------------------------------------------------
# theoretical asymptote
# ---------------------------------------------------------------------------

def test_theoretical_ser_vanishes_for_huge_gaps():
    assert theoretical_ser_asymptotic(1e6, 1.0, 4) == 0.0


def test_theoretical_ser_m2_value():
    # Q(14.14...) is far below 1e-20
    assert theoretical_ser_asymptotic(2.0, 0.01, 2) < 1e-20


def test_theoretical_ser_range_and_validation():
    assert 0.0 <= theoretical_ser_asymptotic(0.1, 1.0, 8) <= 1.0
    with pytest.raises(ValueError):
        theoretical_ser_asymptotic(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        theoretical_ser_asymptotic(1.0, 0.0, 2)


def test_theoretical_ser_matches_simulation_in_gaussian_regime():
    """Strong-reference LOAM at moderate SER agrees with the Gaussian tail."""
    state = ChannelState(h=1.0, b=12.0, power=1.0, order=4)
    from loamsim import design_loam, effective_min_distance, snr_db_to_sigma2

    delta = effective_min_distance(design_loam(state).points, state.h, state.b)
    snr_db = 13.0
    sigma2 = snr_db_to_sigma2(snr_db, state)
    predicted = theoretical_ser_asymptotic(delta, sigma2, 4)
    assert 1e-3 < predicted < 1e-1
    (point,) = sweep(
        ["loam"], order=4, snrs=(snr_db,), trials=400_000,
        reference=FixedReference(b=12.0 + 0j),
    )
    se = math.sqrt(predicted * (1 - predicted) / point.trials)
    assert abs(point.ser - predicted) < 3 * se + 2e-4


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_plateaus_without_reference():
    points = {p.scheme: p for p in sweep(["psk", "qam", "pam", "loam"])}
    assert points["psk"].ser == pytest.approx(0.75, abs=0.01)
    assert points["qam"].ser == pytest.approx(0.75, abs=0.01)
    assert points["pam"].ser == pytest.approx(0.50, abs=0.01)
    assert points["loam"].ser < 1e-3


def test_ser_point_bookkeeping():
    (point,) = sweep(["pam"], trials=10_000, snrs=(10.0,))
    assert point.ser == point.errors / point.trials
    expected_ci = 1.96 * math.sqrt(point.ser * (1 - point.ser) / point.trials)
    assert point.ci95_halfwidth == pytest.approx(expected_ci)
    assert point.order == 4


def test_sweep_grid_shape_and_order():
    points = sweep(["loam", "pam"], snrs=(0.0, 10.0, 20.0), trials=1000)
    assert len(points) == 6
    assert [(p.scheme, p.snr_db) for p in points] == [
        ("loam", 0.0), ("loam", 10.0), ("loam", 20.0),
        ("pam", 0.0), ("pam", 10.0), ("pam", 20.0),
    ]


def test_sweep_deterministic_across_workers():
    kwargs = dict(schemes=["loam", "pam"], snrs=(0.0, 15.0), trials=30_000, seed=7,
                  reference=ThresholdRatioReference(ratio=0.4))
    one = ser_points_to_csv(sweep(workers=1, **kwargs))
    many = ser_points_to_csv(sweep(workers=8, **kwargs))
    assert one == many


def test_sweep_deterministic_across_reruns():
    kwargs = dict(schemes=["qam"], snrs=(5.0,), trials=20_000, seed=11)
    assert sweep(**kwargs) == sweep(**kwargs)


def test_loam_ser_monotone_in_snr():
    points = sweep(["loam"], snrs=tuple(range(0, 25, 5)), trials=50_000,
                   reference=FixedReference(b=1.5 + 0j))
    for lo, hi in zip(points, points[1:]):
        assert hi.ser <= lo.ser + 2 * (lo.ci95_halfwidth + hi.ci95_halfwidth)


def test_loam_dominates_baselines_at_fixed_channel():
    h = complex(0.9 * np.exp(1j * 1.1))
    points = sweep(
        ["loam", "pam", "qam", "psk"], snrs=(5.0, 15.0, 25.0), trials=50_000,
        h=h, reference=ThresholdRatioReference(ratio=0.8),
    )
    by_scheme = {}
    for p in points:
        by_scheme.setdefault(p.scheme, []).append(p)
    for scheme in ("pam", "qam", "psk"):
        for ours, theirs in zip(by_scheme["loam"], by_scheme[scheme]):
            assert ours.ser <= theirs.ser + 2 * (ours.ci95_halfwidth + theirs.ci95_halfwidth)


def test_antipodal_pair_plateaus_at_one_half():
    """+1/-1 produce identical amplitudes without a reference signal."""
    (point,) = sweep(["pam"], order=2, snrs=(40.0,), trials=50_000)
    assert point.ser == pytest.approx(0.5, abs=0.01)


def test_rayleigh_with_explicit_reference_value():
    points = sweep(
        ["loam", "pam"], snrs=(20.0,), trials=10_000,
        channel=RayleighPerTrial(), reference=FixedReference(b=2.0 + 1.0j),
    )
    assert all(0.0 <= p.ser <= 1.0 for p in points)
    by_scheme = {p.scheme: p.ser for p in points}
    assert by_scheme["loam"] <= by_scheme["pam"] + 0.02


def test_rayleigh_mode_runs_all_schemes():
    points = sweep(
        ["loam", "pam", "qam", "psk"], snrs=(10.0, 30.0), trials=10_000,
        channel=RayleighPerTrial(), reference=ThresholdRatioReference(ratio=2.0),
    )
    by_scheme = {}
    for p in points:
        by_scheme.setdefault(p.scheme, []).append(p.ser)
    for scheme, sers in by_scheme.items():
        assert sers[1] <= sers[0]  # more SNR never hurts on this grid
    assert by_scheme["loam"][1] <= min(by_scheme[s][1] for s in ("pam", "qam", "psk"))


@pytest.mark.parametrize("order", [2, 4, 64])
@pytest.mark.parametrize("regime", ["lofree", "weak", "strong", "boundary"])
def test_fading_levels_match_design_loam(regime, order):
    """The fading path's per-trial LOAM receive levels are design_loam's magnitudes."""
    rng = np.random.default_rng(order)
    n = 300
    power = float(rng.uniform(0.2, 5.0))
    h = (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2.0)
    ratio = {
        "lofree": 0.0,
        "weak": rng.uniform(0.02, 0.98, n),
        "strong": rng.uniform(1.0, 5.0, n),
        "boundary": 1.0,
    }[regime]
    threshold = strong_reference_threshold(power, order, np.abs(h))
    b = np.sqrt(ratio * threshold) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    _, _, rho0, d = _loam_fading_design(h, b, power, order)
    levels = _loam_fading_levels(h, rho0, d, order)
    for k in range(n):
        state = ChannelState(h=h[k], b=b[k], power=power, order=order)
        magnitudes = design_loam(state).magnitudes
        np.testing.assert_allclose(levels[k], magnitudes, rtol=1e-12, atol=1e-12 * magnitudes[-1])


def test_rayleigh_deterministic_across_workers():
    kwargs = dict(schemes=["loam", "psk"], snrs=(10.0,), trials=25_000, seed=3,
                  channel=RayleighPerTrial(), reference=ThresholdRatioReference(ratio=1.0))
    assert sweep(workers=1, **kwargs) == sweep(workers=6, **kwargs)


# ---------------------------------------------------------------------------
# config validation and file schema
# ---------------------------------------------------------------------------

def _config_doc(**overrides):
    doc = {
        "schemes": ["loam", "pam"],
        "order": 4,
        "snr_grid_db": [0, 10],
        "trials_per_point": 2000,
        "seed": 42,
        "power": 1.0,
        "channel_mode": {"mode": "fixed_channel", "h": [1.0, 0.0]},
        "reference_mode": {"mode": "zero"},
    }
    doc.update(overrides)
    return doc


def test_config_from_dict_roundtrip():
    cfg = sweep_config_from_dict(_config_doc())
    assert cfg.schemes == ("loam", "pam")
    assert cfg.channel_mode == FixedChannel(h=1.0 + 0j)
    assert cfg.reference_mode == ZeroReference()


def test_config_reports_offending_key_path():
    with pytest.raises(ConfigError) as err:
        sweep_config_from_dict(_config_doc(trials_per_point=0))
    assert err.value.path == "trials_per_point"

    with pytest.raises(ConfigError) as err:
        sweep_config_from_dict(_config_doc(schemes=["loam", "qam"], order=8))
    assert err.value.path == "schemes[1]"

    with pytest.raises(ConfigError) as err:
        sweep_config_from_dict(_config_doc(channel_mode={"mode": "fixed_channel"}))
    assert err.value.path == "channel_mode.h"

    with pytest.raises(ConfigError) as err:
        sweep_config_from_dict(
            _config_doc(reference_mode={"mode": "threshold_ratio", "ratio": -1})
        )
    assert err.value.path == "reference_mode.ratio"

    with pytest.raises(ConfigError) as err:
        sweep_config_from_dict(_config_doc(unexpected=1))
    assert err.value.path == "unexpected"


@pytest.mark.parametrize(
    "source,overrides,path",
    [
        ("json", {"reference_mode": {"mode": "threshold_ratio", "ratio": True}},
         "reference_mode.ratio"),
        ("json", {"channel_mode": {"mode": "fixed_channel", "h": [True, False]}},
         "channel_mode.h"),
        ("json", {"reference_mode": {"mode": "fixed_value", "b": [1.0, False]}},
         "reference_mode.b"),
        ("json", {"snr_grid_db": [True]}, "snr_grid_db"),
        ("json", {"power": float("inf")}, "power"),
        ("library", {"seed": True, "power": True}, "seed"),
        ("library", {"power": True}, "power"),
        ("library", {"power": float("inf")}, "power"),
        ("library", {"reference_mode": ThresholdRatioReference(ratio=True)},
         "reference_mode.ratio"),
    ],
)
def test_config_rejects_bools_and_non_finite_numbers(source, overrides, path):
    with pytest.raises(ConfigError) as err:
        if source == "json":
            sweep_config_from_dict(_config_doc(**overrides))
        else:
            dataclasses.replace(sweep_config_from_dict(_config_doc()), **overrides).validate()
    assert err.value.path == path


def test_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError) as err:
        sweep_config_from_dict(_config_doc(schemes=["loam", "ofdm"]))
    assert err.value.path == "schemes[1]"


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_csv_format():
    points = sweep(["pam"], snrs=(0.0, 10.0), trials=1000)
    text = ser_points_to_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == "scheme,order,snr_db,trials,errors,ser,ci95"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "pam"
    assert fields[1] == "4"
    assert fields[3] == "1000"
    assert float(fields[5]) == points[0].ser


def test_json_mirror_matches_csv_rows():
    import json

    points = sweep(["pam"], snrs=(0.0,), trials=1000)
    rows = json.loads(ser_points_to_json(points))
    assert len(rows) == 1
    assert rows[0]["scheme"] == "pam"
    assert rows[0]["trials"] == 1000
    assert rows[0]["ser"] == points[0].ser
