import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from loamsim import (
    ChannelState,
    ConfigError,
    FixedChannel,
    FixedReference,
    RayleighPerTrial,
    Regime,
    SweepConfig,
    ThresholdRatioReference,
    ZeroReference,
    build_detector,
    design_loam,
    detect,
    run_sweep,
    ser_points_to_csv,
    ser_points_to_json,
    snr_db_to_sigma2,
    strong_reference_threshold,
    sweep_config_from_dict,
    theoretical_ser_asymptotic,
)
from loamsim.constellations import SCHEMES
from loamsim.detector import _acceptance_intervals
from loamsim.simulate import (
    _CHUNK,
    _baseline_fading_errors,
    _block_rng,
    _fixed_block,
    _loam_fading_design,
    _loam_fading_outside,
    _rayleigh_block,
)


def _loam_fading_levels(h, rho0, d, order):
    """Reference receive levels |h*x_i + b| = |h| * (rho0 + i*d), one row per trial."""
    return np.abs(h)[:, None] * (rho0[:, None] + np.arange(order)[None, :] * d[:, None])


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


# ---------------------------------------------------------------------------
# block kernels against the detection rules they replace
# ---------------------------------------------------------------------------

def _searchsorted_fixed_errors(rng, n, sigma2, mu, table):
    """Fixed-channel block: detect every trial by searchsorted, then compare.

    Returns the error count and the observations z.
    """
    symbols = rng.integers(0, mu.size, size=n)
    n_re, n_im = rng.standard_normal(n), rng.standard_normal(n)
    z = np.abs(mu[symbols] + (n_re + 1j * n_im) * math.sqrt(sigma2 / 2.0))
    slots = np.searchsorted(table.thresholds, z, side="left")
    return int(np.count_nonzero(table.decision_index[slots] != symbols)), z


def _one_shot_baseline_errors(symbols, h, b, noise, points):
    """Fading baseline detection on the whole trials x M matrix at once."""
    mu = h[:, None] * points[None, :] + b[:, None]
    z = np.abs(mu[np.arange(symbols.size), symbols] + noise)
    detected = np.argmin(np.abs(z[:, None] - np.abs(mu)), axis=1)
    return int(np.count_nonzero(detected != symbols)), z


def _midpoint_count_errors(symbols, h, b, noise, power, order):
    """Fading LOAM detection by counting each trial's midpoints below z."""
    ray, c_mag, rho0, d = _loam_fading_design(h, b, power, order)
    z = np.abs(h * ray * (c_mag - (rho0 + symbols * d)) + b + noise)
    levels = _loam_fading_levels(h, rho0, d, order)
    mids = 0.5 * (levels[:, :-1] + levels[:, 1:])
    return int(np.count_nonzero(np.sum(z[:, None] > mids, axis=1) != symbols)), z


def _rayleigh_draws(rng, n, sigma2, order, power, reference_mode):
    """A fading block's (symbols, h, b, noise), drawn in the kernel's order."""
    symbols = rng.integers(0, order, size=n)
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    if isinstance(reference_mode, ThresholdRatioReference):
        mag = np.sqrt(reference_mode.ratio * strong_reference_threshold(power, order, np.abs(h)))
        b = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
    else:
        b = np.full(n, complex(reference_mode.b))
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(sigma2 / 2.0)
    return symbols, h, b, noise


def _full_matrix_rayleigh_errors(rng, n, sigma2, order, power, scheme, reference_mode):
    """Fading block with every temporary allocated and n x M detection.

    Returns the error count and the observations z.
    """
    symbols, h, b, noise = _rayleigh_draws(rng, n, sigma2, order, power, reference_mode)
    if scheme == "loam":
        return _midpoint_count_errors(symbols, h, b, noise, power, order)
    return _one_shot_baseline_errors(symbols, h, b, noise, SCHEMES[scheme](power, order).points)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("ratio", [0.0, 1.0 / 3.0, 2.0])
def test_fixed_block_matches_searchsorted_detection(scheme, ratio):
    """Interval counts equal searchsorted detection, folded zero-reference alphabets too."""
    h = complex(0.9 * np.exp(0.7j))
    order = 16
    b = math.sqrt(ratio * strong_reference_threshold(1.0, order, abs(h)))
    state = ChannelState(h=h, b=b, power=1.0, order=order)
    gen = SCHEMES[scheme]
    points = design_loam(state).points if gen is None else gen(1.0, order).points
    table = build_detector(points, h, b)
    lo, hi = _acceptance_intervals(table)
    mu = h * points + b
    buffers = {}  # shared by every block, as within one worker
    for block, (n, snr) in enumerate([(1000, 10.0), (16384, 0.0), (16384, 25.0), (777, 40.0)]):
        sigma2 = snr_db_to_sigma2(snr, state)
        got = _fixed_block(_block_rng(5, 1, 2, block), n, sigma2, buffers, mu, lo, hi)
        want, z = _searchsorted_fixed_errors(_block_rng(5, 1, 2, block), n, sigma2, mu, table)
        assert got == want
        np.testing.assert_array_equal(buffers["z"][:n], z)


@pytest.mark.parametrize("order", [2, 4, 64])
def test_loam_fading_interval_matches_midpoint_count(order):
    """mid(s-1) < z <= mid(s) is the midpoint count, for z on and beside midpoints."""
    rng = np.random.default_rng(order)
    n = 3000
    power = 1.5
    h = (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2.0)
    ratio = rng.choice([0.0, 0.3, 1.0, 3.0], size=n)
    threshold = strong_reference_threshold(power, order, np.abs(h))
    b = np.sqrt(ratio * threshold) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    _, _, rho0, d = _loam_fading_design(h, b, power, order)
    levels = _loam_fading_levels(h, rho0, d, order)
    mids = 0.5 * (levels[:, :-1] + levels[:, 1:])
    symbols = rng.integers(0, order, size=n)
    rows = np.arange(n)
    near = mids[rows, np.clip(symbols - rng.integers(0, 2, size=n), 0, order - 2)]
    anywhere = mids[rows, rng.integers(0, order - 1, size=n)]
    buffers = {}
    for z in (
        near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf), anywhere,
        levels[rows, symbols], rng.uniform(0.0, 1.2, size=n) * levels[:, -1],
    ):
        want = np.sum(z[:, None] > mids, axis=1) != symbols
        got = _loam_fading_outside(z, symbols, h, rho0, d, order, buffers)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("scheme,order", [("pam", 4), ("qam", 16), ("psk", 64)])
def test_baseline_fading_chunks_match_one_shot_detection(scheme, order):
    """Row chunks detect as the whole matrix does, over several chunks and a remainder."""
    rng = np.random.default_rng(order)
    n = 2 * (_CHUNK // order) + 37
    h = (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2.0)
    b = 0.4 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    symbols = rng.integers(0, order, size=n)
    points = SCHEMES[scheme](1.0, order).points
    buffers = {}
    for sigma in (0.3, 0.03, 0.003):
        noise = sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
        for m in (n, n - 37, 37):
            got = _baseline_fading_errors(symbols[:m], h[:m], b[:m], noise[:m], points, buffers)
            want, _ = _one_shot_baseline_errors(symbols[:m], h[:m], b[:m], noise[:m], points)
            assert got == want


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize(
    "reference",
    [ZeroReference(), FixedReference(b=0.8 - 0.3j)]
    + [ThresholdRatioReference(ratio=r) for r in (0.0, 1.0 / 3.0, 1.0, 2.0)],
)
def test_rayleigh_block_matches_full_matrix_kernel(reference, order):
    """Same draws, observations and errors as the kernel allocating every temporary."""
    buffers = {}
    for si, scheme in enumerate(sorted(SCHEMES)):
        for block, (n, snr) in enumerate([(3001, 10.0), (1000, 30.0)]):
            sigma2 = 10.0 ** (-snr / 10.0)
            got = _rayleigh_block(
                _block_rng(9, si, order, block), n, sigma2, buffers, order, 1.0,
                None if scheme == "loam" else SCHEMES[scheme](1.0, order).points, reference,
            )
            want, z = _full_matrix_rayleigh_errors(
                _block_rng(9, si, order, block), n, sigma2, order, 1.0, scheme, reference
            )
            assert got == want
            # The z buffer holds the whole block for LOAM, the last row chunk otherwise.
            last = n if scheme == "loam" else (n - 1) % (_CHUNK // order) + 1
            np.testing.assert_array_equal(buffers["z"][:last], z[n - last:])


# SNRs at which 15-42 % of the trials err, so that a changed decision rule shows.
@pytest.mark.parametrize("order,snr", [(4, 10.0), (64, 30.0)])
@pytest.mark.parametrize(
    "reference,regimes",
    [
        (FixedReference(b=0.8 - 0.3j), {Regime.WEAK_REFERENCE, Regime.STRONG_REFERENCE}),
        (ThresholdRatioReference(ratio=1.0 / 3.0), {Regime.WEAK_REFERENCE}),
        (ThresholdRatioReference(ratio=2.0), {Regime.STRONG_REFERENCE}),
        (ZeroReference(), {Regime.LO_FREE}),
        (FixedReference(b=1e-14), {Regime.LO_FREE}),
    ],
)
def test_rayleigh_loam_block_matches_scalar_path(reference, regimes, order, snr):
    """A fading LOAM block errs as its trials do through the scalar designer and detector.

    Each trial goes through ChannelState, design_loam, build_detector and
    detect. A trial whose z lies within 1e-9 (relative) of a threshold may go
    either way. LO-free trials, b = 0 and b below the LO-free cutoff, send
    symbol i to +i*d in both paths.
    """
    n, sigma2 = 1500, 10.0 ** (-snr / 10.0)
    got = _rayleigh_block(_block_rng(4, 0, order, 0), n, sigma2, {}, order, 1.0, None, reference)
    symbols, h, b, noise = _rayleigh_draws(_block_rng(4, 0, order, 0), n, sigma2, order, 1.0,
                                           reference)
    errors = near = 0
    seen = set()
    for k in range(n):
        design = design_loam(ChannelState(h=h[k], b=b[k], power=1.0, order=order))
        seen.add(design.regime)
        table = build_detector(design.points, h[k], b[k])
        z = abs(h[k] * design.points[symbols[k]] + b[k] + noise[k])
        near += bool(np.min(np.abs(table.thresholds - z)) <= 1e-9 * z)
        errors += detect(table, z) != symbols[k]
    assert seen == regimes
    assert abs(errors - got) <= near


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
        # Integers JSON allows but no float can hold.
        ("json", {"snr_grid_db": [10**400, 10]}, "snr_grid_db[0]"),
        ("json", {"power": 10**400}, "power"),
        ("json", {"channel_mode": {"mode": "fixed_channel", "h": [10**400, 0]}},
         "channel_mode.h"),
        ("json", {"reference_mode": {"mode": "fixed_value", "b": [0, -10**400]}},
         "reference_mode.b"),
        ("json", {"reference_mode": {"mode": "threshold_ratio", "ratio": 10**400}},
         "reference_mode.ratio"),
        ("library", {"snr_grid_db": (0, -10**400)}, "snr_grid_db[1]"),
        ("library", {"power": 10**400}, "power"),
        ("library", {"channel_mode": FixedChannel(h=10**400)}, "channel_mode.h"),
        # Entries that are not numbers reach validate unconverted.
        ("library", {"snr_grid_db": (True,)}, "snr_grid_db[0]"),
        ("library", {"snr_grid_db": (0, "x")}, "snr_grid_db[1]"),
        ("library", {"snr_grid_db": (None,)}, "snr_grid_db[0]"),
        # Finite numbers whose squares, or noise variance, leave the float range.
        ("json", {"channel_mode": {"mode": "fixed_channel", "h": [1e200, 0]}},
         "channel_mode.h"),
        ("json", {"channel_mode": {"mode": "fixed_channel", "h": [1e-200, 0]}},
         "channel_mode.h"),
        ("json", {"reference_mode": {"mode": "fixed_value", "b": [1e200, 0]}},
         "reference_mode.b"),
        ("json", {"channel_mode": {"mode": "rayleigh_per_trial"},
                  "reference_mode": {"mode": "fixed_value", "b": [1e200, 0]}},
         "reference_mode.b"),
        ("json", {"reference_mode": {"mode": "threshold_ratio", "ratio": 1e300}},
         "reference_mode.ratio"),
        ("json", {"channel_mode": {"mode": "rayleigh_per_trial"},
                  "reference_mode": {"mode": "threshold_ratio", "ratio": 1e300}},
         "reference_mode.ratio"),
        ("json", {"power": 1e300}, "power"),
        ("json", {"snr_grid_db": [0, 4000]}, "snr_grid_db[1]"),
        ("json", {"snr_grid_db": [-4000]}, "snr_grid_db[0]"),
        ("json", {"channel_mode": {"mode": "rayleigh_per_trial"}, "snr_grid_db": [4000]},
         "snr_grid_db[0]"),
        ("json", {"channel_mode": {"mode": "rayleigh_per_trial"}, "snr_grid_db": [-4000]},
         "snr_grid_db[0]"),
        # sigma2 = 1e-140/1e170 is finite and positive but far below the smallest normal.
        ("json", {"channel_mode": {"mode": "fixed_channel", "h": [1e-70, 0]},
                  "snr_grid_db": [1700]}, "snr_grid_db[0]"),
        # A reference so far above the signal that LOAM's levels tie in floating point.
        ("json", {"reference_mode": {"mode": "threshold_ratio", "ratio": 1e24}},
         "reference_mode.ratio"),
        ("json", {"channel_mode": {"mode": "rayleigh_per_trial"},
                  "reference_mode": {"mode": "threshold_ratio", "ratio": 1e24}},
         "reference_mode.ratio"),
        ("json", {"reference_mode": {"mode": "fixed_value", "b": [1.4e12, 0]}},
         "reference_mode.b"),
        # Under fading, fixed_value is checked at the |h| = 1 stand-in too.
        ("json", {"channel_mode": {"mode": "rayleigh_per_trial"},
                  "reference_mode": {"mode": "fixed_value", "b": [1e16, 0]}},
         "reference_mode.b"),
    ],
)
def test_config_rejects_bools_and_non_finite_numbers(source, overrides, path):
    with pytest.raises(ConfigError) as err:
        if source == "json":
            sweep_config_from_dict(_config_doc(**overrides))
        else:
            dataclasses.replace(sweep_config_from_dict(_config_doc()), **overrides).validate()
    assert err.value.path == path


@pytest.mark.parametrize("fading", [False, True])
def test_tie_check_applies_only_to_loam(fading):
    """A reference that folds LOAM's levels is refused only where LOAM runs."""
    channel = {"mode": "rayleigh_per_trial"} if fading else {"mode": "fixed_channel", "h": [1, 0]}
    for reference, path in [
        ({"mode": "threshold_ratio", "ratio": 1e24}, "reference_mode.ratio"),
        ({"mode": "fixed_value", "b": [1e16, 0]}, "reference_mode.b"),
    ]:
        with pytest.raises(ConfigError) as err:
            sweep_config_from_dict(_config_doc(channel_mode=channel, reference_mode=reference))
        assert err.value.path == path
        config = sweep_config_from_dict(
            _config_doc(schemes=["pam", "psk", "qam"], channel_mode=channel,
                        reference_mode=reference)
        )
        assert len(run_sweep(config, workers=1)) == 6


@pytest.mark.parametrize("fading", [False, True])
@pytest.mark.parametrize(
    "reference,counterpart",
    [
        ({"mode": "fixed_value", "b": [1e-200, 0]}, {"mode": "zero"}),
        ({"mode": "fixed_value", "b": [1e-160, 1e-170]}, {"mode": "zero"}),
        ({"mode": "fixed_value", "b": [5e-324, 0]}, {"mode": "zero"}),
        # Both draw a reference phase per fading trial, so their streams align.
        ({"mode": "threshold_ratio", "ratio": 1e-300}, {"mode": "threshold_ratio", "ratio": 0}),
    ],
)
def test_reference_far_below_lo_free_cut_counts_as_none(fading, reference, counterpart):
    """A nonzero b whose square underflows, subnormal b included, runs as b = 0 does."""
    h = [math.cos(math.pi / 3), math.sin(math.pi / 3)]
    channel = {"mode": "rayleigh_per_trial"} if fading else {"mode": "fixed_channel", "h": h}

    def errors(reference_mode):
        doc = _config_doc(schemes=sorted(SCHEMES), snr_grid_db=[10, 20, 30],
                          trials_per_point=20_000, seed=1, channel_mode=channel,
                          reference_mode=reference_mode)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return [p.errors for p in run_sweep(sweep_config_from_dict(doc), workers=1)]

    assert errors(reference) == errors(counterpart)


# Finite floats >= 0: hypothesis's own mix of edge values, and magnitudes
# spread over the decades of the float range.
_MAGNITUDE = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.builds(lambda e: 10.0**e, st.floats(-323.0, 308.0)),
)
_ANY_FLOAT = st.builds(operator.mul, st.sampled_from([1.0, -1.0]), _MAGNITUDE)
_RANGE_PATHS = {
    "power", "channel_mode.h", "reference_mode.b", "reference_mode.ratio", "snr_grid_db[0]"
}


# Without the explain phase, a failure is reported in seconds, not minutes.
@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(
    fading=st.booleans(),
    order=st.sampled_from([2, 4, 64]),
    h=st.tuples(_ANY_FLOAT, _ANY_FLOAT),
    reference=st.sampled_from(["zero", "fixed_value", "threshold_ratio"]),
    b=st.tuples(_ANY_FLOAT, _ANY_FLOAT),
    ratio=_MAGNITUDE,
    power=_MAGNITUDE,
    snr=_ANY_FLOAT,
)
def test_any_finite_config_runs_or_names_its_key(fading, order, h, reference, b, ratio,
                                                 power, snr):
    """Across the float range a config is rejected by key path or runs without a float error."""
    channel = {"mode": "rayleigh_per_trial"} if fading else {"mode": "fixed_channel", "h": h}
    fields = {"zero": {}, "fixed_value": {"b": b}, "threshold_ratio": {"ratio": ratio}}
    doc = _config_doc(
        schemes=["loam", "pam", "psk"] + (["qam"] if order == 4 else []),
        order=order,
        snr_grid_db=[snr],
        trials_per_point=1000,
        power=power,
        channel_mode=channel,
        reference_mode={"mode": reference, **fields[reference]},
    )
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            config = sweep_config_from_dict(doc)
        except ConfigError as err:
            assert err.path in _RANGE_PATHS
            return
        points = run_sweep(config, workers=1)
    assert all(0.0 <= p.ser <= 1.0 for p in points)


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
    import csv
    import io
    import json

    points = sweep(["pam", "loam"], snrs=(0, 10), trials=1000)
    assert all(type(p.snr_db) is float for p in points)
    rows = json.loads(ser_points_to_json(points))
    table = list(csv.DictReader(io.StringIO(ser_points_to_csv(points))))
    assert [list(row) for row in rows] == [list(row) for row in table]
    # Every field of every row: the CSV text parses to the JSON value, and
    # both carry the SerPoint's values exactly.
    assert rows == [
        {key: value if key == "scheme" else json.loads(value) for key, value in row.items()}
        for row in table
    ]
    assert rows == [dict(zip(row, dataclasses.astuple(p))) for row, p in zip(rows, points)]
