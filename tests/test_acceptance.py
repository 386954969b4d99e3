"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 7 sweeps two fixed channels with a weak reference: h = j,
where the conventional alphabets fold onto shared receive levels and the
>= 30 dB advantage at SER 1e-3 is asserted, and h = e^(j*pi/3), where nothing
folds, the best conventional scheme crosses 1e-3 only 6.8 dB after LOAM, and
only "LOAM reaches 1e-3 no later than the best conventional scheme" is
asserted (see the criterion's docstring for why no design can do more there).
"""

import math
import time

import numpy as np
import pytest

from loamsim import (
    ChannelState,
    FixedChannel,
    FixedReference,
    Regime,
    SweepConfig,
    ThresholdRatioReference,
    ZeroReference,
    build_detector,
    design_loam,
    detect,
    effective_min_distance,
    mean_power,
    oracle_free_search_m2,
    oracle_ray_search,
    run_sweep,
    ser_points_to_csv,
    strong_reference_threshold,
    theoretical_ser_asymptotic,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_scenario(rng, regime: str, order: int, power: float = 1.0) -> ChannelState:
    h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    threshold = strong_reference_threshold(power, order, abs(h))
    if regime == "lofree":
        b = 0j
    elif regime == "weak":
        b = math.sqrt(rng.uniform(0.02, 0.98) * threshold) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
    else:
        b = math.sqrt(rng.uniform(1.0, 5.0) * threshold) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
    return ChannelState(h=complex(h), b=complex(b), power=power, order=order)


def test_criterion_1_ray_search_matches_closed_form():
    """Search best never beats nor falls short of the designed min distance."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_low, worst_high = 0.0, 0.0
    for regime in ("lofree", "weak", "strong"):
        for k in range(100):
            order = int(rng.choice([2, 4, 8]))
            state = _random_scenario(rng, regime, order)
            expected = effective_min_distance(design_loam(state).points, state.h, state.b)
            found = oracle_ray_search(state).min_distance
            rel = (found - expected) / expected
            worst_low = min(worst_low, rel)
            worst_high = max(worst_high, rel)
    elapsed = time.monotonic() - start
    ok = worst_low >= -1e-9 and worst_high <= 1e-9 and elapsed < 300.0
    _report(
        "criterion 1 (oracle vs closed form, 300 scenarios)",
        ok,
        f"rel gap in [{worst_low:+.2e}, {worst_high:+.2e}], {elapsed:.1f}s",
    )


def test_criterion_2_free_search_collinearity():
    """Unconstrained M=2 optima lie on the ray through the null point."""
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst_off = worst_rel = 0.0
    power = 1.0
    for _ in range(20):
        h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        threshold = strong_reference_threshold(power, 2, abs(h))
        b = math.sqrt(rng.uniform(0.05, 2.0) * threshold) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
        result = oracle_free_search_m2(complex(h), complex(b), power)
        ray = np.exp(-1j * np.angle(-b / h))
        off = max(abs((result.x0 * ray).imag), abs((result.x1 * ray).imag))
        worst_off = max(worst_off, off)
        state = ChannelState(h=complex(h), b=complex(b), power=power, order=2)
        on_ray = oracle_ray_search(state).min_distance
        worst_rel = max(worst_rel, abs(result.min_distance - on_ray) / on_ray)
    elapsed = time.monotonic() - start
    ok = worst_off <= 1e-9 * math.sqrt(power) and worst_rel <= 1e-9 and elapsed < 120.0
    _report(
        "criterion 2 (free-search collinearity, 20 scenarios)",
        ok,
        f"max off-ray component {worst_off:.2e} (tol 1e-9), "
        f"max |free - ray|/ray {worst_rel:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_3_power_saturation():
    """Designed constellations meet the power budget with equality."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10_000):
        regime = ("lofree", "weak", "strong")[int(rng.integers(3))]
        order = int(rng.choice([2, 4, 8]))
        power = float(rng.uniform(0.1, 10.0))
        state = _random_scenario(rng, regime, order, power)
        rel = abs(mean_power(design_loam(state).points) - power) / power
        worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(
        "criterion 3 (power saturation, 10^4 draws)",
        ok,
        f"worst relative deviation {worst:.2e} (tol 1e-6)",
    )


def test_criterion_4_regime_threshold():
    """|b|^2 at 0.99/1.00/1.01 of threshold flips weak->strong->strong."""
    rng = np.random.default_rng(404)
    ok = True
    details = []
    for order in (2, 4, 8):
        h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        power = 1.0
        threshold = strong_reference_threshold(power, order, abs(h))
        regimes = []
        for mult in (0.99, 1.0, 1.01):
            b = math.sqrt(mult * threshold) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            state = ChannelState(h=complex(h), b=complex(b), power=power, order=order)
            regimes.append(design_loam(state).regime)
            if mult == 1.0:
                out = design_loam(state)
                c_mag = abs(state.b / state.h)
                extreme = float(np.max(np.abs(out.points)))
                boundary_ok = abs(extreme - c_mag) <= 1e-9 * c_mag
                ok = ok and boundary_ok
                details.append(f"M={order} |x_max|-|c|={extreme - c_mag:+.2e}")
        flips_ok = regimes == [
            Regime.WEAK_REFERENCE, Regime.STRONG_REFERENCE, Regime.STRONG_REFERENCE,
        ]
        ok = ok and flips_ok
    _report("criterion 4 (regime threshold sweep)", ok, "; ".join(details))


def test_criterion_5_plateaus_and_loam_escape():
    """Conventional schemes plateau without a reference; LOAM does not."""
    cfg = SweepConfig(
        schemes=("psk", "qam", "pam", "loam"),
        order=4,
        snr_grid_db=(40.0,),
        trials_per_point=100_000,
        seed=505,
        channel_mode=FixedChannel(h=1.0 + 0j),
        reference_mode=ZeroReference(),
        power=1.0,
    )
    points = {p.scheme: p for p in run_sweep(cfg)}
    psk_ok = abs(points["psk"].ser - 0.75) <= 0.01  # covers QPSK == 4-PSK
    qam_ok = abs(points["qam"].ser - 0.75) <= 0.01
    pam_ok = abs(points["pam"].ser - 0.50) <= 0.01
    loam_ok = points["loam"].ser < 1e-3
    ok = psk_ok and qam_ok and pam_ok and loam_ok
    _report(
        "criterion 5 (no-reference plateaus at 40 dB)",
        ok,
        f"psk={points['psk'].ser:.4f} qam={points['qam'].ser:.4f} "
        f"pam={points['pam'].ser:.4f} loam={points['loam'].ser:.2e}",
    )


def test_criterion_6_asymptotic_ser_law():
    """Monte-Carlo SER matches the Gaussian tail prediction at SER = 1e-3."""
    start = time.monotonic()
    delta = 2.0  # strong-regime min distance for M=2, P=1, |h|=1
    target = 1e-3
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if theoretical_ser_asymptotic(delta, mid, 2) < target:
            lo = mid
        else:
            hi = mid
    sigma2 = math.sqrt(lo * hi)
    snr_db = 10.0 * math.log10(1.0 / sigma2)
    cfg = SweepConfig(
        schemes=("loam",),
        order=2,
        snr_grid_db=(snr_db,),
        trials_per_point=10_000_000,
        seed=606,
        channel_mode=FixedChannel(h=1.0 + 0j),
        reference_mode=FixedReference(b=10.0 + 0j),
        power=1.0,
    )
    (point,) = run_sweep(cfg)
    se = math.sqrt(target * (1 - target) / point.trials)
    elapsed = time.monotonic() - start
    ok = abs(point.ser - target) <= 3 * se and elapsed < 120.0
    _report(
        "criterion 6 (asymptotic SER law, 10^7 trials)",
        ok,
        f"snr={snr_db:.3f} dB mc={point.ser:.3e} vs {target:.0e} "
        f"(3se={3 * se:.1e}), {elapsed:.1f}s",
    )


def _first_crossings(h: complex, grid: tuple) -> tuple[dict, dict]:
    """First grid SNR at which each scheme reaches SER 1e-3, and SER at grid top."""
    cfg = SweepConfig(
        schemes=("loam", "pam", "qam", "psk"),
        order=4,
        snr_grid_db=grid,
        trials_per_point=1_000_000,
        seed=707,
        channel_mode=FixedChannel(h=h),
        reference_mode=ThresholdRatioReference(ratio=1.0 / 3.0),
        power=1.0,
    )
    first, top = {}, {}
    for p in run_sweep(cfg):
        if p.ser <= 1e-3 and p.scheme not in first:
            first[p.scheme] = p.snr_db
        if p.snr_db == grid[-1]:
            top[p.scheme] = p.ser
    return first, top


def test_criterion_7_gain_over_conventional_schemes():
    """First SNR reaching SER 1e-3: adaptive design at least 30 dB earlier.

    M=4, weak reference |b|^2 = threshold/3 with b real, fixed channel, two
    channel phases:

    * h = j (reference orthogonal to the channel) folds the conventional
      alphabets onto shared receive levels, so they plateau (PAM and QAM at
      0.5, PSK at 0.25) while the phase-adaptive design keeps its spacing.
      The >= 30 dB advantage is asserted here; if no conventional scheme
      reaches 1e-3 on the grid, the design must reach it at least 30 dB
      below the top of the grid.
    * h = e^(j*pi/3) folds nothing: the exact Rice-law crossings are 15.6 dB
      (LOAM), 22.4 (QAM), 27.4 (PSK) and 32.6 (PAM), so a 30 dB gap would
      need SER 1e-3 at -5 dB, which no 4-point unit-power alphabet reaches.
      Only what the max-min design promises is asserted here: it reaches
      1e-3 no later than the best conventional scheme.

    See demos/gain_gap_study.py.
    """
    start = time.monotonic()
    grid = tuple(float(s) for s in range(0, 85, 5))
    conventional_schemes = ("pam", "qam", "psk")

    first, top = _first_crossings(1j, grid)
    loam_first = first.get("loam", math.inf)
    crossed = [first[s] for s in conventional_schemes if s in first]
    # With no conventional crossing on the grid, its top bounds the gap from below.
    best_conventional = min(crossed, default=grid[-1])
    folded_ok = best_conventional - loam_first >= 30.0
    plateaus = " ".join(f"{s}={top[s]:.3g}" for s in conventional_schemes)
    folded = (
        f"h=j: loam first={loam_first:g} dB, best conventional="
        f"{f'{best_conventional:g}' if crossed else f'none by {grid[-1]:g}'} dB, "
        f"gap={best_conventional - loam_first:g} dB (need >= 30; "
        f"SER at {grid[-1]:g} dB: {plateaus})"
    )

    first, _ = _first_crossings(complex(np.exp(1j * math.pi / 3)), grid)
    loam_first = first.get("loam", math.inf)
    best_conventional = min(
        (first[s] for s in conventional_schemes if s in first), default=math.inf
    )
    unfolded_ok = "loam" in first and loam_first <= best_conventional
    unfolded = (
        f"h=e^(j*pi/3): loam first={loam_first:g} dB, "
        f"best conventional={best_conventional:g} dB (need loam <= conventional)"
    )

    elapsed = time.monotonic() - start
    ok = folded_ok and unfolded_ok and elapsed < 900.0
    _report(
        "criterion 7 (SNR gain at SER 1e-3)", ok, f"{folded}; {unfolded}, {elapsed:.1f}s"
    )


def test_criterion_8_determinism_across_workers():
    """Identical CSV from 1 worker and 8 workers, and across reruns."""
    cfg = SweepConfig(
        schemes=("loam", "pam", "qam", "psk"),
        order=4,
        snr_grid_db=(0.0, 20.0, 40.0),
        trials_per_point=50_000,
        seed=808,
        channel_mode=FixedChannel(h=complex(0.8 * np.exp(1j * 0.7))),
        reference_mode=ThresholdRatioReference(ratio=0.5),
        power=1.0,
    )
    csv_one = ser_points_to_csv(run_sweep(cfg, workers=1))
    csv_eight = ser_points_to_csv(run_sweep(cfg, workers=8))
    csv_again = ser_points_to_csv(run_sweep(cfg, workers=8))
    ok = csv_one == csv_eight == csv_again
    _report(
        "criterion 8 (worker-count determinism)",
        ok,
        f"{len(csv_one.splitlines()) - 1} rows byte-identical across 1/8 workers",
    )


def test_criterion_9_detector_equivalence():
    """Threshold detection agrees with exhaustive argmin on 1e5 pairs."""
    rng = np.random.default_rng(909)
    mismatches = 0
    total = 0
    for _ in range(250):
        order = int(rng.integers(2, 9))
        pts = rng.normal(size=order) + 1j * rng.normal(size=order)
        h = complex(rng.normal(), rng.normal())
        if abs(h) == 0:
            h = 1.0
        b = complex(rng.normal(), rng.normal())
        table = build_detector(pts, h, b)
        radii = np.abs(h * pts + b)
        z = np.abs(rng.normal(size=400)) * (radii.max() * 1.2)
        got = detect(table, z)
        brute = np.argmin(np.abs(z[:, None] - radii[None, :]), axis=1)
        mismatches += int(np.count_nonzero(got != brute))
        total += z.size
    ok = mismatches == 0 and total >= 100_000
    _report(
        "criterion 9 (detector equivalence)",
        ok,
        f"{mismatches} mismatches over {total} random (table, z) pairs",
    )
