import math

import numpy as np
import pytest

from loamsim import (
    ChannelState,
    build_detector,
    effective_min_distance,
    gen_pam,
    gen_psk,
    snr_db_to_sigma2,
    spacing_strong,
)


def _levels(points, h, b):
    """Transformed magnitudes |h*x + b| as the detector computes them, in point order."""
    table = build_detector(points, h, b)
    return table.magnitudes[np.argsort(table.decision_index)]


def test_transformed_magnitude_reduces_to_reference():
    assert _levels([0.0, 1.0], 1.5 - 0.5j, 3 + 4j)[0] == pytest.approx(5.0)


def test_transformed_magnitude_real_line():
    assert _levels([1.0, 0.0], 1.0, 2.0)[0] == pytest.approx(3.0)


def test_transformed_magnitude_offset_level():
    # direct evaluation of |h*x + b| for an interior PAM-like level
    assert _levels([1.3416, 0.0], 1.0, 2.0)[0] == pytest.approx(3.3416)


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_transformed_magnitude_rejects_non_finite():
    with pytest.raises(ValueError):
        effective_min_distance([float("nan"), 0.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        build_detector([1.0, 0.0], complex(float("inf"), 0), 0.0)


@pytest.mark.parametrize(
    "snr_db,h,expected",
    [(0.0, 1.0, 1.0), (10.0, 1.0, 0.1), (0.0, 2.0, 4.0)],
)
def test_snr_db_to_sigma2(snr_db, h, expected):
    state = ChannelState(h=h, b=0.0, power=1.0, order=2)
    assert snr_db_to_sigma2(snr_db, state) == pytest.approx(expected)


def test_effective_min_distance_psk_collapses():
    rng = np.random.default_rng(6)
    points = gen_psk(1.0, 4).points
    for _ in range(20):
        h = complex(rng.normal(), rng.normal())
        assert effective_min_distance(points, h, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_effective_min_distance_strong_design():
    from loamsim import design_loam

    out = design_loam(ChannelState(h=1.0, b=2.0, power=1.0, order=4))
    d = effective_min_distance(out.points, 1.0, 2.0)
    assert d == pytest.approx(math.sqrt(12.0 / 15.0), rel=1e-12)


def test_effective_min_distance_needs_two_points():
    with pytest.raises(ValueError):
        effective_min_distance([1 + 0j], 1.0, 0.0)


def test_pam_projection_asymptotes():
    """Reference far off-phase kills PAM's gaps; co-phased preserves them."""
    power = 1.0
    t = 1e3 * math.sqrt(power)
    pam = gen_pam(power, 4).points
    d = spacing_strong(power, 4)
    # orthogonal reference: +/- levels fold together
    assert effective_min_distance(pam, 1.0, 1j * t) / t < 1e-2
    # co-phased reference: gaps approach the native spacing
    assert effective_min_distance(pam, 1.0, t) == pytest.approx(d, rel=1e-2)


def test_phase_shift_invariance():
    """|h*x + b| is unchanged under (x, h, b) -> (x e^{j phi}, h e^{-j phi}, b)."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = complex(rng.normal(), rng.normal())
        h = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        phi = rng.uniform(0, 2 * math.pi)
        x_rot, h_rot = x * np.exp(1j * phi), h * np.exp(-1j * phi)
        assert abs(h_rot * x_rot + b) == pytest.approx(abs(h * x + b), rel=1e-12, abs=1e-12)


def test_channel_state_validation():
    with pytest.raises(ValueError):
        ChannelState(h=0.0, b=0.0, power=1.0, order=2)
    with pytest.raises(ValueError):
        ChannelState(h=1.0, b=0.0, power=0.0, order=2)
    with pytest.raises(ValueError):
        ChannelState(h=1.0, b=0.0, power=1.0, order=1)
    with pytest.raises(ValueError):
        ChannelState(h=complex(float("nan"), 0), b=0.0, power=1.0, order=2)
    # The range rule: squares that leave [1e-150, 1e150], or |b|^2 above it.
    for h, b, power in [(1e200, 0.0, 1.0), (1e-200, 0.0, 1.0), (1.0, 1e200, 1.0),
                        (1.0, 0.0, 1e308), (1.0, 0.0, 1e-200),
                        # Finite parts whose modulus overflows, and ints beyond a float.
                        (complex(1.5e308, 1.5e308), 0.0, 1.0),
                        (1.0, complex(1.5e308, 1.5e308), 1.0),
                        (10**400, 0.0, 1.0), (1.0, 10**400, 1.0), (1.0, 0.0, 10**400)]:
        with pytest.raises(ValueError):
            ChannelState(h=h, b=b, power=power, order=2)
