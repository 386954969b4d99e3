import json
import math

import numpy as np
import pytest

from loamsim import (
    ChannelState,
    Regime,
    design_loam,
    design_to_json,
    effective_min_distance,
    gen_pam,
    gen_psk,
    gen_qam,
    mean_power,
    oracle_ray_search,
    spacing_strong,
    strong_reference_threshold,
)
from loamsim.constellations import _spacing_root
from loamsim.simulate import _loam_fading_design

RNG = np.random.default_rng(20240501)


def random_state(rng, order=None, regime=None, power=None):
    order = order or int(rng.choice([2, 4, 8]))
    power = power or float(rng.uniform(0.2, 5.0))
    h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    threshold = strong_reference_threshold(power, order, abs(h))
    regime = regime or rng.choice(["lofree", "weak", "strong"])
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


# ---------------------------------------------------------------------------
# spacing formulas
# ---------------------------------------------------------------------------

def test_spacing_strong_values():
    assert spacing_strong(1.0, 2) == pytest.approx(2.0)
    assert spacing_strong(1.0, 4) == pytest.approx(0.8944271909999159)


def test_spacing_strong_inverts_power():
    rng = np.random.default_rng(2)
    for _ in range(50):
        power = float(rng.uniform(0.1, 10))
        order = int(rng.integers(2, 65))
        d = spacing_strong(power, order)
        assert (order**2 - 1) * d**2 / 12.0 == pytest.approx(power, rel=1e-12)


def _saturating_spacing_by_bisection(c_mag, power, order, inward):
    """Independent root finder: largest d with mean power exactly on budget."""
    sign = -1.0 if inward else 1.0
    idx = np.arange(order)

    def pw(d):
        return np.mean((c_mag + sign * idx * d) ** 2)

    hi = 10.0 * math.sqrt(power) + 10.0 * c_mag
    assert pw(hi) > power
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pw(mid) <= power:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("c_mag,power,order", [(0.0, 1.0, 4), (0.6, 1.0, 4), (1.2, 1.0, 4), (0.4, 0.7, 8)])
def test_spacing_weak_matches_bisection(c_mag, power, order):
    d = _spacing_root(c_mag, power, order)
    ref = _saturating_spacing_by_bisection(c_mag, power, order, inward=True)
    assert d == pytest.approx(ref, rel=1e-9)


def test_spacing_weak_dominates_anchor():
    """Walking inward from the anchor is never worse than walking outward."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        power = float(rng.uniform(0.2, 4.0))
        order = int(rng.integers(2, 17))
        c_mag = float(rng.uniform(0.0, 0.99 * math.sqrt(power)))
        outward = _saturating_spacing_by_bisection(c_mag, power, order, inward=False)
        assert _spacing_root(c_mag, power, order) >= outward - 1e-12


def test_spacing_weak_equals_anchor_at_origin():
    for order in (2, 4, 8):
        assert _spacing_root(0.0, 1.0, order) == pytest.approx(
            _saturating_spacing_by_bisection(0.0, 1.0, order, inward=False), rel=1e-12
        )


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def test_classify_regime_examples():
    def regime(b):
        return design_loam(ChannelState(h=1.0, b=b, power=1.0, order=4)).regime

    assert regime(0.0) is Regime.LO_FREE
    assert regime(2.0) is Regime.STRONG_REFERENCE
    assert regime(0.6) is Regime.WEAK_REFERENCE


def test_classify_regime_boundary_is_strong():
    threshold = strong_reference_threshold(1.0, 4, 1.0)
    state = ChannelState(h=1.0, b=math.sqrt(threshold), power=1.0, order=4)
    assert design_loam(state).regime is Regime.STRONG_REFERENCE


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize("edge", ["below_threshold", "above_lo_free_cut"])
def test_weak_just_inside_its_edges_matches_ray_oracle(edge, order):
    """1e-8 (relative) inside either edge, both designers design weak.

    There the regime test's slack decides: a slack of 1e-6 on either edge
    would design strong or LO-free and miss the ray oracle by about 1e-8.
    """
    h = 0.8 + 0.3j
    if edge == "below_threshold":
        b = math.sqrt(strong_reference_threshold(1.0, order, abs(h)) * (1.0 - 1e-8))
    else:
        b = 1e-8 * abs(h)
    state = ChannelState(h=h, b=b, power=1.0, order=order)
    design = design_loam(state)
    assert design.regime is Regime.WEAK_REFERENCE
    found = oracle_ray_search(state).min_distance
    assert abs(effective_min_distance(design.points, h, b) - found) <= 1e-12 * found
    # The fading kernel's weak layout: first level at zero, the same spacing.
    _, _, rho0, d = _loam_fading_design(np.array([h]), np.array([complex(b)]), 1.0, order)
    assert rho0[0] == 0.0
    assert d[0] == pytest.approx(design.spacing, rel=1e-12)


# ---------------------------------------------------------------------------
# the adaptive design
# ---------------------------------------------------------------------------

def test_design_strong_example():
    out = design_loam(ChannelState(h=1.0, b=2.0, power=1.0, order=4))
    assert out.regime is Regime.STRONG_REFERENCE
    assert out.spacing == pytest.approx(0.8944271909999159, rel=1e-12)
    assert out.ray_phase == pytest.approx(math.pi)
    expected_set = sorted([-1.3416407864998738, -0.4472135954999579, 0.4472135954999579, 1.3416407864998738])
    assert np.allclose(sorted(out.points.real), expected_set, atol=1e-9)
    assert np.allclose(out.points.imag, 0.0, atol=1e-9)
    assert np.allclose(
        out.magnitudes,
        [0.6583592135001262, 1.5527864045000421, 2.4472135954999579, 3.3416407864998741],
        rtol=1e-9,
    )
    assert mean_power(out.points) == pytest.approx(1.0, rel=1e-9)


def test_design_weak_example():
    out = design_loam(ChannelState(h=1.0, b=0.6, power=1.0, order=4))
    assert out.regime is Regime.WEAK_REFERENCE
    d = 0.7561214056163709  # frozen; certified against the ray-search oracle
    assert out.spacing == pytest.approx(d, rel=1e-10)
    assert np.allclose(out.points.real, [idx * d - 0.6 for idx in range(4)], atol=1e-9)
    assert np.allclose(out.points.imag, 0.0, atol=1e-9)
    assert np.allclose(out.magnitudes, [0.0, d, 2 * d, 3 * d], atol=1e-9)
    assert mean_power(out.points) == pytest.approx(1.0, rel=1e-6)


def test_design_lo_free_m2():
    out = design_loam(ChannelState(h=1.0, b=0.0, power=1.0, order=2))
    assert out.regime is Regime.LO_FREE
    assert out.ray_phase == 0.0
    assert np.allclose(out.points, [0.0, math.sqrt(2.0)], atol=1e-12)
    assert np.allclose(out.magnitudes, [0.0, math.sqrt(2.0)], atol=1e-12)


def test_design_magnitudes_ascend_and_match_points():
    rng = np.random.default_rng(11)
    for _ in range(300):
        state = random_state(rng)
        out = design_loam(state)
        direct = np.abs(state.h * out.points + state.b)
        assert np.allclose(out.magnitudes, direct, rtol=1e-9, atol=1e-12)
        assert np.all(np.diff(out.magnitudes) > 0)


def test_design_magnitudes_form_arithmetic_progression():
    rng = np.random.default_rng(12)
    for _ in range(300):
        state = random_state(rng)
        out = design_loam(state)
        gaps = np.diff(np.sort(out.magnitudes))
        assert np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12 * gaps[0] + 1e-300)


def test_design_points_collinear_with_null_point():
    rng = np.random.default_rng(13)
    for _ in range(300):
        state = random_state(rng)
        out = design_loam(state)
        rotated = out.points * np.exp(-1j * out.ray_phase)
        scale = math.sqrt(state.power)
        assert np.max(np.abs(rotated.imag)) < 1e-9 * scale
        if out.regime is Regime.LO_FREE:
            assert np.all(rotated.real >= -1e-12 * scale)
        else:
            # no point overshoots the null point on the far side
            c_mag = abs(state.b / state.h)
            assert np.max(rotated.real) <= c_mag * (1 + 1e-9) + 1e-12
            if out.regime is Regime.WEAK_REFERENCE:
                assert np.max(rotated.real) == pytest.approx(c_mag, rel=1e-9)


def test_design_rotation_covariance():
    rng = np.random.default_rng(14)
    for _ in range(100):
        state = random_state(rng)
        phi = rng.uniform(0, 2 * math.pi)
        rotated = ChannelState(
            h=state.h * np.exp(1j * phi), b=state.b, power=state.power, order=state.order
        )
        base = design_loam(state)
        rot = design_loam(rotated)
        if base.regime is Regime.LO_FREE:
            continue  # convention pins the ray to phase 0 in that case
        assert np.allclose(rot.points, base.points * np.exp(-1j * phi), rtol=1e-9, atol=1e-12)
        assert np.allclose(rot.magnitudes, base.magnitudes, rtol=1e-9, atol=1e-12)


def test_design_scale_consistency():
    rng = np.random.default_rng(15)
    for _ in range(100):
        state = random_state(rng)
        t = float(rng.uniform(0.1, 10.0))
        scaled = ChannelState(
            h=state.h * t, b=state.b * t, power=state.power, order=state.order
        )
        base = design_loam(state)
        out = design_loam(scaled)
        assert out.regime == base.regime
        assert np.allclose(out.points, base.points, rtol=1e-9, atol=1e-12)
        assert np.allclose(out.magnitudes, t * base.magnitudes, rtol=1e-9, atol=1e-12)


def test_design_power_saturation():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        state = random_state(rng)
        out = design_loam(state)
        assert mean_power(out.points) == pytest.approx(state.power, rel=1e-6)


def test_design_regime_boundary_outermost_point():
    rng = np.random.default_rng(17)
    for order in (2, 4, 8):
        h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        threshold = strong_reference_threshold(1.0, order, abs(h))
        state = ChannelState(h=complex(h), b=math.sqrt(threshold), power=1.0, order=order)
        out = design_loam(state)
        assert out.regime is Regime.STRONG_REFERENCE
        c_mag = abs(state.b / state.h)
        assert np.max(np.abs(out.points)) == pytest.approx(c_mag, rel=1e-9)


def test_design_dominates_baselines():
    """The adaptive design never loses to PAM/QAM/PSK at equal (h, b, P, M)."""
    rng = np.random.default_rng(18)
    for k in range(10_000):
        order = int(rng.choice([2, 4, 8, 16]))
        state = random_state(rng, order=order)
        loam = effective_min_distance(design_loam(state).points, state.h, state.b)
        baselines = [gen_pam, gen_psk]
        if math.isqrt(order) ** 2 == order:
            baselines.append(gen_qam)
        for baseline in baselines:
            pts = baseline(state.power, state.order).points
            other = effective_min_distance(pts, state.h, state.b)
            assert loam >= other - 1e-9


def test_design_beats_qam_in_weak_regime_counterexample():
    """Regression: a weak scenario where square QAM is unusually strong."""
    h = complex(np.exp(1j * math.pi / 3))
    b = complex(math.sqrt(0.6))
    state = ChannelState(h=h, b=b, power=1.0, order=4)
    loam = effective_min_distance(design_loam(state).points, h, b)
    qam = effective_min_distance(gen_qam(1.0, 4).points, h, b)
    assert qam > 0.3  # the baseline really is strong here
    assert loam >= qam - 1e-9


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_gen_pam_examples():
    assert np.allclose(gen_pam(1.0, 2).points, [-1.0, 1.0])
    assert np.allclose(
        np.sort(gen_pam(1.0, 4).points.real),
        [-1.3416407864998738, -0.4472135954999579, 0.4472135954999579, 1.3416407864998738],
        atol=1e-12,
    )


def test_gen_pam_power():
    rng = np.random.default_rng(19)
    for _ in range(50):
        power = float(rng.uniform(0.1, 10))
        order = int(rng.integers(2, 65))
        assert mean_power(gen_pam(power, order).points) == pytest.approx(power, rel=1e-12)


def test_gen_psk_examples():
    points = gen_psk(1.0, 4).points
    assert np.allclose(points, [1, 1j, -1, -1j], atol=1e-12)
    assert np.allclose(np.abs(gen_psk(2.5, 8).points), math.sqrt(2.5), atol=1e-12)


def test_gen_qam_examples():
    points = gen_qam(1.0, 4).points
    expected = {(0.5**0.5) * complex(i, q) for i in (-1, 1) for q in (-1, 1)}
    assert {complex(round(p.real, 9), round(p.imag, 9)) for p in points} == {
        complex(round(e.real, 9), round(e.imag, 9)) for e in expected
    }
    assert mean_power(gen_qam(1.0, 64).points) == pytest.approx(1.0, rel=1e-12)


def test_gen_qam_rejects_non_square():
    with pytest.raises(ValueError):
        gen_qam(1.0, 8)


def test_mean_power_examples():
    assert mean_power([0j]) == 0.0
    assert mean_power([-1 + 0j, 1 + 0j]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_power([])


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def test_design_json_fields_and_precision():
    out = design_loam(ChannelState(h=1.0, b=2.0, power=1.0, order=4))
    doc = json.loads(design_to_json(out))
    assert list(doc.keys()) == [
        "scheme", "order", "regime", "ray_phase", "spacing", "points", "magnitudes",
    ]
    assert doc["scheme"] == "LOAM"
    assert doc["regime"] == "StrongReference"
    assert doc["order"] == 4
    assert doc["spacing"] == pytest.approx(0.8944271909999159, rel=1e-15)
    assert len(doc["points"]) == 4 and len(doc["points"][0]) == 2
    # 17 significant digits survive a round-trip exactly
    assert doc["spacing"] == out.spacing
