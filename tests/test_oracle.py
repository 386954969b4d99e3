import itertools
import math

import numpy as np
import pytest

from loamsim import (
    ChannelState,
    design_loam,
    effective_min_distance,
    mean_power,
    oracle_free_search_m2,
    oracle_ray_search,
    strong_reference_threshold,
)
from loamsim.oracle import _least_power_offsets


def test_ray_search_strong_m2():
    state = ChannelState(h=1.0, b=2.0, power=1.0, order=2)
    result = oracle_ray_search(state)
    assert result.min_distance == pytest.approx(2.0, rel=1e-9)


def test_ray_search_lo_free_m4():
    state = ChannelState(h=1.0, b=0.0, power=1.0, order=4)
    result = oracle_ray_search(state)
    assert result.min_distance == pytest.approx(math.sqrt(6.0 / 21.0), rel=1e-9)


def test_ray_search_weak_m4():
    # certifies the inward-anchored weak design (spacing 0.756121...)
    state = ChannelState(h=1.0, b=0.6, power=1.0, order=4)
    result = oracle_ray_search(state)
    assert result.min_distance == pytest.approx(0.7561214056163709, rel=1e-9)


def test_ray_search_offsets_are_feasible():
    state = ChannelState(h=1.0, b=0.6, power=1.0, order=4)
    result = oracle_ray_search(state)
    assert mean_power(result.offsets) <= 1.0 * (1 + 1e-9)


def test_ray_search_matches_closed_form_random():
    rng = np.random.default_rng(31)
    for regime in ("lofree", "weak", "strong"):
        for k in range(8):
            order = int(rng.choice([2, 4, 8]))
            h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            threshold = strong_reference_threshold(1.0, order, abs(h))
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
            state = ChannelState(h=complex(h), b=complex(b), power=1.0, order=order)
            expected = effective_min_distance(design_loam(state).points, h, b)
            found = oracle_ray_search(state).min_distance
            assert abs(found - expected) <= 1e-9 * expected


@pytest.mark.parametrize("regime,ratio", [("lofree", 0.0), ("weak", 0.4), ("strong", 2.5)])
def test_ray_search_matches_closed_form_m64(regime, ratio):
    h = 1.3 * complex(np.exp(0.7j))
    b = math.sqrt(ratio * strong_reference_threshold(1.0, 64, abs(h))) * complex(np.exp(2.1j))
    state = ChannelState(h=h, b=b, power=1.0, order=64)
    expected = effective_min_distance(design_loam(state).points, h, b)
    assert oracle_ray_search(state).min_distance == pytest.approx(expected, rel=1e-9)


def _isotonic_max_min(y):
    """Nonneg. nondecreasing least-squares fit by the max-min block-mean formula."""
    n = len(y)
    cum = np.concatenate(([0.0], np.cumsum(y)))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    means = np.where(j >= i, (cum[j + 1] - cum[i]) / np.maximum(j - i + 1, 1), np.inf)
    q = [max(means[: k + 1, k:].min(axis=1)) for k in range(n)]
    return np.maximum(q, 0.0)


def test_least_power_matches_all_sign_patterns():
    # Reference: offsets u_k = c + s_k*r_k with radii r_k = q_k + k*d, over
    # every sign pattern s; each pattern's least power is the bounded
    # isotonic fit of y_k = -s_k*c - k*d.
    rng = np.random.default_rng(41)
    for order in range(2, 8):
        k = np.arange(order, dtype=float)
        for trial in range(25):
            c = 0.0 if trial == 0 else float(rng.uniform(0.0, 3.0))
            d = float(rng.uniform(0.01, 2.0))
            patterns = itertools.product((1.0, -1.0), repeat=order)
            ys = [-np.array(s) * c - k * d for s in patterns]
            expected = min(np.mean((y - _isotonic_max_min(y)) ** 2) for y in ys)
            found = np.mean(_least_power_offsets(c, d, k, np.empty(order), np.empty(order)) ** 2)
            assert found == pytest.approx(expected, rel=1e-12)


def test_ray_search_deterministic():
    state = ChannelState(h=0.8 + 0.4j, b=0.5 - 0.2j, power=1.0, order=4)
    a = oracle_ray_search(state)
    b = oracle_ray_search(state)
    assert a.min_distance == b.min_distance
    assert np.array_equal(a.offsets, b.offsets)


def test_free_search_collinearity_strong():
    result = oracle_free_search_m2(1.0, 2.0, 1.0)
    ray = np.exp(-1j * np.angle(-2.0 / 1.0))
    assert abs((result.x0 * ray).imag) < 1e-9
    assert abs((result.x1 * ray).imag) < 1e-9
    assert result.min_distance == pytest.approx(2.0, rel=1e-12)


def test_free_search_lo_free():
    result = oracle_free_search_m2(1.0, 0.0, 1.0)
    assert result.min_distance == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_free_search_rotated_strong():
    h = complex(np.exp(1j * math.pi / 3))
    b = 2.0 * complex(np.exp(-1j * math.pi / 6))
    result = oracle_free_search_m2(h, b, 1.0)
    assert result.min_distance == pytest.approx(2.0, rel=1e-12)


def test_free_search_never_beats_ray_search():
    rng = np.random.default_rng(32)
    for k in range(10):
        h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        threshold = strong_reference_threshold(1.0, 2, abs(h))
        b = math.sqrt(rng.uniform(0.05, 2.0) * threshold) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
        state = ChannelState(h=complex(h), b=complex(b), power=1.0, order=2)
        free = oracle_free_search_m2(complex(h), complex(b), 1.0)
        ray = oracle_ray_search(state)
        assert free.min_distance == pytest.approx(ray.min_distance, rel=1e-9)


@pytest.mark.parametrize("h,b,power", [(0.0, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, -1.0)])
def test_free_search_rejects_invalid_scenario(h, b, power):
    with pytest.raises(ValueError):
        oracle_free_search_m2(h, b, power)


def _pair_gaps(h, b, x0, x1):
    return np.abs(np.abs(h * x0 + b) - np.abs(h * x1 + b))


def test_free_search_bound_holds_by_brute_force():
    # Reference: every feasible pair of a 60 x 60 grid over the disk of
    # radius sqrt(2P), and random feasible pairs with arbitrary phases.
    # No pair may beat the oracle, and the oracle's own pair must be
    # feasible and realise its gap.
    rng = np.random.default_rng(53)
    for ratio in (0.0, 0.0, 0.1, 0.3, 0.6, 0.9, 1.0, 1.5, 2.5, 4.0):
        power = float(rng.uniform(0.5, 2.0))
        h = complex(rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        # At M = 2 the regime threshold is P*|h|^2, so ratio > 1 is strong.
        b = complex(math.sqrt(ratio * power) * abs(h) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        result = oracle_free_search_m2(h, b, power)
        bound = result.min_distance * (1.0 + 1e-12)

        assert mean_power([result.x0, result.x1]) <= power * (1 + 1e-9)
        assert _pair_gaps(h, b, result.x0, result.x1) == pytest.approx(
            result.min_distance, rel=1e-12
        )

        radius = math.sqrt(2.0 * power)
        axis = np.linspace(-radius, radius, 60)
        pts = (axis[:, None] + 1j * axis[None, :]).ravel()
        pts = pts[np.abs(pts) <= radius]
        sq = np.abs(pts) ** 2
        for lo in range(0, pts.size, 256):
            rows = slice(lo, lo + 256)
            gaps = _pair_gaps(h, b, pts[rows, None], pts[None, :])
            feasible = sq[rows, None] + sq[None, :] <= 2.0 * power
            assert gaps[feasible].max() <= bound

        n = 100_000
        # Half the moduli pairs on the power circle, half inside the disk.
        scale = np.where(np.arange(n) % 2 == 0, 1.0, np.sqrt(rng.random(n)))
        split = rng.uniform(0.0, math.pi / 2.0, n)
        rho0 = radius * scale * np.cos(split)
        rho1 = radius * scale * np.sin(split)
        x0 = rho0 * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        x1 = rho1 * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        assert _pair_gaps(h, b, x0, x1).max() <= bound


def _reference_ray_search(state):
    """Reference bisection on fresh arrays each step (np.cumsum, np.mean)."""

    def offsets_at(c_mag, spacing, order):
        y = c_mag - spacing * np.arange(order)
        return y - max(np.cumsum(y)[-1] / order, 0.0)

    order, power = state.order, state.power
    h_mag = abs(state.h)
    c_mag = abs(state.b) / h_mag
    lo, hi = 0.0, 2.0 * math.sqrt(order * power) / (order - 1)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.mean(offsets_at(c_mag, mid, order) ** 2) <= power:
            lo = mid
        else:
            hi = mid
    return h_mag * lo, offsets_at(c_mag, lo, order)


def _assert_ray_search_bitwise(state):
    found = oracle_ray_search(state)
    min_distance, offsets = _reference_ray_search(state)
    assert found.min_distance == min_distance
    assert np.array_equal(found.offsets, offsets)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 16, 64])
@pytest.mark.parametrize("regime", ["lofree", "weak", "strong"])
def test_ray_search_bitwise_equals_reference_loop(regime, order):
    # The buffered bisection must reproduce the reference loop bit for bit:
    # the same sequential pooled sum and the same pairwise mean of squares.
    rng = np.random.default_rng([59, order, len(regime)])
    for _ in range(6):
        power = float(rng.uniform(0.2, 5.0))
        h = complex(rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        ratio = {"lofree": 0.0, "weak": rng.uniform(0.02, 0.98), "strong": rng.uniform(1.0, 5.0)}
        b_mag = math.sqrt(ratio[regime] * strong_reference_threshold(power, order, abs(h)))
        b = complex(b_mag * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        _assert_ray_search_bitwise(ChannelState(h=h, b=b, power=power, order=order))


@pytest.mark.parametrize(
    "h,b,power,order",
    [
        # |b|^2 exactly at the regime threshold 3P(M-1)|h|^2/(M+1).
        (1.0, 1.0, 1.0, 2),
        (1.0, 3.0, 5.0, 4),
        (1.0, 1.5, 1.0, 7),
        # b = 0.
        (0.6 - 0.8j, 0.0, 1.0, 5),
        (1.0, 0.0, 1.0, 64),
        # The ends of the power range, weak, strong and LO-free.
        (0.3 + 0.4j, 1e-51 + 2e-51j, 1e-100, 8),
        (1.0, 1e-50, 1e-100, 64),
        (2.0 - 1.0j, 3e50 - 1e50j, 1e100, 4),
        (1.0, 0.0, 1e100, 16),
    ],
)
def test_ray_search_bitwise_equals_reference_loop_edges(h, b, power, order):
    _assert_ray_search_bitwise(ChannelState(h=h, b=b, power=power, order=order))


def _min_level_gaps(h, b, alphabets):
    levels = np.sort(np.abs(h * alphabets + b), axis=-1)
    return np.diff(levels, axis=-1).min(axis=-1)


def _within_budget(alphabets, power):
    mean = np.mean(np.abs(alphabets) ** 2, axis=-1, keepdims=True)
    return alphabets * np.sqrt(np.minimum(1.0, power / mean))


@pytest.mark.parametrize("order", [3, 4, 5])
def test_no_alphabet_beats_the_ray_by_brute_force(order):
    # Reference for the collinearity lemma at M >= 3: 20,000 random complex
    # alphabets scaled to the budget, then 32 hill-climbs of 400 steps from
    # the best of them. None may beat the ray optimum, the climbs must come
    # close to it, and the lemma's map onto the line through 0 and w = -b/h
    # must keep every level while not raising the power.
    rng = np.random.default_rng([67, order])
    for ratio in (0.0, 0.4, 1.0, 3.0):
        power = float(rng.uniform(0.5, 2.0))
        h = complex(rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        b_mag = math.sqrt(ratio * strong_reference_threshold(power, order, abs(h)))
        b = complex(b_mag * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        ray = oracle_ray_search(ChannelState(h=h, b=b, power=power, order=order)).min_distance
        bound = ray * (1.0 + 1e-9)

        x = rng.normal(size=(20_000, order)) + 1j * rng.normal(size=(20_000, order))
        x *= np.sqrt(power / np.mean(np.abs(x) ** 2, axis=-1, keepdims=True))
        gaps = _min_level_gaps(h, b, x)
        assert gaps.max() <= bound

        best = np.argsort(gaps)[-32:]
        x, gaps = x[best], gaps[best]
        step = 0.2 * math.sqrt(power)
        for _ in range(400):
            noise = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
            trial = _within_budget(x + step * noise, power)
            trial_gaps = _min_level_gaps(h, b, trial)
            better = trial_gaps > gaps
            x[better], gaps[better] = trial[better], trial_gaps[better]
            step *= 0.99
        assert gaps.max() <= bound
        assert gaps.max() >= 0.9 * ray

        w = -b / h
        unit = w / abs(w) if w else 1.0
        on_line = w - np.abs(x - w) * unit
        scale = abs(b) + abs(h) * math.sqrt(order * power)
        np.testing.assert_allclose(
            np.abs(h * on_line + b), np.abs(h * x + b), rtol=1e-12, atol=1e-12 * scale
        )
        assert np.all(np.abs(on_line) <= np.abs(x) * (1.0 + 1e-12))
