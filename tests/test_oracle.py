import itertools
import math

import numpy as np
import pytest

from loamsim import (
    ChannelState,
    design_loam,
    effective_min_distance,
    oracle_free_search_m2,
    oracle_ray_search,
    power_feasible,
    strong_reference_threshold,
)
from loamsim.oracle import _least_power_offsets


def test_power_feasible_examples():
    assert power_feasible([-1 + 0j, 1 + 0j], 1.0)
    assert not power_feasible([-1.1 + 0j, 1.1 + 0j], 1.0)
    out = design_loam(ChannelState(h=1.0, b=0.6, power=1.0, order=4))
    assert power_feasible(out.points, 1.0)


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
    assert power_feasible(result.offsets.astype(complex), 1.0)


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
        k = np.arange(order)
        for trial in range(25):
            c = 0.0 if trial == 0 else float(rng.uniform(0.0, 3.0))
            d = float(rng.uniform(0.01, 2.0))
            patterns = itertools.product((1.0, -1.0), repeat=order)
            ys = [-np.array(s) * c - k * d for s in patterns]
            expected = min(np.mean((y - _isotonic_max_min(y)) ** 2) for y in ys)
            found = np.mean(_least_power_offsets(c, d, order) ** 2)
            assert found == pytest.approx(expected, rel=1e-12)


def test_ray_search_deterministic():
    state = ChannelState(h=0.8 + 0.4j, b=0.5 - 0.2j, power=1.0, order=4)
    a = oracle_ray_search(state)
    b = oracle_ray_search(state)
    assert a.min_distance == b.min_distance
    assert np.array_equal(a.offsets, b.offsets)


def test_free_search_collinearity_strong():
    result = oracle_free_search_m2(1.0, 2.0, 1.0, grid=60)
    ray = np.exp(-1j * np.angle(-2.0 / 1.0))
    assert abs((result.x0 * ray).imag) < 0.02
    assert abs((result.x1 * ray).imag) < 0.02
    assert result.min_distance == pytest.approx(2.0, rel=1e-2)


def test_free_search_lo_free():
    result = oracle_free_search_m2(1.0, 0.0, 1.0, grid=60)
    assert result.min_distance == pytest.approx(math.sqrt(2.0), rel=1e-2)


def test_free_search_rotated_strong():
    h = complex(np.exp(1j * math.pi / 3))
    b = 2.0 * complex(np.exp(-1j * math.pi / 6))
    result = oracle_free_search_m2(h, b, 1.0, grid=60)
    assert result.min_distance == pytest.approx(2.0, rel=1e-2)


def test_free_search_never_beats_ray_search():
    rng = np.random.default_rng(32)
    for k in range(10):
        h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        threshold = strong_reference_threshold(1.0, 2, abs(h))
        b = math.sqrt(rng.uniform(0.05, 2.0) * threshold) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
        state = ChannelState(h=complex(h), b=complex(b), power=1.0, order=2)
        free = oracle_free_search_m2(complex(h), complex(b), 1.0, grid=60)
        ray = oracle_ray_search(state)
        assert free.min_distance <= ray.min_distance * (1.0 + 1e-2)


def test_free_search_rejects_coarse_grid():
    with pytest.raises(ValueError):
        oracle_free_search_m2(1.0, 1.0, 1.0, grid=10)
