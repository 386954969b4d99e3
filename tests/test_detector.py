import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loamsim import (
    ChannelState,
    build_detector,
    design_loam,
    detect,
    gen_pam,
    gen_psk,
    strong_reference_threshold,
)
from loamsim.constellations import SCHEMES
from loamsim.detector import _acceptance_intervals


def _strong_table():
    out = design_loam(ChannelState(h=1.0, b=2.0, power=1.0, order=4))
    return build_detector(out.points, 1.0, 2.0), out


def test_table_of_strong_design():
    table, out = _strong_table()
    assert np.allclose(
        table.magnitudes,
        [0.6583592135001262, 1.5527864045000421, 2.4472135954999579, 3.3416407864998741],
        rtol=1e-9,
    )
    assert np.allclose(table.thresholds, [1.1055728090000841, 2.0, 2.894427190999916], rtol=1e-9)
    assert not table.ambiguous
    # design indices ascend with magnitude, so the sorted slots are identity
    assert np.array_equal(table.decision_index, np.arange(4))


def test_threshold_midpoint_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pts = rng.normal(size=6) + 1j * rng.normal(size=6)
        table = build_detector(pts, complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        assert np.allclose(
            table.thresholds, (table.magnitudes[:-1] + table.magnitudes[1:]) / 2.0
        )


def test_ambiguity_flag_psk():
    table = build_detector(gen_psk(1.0, 4).points, 1.0, 0.0)
    assert table.ambiguous
    # all symbols collapse onto the lowest index
    assert np.all(table.decision_index == 0)


def test_ambiguity_flag_antipodal():
    table = build_detector(np.array([-1 + 0j, 1 + 0j]), 1.0, 0.0)
    assert table.ambiguous
    assert np.allclose(table.magnitudes, [1.0, 1.0])
    assert np.all(table.decision_index == 0)


def test_pam_folds_pairwise():
    table = build_detector(gen_pam(1.0, 4).points, 1.0, 0.0)
    assert table.ambiguous
    # {+-a} pairs collapse; two distinct receive levels remain usable
    assert set(table.decision_index.tolist()) == {0, 1}


def test_separate_tied_runs_collapse_to_their_lowest_index():
    # Two runs of levels within the tie tolerance, each sorted with its
    # higher index first, around an untied level.
    table = build_detector([1 + 1e-13, 0.5, 1.0, 2.0, 2 - 2e-13], 1.0, 0.0)
    assert table.ambiguous
    assert table.decision_index.tolist() == [1, 0, 0, 3, 3]


def test_detect_examples():
    table, out = _strong_table()
    assert detect(table, 2.1) == 2  # nearest magnitude is 2.4472
    assert detect(table, 0.0) == 0
    assert detect(table, float(table.thresholds[0])) == 0  # exact tie -> lower


def test_detect_rejects_bad_input():
    table, _ = _strong_table()
    for bad in (-0.1, math.nan, math.inf, -math.inf, [0.5, math.nan], [[0.5], [-1.0]]):
        with pytest.raises(ValueError):
            detect(table, bad)


@pytest.mark.parametrize(
    "points", [[math.inf, 0.0], [math.nan, 1.0], [1.0, complex(0.0, -math.inf)]]
)
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_build_detector_rejects_non_finite_points(points):
    with pytest.raises(ValueError, match="points must be finite"):
        build_detector(points, 1.0, 0.0)


@pytest.mark.parametrize(
    "h,b", [(math.inf, 0.0), (1.0, complex(math.nan, 0.0)), (complex(0.0, -math.inf), 1.0)]
)
def test_build_detector_rejects_non_finite_h_and_b(h, b):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="h, b and points"):
        build_detector([0.0, 1.0], h, b)


def test_midpoint_of_levels_near_the_largest_float():
    table = build_detector([1.0e308, 1.2e308], 1.0, 0.0)
    assert table.thresholds[0] == pytest.approx(1.1e308, rel=1e-15)
    assert detect(table, 1.0e308) == 0
    assert detect(table, 1.2e308) == 1


def test_zero_noise_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        order = int(rng.integers(2, 9))
        pts = rng.normal(size=order) + 1j * rng.normal(size=order)
        h = complex(rng.normal(), rng.normal()) or 1.0
        b = complex(rng.normal(), rng.normal())
        table = build_detector(pts, h, b)
        if table.ambiguous:
            continue
        for i in range(order):
            z = abs(h * pts[i] + b)
            assert detect(table, z) == i


def test_detect_matches_exhaustive_argmin():
    rng = np.random.default_rng(5)
    for _ in range(300):
        order = int(rng.integers(2, 9))
        pts = rng.normal(size=order) + 1j * rng.normal(size=order)
        h = complex(rng.normal(), rng.normal()) or 1.0
        b = complex(rng.normal(), rng.normal())
        table = build_detector(pts, h, b)
        radii = np.abs(h * pts + b)
        z = np.abs(rng.normal(size=64) * radii.max())
        got = detect(table, z)
        brute = np.argmin(np.abs(z[:, None] - radii[None, :]), axis=1)
        assert np.array_equal(got, brute)


def test_detect_monotone_in_observation():
    """The receive level of the detected symbol never falls as z rises."""
    _, out = _strong_table()
    z = np.linspace(0.0, 5.0, 4001)
    for points, h, b in ((out.points, 1.0, 2.0), (gen_pam(1.0, 4).points, 1.0, 0.0)):
        levels = np.abs(h * points + b)[detect(build_detector(points, h, b), z)]
        assert np.all(np.diff(levels) >= 0)


def _searchsorted_detect(table, z):
    """Reference detection: count the thresholds below z with searchsorted."""
    return table.decision_index[np.searchsorted(table.thresholds, z, side="left")]


@pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65])
def test_detect_matches_searchsorted_reference(order):
    """Every slot, tie and shape agrees with searchsorted on either side of 2^k."""
    rng = np.random.default_rng(order)
    tables = [
        build_detector(
            rng.normal(size=order) + 1j * rng.normal(size=order),
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
        )
        for _ in range(3)
    ]
    state = ChannelState(h=0.8 + 0.3j, b=0.2, power=1.0, order=order)
    tables.append(build_detector(design_loam(state).points, state.h, state.b))
    # Tied tables: every PSK level coincides at b = 0, PAM folds pairwise.
    tables.append(build_detector(gen_psk(1.0, order).points, 1.0, 0.0))
    tables.append(build_detector(gen_pam(1.0, order).points, 1.0, 0.0))
    # Receive levels that overflow are rejected.
    huge = np.concatenate(([0.5], np.full(order - 1, 1e308)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        build_detector(huge, 10.0, 0.0)
    # Finite levels up to the largest float keep finite midpoints.
    near_max = np.linspace(0.5, 1.0, order) * np.finfo(float).max
    tables.append(build_detector(near_max, 1.0, 0.0))
    assert np.all(np.isfinite(tables[-1].thresholds))
    for table in tables:
        t = table.thresholds
        edges = [0.0, 1e300, np.finfo(float).max]
        z = np.concatenate((edges, t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)))
        z = z[(z >= 0.0) & (z < np.inf)]
        want = _searchsorted_detect(table, z)
        got = detect(table, z)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        for zi, wi in zip(z, want):
            assert detect(table, float(zi)) == wi
            got0 = detect(table, np.asarray(zi))
            assert type(got0) is int and got0 == wi
        grid = z[: 2 * (z.size // 2)].reshape(2, -1)
        np.testing.assert_array_equal(detect(table, grid), _searchsorted_detect(table, grid))
        for empty in (np.empty(0), np.empty((0, 3))):
            got = detect(table, empty)
            assert got.shape == empty.shape and got.dtype == want.dtype


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scheme=st.sampled_from(sorted(SCHEMES)),
    order=st.sampled_from([2, 3, 4, 8, 16, 32, 64]),
    reference=st.sampled_from(["zero", "weak", "strong"]),
    h_mag=st.floats(0.05, 20.0),
    h_phase=st.floats(0.0, 2 * math.pi),
    b_phase=st.floats(0.0, 2 * math.pi),
    weak_ratio=st.floats(0.0, 1.0, exclude_max=True),
    strong_ratio=st.floats(1.0, 10.0),
    extra_z=st.lists(st.floats(0.0, 100.0), max_size=16),
)
def test_acceptance_intervals_match_detect(
    scheme, order, reference, h_mag, h_phase, b_phase, weak_ratio, strong_ratio, extra_z
):
    """Symbol s is detected exactly on (lo[s], hi[s]]; zero references fold the baselines."""
    assume(scheme != "qam" or math.isqrt(order) ** 2 == order)
    h = h_mag * complex(math.cos(h_phase), math.sin(h_phase))
    ratio = {"zero": 0.0, "weak": weak_ratio, "strong": strong_ratio}[reference]
    b = math.sqrt(ratio * strong_reference_threshold(1.0, order, h_mag)) * complex(
        math.cos(b_phase), math.sin(b_phase)
    )
    gen = SCHEMES[scheme]
    if gen is None:
        points = design_loam(ChannelState(h=h, b=b, power=1.0, order=order)).points
    else:
        points = gen(1.0, order).points
    table = build_detector(points, h, b)
    lo, hi = _acceptance_intervals(table)

    t = table.thresholds
    z = np.concatenate(
        [[0.0], t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), table.magnitudes, extra_z]
    )
    z = z[z >= 0.0]
    detected = detect(table, z)
    for s in range(order):
        outside = (z <= lo[s]) | (z > hi[s])
        np.testing.assert_array_equal(outside, detected != s)
        assert np.count_nonzero(outside) == np.count_nonzero(detect(table, z) != s)
