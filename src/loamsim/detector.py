"""Minimum-distance amplitude detection via sorted magnitudes and midpoints.

Detecting argmin_i |z - r_i|^2 over nonnegative magnitudes r_i reduces to a
nearest-neighbor search on the sorted magnitudes, which the detector performs
with precomputed midpoint thresholds. `detect` locates a whole batch of
observations by a branchless lockstep binary search: the thresholds are padded
with +inf to one less than a power of two p, and each of the log2(p) passes
(p is the smallest power of two above M-1) moves every observation's slot by
the same stride. An observation landing exactly on a threshold goes to the
lower slot. Symbols whose magnitudes coincide are indistinguishable at the
receiver; such tables carry an ambiguity flag and always resolve to the
lowest-index member of the tied group, which gives the same average symbol
error rate as random guessing under uniform symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DetectorTable", "build_detector", "detect"]

# Magnitudes closer than this (relative) are treated as one receive level.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class DetectorTable:
    """Precomputed decision table for one constellation under one (h, b).

    Attributes:
        magnitudes: receive levels sorted ascending.
        thresholds: midpoints between consecutive magnitudes (length M-1).
        ambiguous: True when two magnitudes coincide within tolerance.
        decision_index: symbol returned for each slot: the constellation
            index occupying it, except inside tied groups, which collapse to
            their lowest original index.
    """

    magnitudes: np.ndarray
    thresholds: np.ndarray
    ambiguous: bool
    decision_index: np.ndarray


def build_detector(points, h, b) -> DetectorTable:
    """Build the decision table mapping observed amplitudes to symbol indices."""
    pts = np.asarray(points, dtype=complex)
    if pts.size < 2:
        raise ValueError("need at least 2 points")
    radii = np.abs(complex(h) * pts + complex(b))
    # NaN or inf in h, b or the points, or an overflow, leaves a level non-finite.
    if np.count_nonzero(np.isfinite(radii)) < radii.size:
        raise ValueError("h, b and points must be finite and give finite receive levels")
    order = radii.argsort(kind="stable")
    magnitudes = radii[order]
    lower, upper = magnitudes[:-1], magnitudes[1:]
    # Halving each level first keeps the midpoint of two finite levels finite.
    thresholds = 0.5 * lower + 0.5 * upper
    # upper is the larger of each sorted pair, so it scales the tolerance.
    tied = upper - lower <= _TIE_RTOL * upper
    ambiguous = bool(np.count_nonzero(tied))

    decision = order
    if ambiguous:
        # Collapse each run of coincident magnitudes onto its lowest original
        # index so ambiguous detection is deterministic. A run starts at slot
        # 0 and after every slot not tied to the next.
        starts = np.flatnonzero(np.concatenate(([True], ~tied)))
        lowest = np.minimum.reduceat(order, starts)
        decision = np.repeat(lowest, np.diff(starts, append=order.size))

    return DetectorTable(
        magnitudes=magnitudes,
        thresholds=thresholds,
        ambiguous=ambiguous,
        decision_index=decision,
    )


def _acceptance_intervals(table: DetectorTable):
    """Per symbol, the interval (lo, hi] of amplitudes that `detect` maps to it.

    Returns (lo, hi), indexed by constellation index: symbol s is detected
    exactly when lo[s] < z <= hi[s]. A tied symbol that is not the lowest
    index of its group is never detected and gets the empty interval
    lo = +inf, hi = -inf.
    """
    edges = np.concatenate(([-np.inf], table.thresholds, [np.inf]))
    lo = np.full(edges.size - 1, np.inf)
    hi = np.full(edges.size - 1, -np.inf)
    # A symbol's slots are contiguous and the edges ascend, so its interval
    # runs from its first slot's lower edge to its last slot's upper edge.
    np.minimum.at(lo, table.decision_index, edges[:-1])
    np.maximum.at(hi, table.decision_index, edges[1:])
    return lo, hi


def detect(table: DetectorTable, z):
    """Map an observed amplitude to a symbol index.

    Accepts a scalar or an array of amplitudes. An observation landing
    exactly on a threshold resolves to the lower-magnitude symbol.
    """
    z_arr = np.asarray(z, dtype=float)
    # NaN propagates through min and max, so it fails both comparisons.
    if z_arr.size and not (z_arr.min() >= 0.0 and z_arr.max() < math.inf):
        raise ValueError("observed amplitude must be finite and >= 0")
    # A 0-d z becomes a numpy scalar, whose comparisons skip the array path.
    zq = z_arr[()]
    thresholds = table.thresholds
    # The slot is the number of thresholds strictly below z, found in log2(p)
    # passes over the batch, p = 1 << bit_length(M-1). The +inf padding is
    # never below a finite z, so no slot passes M-1.
    k = 1 << (thresholds.size.bit_length() - 1)
    padded = np.concatenate((thresholds, np.full(2 * k - 1 - thresholds.size, math.inf)))
    slot = np.multiply(zq > thresholds[k - 1], k, dtype=np.intp)
    k >>= 1
    while k:
        # The view padded[k - 1 :] offsets each probe without an index add.
        slot += (padded[k - 1 :].take(slot) < zq) * k
        k >>= 1
    result = table.decision_index.take(slot)
    if z_arr.ndim == 0:
        return int(result)
    return result
