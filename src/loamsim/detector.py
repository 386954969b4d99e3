"""Minimum-distance amplitude detection via sorted magnitudes and midpoints.

Detecting argmin_i |z - r_i|^2 over nonnegative magnitudes r_i reduces to a
nearest-neighbor search on the sorted magnitudes, which the detector performs
with precomputed midpoint thresholds. Symbols whose magnitudes coincide are
indistinguishable at the receiver; such tables carry an ambiguity flag and
always resolve to the lowest-index member of the tied group, which gives the
same average symbol error rate as random guessing under uniform symbols.
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
        symbol_index: original constellation index occupying each sorted slot.
        thresholds: midpoints between consecutive magnitudes (length M-1).
        ambiguous: True when two magnitudes coincide within tolerance.
        decision_index: symbol returned for each slot; equals symbol_index
            except inside tied groups, which collapse to their lowest
            original index.
    """

    magnitudes: np.ndarray
    symbol_index: np.ndarray
    thresholds: np.ndarray
    ambiguous: bool
    decision_index: np.ndarray


def build_detector(points, h, b) -> DetectorTable:
    """Build the decision table mapping observed amplitudes to symbol indices."""
    pts = np.asarray(points, dtype=complex)
    if pts.size < 2:
        raise ValueError("need at least 2 points")
    h = complex(h)
    b = complex(b)
    if not all(math.isfinite(v) for v in (h.real, h.imag, b.real, b.imag)):
        raise ValueError("h and b must be finite")

    radii = np.abs(h * pts + b)
    order = np.argsort(radii, kind="stable")
    magnitudes = radii[order]
    thresholds = 0.5 * (magnitudes[:-1] + magnitudes[1:])

    gaps = np.diff(magnitudes)
    tied = gaps <= _TIE_RTOL * np.maximum(magnitudes[1:], magnitudes[:-1])

    decision = order.copy()
    if np.any(tied):
        # Collapse each run of coincident magnitudes onto its lowest original
        # index so ambiguous detection is deterministic.
        start = 0
        for k in range(len(gaps) + 1):
            if k < len(gaps) and tied[k]:
                continue
            decision[start : k + 1] = np.min(order[start : k + 1])
            start = k + 1

    return DetectorTable(
        magnitudes=magnitudes,
        symbol_index=order,
        thresholds=thresholds,
        ambiguous=bool(np.any(tied)),
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
    if not np.all(np.isfinite(z_arr)) or np.any(z_arr < 0):
        raise ValueError("observed amplitude must be finite and >= 0")
    # side='left' keeps z == threshold in the lower slot.
    slots = np.searchsorted(table.thresholds, z_arr, side="left")
    result = table.decision_index[slots]
    if np.isscalar(z) or z_arr.ndim == 0:
        return int(result)
    return result
