"""Scenario state and the amplitude-observation model of an envelope receiver.

The receiver output is z = |h*x + b + n|: the transmitted symbol x scaled by
the complex channel gain h, offset by the known receiver-side reference b,
plus circular complex Gaussian noise n. Phase is lost at detection, so
everything downstream (constellation design, detection, SER simulation) works
on the transformed magnitudes |h*x + b|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelState",
    "snr_db_to_sigma2",
    "effective_min_distance",
]


def _as_finite_complex(value, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


@dataclass(frozen=True)
class ChannelState:
    """One design/detection scenario.

    Attributes:
        h: complex channel gain (must be nonzero).
        b: complex reference signal added at the receiver.
        power: average transmit power budget (> 0).
        order: alphabet size M (>= 2).
    """

    h: complex
    b: complex
    power: float
    order: int

    def __post_init__(self):
        object.__setattr__(self, "h", _as_finite_complex(self.h, "h"))
        object.__setattr__(self, "b", _as_finite_complex(self.b, "b"))
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "order", int(self.order))
        if abs(self.h) == 0.0:
            raise ValueError("channel gain h must be nonzero")
        if not math.isfinite(self.power) or self.power <= 0.0:
            raise ValueError(f"power must be finite and positive, got {self.power}")
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")


def snr_db_to_sigma2(snr_db: float, state: ChannelState) -> float:
    """Noise variance for a target SNR, with SNR defined as P*|h|^2 / sigma2.

    The reference signal b is receiver-side and does not count as signal
    power.
    """
    return state.power * abs(state.h) ** 2 / 10.0 ** (float(snr_db) / 10.0)


def effective_min_distance(points, h, b) -> float:
    """Minimum pairwise gap between the transformed magnitudes of `points`."""
    pts = np.asarray(points, dtype=complex)
    if pts.size < 2:
        raise ValueError("need at least 2 points")
    h = _as_finite_complex(h, "h")
    b = _as_finite_complex(b, "b")
    if not np.all(np.isfinite(pts.view(float))):
        raise ValueError("points must be finite")
    radii = np.sort(np.abs(h * pts + b))
    return float(np.min(np.diff(radii)))
