"""Scenario state and the amplitude-observation model of an envelope receiver.

The receiver output is z = |h*x + b + n|: the transmitted symbol x scaled by
the complex channel gain h, offset by the known receiver-side reference b,
plus circular complex Gaussian noise n. Phase is lost at detection, so
everything downstream (constellation design, detection, SER simulation) works
on the transformed magnitudes |h*x + b|.

The range rule: a `ChannelState` has |h|^2 and the power P within
[1e-150, 1e150], and |b|^2 at most 1e150. Designs square P, |h| and |b| and
multiply such squares in pairs, as in the regime threshold 3P(M-1)|h|^2/(M+1);
within that band every such product, and 1/|h|, stays a normal float. The
designer, the oracles, `loamsim design` and sweeps all inherit the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import build_detector

__all__ = [
    "ChannelState",
    "snr_db_to_sigma2",
    "effective_min_distance",
]


def _in_range(square) -> bool:
    """Whether a square lies in the band of the range rule; NaN is in no range."""
    return 1e-150 <= square <= 1e150


def _square(z: complex) -> float:
    """|z|^2, or inf where it overflows; abs() of a complex and ** would raise there."""
    return z.real * z.real + z.imag * z.imag


def _as_finite(kind, value, name: str):
    """kind(value), a float or complex; ValueError unless both its parts are finite."""
    try:
        z = kind(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int beyond the float range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


@dataclass(frozen=True)
class ChannelState:
    """One design/detection scenario, within the range rule.

    Attributes:
        h: complex channel gain, nonzero with |h|^2 in [1e-150, 1e150].
        b: complex reference signal added at the receiver, |b|^2 <= 1e150.
        power: average transmit power budget, in [1e-150, 1e150].
        order: alphabet size M (>= 2).
    """

    h: complex
    b: complex
    power: float
    order: int

    def __post_init__(self):
        object.__setattr__(self, "h", _as_finite(complex, self.h, "h"))
        object.__setattr__(self, "b", _as_finite(complex, self.b, "b"))
        object.__setattr__(self, "power", _as_finite(float, self.power, "power"))
        object.__setattr__(self, "order", int(self.order))
        if self.h == 0:
            raise ValueError("channel gain h must be nonzero")
        if not _in_range(_square(self.h)):
            raise ValueError(f"h must have |h|^2 within [1e-150, 1e150], got {self.h!r}")
        if not _square(self.b) <= 1e150:
            raise ValueError(f"b must have |b|^2 at most 1e150, got {self.b!r}")
        if not _in_range(self.power):
            raise ValueError(f"power must be within [1e-150, 1e150], got {self.power}")
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")


def snr_db_to_sigma2(snr_db: float, state: ChannelState) -> float:
    """Noise variance for a target SNR, with SNR defined as P*|h|^2 / sigma2.

    The reference signal b is receiver-side and does not count as signal
    power.
    """
    return state.power * abs(state.h) ** 2 / 10.0 ** (float(snr_db) / 10.0)


def effective_min_distance(points, h, b) -> float:
    """Minimum gap between the receive levels |h*x + b| of `points`."""
    return float(np.min(np.diff(build_detector(points, h, b).magnitudes)))
