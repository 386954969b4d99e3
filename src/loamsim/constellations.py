"""Constellation generators: the adaptive LOAM designer plus PAM/QAM/PSK baselines.

LOAM places all points on the line through the origin and the null point
c = -b/h (the transmit value that would zero the received amplitude), spacing
the received magnitudes |h*x + b| evenly. Two regimes emerge from the power
budget:

* strong reference (|b|^2 >= 3*P*(M-1)*|h|^2/(M+1)): points centered on the
  origin with spacing sqrt(12P/(M^2-1)), all on one side of c;
* weak reference: the first point anchors at c (received amplitude zero) and
  the rest walk back toward the origin and out the far side, which costs the
  least power for a given spacing and therefore allows the widest spacing.

With b = 0 the design degenerates to unipolar equally spaced amplitudes
starting at zero.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState

__all__ = [
    "Regime",
    "Constellation",
    "DesignOutcome",
    "InfeasibleDesignError",
    "classify_regime",
    "strong_reference_threshold",
    "spacing_strong",
    "spacing_weak",
    "design_loam",
    "gen_pam",
    "gen_psk",
    "gen_qam",
    "mean_power",
    "design_to_json",
    "constellation_to_json",
]

# |b| below this fraction of sqrt(P)*|h| counts as "no reference at all".
_LO_FREE_RTOL = 1e-12
# Slack on the strong/weak boundary so that |b| = sqrt(threshold) computed in
# floating point still classifies as strong (boundary equality is strong).
_BOUNDARY_RTOL = 1e-12


class InfeasibleDesignError(ValueError):
    """No constellation satisfies the power budget for the requested geometry."""


class Regime(enum.Enum):
    """Operating regime of the adaptive design."""

    STRONG_REFERENCE = "StrongReference"
    WEAK_REFERENCE = "WeakReference"
    LO_FREE = "LoFree"


@dataclass
class Constellation:
    """An ordered symbol alphabet with its scheme label."""

    points: np.ndarray
    scheme: str
    order: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        if self.points.size != self.order:
            raise ValueError("points length must equal order")


@dataclass
class DesignOutcome:
    """A designed constellation plus its geometry summary.

    magnitudes[i] is |h*points[i] + b|. A designed alphabet is indexed so that
    magnitudes strictly increase; constellation_to_json also wraps a fixed
    alphabet in one, with regime, ray_phase and spacing None.
    """

    constellation: Constellation
    regime: Regime
    ray_phase: float
    spacing: float
    magnitudes: np.ndarray

    @property
    def points(self) -> np.ndarray:
        return self.constellation.points


def mean_power(points) -> float:
    """Average squared modulus (1/M) * sum |x_i|^2."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise ValueError("need at least 1 point")
    return float(np.mean(np.abs(pts) ** 2))


def strong_reference_threshold(power: float, order: int, h_mag: float) -> float:
    """Value of |b|^2 at which the centered design first fits one side of c."""
    return 3.0 * power * (order - 1) * h_mag**2 / (order + 1)


def _strong_reference(b_mag, h_mag, power: float, order: int):
    """Strong/weak regime test on |b|^2; boundary equality counts as strong.

    Takes Python floats or, elementwise, NumPy arrays of magnitudes.
    """
    threshold = strong_reference_threshold(power, order, h_mag)
    return b_mag**2 >= threshold * (1.0 - _BOUNDARY_RTOL)


def classify_regime(state: ChannelState) -> Regime:
    """Classify the scenario; boundary equality counts as strong."""
    b_mag = abs(state.b)
    h_mag = abs(state.h)
    if b_mag <= _LO_FREE_RTOL * math.sqrt(state.power) * h_mag:
        return Regime.LO_FREE
    if _strong_reference(b_mag, h_mag, state.power, state.order):
        return Regime.STRONG_REFERENCE
    return Regime.WEAK_REFERENCE


def _check_budget(power: float, order: int) -> None:
    if power <= 0:
        raise ValueError("power must be positive")
    if order < 2:
        raise ValueError("order must be >= 2")


def spacing_strong(power: float, order: int) -> float:
    """Spacing of the origin-centered design: sqrt(12P/(M^2-1))."""
    _check_budget(power, order)
    return math.sqrt(12.0 * power / (order**2 - 1))


def _spacing_root(c_mag, power: float, order: int, sqrt=math.sqrt):
    """Largest root d of (1/M) * sum_{i=0}^{M-1} (c_mag - i*d)^2 = P.

    With sqrt=np.sqrt it works elementwise on an array of c_mag, whose
    discriminants the caller guarantees to be non-negative.
    """
    a = (order - 1) * (2 * order - 1) / 6.0
    lin = c_mag * (order - 1)
    disc = lin**2 - 4.0 * a * (c_mag**2 - power)
    return (lin + sqrt(disc)) / (2.0 * a)


def spacing_weak(c_mag: float, power: float, order: int) -> float:
    """Positive root of the inward anchored power equation.

    Solves (1/M) * sum_{i=0}^{M-1} (c_mag - i*d)^2 = P for the largest d > 0:
    the spacing of a design anchored at distance c_mag from the origin and
    extending back toward it (and past it). Walking inward costs less power
    than walking outward, which is why the weak-regime design crosses the
    origin; at c_mag = 0 the two directions coincide.
    """
    _check_budget(power, order)
    c_mag = float(c_mag)
    if c_mag < 0:
        raise ValueError("c_mag must be >= 0")
    try:
        d = _spacing_root(c_mag, power, order)
    except ValueError:  # math.sqrt of a negative discriminant
        d = 0.0
    if d <= 0:
        raise InfeasibleDesignError(
            f"no positive spacing for anchor {c_mag} under power {power}"
        )
    return d


def design_loam(state: ChannelState) -> DesignOutcome:
    """Design the max-min-magnitude-gap constellation for one scenario.

    Points are indexed so that received magnitudes strictly increase; the
    power budget is met with equality in every regime.
    """
    regime = classify_regime(state)
    order = state.order
    power = state.power
    idx = np.arange(order, dtype=float)

    if regime is Regime.LO_FREE:
        # Unipolar ramp from zero along the positive real axis (any phase is
        # equivalent by rotation; 0 is the convention).
        ray_phase = 0.0
        d = spacing_weak(0.0, power, order)
        rotated = idx * d
    else:
        null_point = -state.b / state.h
        ray_phase = cmath.phase(null_point)
        c_mag = abs(null_point)
        if regime is Regime.STRONG_REFERENCE:
            d = spacing_strong(power, order)
            # Centered on the origin, enumerated from the c side outward so
            # that magnitudes |h*x + b| ascend with the index.
            rotated = (order - 1) * d / 2.0 - idx * d
        else:
            d = spacing_weak(c_mag, power, order)
            # First point sits exactly on the null point (received amplitude
            # zero); the rest walk inward through the origin.
            rotated = c_mag - idx * d

    points = np.exp(1j * ray_phase) * rotated
    magnitudes = np.abs(state.h * points + state.b)
    constellation = Constellation(points=points, scheme="LOAM", order=order)
    return DesignOutcome(
        constellation=constellation,
        regime=regime,
        ray_phase=ray_phase,
        spacing=d,
        magnitudes=magnitudes,
    )


def gen_pam(power: float, order: int) -> Constellation:
    """Real-axis PAM with standard spacing sqrt(12P/(M^2-1)); mean power P."""
    d = spacing_strong(power, order)
    levels = -(order - 1) * d / 2.0 + np.arange(order) * d
    return Constellation(points=levels.astype(complex), scheme="PAM", order=order)


def gen_psk(power: float, order: int) -> Constellation:
    """Equal-energy phase shift keying: sqrt(P) * exp(2j*pi*k/M)."""
    _check_budget(power, order)
    k = np.arange(order)
    points = math.sqrt(power) * np.exp(2j * math.pi * k / order)
    return Constellation(points=points, scheme="PSK", order=order)


def gen_qam(power: float, order: int) -> Constellation:
    """Square QAM on an odd-integer grid, scaled so mean power equals P."""
    _check_budget(power, order)
    root = math.isqrt(order)
    if root * root != order or order < 4:
        raise ValueError(f"QAM order must be a perfect square >= 4, got {order}")
    levels = 2.0 * np.arange(root) - (root - 1)
    grid = levels[:, None] + 1j * levels[None, :]
    points = grid.ravel()
    points = points * math.sqrt(power / mean_power(points))
    return Constellation(points=points, scheme="QAM", order=order)


# Scheme name -> generator of its fixed alphabet, gen(power, order). LOAM has
# no fixed alphabet: design_loam redesigns it for every channel.
SCHEMES = {"loam": None, "pam": gen_pam, "qam": gen_qam, "psk": gen_psk}


# --------------------------------------------------------------------------
# JSON export
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    """One value as JSON text: null, a quoted str, an int, a complex as an
    [re, im] pair, a list or array of values, or a float to 17 digits."""
    if x is None:
        return "null"
    if isinstance(x, str):
        return f'"{x}"'
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"[{_fmt(x.real)}, {_fmt(x.imag)}]"
    if isinstance(x, (list, np.ndarray)):
        return "[" + ", ".join(map(_fmt, x)) + "]"
    return format(float(x), ".17g")


def _member(key: str, value) -> str:
    """One '"key": value' member of a JSON object."""
    return f'"{key}": {_fmt(value)}'


def design_to_json(outcome: DesignOutcome) -> str:
    """Serialize a DesignOutcome; doubles carry 17 significant digits."""
    members = {
        "scheme": outcome.constellation.scheme,
        "order": outcome.constellation.order,
        "regime": None if outcome.regime is None else outcome.regime.value,
        "ray_phase": outcome.ray_phase,
        "spacing": outcome.spacing,
        "points": outcome.points,
        "magnitudes": outcome.magnitudes,
    }
    return "{\n" + ",\n".join(f"  {_member(k, v)}" for k, v in members.items()) + "\n}\n"


def constellation_to_json(constellation: Constellation, h, b) -> str:
    """Serialize a baseline constellation with its magnitudes under (h, b);
    a fixed alphabet's regime, ray_phase and spacing are null."""
    magnitudes = np.abs(complex(h) * constellation.points + complex(b))
    return design_to_json(DesignOutcome(constellation, None, None, None, magnitudes))
