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
    "strong_reference_threshold",
    "spacing_strong",
    "design_loam",
    "gen_pam",
    "gen_psk",
    "gen_qam",
    "mean_power",
    "design_to_json",
]

# |b| below this fraction of sqrt(P)*|h| counts as "no reference at all".
_LO_FREE_RTOL = 1e-12
# Slack on the strong/weak boundary so that |b| = sqrt(threshold) computed in
# floating point still classifies as strong (boundary equality is strong).
_BOUNDARY_RTOL = 1e-12


class Regime(enum.Enum):
    """Operating regime of the adaptive design."""

    STRONG_REFERENCE = "StrongReference"
    WEAK_REFERENCE = "WeakReference"
    LO_FREE = "LoFree"


@dataclass
class Constellation:
    """An ordered symbol alphabet with its scheme label; M is points.size.

    design_loam fills every field: magnitudes[i] is |h*points[i] + b|, and the
    points are indexed so that magnitudes strictly increase. The fixed
    alphabets of gen_pam, gen_qam and gen_psk leave regime, ray_phase, spacing
    and magnitudes None.
    """

    scheme: str
    points: np.ndarray
    regime: Regime | None = None
    ray_phase: float | None = None
    spacing: float | None = None
    magnitudes: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)


def mean_power(points) -> float:
    """Average squared modulus (1/M) * sum |x_i|^2."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise ValueError("need at least 1 point")
    return float(np.mean(np.abs(pts) ** 2))


def strong_reference_threshold(power: float, order: int, h_mag: float) -> float:
    """Value of |b|^2 at which the centered design first fits one side of c."""
    return 3.0 * power * (order - 1) * h_mag**2 / (order + 1)


def _classify_reference(b_mag, h_mag, power: float, order: int):
    """(lo_free, strong) for magnitudes |b| and |h|; neither means weak.

    LO-free wins over the test on |b|^2, whose boundary equality counts as
    strong. Takes Python floats or, elementwise, NumPy arrays.
    """
    lo_free_cut = _LO_FREE_RTOL * math.sqrt(power) * h_mag
    threshold = strong_reference_threshold(power, order, h_mag)
    strong = (b_mag > lo_free_cut) & (b_mag**2 >= threshold * (1.0 - _BOUNDARY_RTOL))
    return b_mag <= lo_free_cut, strong


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

    With sqrt=np.sqrt it works elementwise on an array of c_mag.
    """
    a = (order - 1) * (2 * order - 1) / 6.0
    lin = c_mag * (order - 1)
    disc = lin**2 - 4.0 * a * (c_mag**2 - power)
    return (lin + sqrt(disc)) / (2.0 * a)


def _loam_layout(strong: bool, c_mag, power: float, order: int, sqrt=math.sqrt):
    """(d, u0) of one regime: symbol i sits at u0 - i*d on the ray toward the
    null point, at distance c_mag. Strong centers the points on the origin;
    weak puts the first on the null point (level zero), and LO-free is weak
    at c_mag = 0. c_mag is a float or, with sqrt=np.sqrt, an array.
    """
    if strong:
        d = spacing_strong(power, order)
        return d, (order - 1) * d / 2.0
    # Weak means c_mag^2 < 3P(M-1)/(M+1) < 2P(2M-1)/(M+1), so the
    # discriminant is positive and the root d > 0.
    return _spacing_root(c_mag, power, order, sqrt), c_mag


def design_loam(state: ChannelState) -> Constellation:
    """Design the max-min-magnitude-gap constellation for one scenario.

    Points are indexed so that received magnitudes strictly increase; the
    power budget is met with equality in every regime. Boundary equality of
    the regime test counts as strong.
    """
    order = state.order
    power = state.power
    idx = np.arange(order, dtype=float)

    lo_free, strong = _classify_reference(abs(state.b), abs(state.h), power, order)
    if lo_free:
        # The weak layout at c = 0 aimed along -1: +i*d on the positive real
        # axis (any phase is equivalent by rotation; 0 is the convention).
        regime = Regime.LO_FREE
        ray_phase = 0.0
        d, _ = _loam_layout(False, 0.0, power, order)
        rotated = idx * d
    else:
        null_point = -state.b / state.h
        ray_phase = cmath.phase(null_point)
        regime = Regime.STRONG_REFERENCE if strong else Regime.WEAK_REFERENCE
        # Enumerated from the c side outward, so that magnitudes |h*x + b|
        # ascend with the index.
        d, u0 = _loam_layout(strong, abs(null_point), power, order)
        rotated = u0 - idx * d

    points = np.exp(1j * ray_phase) * rotated
    magnitudes = np.abs(state.h * points + state.b)
    return Constellation(
        scheme="LOAM",
        points=points,
        regime=regime,
        ray_phase=ray_phase,
        spacing=d,
        magnitudes=magnitudes,
    )


def gen_pam(power: float, order: int) -> Constellation:
    """Real-axis PAM with standard spacing sqrt(12P/(M^2-1)); mean power P."""
    d = spacing_strong(power, order)
    levels = -(order - 1) * d / 2.0 + np.arange(order) * d
    return Constellation(scheme="PAM", points=levels.astype(complex))


def gen_psk(power: float, order: int) -> Constellation:
    """Equal-energy phase shift keying: sqrt(P) * exp(2j*pi*k/M)."""
    _check_budget(power, order)
    k = np.arange(order)
    points = math.sqrt(power) * np.exp(2j * math.pi * k / order)
    return Constellation(scheme="PSK", points=points)


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
    return Constellation(scheme="QAM", points=points)


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


def design_to_json(constellation: Constellation) -> str:
    """Serialize a Constellation; doubles carry 17 significant digits."""
    members = {
        "scheme": constellation.scheme,
        "order": constellation.points.size,
        "regime": None if constellation.regime is None else constellation.regime.value,
        "ray_phase": constellation.ray_phase,
        "spacing": constellation.spacing,
        "points": constellation.points,
        "magnitudes": constellation.magnitudes,
    }
    return "{\n" + ",\n".join(f"  {_member(k, v)}" for k, v in members.items()) + "\n}\n"
