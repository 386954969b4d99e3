"""Verification searches, independent of the closed-form designer.

Two searches back the designer's claims:

* oracle_ray_search finds the exact maximum of the minimum pairwise gap
  between received magnitudes over M real offsets along the line through
  the origin and the null point, under the power budget.
* oracle_free_search_m2 drops the co-linearity assumption entirely and
  searches both points of an M = 2 alphabet over the full complex plane
  (coarse grid plus coordinate refinement), which is tractable only at M = 2.

The ray search works in the frame where the null point sits at
c = |b|/|h| >= 0 on the real axis, so an offset u is received at |h|*|u - c|.

* Reformulation. Sort any offsets u by radius r_k = |u_k - c|. Their
  minimum radius gap is >= d exactly when r_k = q_k + k*d with
  0 <= q_0 <= ... <= q_{M-1}.
* Sign lemma. (c + r)^2 - (c - r)^2 = 4*c*r >= 0, so for each radius the
  offset nearer the origin, u_k = c - r_k, never costs more power. No sign
  pattern over the radii needs to be searched.
* Power bound. The least power at spacing d is therefore the bounded
  isotonic regression of y_k = c - k*d onto {0 <= q_0 <= ... <= q_{M-1}},
  which pool adjacent violators solves exactly.
* Spacing. That power is nondecreasing in d, since a design meeting gap d
  meets every smaller gap, so bisection finds the largest d within budget.

Neither search consults the closed forms it is used to certify.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import ChannelState
from .constellations import mean_power

__all__ = [
    "power_feasible",
    "RaySearchResult",
    "oracle_ray_search",
    "FreeSearchResult",
    "oracle_free_search_m2",
]

_POWER_SLACK = 1.0 + 1e-9


def power_feasible(points, power: float) -> bool:
    """True when mean power does not exceed the budget (tiny slack allowed)."""
    return mean_power(points) <= power * _POWER_SLACK


class RaySearchResult(NamedTuple):
    min_distance: float
    offsets: np.ndarray


class FreeSearchResult(NamedTuple):
    min_distance: float
    x0: complex
    x1: complex


def _nonneg_isotonic(y: np.ndarray) -> np.ndarray:
    """Least-squares fit of y by 0 <= q_0 <= ... <= q_{M-1}.

    Pool adjacent violators (Barlow, Bartholomew, Bremner & Brunk 1972) gives
    the nondecreasing fit; under a simple order, clipping it at the bound
    gives the bounded fit (Best & Chakravarti, Math. Prog. 1990).
    """
    sums, sizes = [], []
    for value in y.tolist():
        total, size = value, 1
        # Merge while the previous block's mean exceeds this block's.
        while sums and sums[-1] / sizes[-1] > total / size:
            total += sums.pop()
            size += sizes.pop()
        sums.append(total)
        sizes.append(size)
    return np.maximum(np.repeat(np.divide(sums, sizes), sizes), 0.0)


def _least_power_offsets(c_mag: float, spacing: float, order: int) -> np.ndarray:
    """Offsets of least power whose radii about c_mag are >= spacing apart.

    By the sign lemma each offset sits at c_mag - r_k, and with
    r_k = q_k + k*spacing the offset is y_k - q_k for y_k = c_mag - k*spacing.
    """
    y = c_mag - spacing * np.arange(order)
    return y - _nonneg_isotonic(y)


def oracle_ray_search(state: ChannelState, steps=None, seed=None) -> RaySearchResult:
    """Largest min pairwise magnitude gap over offsets along the ray.

    Bisects the spacing d over [0, 2*sqrt(M*P)/(M-1)] on the exact minimum
    power at d until the floating-point bracket stops shrinking. No radius
    gap can exceed that upper end: every |u_k| <= sqrt(M*P), so radii span
    at most 2*sqrt(M*P). `steps` and `seed` are accepted for compatibility
    and unused; the search is exact and deterministic.

    Returns (min_distance in receive units, offsets in the rotated frame).
    """
    order, power = state.order, state.power
    h_mag = abs(state.h)
    c_mag = abs(state.b) / h_mag
    lo, hi = 0.0, 2.0 * math.sqrt(order * power) / (order - 1)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.mean(_least_power_offsets(c_mag, mid, order) ** 2) <= power:
            lo = mid
        else:
            hi = mid
    return RaySearchResult(
        min_distance=h_mag * lo, offsets=_least_power_offsets(c_mag, lo, order)
    )


def oracle_free_search_m2(h, b, power: float, grid: int = 60) -> FreeSearchResult:
    """Unconstrained two-point search over the complex plane.

    Coarse exhaustive grid over the disk of radius sqrt(2P) for both points,
    followed by coordinate refinement of the four real coordinates. Makes no
    co-linearity assumption.
    """
    if grid < 50:
        raise ValueError("grid must be >= 50 points per real dimension")
    h = complex(h)
    b = complex(b)
    power = float(power)
    radius = math.sqrt(2.0 * power)

    axis = np.linspace(-radius, radius, grid)
    pts = (axis[:, None] + 1j * axis[None, :]).ravel()
    pts = pts[np.abs(pts) <= radius]
    radii = np.abs(h * pts + b)
    sq = np.abs(pts) ** 2

    feasible = (sq[:, None] + sq[None, :]) <= 2.0 * power * _POWER_SLACK
    gaps = np.abs(radii[:, None] - radii[None, :])
    gaps[~feasible] = -1.0
    i, j = np.unravel_index(np.argmax(gaps), gaps.shape)

    # Refine in polar coordinates, one coordinate at a time. The power
    # constraint separates over the two moduli, so every line search has an
    # exact feasible bracket, and the angular searches are unconstrained.
    rho = np.array([abs(pts[i]), abs(pts[j])])
    theta = np.array([np.angle(pts[i]), np.angle(pts[j])])

    def pair_points(r, t):
        return r * np.exp(1j * t)

    def gap_of(r, t):
        z = np.abs(h * pair_points(r, t) + b)
        return abs(float(z[0]) - float(z[1]))

    best = gap_of(rho, theta)
    for _ in range(60):
        improved = False
        for which in (0, 1):
            r_fixed = abs(h * rho[1 - which] * np.exp(1j * theta[1 - which]) + b)

            # angle sweep (full circle, then zoomed)
            center, half, n_pts = float(theta[which]), math.pi, 1025
            for _ in range(4):
                angles = np.linspace(center - half, center + half, n_pts)
                z = np.abs(h * rho[which] * np.exp(1j * angles) + b)
                f = np.abs(z - r_fixed)
                m = int(np.argmax(f))
                if f[m] > best + 1e-14:
                    best = float(f[m])
                    theta[which] = float(angles[m])
                    improved = True
                center = float(angles[m])
                half = 4.0 * half / (n_pts - 1)
                n_pts = 65

            # radius sweep within the power budget
            r_cap = math.sqrt(max(2.0 * power - rho[1 - which] ** 2, 0.0))
            lo, hi, n_pts = 0.0, r_cap, 1025
            for _ in range(4):
                rads = np.linspace(lo, hi, n_pts)
                z = np.abs(h * rads * np.exp(1j * theta[which]) + b)
                f = np.abs(z - r_fixed)
                m = int(np.argmax(f))
                if f[m] > best + 1e-14:
                    best = float(f[m])
                    rho[which] = float(rads[m])
                    improved = True
                step = (hi - lo) / (n_pts - 1)
                lo = max(0.0, rads[m] - 2 * step)
                hi = min(r_cap, rads[m] + 2 * step)
                n_pts = 65

        # joint radius split on the saturated power sphere; per-point moves
        # alone stall when budget should shift between the points
        r_tot = math.sqrt(2.0 * power)
        lo, hi, n_pts = 0.0, math.pi / 2.0, 1025
        for _ in range(4):
            phis = np.linspace(lo, hi, n_pts)
            z0 = np.abs(h * (r_tot * np.cos(phis)) * np.exp(1j * theta[0]) + b)
            z1 = np.abs(h * (r_tot * np.sin(phis)) * np.exp(1j * theta[1]) + b)
            f = np.abs(z0 - z1)
            m = int(np.argmax(f))
            if f[m] > best + 1e-14:
                best = float(f[m])
                rho[0] = r_tot * math.cos(float(phis[m]))
                rho[1] = r_tot * math.sin(float(phis[m]))
                improved = True
            step = (hi - lo) / (n_pts - 1)
            lo = max(0.0, phis[m] - 2 * step)
            hi = min(math.pi / 2.0, phis[m] + 2 * step)
            n_pts = 65
        if not improved:
            break

    x0, x1 = pair_points(rho, theta)
    return FreeSearchResult(min_distance=best, x0=complex(x0), x1=complex(x1))
