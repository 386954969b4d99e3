"""Verification searches, independent of the closed-form designer.

Two searches back the designer's claims:

* oracle_ray_search finds the exact maximum of the minimum pairwise gap
  between received magnitudes over M real offsets along the line through
  the origin and the null point, under the power budget.
* oracle_free_search_m2 drops the co-linearity assumption entirely and
  finds the exact optimum of an M = 2 alphabet over the full complex plane,
  an M = 2 certificate that does not rest on the collinearity lemma below.

Collinearity lemma (every M). A point x is received at |h|*|x - w|, where
w = -b/h is the null point. Map each point x_k of any alphabet, along its
circle about w, onto the line through 0 and w, on the origin's side of w:
x_k' = w - r_k*w/|w| with r_k = |x_k - w| (any unit direction in place of
w/|w| when b = 0). Its receive level |h|*r_k stays the same, and
|x_k'| = ||w| - r_k| <= |x_k| by the triangle inequality, so the power does
not rise. Co-linear alphabets therefore lose nothing at any M, and the ray
search's optimum is the optimum over every alphabet in the complex plane.

The ray search works in the frame where the null point sits at
c = |b|/|h| >= 0 on the real axis, so an offset u is received at |h|*|u - c|.

* Reformulation. Sort any offsets u by radius r_k = |u_k - c|. Their
  minimum radius gap is >= d exactly when r_k = q_k + k*d with
  0 <= q_0 <= ... <= q_{M-1}.
* Sign lemma. (c + r)^2 - (c - r)^2 = 4*c*r >= 0, so for each radius the
  offset nearer the origin, u_k = c - r_k, never costs more power. No sign
  pattern over the radii needs to be searched.
* Power bound. The least power at spacing d is therefore the least-squares
  fit of y_k = c - k*d by 0 <= q_0 <= ... <= q_{M-1}. The y_k strictly
  decrease, so the nondecreasing fit pools them all into their mean
  ybar = c - (M-1)*d/2, clipped at 0 (Best & Chakravarti, Math. Prog. 1990).
  The offsets y_k - max(ybar, 0) are centred on the origin when
  c >= (M-1)*d/2 and otherwise anchored at u_0 = c. At the strong spacing
  sqrt(12P/(M^2-1)) the centred case is |b|^2 >= 3P(M-1)|h|^2/(M+1), the
  designer's regime threshold.
* Spacing. That power is nondecreasing in d, since a design meeting gap d
  meets every smaller gap, so bisection finds the largest d within budget.

The free search takes any pair with moduli rho_k = |x_k|,
rho_0^2 + rho_1^2 <= 2P, labelled so that x_0 has the larger receive
magnitude, and lets c = |b|/|h|.

* Bound. By the triangle inequalities |h*x_0 + b| <= |h|*(rho_0 + c) and
  |h*x_1 + b| >= |h|*max(c - rho_1, 0), so every gap is at most
  |h|*min(rho_0 + rho_1, rho_0 + c).
* Maximum. With t = min(rho_1, c) the bound is |h|*(rho_0 + t), where
  rho_0 <= sqrt(2P - t^2) and t <= c. Since t + sqrt(2P - t^2) increases on
  [0, sqrt(P)], the bound is largest at rho_1 = min(c, sqrt(P)) and
  rho_0 = sqrt(2P - rho_1^2).
* Attained. With u = (b/|b|)/(h/|h|) (u = 1 when b = 0), the pair
  x_0 = rho_0*u, x_1 = -rho_1*u meets both triangle inequalities with
  equality, so |h|*(rho_0 + rho_1) is the exact optimum. Both points lie on
  the line through the origin and the null point: the equality conditions
  prove the co-linearity that the ray search assumes.

Neither search consults the closed forms it is used to certify.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import ChannelState

__all__ = [
    "RaySearchResult",
    "oracle_ray_search",
    "FreeSearchResult",
    "oracle_free_search_m2",
]

class RaySearchResult(NamedTuple):
    min_distance: float
    offsets: np.ndarray


class FreeSearchResult(NamedTuple):
    min_distance: float
    x0: complex
    x1: complex


def _least_power_offsets(
    c_mag: float, spacing: float, k: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Offsets of least power whose radii about c_mag are >= spacing apart.

    By the sign lemma each offset sits at c_mag - r_k, and with
    r_k = q_k + k*spacing the offset is y_k - q_k for y_k = c_mag - k*spacing.
    Every q_k is max(mean(y), 0) by the power bound, summed in index order
    (the sequential sum that np.cumsum computes, not np.sum's pairwise one).
    `k` holds 0, ..., M-1 as floats; the offsets are written into `out`,
    which is returned, and `scratch` is overwritten. Nothing is allocated.
    """
    np.multiply(spacing, k, out=out)
    np.subtract(c_mag, out, out=out)
    pooled = np.add.accumulate(out, out=scratch)[-1] / k.size
    # y - max(pooled, 0.0) is y itself when pooled <= 0.
    if pooled > 0.0:
        np.subtract(out, pooled, out=out)
    return out


def oracle_ray_search(state: ChannelState, steps=None, seed=None) -> RaySearchResult:
    """Largest min pairwise magnitude gap over offsets along the ray.

    Bisects the spacing d over [0, 2*sqrt(M*P)/(M-1)] on the exact minimum
    power at d until the floating-point bracket stops shrinking. No radius
    gap can exceed that upper end: every |u_k| <= sqrt(M*P), so radii span
    at most 2*sqrt(M*P). Each step uses `_least_power_offsets`' arithmetic
    bit for bit, as the returned offsets do, and takes their mean power as
    np.mean(offsets ** 2) would (np.add.reduce's pairwise sum), all in two
    buffers allocated once per search. `steps` and `seed` are accepted for
    compatibility and unused; the search is exact and deterministic.

    Returns (min_distance in receive units, offsets in the rotated frame).
    """
    order, power = state.order, state.power
    h_mag = abs(state.h)
    c_mag = abs(state.b) / h_mag
    k = np.arange(order, dtype=float)
    offsets = np.empty(order)
    scratch = np.empty(order)
    lo, hi = 0.0, 2.0 * math.sqrt(order * power) / (order - 1)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        _least_power_offsets(c_mag, mid, k, offsets, scratch)
        if np.add.reduce(np.multiply(offsets, offsets, out=scratch)) / order <= power:
            lo = mid
        else:
            hi = mid
    return RaySearchResult(
        min_distance=h_mag * lo,
        offsets=_least_power_offsets(c_mag, lo, k, offsets, scratch),
    )


def oracle_free_search_m2(h, b, power: float, grid=None) -> FreeSearchResult:
    """Largest gap between the two receive magnitudes of an M = 2 alphabet.

    Exact over every pair in the complex plane with mean power <= P, by the
    triangle-inequality bound in the module docstring; no co-linearity is
    assumed. `grid` is accepted for compatibility and unused. Invalid inputs
    raise ValueError, as they do for ChannelState.

    Returns (min_distance in receive units, x0, x1), with x0 received at the
    larger magnitude.
    """
    state = ChannelState(h=h, b=b, power=power, order=2)
    h, b, power = state.h, state.b, state.power
    h_mag = abs(h)
    c_mag = abs(b) / h_mag
    rho1 = min(c_mag, math.sqrt(power))
    rho0 = math.sqrt(2.0 * power - rho1 * rho1)
    # Phase of b relative to h; any direction will do when b = 0.
    u = (b / abs(b)) / (h / h_mag) if b else 1.0 + 0.0j
    return FreeSearchResult(
        min_distance=h_mag * (rho0 + rho1), x0=rho0 * u, x1=-rho1 * u
    )
