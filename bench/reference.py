"""Independent references the benchmark checks loamsim's outputs against.

Nothing here calls loamsim: the fixed-channel SER comes from the Rice law
(scipy), detection from an exhaustive nearest-level search, and Monte-Carlo
counts are judged with exact binomial tails.
"""

from __future__ import annotations

import math

import numpy as np

# Receive levels closer than this (relative) are one level; the detector
# resolves such a group to its lowest symbol index.
TIE_RTOL = 1e-12


def sigma2_for_snr(snr_db: float, h: complex, power: float) -> float:
    """Complex noise variance for SNR = P*|h|^2 / sigma2."""
    return power * abs(h) ** 2 / 10.0 ** (snr_db / 10.0)


def tie_canonical(radii: np.ndarray) -> np.ndarray:
    """For each symbol, the lowest index whose level ties with its own."""
    radii = np.asarray(radii, dtype=float)
    close = np.abs(radii[:, None] - radii[None, :]) <= TIE_RTOL * np.maximum(
        radii[:, None], radii[None, :]
    )
    return np.argmax(close, axis=1)


def nearest_level(z, radii) -> np.ndarray:
    """Exhaustive argmin_i |z - r_i| with the lowest-index tie rule."""
    radii = np.asarray(radii, dtype=float)
    nearest = np.argmin(np.abs(np.asarray(z, dtype=float)[:, None] - radii[None, :]), axis=1)
    return tie_canonical(radii)[nearest]


def rice_ser(points, h: complex, b: complex, sigma2: float) -> float:
    """Exact SER of nearest-level detection of z = |h*x + b + n|.

    Given symbol i, z is Rician with nu = |h*x_i + b| and per-dimension
    deviation sqrt(sigma2/2). Symbol i is decided correctly when z falls in
    its level's midpoint slot and i is the lowest index of that level. Tails
    are taken from survival functions, so small SERs do not cancel to 0.
    """
    from scipy.stats import rice

    radii = np.abs(h * np.asarray(points, dtype=complex) + b)
    canonical = tie_canonical(radii)
    levels = np.unique(radii[canonical == np.arange(radii.size)])
    scale = math.sqrt(sigma2 / 2.0)
    errors = 0.0
    for i, nu in enumerate(radii):
        if canonical[i] != i:
            errors += 1.0  # never decided: its level belongs to a lower index
            continue
        k = int(np.argmin(np.abs(levels - nu)))
        lo = 0.5 * (levels[k - 1] + levels[k]) if k > 0 else 0.0
        hi = 0.5 * (levels[k] + levels[k + 1]) if k + 1 < levels.size else math.inf
        if lo > 0.0:
            errors += float(rice.cdf(lo, nu / scale, scale=scale))
        if math.isfinite(hi):
            errors += float(rice.sf(hi, nu / scale, scale=scale))
    return errors / radii.size


def binomial_consistent(errors: int, trials: int, p: float, alpha: float = 1e-9) -> bool:
    """False when `errors` of `trials` lies in either exact tail beyond alpha/2."""
    from scipy.stats import binom

    low = binom.cdf(errors, trials, p)
    high = binom.sf(errors - 1, trials, p)
    return min(low, high) >= alpha / 2.0


def not_increasing(ser, trials, z: float = 6.0) -> list[bool]:
    """For consecutive points, whether SER does not rise beyond z standard errors."""
    ser = np.asarray(ser, dtype=float)
    trials = np.asarray(trials, dtype=float)
    var = ser * (1.0 - ser) / trials
    rise = ser[1:] - ser[:-1]
    return list(rise <= z * np.sqrt(var[1:] + var[:-1]))
