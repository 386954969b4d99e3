"""Verification of the closed-form designer against the search oracles.

Exercises the two search oracles against the designer across regimes:

* the ray search must neither beat nor fall short of the closed form
  (it optimizes the same objective with no knowledge of the formulas);
* the exact unconstrained M=2 optimum must be co-linear, which is the
  geometric claim behind restricting the designer to a single ray;
* walking inward from the anchor must dominate walking outward, which is why
  the weak-regime design crosses the origin instead of growing away from it.

Run: python demos/design_verification.py
"""

import math

import numpy as np

from loamsim import (
    ChannelState,
    design_loam,
    effective_min_distance,
    oracle_free_search_m2,
    oracle_ray_search,
    strong_reference_threshold,
)


def _outward_spacing(c_mag, power, order):
    """Spacing of a design anchored at c_mag that walks away from the origin.

    Positive root d of (1/M) * sum_{i=0}^{M-1} (c_mag + i*d)^2 = P, the
    outward counterpart of the weak-regime design's inward spacing.
    """
    a = (order - 1) * (2 * order - 1) / 6.0
    lin = -c_mag * (order - 1)
    return (lin + math.sqrt(lin**2 - 4.0 * a * (c_mag**2 - power))) / (2.0 * a)


def main():
    rng = np.random.default_rng(11)

    print("ray search vs closed form (M in {2,4,8}, 5 scenarios per regime):")
    for regime in ("lofree", "weak", "strong"):
        for k in range(5):
            order = int(rng.choice([2, 4, 8]))
            h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            threshold = strong_reference_threshold(1.0, order, abs(h))
            if regime == "lofree":
                b = 0j
            elif regime == "weak":
                b = math.sqrt(rng.uniform(0.02, 0.98) * threshold) * np.exp(
                    1j * rng.uniform(0, 2 * math.pi)
                )
            else:
                b = math.sqrt(rng.uniform(1.0, 5.0) * threshold) * np.exp(
                    1j * rng.uniform(0, 2 * math.pi)
                )
            state = ChannelState(h=complex(h), b=complex(b), power=1.0, order=order)
            expected = effective_min_distance(design_loam(state).points, h, b)
            found = oracle_ray_search(state).min_distance
            print(
                f"  {regime:7s} M={order}: search {found:.6f}  closed form {expected:.6f}"
                f"  rel gap {(found - expected) / expected:+.1e}"
            )

    print("\nfree two-point optimum (no co-linearity assumption):")
    for k in range(5):
        h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        threshold = strong_reference_threshold(1.0, 2, abs(h))
        b = math.sqrt(rng.uniform(0.05, 2.0) * threshold) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
        result = oracle_free_search_m2(complex(h), complex(b), 1.0)
        ray = np.exp(-1j * np.angle(-b / h))
        off = max(abs((result.x0 * ray).imag), abs((result.x1 * ray).imag))
        print(f"  scenario {k}: best gap {result.min_distance:.6f}, off-ray component {off:.1e}")

    print("\ninward vs outward anchoring (weak regime, M=4, P=1):")
    for c_mag in (0.0, 0.3, 0.6, 0.9):
        state = ChannelState(h=1.0, b=c_mag, power=1.0, order=4)
        inward = design_loam(state).spacing
        outward = _outward_spacing(c_mag, 1.0, 4)
        print(
            f"  |c|={c_mag:.1f}: inward spacing {inward:.4f}  outward spacing {outward:.4f}"
            f"  (inward/outward = {inward / outward:.2f}x)"
        )


if __name__ == "__main__":
    main()
