"""Seeded stand-in for the UCI Combined Cycle Power Plant data set.

The real Powerplant CSV (9568 rows; inputs AT, V, AP, RH; target PE) is
not shipped with the repository and cannot be fetched offline, so the
benchmark generates a table of the same shape instead: four correlated
inputs drawn over the observed ranges of the real columns, and a smooth
nonlinear target whose noise grows with ambient temperature.  What the
package costs depends on the row count, the input width and how the
rules fire, not on the exact values, so timings taken on this table
stand for timings on the real one.  Coverage figures do not: they are
output checks here, not a reproduction of the paper's Powerplant bands.
"""

from __future__ import annotations

import numpy as np

#: Row count of the real data set.
N_ROWS = 9568

#: Observed (min, max) of the real input columns AT, V, AP and RH.
RANGES = ((1.81, 37.11), (25.36, 81.56), (992.89, 1033.30), (25.56, 100.16))


def powerplant_like(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(X, y)`` with ``X`` of shape (n, 4) and ``y`` of shape (n,).

    A shared latent "heat" factor correlates the columns the way the real
    ones are: vacuum rises with temperature, pressure and humidity fall.
    The same seed always gives the same arrays.
    """
    rng = np.random.default_rng(seed)
    heat = rng.beta(2.0, 2.0, size=n)

    def column(j, weight):
        lo, hi = RANGES[j]
        u = np.clip(0.5 + weight * (heat - 0.5)
                    + rng.normal(0.0, 0.18, size=n), 0.0, 1.0)
        return lo + (hi - lo) * u

    at = column(0, 1.0)
    v = column(1, 0.9)
    ap = column(2, -0.5)
    rh = column(3, -0.6)
    X = np.column_stack([at, v, ap, rh])

    mean = (497.0 - 1.75 * at - 0.23 * v + 0.07 * (ap - 1013.0)
            - 0.15 * (rh - 73.0) + 3.0 * np.sin(at / 5.0)
            + 0.004 * (at - 20.0) * (rh - 73.0))
    noise_sd = 1.5 + 0.12 * at
    y = mean + noise_sd * rng.standard_normal(n)
    return X, y
