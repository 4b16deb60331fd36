"""Independent reference implementations used only to check the package.

Everything here is deliberately written as plain loops over definitions,
sharing no code with the package internals.
"""

import itertools

import numpy as np


def km_enumeration(f_lower, f_upper, y):
    """Type reduction by trying every switch-point candidate.

    Sorts consequents ascending and evaluates the weighted average for all
    2*(P+1) switch assignments: for the lower bound, candidate k weights
    the k smallest consequents by upper firing and the rest by lower
    firing; roles swap for the upper bound.  Candidates with zero total
    weight are skipped.
    """
    order = np.argsort(y, kind="stable")
    ys = [float(y[i]) for i in order]
    fls = [float(f_lower[i]) for i in order]
    fus = [float(f_upper[i]) for i in order]
    P = len(ys)

    lo_candidates = []
    hi_candidates = []
    for k in range(P + 1):
        w_lo = fus[:k] + fls[k:]
        w_hi = fls[:k] + fus[k:]
        if sum(w_lo) > 0.0:
            lo_candidates.append(sum(w * v for w, v in zip(w_lo, ys)) / sum(w_lo))
        if sum(w_hi) > 0.0:
            hi_candidates.append(sum(w * v for w, v in zip(w_hi, ys)) / sum(w_hi))
    return min(lo_candidates), max(hi_candidates)


def km_vertex_bruteforce(f_lower, f_upper, y):
    """Type reduction by brute force over every interval endpoint choice.

    The extrema of sum(w*y)/sum(w) over a box are attained at vertices, so
    enumerating all 2^P corner assignments bounds the exact interval.
    Only practical for small P.
    """
    P = len(y)
    lo = np.inf
    hi = -np.inf
    for choice in itertools.product(*[(float(f_lower[p]), float(f_upper[p]))
                                      for p in range(P)]):
        total = sum(choice)
        if total <= 0.0:
            continue
        val = sum(w * float(v) for w, v in zip(choice, y)) / total
        lo = min(lo, val)
        hi = max(hi, val)
    return lo, hi


def central_difference(fn, x, h=1e-5):
    """Central finite-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def product_tnorm_log(mu):
    """Product over the last axis by one numpy log-sum over that axis.

    The t-norm formula as first written: floor each factor at 1e-300 so the
    log stays finite, sum the logs with ``np.sum`` and exponentiate.
    """
    return np.exp(np.sum(np.log(np.maximum(mu, 1e-300)), axis=-1))
