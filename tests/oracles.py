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


def _prefix(a: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sum with a leading zero column, shape (B, P+1)."""
    B, P = a.shape
    out = np.zeros((B, P + 1), dtype=float)
    np.cumsum(a, axis=1, out=out[:, 1:])
    return out


def _suffix(a: np.ndarray) -> np.ndarray:
    """Row-wise reverse cumulative sum, out[:, k] = sum over p >= k.

    Summed directly rather than as total-minus-prefix: the subtraction
    cancels catastrophically when magnitudes span many orders.
    """
    B, P = a.shape
    out = np.zeros((B, P + 1), dtype=float)
    out[:, :P] = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    return out


def _km_end(first, rest, ys, minimize):
    """One end of the reduced interval, from rules sorted by consequent.

    Switch candidate k in 0..P weights the k smallest consequents ``ys`` by
    ``first`` and the others by ``rest``.  The extremum of the weighted
    average is attained at one of these candidates, so scanning all of them
    is exact, also when firings are exactly zero or consequents tie;
    zero-weight candidates are skipped.  Returns the bound, the switch
    count and the weight total at that switch, each (B,).
    """
    num = _prefix(first * ys) + _suffix(rest * ys)
    den = _prefix(first) + _suffix(rest)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    fill = np.inf if minimize else -np.inf
    vals = np.where(den > 0.0, vals, fill)
    k = vals.argmin(axis=1) if minimize else vals.argmax(axis=1)
    rows = np.arange(vals.shape[0])
    return vals[rows, k], k, den[rows, k]


def km_sorted_cumsum(fls, fus, ys):
    """Both reduced-interval ends by one ``np.cumsum`` per running sum.

    The bit-identity reference for the package's one-pass reduction:
    ``fls``, ``fus`` and ``ys`` are (B, P) rows already sorted by
    consequent.  Each end scans its switch candidates with ``_km_end``;
    rows whose largest |y| is 2**512 or more are scaled by a power of two
    into [0.5, 1) for the sums, and inverted intervals are pinched to their
    midpoint.  Returns ``(lo, hi, L, R, den_lo, den_hi)``.
    """
    scaled = max(-ys[:, 0].min(initial=0.0),
                 ys[:, -1].max(initial=0.0)) >= 2.0 ** 512
    if scaled:
        _, exp = np.frexp(np.maximum(-ys[:, 0], ys[:, -1]))
        exp[exp <= 512] = 0
        ys = np.ldexp(ys, -exp[:, None])
    lo, L, den_lo = _km_end(fus, fls, ys, minimize=True)
    hi, R, den_hi = _km_end(fls, fus, ys, minimize=False)
    inverted = lo > hi
    if np.any(inverted):
        mid = 0.5 * (lo[inverted] + hi[inverted])
        lo[inverted] = mid
        hi[inverted] = mid
    if scaled:
        lo, hi = np.ldexp(lo, exp), np.ldexp(hi, exp)
    return lo, hi, L, R, den_lo, den_hi
