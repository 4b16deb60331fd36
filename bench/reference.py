"""Plain references the benchmark measures and checks against.

``predict_row`` is the per-row reference for the serve output check.  It
is written from the model's definition with Python floats and loops,
sharing no code with the package: Gaussian memberships, secondary bounds
clamped to [0, 1], product firing, Karnik-Mendel reduction by trying every
switch candidate, and the alpha-weighted average of slice centres.

``search_probes`` is the yardstick of the calibrate workload's search
timing: the probe count of the paper's shrinking-step search, with its
settings fixed here so that a change to the package's search cannot move
the yardstick.
"""

from __future__ import annotations

import math


def _spread(alpha):
    return 0.0 if alpha >= 1.0 else math.sqrt(-2.0 * math.log(alpha))


def _km_enumeration(f_lower, f_upper, y):
    order = sorted(range(len(y)), key=lambda p: y[p])
    ys = [y[p] for p in order]
    fls = [f_lower[p] for p in order]
    fus = [f_upper[p] for p in order]
    lows, highs = [], []
    for k in range(len(ys) + 1):
        w_lo = fus[:k] + fls[k:]
        w_hi = fls[:k] + fus[k:]
        if sum(w_lo) > 0.0:
            lows.append(sum(w * v for w, v in zip(w_lo, ys)) / sum(w_lo))
        if sum(w_hi) > 0.0:
            highs.append(sum(w * v for w, v in zip(w_hi, ys)) / sum(w_hi))
    lo, hi = min(lows), max(highs)
    if lo > hi:  # an ulp-level inversion of a zero-width interval
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def interval(x, alpha, params):
    """``(lo, hi)`` of one input row at one slice."""
    k = _spread(alpha)
    P, M = params.c.shape
    f_lower, f_upper, y = [], [], []
    for p in range(P):
        low = up = 1.0
        for m in range(M):
            z = (x[m] - params.c[p, m]) / params.sigma[p, m]
            g = math.exp(-0.5 * z * z)
            up *= min(g + k * params.sigma_r[m], 1.0)
            low *= max(g - k * params.sigma_l[m], 0.0)
        f_lower.append(low)
        f_upper.append(up)
        y.append(params.a0[p] + sum(params.a[p, m] * x[m] for m in range(M)))
    return _km_enumeration(f_lower, f_upper, y)


def predict_row(x, alpha, params, planes):
    """``(lo, hi, point)`` of one row: interval at ``alpha``, point over planes."""
    lo, hi = interval(x, alpha, params)
    weighted = 0.0
    for a in planes:
        plo, phi = interval(x, a, params)
        weighted += 0.5 * (plo + phi) * a
    return lo, hi, weighted / sum(planes)


def search_probes(coverage_fn, phi_d, n_rows):
    """Coverage probes the shrinking-step search makes to reach ``phi_d``.

    Start at alpha 0.5 with step 0.25; probe one step up and one down,
    move to the probe that lowers the error most (ties go up), halve the
    step when neither does; stop once the error is below max(0.005,
    1/n_rows), the step falls below 1e-4, or after 100 iterations.
    """
    eps = max(0.005, 1.0 / n_rows)
    alpha, delta = 0.5, 0.25
    err = abs(coverage_fn(alpha) - phi_d)
    probes = 1
    for _ in range(100):
        if err < eps:
            break
        up, dn = min(alpha + delta, 1.0), max(alpha - delta, 0.01)
        err_up = abs(coverage_fn(up) - phi_d)
        err_dn = abs(coverage_fn(dn) - phi_d)
        probes += 2
        if err_up < err and err_up <= err_dn:
            alpha, err = up, err_up
        elif err_dn < err:
            alpha, err = dn, err_dn
        else:
            delta *= 0.5
            if delta < 1e-4:
                break
    return probes
