"""Independent reference implementations used only to check the package.

The type-reduction and t-norm references are deliberately written as
plain loops over definitions, sharing no code with the package internals.
The bit-identity references are earlier versions of package routines:
the per-cumsum Karnik-Mendel sums, kept verbatim; one slice in the
(rows, P, M) layout, with the in-place t-norm, as the package computed it
before its slice arrays went input-major; and the training loop that
stepped on a fresh :class:`RawParams` per minibatch, which calls the
package's forward and backward helpers and so follows their layout, and
the epoch-end log entry of one unblocked pass over all training rows.
"""

import itertools

import numpy as np

from gt2cal.core import ALPHA_MIN, batch_terms, slice_forward, spread_scale
from gt2cal.errors import DivergenceError
from gt2cal.training import (
    AdamState,
    ForwardResult,
    RawParams,
    TrainConfig,
    TrainResult,
    _backward_km,
    _forward_at,
    _rule_positions,
    _sigmoid,
    _to_rule_order,
    adam_step,
    init_raw,
    log_cosh_loss,
    pinball_pair_loss,
)


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


def product_tnorm_inplace(mu):
    """Product over the last axis of a (rows, P, M) array, as the package
    once computed it: floor and log every factor, then add the M log
    columns left to right in place and exponentiate."""
    logs = np.maximum(mu, 1e-300)
    np.log(logs, out=logs)
    total = logs[..., 0].copy()
    for m in range(1, logs.shape[-1]):
        total += logs[..., m]
    return np.exp(total, out=total)


def slice_reference(gamma, y, alpha, params):
    """One slice in the (rows, P, M) layout, as the package ran it before
    its slice arrays went input-major.

    ``gamma`` is (B, P, M) and ``y`` (B, P), both with each row's rules
    sorted by consequent; ``alpha`` is one level or a (B,) array.  Returns
    ``(lower, upper, f_lower, f_upper, lo, hi, L, R, den_lo, den_hi)``.
    """
    k = spread_scale(alpha)
    if isinstance(k, np.ndarray):
        k = k[:, None, None]
    with np.errstate(over="ignore"):
        upper = np.minimum(gamma + k * params.sigma_r, 1.0)
        lower = np.maximum(gamma - k * params.sigma_l, 0.0)
    f_lower, f_upper = product_tnorm_inplace(lower), product_tnorm_inplace(upper)
    return (lower, upper, f_lower, f_upper) + km_sorted_cumsum(f_lower,
                                                               f_upper, y)


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


# ---------------------------------------------------------------------------
# Training on a fresh RawParams per minibatch
# ---------------------------------------------------------------------------

def _forward(X, y, raw: RawParams, cfg: TrainConfig) -> ForwardResult:
    """Full forward pass of the training loss over one batch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("expected X of shape (B, M) and matching targets")
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    params = raw.constrain()
    terms = batch_terms(X, params)

    # the bottom slice always runs (the pinball loss reads it); in the
    # point it weighs its alpha only if the plane stack serves it
    alphas, weights = [ALPHA_MIN], [1.0]
    if cfg.point_output == "plane-stack":
        alphas += [a for a in cfg.planes if a != ALPHA_MIN]
        weights = [a if a in cfg.planes else 0.0 for a in alphas]
    weights = np.array(weights)
    planes = [slice_forward(terms, a, params) for a in alphas]

    base = planes[0]
    centers = np.stack([0.5 * (p.lo + p.hi) for p in planes])
    point = weights @ centers / weights.sum()

    eps = y - point
    loss = float(np.mean(log_cosh_loss(eps) +
                         pinball_pair_loss(y, base.lo, base.hi,
                                           cfg.tau_lo, cfg.tau_hi)))
    return ForwardResult(loss=loss, point=point, lo=base.lo, hi=base.hi,
                         params=params, terms=terms,
                         planes=planes, weights=weights)


def loss_and_grad(X, y, raw: RawParams, cfg: TrainConfig):
    """Training loss over a batch and its gradient in RawParams shape."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fwd = _forward(X, y, raw, cfg)
    params = fwd.params
    terms = fwd.terms
    B, M = X.shape
    back = _rule_positions(terms.order, M)

    # loss-level derivatives
    eps = y - fwd.point
    d_point = -np.tanh(eps) / B
    r_lo = y - fwd.lo
    r_hi = y - fwd.hi
    d_lo_pin = np.where(r_lo >= 0.0, -cfg.tau_lo, 1.0 - cfg.tau_lo) / B
    d_hi_pin = np.where(r_hi >= 0.0, -cfg.tau_hi, 1.0 - cfg.tau_hi) / B

    # distribute the point-output gradient over plane centers
    total = fwd.weights.sum()
    plane_center_grads = [d_point * (w / total) for w in fwd.weights]

    # d_gamma in (B, P, M) rule order; d_y_cons in (P, B) consequent order
    # until the end
    d_gamma = np.zeros((B, params.n_rules, M))
    d_y_cons = np.zeros_like(terms.y)
    d_sigma_l = np.zeros_like(params.sigma_l)
    d_sigma_r = np.zeros_like(params.sigma_r)

    for i, plane in enumerate(fwd.planes):
        d_center = plane_center_grads[i]
        d_lo = 0.5 * d_center
        d_hi = 0.5 * d_center
        if i == 0:  # pinball acts on the bottom slice only
            d_lo = d_lo + d_lo_pin
            d_hi = d_hi + d_hi_pin
        d_y, d_fl, d_fu = _backward_km(plane, d_lo, d_hi, terms.y)
        d_y_cons += d_y

        # through the log-domain product: df/dmu = f / mu on active factors;
        # memberships clamped to 1 (upper) or 0 (lower) are flat
        # (the slice's bounds are (M, P, B) and its firings (P, B))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_u = np.where((plane.upper > 0.0) & (plane.upper < 1.0),
                               plane.f_upper / plane.upper, 0.0)
            ratio_l = np.where(plane.lower > 0.0,
                               plane.f_lower / plane.lower, 0.0)
        # back in (B, P, M) rule order before any sum over rows or rules,
        # which would round differently over another order
        d_u = _to_rule_order(d_fu * ratio_u, back)
        d_l = _to_rule_order(d_fl * ratio_l, back)

        d_gamma += d_u + d_l
        k = spread_scale(plane.alpha)
        if k != 0.0:
            d_sigma_r += k * d_u.sum(axis=(0, 1))
            d_sigma_l -= k * d_l.sum(axis=(0, 1))

    # membership -> centers and primary deviations
    d = X[:, None, :] - params.c[None, :, :]
    inv_var = 1.0 / params.sigma[None, :, :] ** 2
    common = d_gamma * _to_rule_order(terms.gamma, back)
    d_c = (common * d * inv_var).sum(axis=0)
    d_sigma = (common * d ** 2 * inv_var / params.sigma[None, :, :]).sum(axis=0)

    # consequents
    d_y_cons = _to_rule_order(d_y_cons, back)
    d_a = d_y_cons.T @ X
    d_a0 = d_y_cons.sum(axis=0)

    grad = RawParams(
        c=d_c,
        rho_sigma=d_sigma * _sigmoid(raw.rho_sigma),
        rho_sigma_l=d_sigma_l * _sigmoid(raw.rho_sigma_l),
        rho_sigma_r=d_sigma_r * _sigmoid(raw.rho_sigma_r),
        a=d_a,
        a0=d_a0,
    )
    return fwd.loss, grad


def epoch_row(X, y, params, cfg: TrainConfig, epoch: int) -> dict:
    """The training-log entry of one epoch from one pass over all rows, as
    ``training._epoch_row`` computed it before it ran in row blocks."""
    fwd = _forward_at(X, y, params, cfg)
    if not np.isfinite(fwd.loss):
        raise DivergenceError(
            f"non-finite training loss at epoch {epoch}", epoch=epoch)
    covered = np.mean((fwd.lo <= y) & (y <= fwd.hi))
    return {"epoch": epoch, "loss": fwd.loss, "picp_alpha0": float(covered),
            "rmse": float(np.sqrt(np.mean((y - fwd.point) ** 2)))}


def train(X, y, cfg: TrainConfig) -> TrainResult:
    """
    Fit the rule base by minibatch Adam, in z-scored space.

    Tracks the full-training-set loss at the end of every epoch and returns
    the parameters that achieved the minimum.  Deterministic for a given
    (data, config) pair.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("expected X of shape (N, M) and matching targets")
    rng = np.random.default_rng(cfg.seed)
    raw = init_raw(X, y, cfg, rng)
    n = X.shape[0]
    P, M = cfg.n_rules, X.shape[1]

    theta = raw.to_vector()
    state = AdamState.init(theta.size)
    best_loss = np.inf
    best_theta = theta.copy()
    best_epoch = 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch):
            idx = order[start:start + cfg.minibatch]
            raw = RawParams.from_vector(theta, P, M)
            loss, grad = loss_and_grad(X[idx], y[idx], raw, cfg)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite minibatch loss at epoch {epoch}", epoch=epoch)
            theta, state = adam_step(theta, grad.to_vector(), state, lr=cfg.lr)

        raw = RawParams.from_vector(theta, P, M)
        fwd = _forward(X, y, raw, cfg)
        if not np.isfinite(fwd.loss):
            raise DivergenceError(
                f"non-finite training loss at epoch {epoch}", epoch=epoch)
        covered = np.mean((fwd.lo <= y) & (y <= fwd.hi))
        history.append({
            "epoch": epoch,
            "loss": fwd.loss,
            "picp_alpha0": float(covered),
            "rmse": float(np.sqrt(np.mean((y - fwd.point) ** 2))),
        })
        if fwd.loss < best_loss:
            best_loss = fwd.loss
            best_theta = theta.copy()
            best_epoch = epoch

    best_raw = RawParams.from_vector(best_theta, P, M)
    return TrainResult(params=best_raw.constrain(), raw=best_raw,
                       best_epoch=best_epoch, best_loss=float(best_loss),
                       history=history)
