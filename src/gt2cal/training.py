"""
Dual-focused minibatch training of the fuzzy rule base.

The loss couples an accuracy term (log-cosh of the point-prediction
residual) with an uncertainty term (a pinball pair on the bottom-slice
interval bounds), so one fit yields both a point predictor and a quantile
envelope.  Gradients are hand-derived through the whole forward pass:
Karnik-Mendel switch points and membership clamps are treated as locally
constant, which is exact everywhere except on the measure-zero boundaries
where the active piece changes.

Positive parameters (all sigma families) are stored unconstrained and
mapped through softplus, so a plain Adam loop needs no projection step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ALPHA_MIN,
    DEFAULT_PLANES,
    BatchTerms,
    ModelParams,
    SliceForward,
    _deviations,
    _param_views,
    batch_terms,
    km_reduce_batch,  # noqa: F401  (kept bound: bench/spans.py wraps it here)
    slice_forward,
    spread_scale,
)
from .errors import DivergenceError

#: Floor added to softplus outputs so constrained deviations never reach 0.
_SOFTPLUS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    tau_lo: float = 0.005
    tau_hi: float = 0.995
    epochs: int = 300
    minibatch: int = 64
    lr: float = 1e-3
    n_rules: int = 10
    planes: tuple[float, ...] = DEFAULT_PLANES
    seed: int = 0
    point_output: str = "alpha0"  # "alpha0" or "plane-stack"

    def __post_init__(self):
        if not (0.0 < self.tau_lo < 0.5 < self.tau_hi < 1.0):
            raise ValueError("quantile levels must satisfy 0 < tau_lo < 0.5 < tau_hi < 1")
        if self.minibatch < 1:
            raise ValueError("minibatch size must be at least 1")
        if self.n_rules < 1:
            raise ValueError("need at least one rule")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        # NaN fails the comparison too
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be a finite learning rate above 0, "
                             f"got {self.lr!r}")
        if self.point_output not in ("alpha0", "plane-stack"):
            raise ValueError(f"unknown point_output {self.point_output!r}")
        if not self.planes:
            raise ValueError("plane stack must contain at least one alpha level")

    @classmethod
    def for_coverage(cls, phi: float, **overrides) -> "TrainConfig":
        """Symmetric quantile pair for a target envelope coverage.

        phi=0.90 -> (0.05, 0.95); phi=0.95 -> (0.025, 0.975);
        phi=0.99 -> (0.005, 0.995).
        """
        if not 0.0 < phi < 1.0:
            raise ValueError("coverage must lie in (0, 1)")
        half_tail = (1.0 - phi) / 2.0
        return cls(tau_lo=half_tail, tau_hi=1.0 - half_tail, **overrides)


#: Coverage of the default wide envelope, 0.99 exactly; every coverage
#: target that calibration serves lies below it.
ENVELOPE = TrainConfig.tau_hi - TrainConfig.tau_lo


# ---------------------------------------------------------------------------
# Unconstrained parameterization
# ---------------------------------------------------------------------------

def softplus(r):
    """ln(1 + e^r), evaluated without overflow."""
    return np.logaddexp(0.0, r)


def inv_softplus(s):
    """Inverse of :func:`softplus` for s > 0."""
    s = np.asarray(s, dtype=float)
    return s + np.log(-np.expm1(-s))


def _sigmoid(r):
    """1 / (1 + e^-r) for r >= 0 and e^r / (1 + e^r) below, so that no
    exponential overflows."""
    e = np.exp(-np.abs(r))
    one_plus = 1.0 + e
    return np.where(r >= 0, 1.0 / one_plus, e / one_plus)


@dataclass
class RawParams:
    """Unconstrained mirror of :class:`ModelParams`.

    Centers and consequents are stored as-is; every positive deviation is
    stored pre-softplus, so any real-valued update keeps the constrained
    model valid.  Also doubles as the container for gradients, which share
    the same shapes.
    """

    c: np.ndarray
    rho_sigma: np.ndarray
    rho_sigma_l: np.ndarray
    rho_sigma_r: np.ndarray
    a: np.ndarray
    a0: np.ndarray

    _FIELDS = ("c", "rho_sigma", "rho_sigma_l", "rho_sigma_r", "a", "a0")

    def constrain(self) -> ModelParams:
        """The constrained parameters, sharing no memory with these."""
        return _flat_params(self.to_vector(), *self.c.shape)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in self._FIELDS])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_rules: int, n_inputs: int) -> "RawParams":
        views = _param_views(vec, n_rules, n_inputs)
        if sum(v.size for v in views) != vec.size:
            raise ValueError("vector length does not match parameter shapes")
        return cls(*(v.copy() for v in views))


def _flat_params(theta: np.ndarray, P: int, M: int) -> ModelParams:
    """The constrained parameters of a flat :meth:`RawParams.to_vector`.

    They are views into one copy of ``theta``, whose deviations take one
    softplus.
    """
    vec = theta.copy()
    dev = vec[_deviations(P, M)]
    dev[...] = softplus(dev)
    dev += _SOFTPLUS_FLOOR
    return ModelParams(*_param_views(vec, P, M))


def init_raw(X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
             rng: np.random.Generator) -> RawParams:
    """Data-driven initialization in z-scored space.

    Rule centers and intercepts come from rows sampled without replacement;
    primary deviations start at 1 (one z-unit), secondary deviations at 0.1,
    slopes at zero.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, M = X.shape
    P = cfg.n_rules
    if n < P:
        raise ValueError(f"need at least {P} training rows to place {P} rules")
    rows = rng.choice(n, size=P, replace=False)
    return RawParams(
        c=X[rows].copy(),
        rho_sigma=np.full((P, M), float(inv_softplus(1.0))),
        rho_sigma_l=np.full(M, float(inv_softplus(0.1))),
        rho_sigma_r=np.full(M, float(inv_softplus(0.1))),
        a=np.zeros((P, M)),
        a0=y[rows].copy(),
    )


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------

def log_cosh_loss(eps):
    """log(cosh(eps)), via the overflow-safe |e| + ln(1+exp(-2|e|)) - ln 2."""
    e = np.abs(np.asarray(eps, dtype=float))
    return e + np.log1p(np.exp(-2.0 * e)) - np.log(2.0)


def pinball_pair_loss(y, lo, hi, tau_lo, tau_hi):
    """Tilted losses pushing lo / hi toward the tau_lo / tau_hi quantiles."""
    r_lo = np.asarray(y, dtype=float) - lo
    r_hi = np.asarray(y, dtype=float) - hi
    term_lo = np.maximum(tau_lo * r_lo, (tau_lo - 1.0) * r_lo)
    term_hi = np.maximum(tau_hi * r_hi, (tau_hi - 1.0) * r_hi)
    return term_lo + term_hi


# ---------------------------------------------------------------------------
# Forward / backward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    loss: float
    point: np.ndarray        # (B,) crisp predictions
    lo: np.ndarray           # (B,) bottom-slice interval bounds
    hi: np.ndarray
    params: ModelParams      # the constrained parameters the pass ran with
    terms: BatchTerms        # memberships and consequents, consequent order
    planes: list[SliceForward]  # bottom slice first
    weights: np.ndarray         # each slice's weight in the point


def _forward(X, y, raw: RawParams, cfg: TrainConfig) -> ForwardResult:
    """Full forward pass of the training loss over one batch."""
    return _forward_at(X, y, raw.constrain(), cfg)


def _forward_at(X, y, params: ModelParams, cfg: TrainConfig) -> ForwardResult:
    """:func:`_forward` with the parameters already constrained."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("expected X of shape (B, M) and matching targets")
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
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


def _rule_positions(order, M):
    """Flat positions that gather consequent order back into rule order.

    For a (P, B) sort ``order`` of rows with M inputs, entry (b, p, m) of
    the (B, P, M) result is the flat index, in an (M, P, B) array in
    consequent order, of input m of rule p in row b; ``[..., 0]`` indexes
    a (P, B) array the same way.
    """
    P, B = order.shape
    back = np.empty(B * P, dtype=np.intp)
    back[(order + P * np.arange(B)).ravel()] = np.arange(P * B)
    return back.reshape(B, P, 1) + P * B * np.arange(M)


def _to_rule_order(a, back):
    """A (P, B) or (M, P, B) array in consequent order, as a contiguous
    (B, P) or (B, P, M) array in rule order: the layout that every sum over
    rows or rules of the backward pass reads."""
    return np.take(a, back if a.ndim == 3 else back[..., 0])


def _backward_km(plane: SliceForward, d_lo, d_hi, y_cons):
    """Gradients of the reduced bounds w.r.t. firings and consequents.

    With the switch points held fixed, each bound is a plain weighted
    average, so d(bound)/dy_p = w_p / W and d(bound)/dw_p = (y_p - bound)/W.
    Everything is (P, B) and in consequent order, as the slice is: the
    lower bound weighs the ``L`` smallest consequents by their upper
    firing, the upper bound the ``R`` smallest by their lower firing.
    """
    km = plane.km
    sorted_pos = np.arange(len(y_cons))[:, None]
    upper_lo = sorted_pos < km.L  # lo: upper firing on the L smallest
    lower_hi = sorted_pos < km.R  # hi: lower firing on the R smallest
    fl, fu = plane.f_lower, plane.f_upper

    c_lo = d_lo / km.den_lo
    c_hi = d_hi / km.den_hi
    d_y = c_lo * np.where(upper_lo, fu, fl) + c_hi * np.where(lower_hi, fl, fu)
    s_lo = c_lo * (y_cons - plane.lo)
    s_hi = c_hi * (y_cons - plane.hi)
    d_fu = np.where(upper_lo, s_lo, 0.0) + np.where(lower_hi, 0.0, s_hi)
    d_fl = np.where(upper_lo, 0.0, s_lo) + np.where(lower_hi, s_hi, 0.0)
    return d_y, d_fl, d_fu


def loss_and_grad(X, y, raw: RawParams, cfg: TrainConfig):
    """Training loss over a batch and its gradient in RawParams shape."""
    P, M = raw.c.shape
    loss, grad = _loss_and_flat_grad(X, y, raw.to_vector(), P, M, cfg)
    return loss, RawParams.from_vector(grad, P, M)


def _loss_and_flat_grad(X, y, theta: np.ndarray, P: int, M: int,
                        cfg: TrainConfig):
    """Training loss over a batch and its gradient, both at and as a flat
    :meth:`RawParams.to_vector` of P rules and M inputs."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fwd = _forward_at(X, y, _flat_params(theta, P, M), cfg)
    params = fwd.params
    terms = fwd.terms
    back = _rule_positions(terms.order, M)
    B = X.shape[0]

    # loss-level derivatives
    eps = y - fwd.point
    d_point = -np.tanh(eps) / B
    r_lo = y - fwd.lo
    r_hi = y - fwd.hi
    d_lo_pin = np.where(r_lo >= 0.0, -cfg.tau_lo / B, (1.0 - cfg.tau_lo) / B)
    d_hi_pin = np.where(r_hi >= 0.0, -cfg.tau_hi / B, (1.0 - cfg.tau_hi) / B)

    # distribute the point-output gradient over plane centers
    total = fwd.weights.sum()
    plane_center_grads = [d_point * (w / total) for w in fwd.weights]

    # the gradient, in the layout of theta; the deviations hold d/dsigma
    # until the softplus step at the end
    grad = np.empty(theta.size)
    d_c, d_sigma, d_sigma_l, d_sigma_r, d_a, d_a0 = _param_views(grad, P, M)
    d_sigma_l[...] = d_sigma_r[...] = 0.0

    # d_gamma in rule order; d_y_cons in consequent order until the end.
    # Both start from the bottom slice's term, not from zeros, so they can
    # hold a -0.0 where a zero start holds +0.0; every sum over rows below,
    # the matrix product's too, starts from +0.0 and drops that sign
    for i, plane in enumerate(fwd.planes):
        d_center = plane_center_grads[i]
        d_lo = 0.5 * d_center
        d_hi = 0.5 * d_center
        if i == 0:  # pinball acts on the bottom slice only
            d_lo = d_lo + d_lo_pin
            d_hi = d_hi + d_hi_pin
        d_y, d_fl, d_fu = _backward_km(plane, d_lo, d_hi, terms.y)

        # through the log-domain product: df/dmu = f / mu on active factors;
        # memberships clamped to 1 (upper) or 0 (lower) are flat
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_u = np.where((plane.upper > 0.0) & (plane.upper < 1.0),
                               plane.f_upper / plane.upper, 0.0)
            ratio_l = np.where(plane.lower > 0.0,
                               plane.f_lower / plane.lower, 0.0)
        # back in (B, P, M) rule order before any sum over rows or rules,
        # which would round differently over another order
        d_u = _to_rule_order(d_fu * ratio_u, back)
        d_l = _to_rule_order(d_fl * ratio_l, back)

        if i == 0:
            d_y_cons = d_y
            d_gamma = d_u + d_l
        else:
            d_y_cons += d_y
            d_gamma += d_u + d_l
        k = spread_scale(plane.alpha)
        if k != 0.0:
            # the rows and rules of a (B, P, M) array as one axis: the
            # same adds, in the same order, as a sum over axes (0, 1)
            d_sigma_r += k * d_u.reshape(-1, M).sum(axis=0)
            d_sigma_l -= k * d_l.reshape(-1, M).sum(axis=0)

    # membership -> centers and primary deviations
    d = X[:, None, :] - params.c[None, :, :]
    inv_var = 1.0 / params.sigma[None, :, :] ** 2
    common = d_gamma * _to_rule_order(terms.gamma, back)
    (common * d * inv_var).sum(axis=0, out=d_c)
    (common * d ** 2 * inv_var / params.sigma[None, :, :]).sum(axis=0,
                                                                out=d_sigma)
    dev = _deviations(P, M)
    grad[dev] *= _sigmoid(theta[dev])

    # consequents
    d_y_cons = _to_rule_order(d_y_cons, back)
    np.matmul(d_y_cons.T, X, out=d_a)
    d_y_cons.sum(axis=0, out=d_a0)
    return fwd.loss, grad


def piece_signature(X, y, raw: RawParams, cfg: TrainConfig) -> bytes:
    """Fingerprint of the active smooth piece of the loss surface.

    Two nearby parameter points with equal signatures share switch points,
    clamp masks, sort orders and pinball sides, so a finite-difference probe
    between them almost surely stays on one smooth piece.  Gradient checks
    use this to discard probes that straddle a kink.
    """
    fwd = _forward(X, y, raw, cfg)
    back = _rule_positions(fwd.terms.order, len(fwd.terms.gamma))
    parts = []
    for plane in fwd.planes:
        # the sort order as (B, P) bytes, rule masks in (B, P, M) rule order
        parts.extend([plane.km.order.T.tobytes(), plane.km.L.tobytes(),
                      plane.km.R.tobytes()])
        parts.extend(_to_rule_order(mask, back).tobytes()
                     for mask in (plane.upper >= 1.0, plane.lower <= 0.0))
    parts.append(((y - fwd.lo) >= 0.0).tobytes())
    parts.append(((y - fwd.hi) >= 0.0).tobytes())
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def init(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size), t=0)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam update; returns (new_theta, new_state)."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad ** 2
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_theta, AdamState(m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: ModelParams
    raw: RawParams
    best_epoch: int
    best_loss: float
    history: list[dict]

    def history_rows(self):
        """Training log rows as (epoch, loss, picp_alpha0, rmse) tuples."""
        return [(h["epoch"], h["loss"], h["picp_alpha0"], h["rmse"])
                for h in self.history]


def train(X, y, cfg: TrainConfig) -> TrainResult:
    """
    Fit the rule base by minibatch Adam, in z-scored space.

    Tracks the full-training-set loss at the end of every epoch and returns
    the parameters that achieved the minimum.  Deterministic for a given
    (data, config) pair.

    Adam steps on the flat vector of :meth:`RawParams.to_vector`: each
    step's constrained parameters are views into one copy of it (one
    softplus covers the three deviation families, which sit next to each
    other), and the gradient is written straight into one vector of the
    same layout.  Each epoch gathers its shuffled rows once and steps over
    contiguous slices of them.  ``X`` and ``y`` are never written to, and
    no array of the result shares memory with another or with the inputs.
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
    best_theta = theta
    best_epoch = 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        X_epoch, y_epoch = X[order], y[order]
        for start in range(0, n, cfg.minibatch):
            rows = slice(start, start + cfg.minibatch)
            loss, grad = _loss_and_flat_grad(X_epoch[rows], y_epoch[rows],
                                             theta, P, M, cfg)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite minibatch loss at epoch {epoch}", epoch=epoch)
            if not np.isfinite(grad).all():
                raise DivergenceError(
                    f"non-finite minibatch gradient at epoch {epoch}",
                    epoch=epoch)
            # a new vector each step: best_theta keeps its values
            theta, state = adam_step(theta, grad, state, lr=cfg.lr)
        # the shuffled copy is not needed by the full-set pass, which sets
        # the peak memory of a fit
        del X_epoch, y_epoch

        fwd = _forward_at(X, y, _flat_params(theta, P, M), cfg)
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
            best_theta = theta
            best_epoch = epoch

    best_raw = RawParams.from_vector(best_theta, P, M)
    return TrainResult(params=best_raw.constrain(), raw=best_raw,
                       best_epoch=best_epoch, best_loss=float(best_loss),
                       history=history)
