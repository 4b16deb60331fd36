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

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ALPHA_MIN,
    DEFAULT_PLANES,
    ModelParams,
    SliceForward,
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
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
        if self.point_output not in ("alpha0", "plane-stack"):
            raise ValueError(f"unknown point_output {self.point_output!r}")

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
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
        return ModelParams(
            c=self.c.copy(),
            sigma=softplus(self.rho_sigma) + _SOFTPLUS_FLOOR,
            sigma_l=softplus(self.rho_sigma_l) + _SOFTPLUS_FLOOR,
            sigma_r=softplus(self.rho_sigma_r) + _SOFTPLUS_FLOOR,
            a=self.a.copy(),
            a0=self.a0.copy(),
        )

    @classmethod
    def from_model(cls, params: ModelParams) -> "RawParams":
        return cls(
            c=params.c.copy(),
            rho_sigma=inv_softplus(params.sigma),
            rho_sigma_l=inv_softplus(params.sigma_l),
            rho_sigma_r=inv_softplus(params.sigma_r),
            a=params.a.copy(),
            a0=params.a0.copy(),
        )

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in self._FIELDS])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_rules: int, n_inputs: int) -> "RawParams":
        P, M = n_rules, n_inputs
        shapes = [(P, M), (P, M), (M,), (M,), (P, M), (P,)]
        pieces = {}
        at = 0
        for name, shape in zip(cls._FIELDS, shapes):
            size = int(np.prod(shape))
            pieces[name] = vec[at:at + size].reshape(shape).copy()
            at += size
        if at != vec.size:
            raise ValueError("vector length does not match parameter shapes")
        return cls(**pieces)

    def zeros_like(self) -> "RawParams":
        return RawParams(**{f: np.zeros_like(getattr(self, f)) for f in self._FIELDS})


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
    gamma: np.ndarray
    y_cons: np.ndarray
    planes: list[SliceForward] = field(default_factory=list)


def _forward(X, y, raw: RawParams, cfg: TrainConfig) -> ForwardResult:
    """Full forward pass of the training loss over one batch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("expected X of shape (B, M) and matching targets")
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    params = raw.constrain()
    gamma, y_cons = batch_terms(X, params)

    alphas = [ALPHA_MIN]
    if cfg.point_output == "plane-stack":
        alphas += [a for a in cfg.planes if a != ALPHA_MIN]
    planes = [slice_forward(gamma, y_cons, a, params) for a in alphas]

    base = planes[0]
    if cfg.point_output == "alpha0":
        point = 0.5 * (base.lo + base.hi)
    else:
        weights = np.array([p.alpha for p in planes])
        centers = np.stack([0.5 * (p.lo + p.hi) for p in planes])
        point = weights @ centers / weights.sum()

    eps = y - point
    loss = float(np.mean(log_cosh_loss(eps) +
                         pinball_pair_loss(y, base.lo, base.hi,
                                           cfg.tau_lo, cfg.tau_hi)))
    return ForwardResult(loss=loss, point=point, lo=base.lo, hi=base.hi,
                         params=params, gamma=gamma, y_cons=y_cons,
                         planes=planes)


def _backward_km(plane: SliceForward, d_lo, d_hi, y_cons):
    """Gradients of the reduced bounds w.r.t. firings and consequents.

    With the switch points held fixed, each bound is a plain weighted
    average, so d(bound)/dy_p = w_p / W and d(bound)/dw_p = (y_p - bound)/W
    in sorted coordinates; the per-rule weight is the upper or lower firing
    according to which side of the switch the rule sits on.
    """
    km = plane.km
    B, P = y_cons.shape
    pos = np.arange(P)[None, :]

    ys = np.take_along_axis(y_cons, km.order, axis=1)
    fls = np.take_along_axis(plane.f_lower, km.order, axis=1)
    fus = np.take_along_axis(plane.f_upper, km.order, axis=1)

    d_ys = np.zeros((B, P))
    d_fls = np.zeros((B, P))
    d_fus = np.zeros((B, P))

    # lower bound: upper firing on the L smallest consequents
    upper_side = pos < km.L[:, None]
    w = np.where(upper_side, fus, fls)
    coeff = (d_lo / km.den_lo)[:, None]
    d_ys += coeff * w
    spread = coeff * (ys - plane.lo[:, None])
    d_fus += np.where(upper_side, spread, 0.0)
    d_fls += np.where(upper_side, 0.0, spread)

    # upper bound: lower firing on the R smallest consequents
    lower_side = pos < km.R[:, None]
    w = np.where(lower_side, fls, fus)
    coeff = (d_hi / km.den_hi)[:, None]
    d_ys += coeff * w
    spread = coeff * (ys - plane.hi[:, None])
    d_fls += np.where(lower_side, spread, 0.0)
    d_fus += np.where(lower_side, 0.0, spread)

    # scatter back to original rule order
    d_y = np.zeros((B, P))
    d_fl = np.zeros((B, P))
    d_fu = np.zeros((B, P))
    np.put_along_axis(d_y, km.order, d_ys, axis=1)
    np.put_along_axis(d_fl, km.order, d_fls, axis=1)
    np.put_along_axis(d_fu, km.order, d_fus, axis=1)
    return d_y, d_fl, d_fu


def loss_and_grad(X, y, raw: RawParams, cfg: TrainConfig):
    """Training loss over a batch and its gradient in RawParams shape."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fwd = _forward(X, y, raw, cfg)
    params = fwd.params
    B = X.shape[0]

    # loss-level derivatives
    eps = y - fwd.point
    d_point = -np.tanh(eps) / B
    r_lo = y - fwd.lo
    r_hi = y - fwd.hi
    d_lo_pin = np.where(r_lo >= 0.0, -cfg.tau_lo, 1.0 - cfg.tau_lo) / B
    d_hi_pin = np.where(r_hi >= 0.0, -cfg.tau_hi, 1.0 - cfg.tau_hi) / B

    # distribute the point-output gradient over plane centers
    if cfg.point_output == "alpha0":
        plane_center_grads = [d_point]
    else:
        weights = np.array([p.alpha for p in fwd.planes])
        total = weights.sum()
        plane_center_grads = [d_point * (w / total) for w in weights]

    d_gamma = np.zeros_like(fwd.gamma)
    d_y_cons = np.zeros_like(fwd.y_cons)
    d_sigma_l = np.zeros_like(params.sigma_l)
    d_sigma_r = np.zeros_like(params.sigma_r)

    for i, plane in enumerate(fwd.planes):
        d_center = plane_center_grads[i]
        d_lo = 0.5 * d_center
        d_hi = 0.5 * d_center
        if i == 0:  # pinball acts on the bottom slice only
            d_lo = d_lo + d_lo_pin
            d_hi = d_hi + d_hi_pin
        d_y, d_fl, d_fu = _backward_km(plane, d_lo, d_hi, fwd.y_cons)
        d_y_cons += d_y

        # through the log-domain product: df/dmu = f / mu on active factors;
        # memberships clamped to 1 (upper) or 0 (lower) are flat
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_u = np.where((plane.upper > 0.0) & (plane.upper < 1.0),
                               plane.f_upper[:, :, None] / plane.upper, 0.0)
            ratio_l = np.where(plane.lower > 0.0,
                               plane.f_lower[:, :, None] / plane.lower, 0.0)
        d_u = d_fu[:, :, None] * ratio_u
        d_l = d_fl[:, :, None] * ratio_l

        d_gamma += d_u + d_l
        k = spread_scale(plane.alpha)
        if k != 0.0:
            d_sigma_r += k * d_u.sum(axis=(0, 1))
            d_sigma_l -= k * d_l.sum(axis=(0, 1))

    # membership -> centers and primary deviations
    d = X[:, None, :] - params.c[None, :, :]
    inv_var = 1.0 / params.sigma[None, :, :] ** 2
    common = d_gamma * fwd.gamma
    d_c = (common * d * inv_var).sum(axis=0)
    d_sigma = (common * d ** 2 * inv_var / params.sigma[None, :, :]).sum(axis=0)

    # consequents
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


def total_loss(X, y, raw: RawParams, cfg: TrainConfig) -> float:
    """Training loss over a batch (forward only)."""
    return _forward(X, y, raw, cfg).loss


def piece_signature(X, y, raw: RawParams, cfg: TrainConfig) -> bytes:
    """Fingerprint of the active smooth piece of the loss surface.

    Two nearby parameter points with equal signatures share switch points,
    clamp masks, sort orders and pinball sides, so a finite-difference probe
    between them almost surely stays on one smooth piece.  Gradient checks
    use this to discard probes that straddle a kink.
    """
    fwd = _forward(X, y, raw, cfg)
    parts = []
    for plane in fwd.planes:
        parts.extend([plane.km.order.tobytes(), plane.km.L.tobytes(),
                      plane.km.R.tobytes(), (plane.upper >= 1.0).tobytes(),
                      (plane.lower <= 0.0).tobytes()])
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
            theta, state = adam_step(theta, grad.to_vector(), state,
                                     lr=cfg.lr, beta1=cfg.beta1,
                                     beta2=cfg.beta2, eps=cfg.eps_adam)

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
