"""
Inference core for a Zadeh-style general type-2 fuzzy system.

A model is a first-order TSK rule base whose antecedents are Gaussian
primary membership functions wrapped in a secondary spread.  Slicing the
secondary dimension at a level ``alpha`` yields an interval type-2 system:
every rule fires over an interval, Karnik-Mendel type reduction turns the
rule firings into an output interval ``[lo, hi]``, and averaging reduced
intervals over a stack of alpha levels gives the crisp point output.

All functions here are pure; :class:`ModelParams` is treated as immutable,
so inference may run concurrently across inputs and alpha levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFiringError

#: Smallest admissible alpha level.  The secondary spread scales with
#: sqrt(-2 ln alpha), which blows up as alpha -> 0, so the bottom slice is
#: pinned slightly above zero.
ALPHA_MIN = 0.01

#: Default alpha stack used for the crisp point output.
DEFAULT_PLANES: tuple[float, ...] = (0.01, 0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9, 1.0)

#: Total firing mass below this threshold is treated as "no rule fires".
FIRING_EPS = 1e-15

#: Per-factor floor inside the log-domain product, guarding log(0).
_LOG_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaLevel:
    """A slice level of the secondary membership, restricted to [0.01, 1]."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v < ALPHA_MIN or v > 1.0:
            raise ValueError(
                f"alpha must lie in [{ALPHA_MIN}, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def _alpha_value(alpha: AlphaLevel | float) -> float:
    """Coerce to a validated float alpha level."""
    if isinstance(alpha, AlphaLevel):
        return alpha.value
    return AlphaLevel(float(alpha)).value


def spread_scale(alpha: AlphaLevel | float) -> float:
    """Width multiplier sqrt(-2 ln alpha) of the secondary spread at a slice."""
    a = _alpha_value(alpha)
    if a >= 1.0:
        return 0.0
    return float(np.sqrt(-2.0 * np.log(a)))


@dataclass(frozen=True)
class ModelParams:
    """
    Learnable parameters of the rule base.

    Attributes
    ----------
    c : (P, M) array
        Centers of the Gaussian primary membership functions, in z-scored
        input units.
    sigma : (P, M) array
        Primary standard deviations, strictly positive.
    sigma_l, sigma_r : (M,) arrays
        Left / right secondary deviations, strictly positive.  Shared across
        rules: each input dimension has a single pair.
    a : (P, M) array
        Consequent slopes.
    a0 : (P,) array
        Consequent intercepts.
    """

    c: np.ndarray
    sigma: np.ndarray
    sigma_l: np.ndarray
    sigma_r: np.ndarray
    a: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        for name in ("c", "sigma", "sigma_l", "sigma_r", "a", "a0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        P, M = self.c.shape
        if self.sigma.shape != (P, M) or self.a.shape != (P, M):
            raise ValueError("sigma and a must have the same shape as c")
        if self.sigma_l.shape != (M,) or self.sigma_r.shape != (M,):
            raise ValueError("sigma_l and sigma_r must have shape (M,)")
        if self.a0.shape != (P,):
            raise ValueError("a0 must have shape (P,)")
        for name in ("c", "sigma", "sigma_l", "sigma_r", "a", "a0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")
        for name in ("sigma", "sigma_l", "sigma_r"):
            if np.any(getattr(self, name) <= 0.0):
                raise ValueError(f"{name} must be strictly positive")

    @property
    def n_rules(self) -> int:
        return self.c.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.c.shape[1]

    @property
    def n_learnable(self) -> int:
        """Total scalar learnable parameter count, (2P+2)M + P(M+1)."""
        sizes = (self.c.size, self.sigma.size, self.sigma_l.size,
                 self.sigma_r.size, self.a.size, self.a0.size)
        return int(sum(sizes))


@dataclass(frozen=True)
class FiringIntervals:
    """Per-rule firing interval [lower, upper] at one alpha slice."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.any(lo < 0.0) or np.any(hi > 1.0) or np.any(lo > hi):
            raise ValueError("firing intervals must satisfy 0 <= lower <= upper <= 1")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass(frozen=True)
class TypeReducedSet:
    """Output interval [lo, hi] of Karnik-Mendel reduction at one slice."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("type-reduced bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"lo={self.lo} exceeds hi={self.hi}")


# ---------------------------------------------------------------------------
# Membership evaluation
# ---------------------------------------------------------------------------

def pmf_batch(X: np.ndarray, params: ModelParams) -> np.ndarray:
    """
    Primary memberships for a batch of inputs.

    Parameters
    ----------
    X : (B, M) array

    Returns
    -------
    (B, P, M) array of Gaussian memberships in (0, 1].
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.n_inputs:
        raise ValueError(f"expected shape (B, {params.n_inputs}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    d = X[:, None, :] - params.c[None, :, :]
    return np.exp(-0.5 * (d / params.sigma[None, :, :]) ** 2)


def pmf_eval(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Primary memberships of a single input vector, shape (P, M)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return pmf_batch(x[None, :], params)[0]


def smf_bounds(gamma: np.ndarray, alpha: AlphaLevel | float,
               params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """
    Lower/upper membership bounds at a slice.

    The secondary spread widens the primary grade by
    ``sqrt(-2 ln alpha) * sigma_{l,r}`` on each side; results are clamped
    back into [0, 1] since membership grades live there by definition.

    Parameters
    ----------
    gamma : (..., P, M) array of primary memberships, one matrix per input.

    Returns
    -------
    (lower, upper) arrays with the same shape as ``gamma``, satisfying
    lower <= gamma <= upper elementwise.
    """
    k = spread_scale(alpha)
    gamma = np.asarray(gamma, dtype=float)
    upper = np.minimum(gamma + k * params.sigma_r, 1.0)
    lower = np.maximum(gamma - k * params.sigma_l, 0.0)
    return lower, upper


# ---------------------------------------------------------------------------
# Rule firing
# ---------------------------------------------------------------------------

def _product_tnorm(mu: np.ndarray) -> np.ndarray:
    """Product over the last axis, in the log domain to survive high M.

    The M log-factors are added left to right with in-place adds rather
    than by a reduction over the short last axis, which costs several times
    more per call.  ``mu`` is never written to: callers keep it.
    """
    logs = np.maximum(mu, _LOG_FLOOR)
    np.log(logs, out=logs)
    total = logs[..., 0].copy()
    for m in range(1, logs.shape[-1]):
        total += logs[..., m]
    return np.exp(total, out=total)


def firing_batch(X: np.ndarray, alpha: AlphaLevel | float,
                 params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """
    Per-rule firing intervals for a batch.

    Returns
    -------
    (f_lower, f_upper) arrays of shape (B, P).

    Raises
    ------
    DegenerateFiringError
        If some input fires every rule at numerically zero strength.
    """
    gamma = pmf_batch(X, params)
    lower, upper = smf_bounds(gamma, alpha, params)
    f_upper = _product_tnorm(upper)
    _check_firing(f_upper)
    return _product_tnorm(lower), f_upper


def _check_firing(f_upper: np.ndarray) -> None:
    """Raise unless some rule fires in every row of a (B, P) firing array."""
    total = f_upper.sum(axis=1)
    if np.any(total < FIRING_EPS):
        idx = int(np.argmax(total < FIRING_EPS))
        raise DegenerateFiringError(
            f"input row {idx} lies outside the support of every rule "
            f"(total upper firing {total[idx]:.3e} < {FIRING_EPS:.0e})")


def firing_intervals(x: np.ndarray, alpha: AlphaLevel | float,
                     params: ModelParams) -> FiringIntervals:
    """Firing interval of each rule for a single input vector."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f_lower, f_upper = firing_batch(x[None, :], alpha, params)
    return FiringIntervals(lower=f_lower[0], upper=f_upper[0])


# ---------------------------------------------------------------------------
# Consequents
# ---------------------------------------------------------------------------

def consequent_batch(X: np.ndarray, params: ModelParams) -> np.ndarray:
    """First-order consequent values, shape (B, P)."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    return _consequents(X, params)


def _consequents(X: np.ndarray, params: ModelParams) -> np.ndarray:
    return X @ params.a.T + params.a0[None, :]


def consequent_values(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Consequent value of each rule for a single input, shape (P,)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return consequent_batch(x[None, :], params)[0]


# ---------------------------------------------------------------------------
# Karnik-Mendel type reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KMInternals:
    """Switch-point bookkeeping needed to backpropagate through reduction.

    ``order`` maps sorted position -> original rule index, with rules sorted
    by ascending consequent value.  Each interval end has a switch count and
    the weight total at that switch: ``lo`` puts upper firing on the ``L``
    smallest consequents and lower firing on the rest; ``hi`` puts lower
    firing on the ``R`` smallest and upper firing on the rest.
    """

    order: np.ndarray    # (B, P) argsort of consequents
    L: np.ndarray        # (B,) switch count of the lower bound
    R: np.ndarray        # (B,) switch count of the upper bound
    den_lo: np.ndarray   # (B,) weight totals at the accepted switches
    den_hi: np.ndarray


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


def km_reduce_batch(f_lower: np.ndarray, f_upper: np.ndarray, y: np.ndarray,
                    return_internals: bool = False):
    """
    Karnik-Mendel type reduction for a batch of rule firings.

    Computes the exact minimum (``lo``) and maximum (``hi``) of the
    weighted average ``sum(w*y)/sum(w)`` over all per-rule weight choices
    ``w_p`` in ``[f_lower_p, f_upper_p]``.

    Parameters
    ----------
    f_lower, f_upper, y : (B, P) arrays

    Returns
    -------
    (lo, hi) arrays of shape (B,), plus a :class:`KMInternals` when
    ``return_internals`` is true.
    """
    fl = np.asarray(f_lower, dtype=float)
    fu = np.asarray(f_upper, dtype=float)
    y = np.asarray(y, dtype=float)
    if fl.shape != fu.shape or fl.shape != y.shape or y.ndim != 2:
        raise ValueError("f_lower, f_upper and y must share shape (B, P)")
    _check_firing(fu)

    order = np.argsort(y, axis=1, kind="stable")
    ys = np.take_along_axis(y, order, axis=1)
    fls = np.take_along_axis(fl, order, axis=1)
    fus = np.take_along_axis(fu, order, axis=1)

    lo, L, den_lo = _km_end(fus, fls, ys, minimize=True)
    hi, R, den_hi = _km_end(fls, fus, ys, minimize=False)

    # Degenerate intervals can invert by an ulp through independent rounding
    # of the two bounds; pinch them back together.
    inverted = lo > hi
    if np.any(inverted):
        mid = 0.5 * (lo[inverted] + hi[inverted])
        lo[inverted] = mid
        hi[inverted] = mid

    if return_internals:
        return lo, hi, KMInternals(order=order, L=L, R=R,
                                   den_lo=den_lo, den_hi=den_hi)
    return lo, hi


def km_type_reduce(f: FiringIntervals, y: np.ndarray) -> TypeReducedSet:
    """
    Type reduction of a single firing-interval vector.

    The one-row case of :func:`km_reduce_batch`: the exact interval of the
    firing-weighted average, found by scanning every switch candidate of
    the consequents sorted ascending.  Tied consequents and zero firings
    need no special handling there.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != f.lower.shape:
        raise ValueError("consequent vector length must match rule count")
    lo, hi = km_reduce_batch(f.lower[None, :], f.upper[None, :], y[None, :])
    return TypeReducedSet(lo=float(lo[0]), hi=float(hi[0]))


# ---------------------------------------------------------------------------
# Aggregation over alpha levels
# ---------------------------------------------------------------------------

def alpha_plane_center(trs: TypeReducedSet) -> float:
    """Midpoint of a type-reduced interval."""
    return 0.5 * (trs.lo + trs.hi)


def gt2_aggregate(centers: Sequence[float], alphas: Sequence[float]) -> float:
    """
    Alpha-weighted average of per-slice centers: the crisp point output.
    """
    centers = np.asarray(centers, dtype=float)
    a = np.asarray([_alpha_value(v) for v in np.atleast_1d(alphas)])
    if centers.size == 0 or a.size != centers.size:
        raise ValueError("need matching, non-empty center and alpha lists")
    return float(np.dot(centers, a) / a.sum())


# ---------------------------------------------------------------------------
# Forward pass: alpha-independent batch terms, then one slice at a time
# ---------------------------------------------------------------------------

def batch_terms(X: np.ndarray,
                params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The alpha-independent work of a batch, shared by every slice.

    Checks ``X`` once and returns its primary memberships (B, P, M) and
    consequent values (B, P).
    """
    X = np.asarray(X, dtype=float)
    return pmf_batch(X, params), _consequents(X, params)


@dataclass(frozen=True)
class SliceForward:
    """One slice of the forward pass, with what backpropagation consumes."""

    alpha: float
    lower: np.ndarray    # (B, P, M) membership bounds, clamped into [0, 1]
    upper: np.ndarray
    f_lower: np.ndarray  # (B, P) rule firings
    f_upper: np.ndarray
    lo: np.ndarray       # (B,) type-reduced interval
    hi: np.ndarray
    km: KMInternals


def slice_forward(gamma: np.ndarray, y: np.ndarray, alpha: AlphaLevel | float,
                  params: ModelParams) -> SliceForward:
    """Forward pass at one slice from the terms of :func:`batch_terms`."""
    lower, upper = smf_bounds(gamma, alpha, params)
    f_lower, f_upper = _product_tnorm(lower), _product_tnorm(upper)
    lo, hi, km = km_reduce_batch(f_lower, f_upper, y, return_internals=True)
    return SliceForward(alpha=float(alpha), lower=lower, upper=upper,
                        f_lower=f_lower, f_upper=f_upper, lo=lo, hi=hi, km=km)


def _slice_bounds(gamma, y, alpha, params):
    """``(lo, hi)`` of one slice; the rest of its record is freed on return."""
    s = slice_forward(gamma, y, alpha, params)
    return s.lo, s.hi


def trs_batch(X: np.ndarray, alpha: AlphaLevel | float,
              params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Interval bounds [lo, hi] at one slice for a batch, each (B,)."""
    return _slice_bounds(*batch_terms(X, params), alpha, params)


def predict_batch(X: np.ndarray, alpha: AlphaLevel | float, params: ModelParams,
                  planes: Sequence[float] = DEFAULT_PLANES):
    """
    Batched prediction: interval at ``alpha`` plus crisp point output.

    Memberships and consequents are computed once and shared by all slices.

    Returns
    -------
    (lo, hi, point) arrays of shape (B,).  ``lo``/``hi`` come from the
    requested slice; ``point`` aggregates slice centers over ``planes``.
    """
    alpha = _alpha_value(alpha)
    plane_values = [_alpha_value(p) for p in planes]
    if not plane_values:
        raise ValueError("plane stack must contain at least one alpha level")
    gamma, y = batch_terms(X, params)
    lo, hi = _slice_bounds(gamma, y, alpha, params)
    weighted = np.zeros(lo.shape[0])
    for p in plane_values:
        if p == alpha:
            plo, phi_ = lo, hi
        else:
            plo, phi_ = _slice_bounds(gamma, y, p, params)
        weighted += 0.5 * (plo + phi_) * p
    point = weighted / sum(plane_values)
    return lo, hi, point


def predict(x: np.ndarray, alpha: AlphaLevel | float, params: ModelParams,
            planes: Sequence[float] = DEFAULT_PLANES) -> tuple[float, float, float]:
    """
    Predict for a single input: (lo, hi, point).

    ``(lo, hi)`` is the type-reduced interval at the requested slice; the
    point output averages slice centers over the configured plane stack.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi, point = predict_batch(x[None, :], alpha, params, planes)
    return float(lo[0]), float(hi[0]), float(point[0])
