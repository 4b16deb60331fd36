"""
Inference core for a Zadeh-style general type-2 fuzzy system.

A model is a first-order TSK rule base whose antecedents are Gaussian
primary membership functions wrapped in a secondary spread.  Slicing the
secondary dimension at a level ``alpha`` yields an interval type-2 system:
every rule fires over an interval, Karnik-Mendel type reduction turns the
rule firings into an output interval ``[lo, hi]``, and averaging reduced
intervals over a stack of alpha levels gives the crisp point output.

The slice path keeps its arrays input-major, with the rows of the batch
on the last, contiguous axis: memberships and their bounds are
(M, P, B), rule firings and sorted consequents (P, B), and the
Karnik-Mendel workspace is candidate-major, (P+1, 2, 4, B).  Every sum
of a slice then runs down its first axis, one contiguous B-long slab per
add: the t-norm adds one slab per input and the reduction one per switch
candidate, and neither transposes its inputs.  Each add is the one the
(B, P, M) layout made, in the same order, so the outputs are the same to
the bit.  The public batch functions (:func:`pmf_batch`,
:func:`firing_batch`, :func:`km_reduce_batch`) keep their row-major
shapes.

All functions here are pure; :class:`ModelParams` is treated as immutable,
so inference may run concurrently across inputs and alpha levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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

#: Most rows, or stacked (row, slice) pairs, one slice call of
#: :func:`predict_batch` holds, so that each (M, P, rows) slice temporary
#: stays within L2 cache for typical rule bases; also the most rows one
#: Karnik-Mendel workspace holds.
_ROW_BLOCK = 1024


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


def _alpha_levels(alpha) -> float | np.ndarray:
    """A validated alpha level, or a validated (B,) array of per-row levels."""
    if isinstance(alpha, np.ndarray) and alpha.ndim > 0:
        a = alpha.astype(float)
        if a.ndim != 1:
            raise ValueError(f"per-row alpha must be a (B,) array, got shape "
                             f"{a.shape}")
        # NaN fails both comparisons
        if not np.all((a >= ALPHA_MIN) & (a <= 1.0)):
            raise ValueError(f"every alpha must lie in [{ALPHA_MIN}, 1]")
        return a
    return _alpha_value(alpha)


def spread_scale(alpha: AlphaLevel | float | np.ndarray) -> float | np.ndarray:
    """Width multiplier sqrt(-2 ln alpha) of the secondary spread at a slice.

    ``alpha`` is one level or a (B,) array of per-row levels; an array gives
    an array of the same values the scalar form gives, bit for bit.
    """
    a = _alpha_levels(alpha)
    if isinstance(a, np.ndarray):
        return np.where(a >= 1.0, 0.0, np.sqrt(-2.0 * np.log(a)))
    if a >= 1.0:
        return 0.0
    return float(np.sqrt(-2.0 * np.log(a)))


#: The fields of :class:`ModelParams`, in order.
_PARAM_FIELDS = ("c", "sigma", "sigma_l", "sigma_r", "a", "a0")


def _param_views(vec: np.ndarray, P: int, M: int) -> list[np.ndarray]:
    """Views of the six fields of a flat parameter vector, in
    ``_PARAM_FIELDS`` order, for P rules and M inputs."""
    views, at = [], 0
    for shape in ((P, M), (P, M), (M,), (M,), (P, M), (P,)):
        size = math.prod(shape)
        views.append(vec[at:at + size].reshape(shape))
        at += size
    return views


def _deviations(P: int, M: int) -> slice:
    """Where the three deviation families sit in a flat parameter vector.

    In ``_PARAM_FIELDS`` order they are adjacent: the (P, M) primary
    deviations, then the (M,) left and the (M,) right secondary ones, so
    one elementwise call covers all three.
    """
    return slice(P * M, 2 * P * M + 2 * M)


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

    Construction checks the shapes, that every value is finite and that
    every deviation is strictly positive, and raises ``ValueError`` naming
    the first field, in the order above, that fails.
    """

    c: np.ndarray
    sigma: np.ndarray
    sigma_l: np.ndarray
    sigma_r: np.ndarray
    a: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        for name in _PARAM_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if self.c.ndim != 2 or 0 in self.c.shape:
            raise ValueError(f"c must be a (P, M) matrix with at least one rule "
                             f"and one input, got shape {self.c.shape}")
        P, M = self.c.shape
        if self.sigma.shape != (P, M) or self.a.shape != (P, M):
            raise ValueError("sigma and a must have the same shape as c")
        if self.sigma_l.shape != (M,) or self.sigma_r.shape != (M,):
            raise ValueError("sigma_l and sigma_r must have shape (M,)")
        if self.a0.shape != (P,):
            raise ValueError("a0 must have shape (P,)")
        # one check over all values, and one over the three deviation
        # families, which sit next to each other; only a failure looks at
        # each field in turn, for the message
        flat = np.concatenate([getattr(self, name).ravel()
                               for name in _PARAM_FIELDS])
        if np.isfinite(flat).all() and flat[_deviations(P, M)].min() > 0.0:
            return
        for name in _PARAM_FIELDS:
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
        return sum(getattr(self, name).size for name in _PARAM_FIELDS)


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
    (B, P, M) array of Gaussian memberships in (0, 1].  It is the
    transpose of an input-major array: its ``.T``, (M, P, B), is
    contiguous.
    """
    X = _checked_inputs(X, params)
    # every factor input-major and contiguous, so that numpy lays each
    # temporary out as (M, P, B) too
    x, c, sigma = (np.ascontiguousarray(a.T) for a in (X, params.c,
                                                       params.sigma))
    # a distance or ratio too large for a float has membership 0 all the same
    with np.errstate(over="ignore"):
        d = x[:, None, :] - c[:, :, None]
        return np.exp(-0.5 * (d / sigma[:, :, None]) ** 2).T


def _checked_inputs(X, params: ModelParams) -> np.ndarray:
    """``X`` as a float (B, M) array with finite values, or ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.n_inputs:
        raise ValueError(f"expected shape (B, {params.n_inputs}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    return X


def smf_bounds(gamma: np.ndarray, alpha: AlphaLevel | float | np.ndarray,
               params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """
    Lower/upper membership bounds at a slice.

    The secondary spread widens the primary grade by
    ``sqrt(-2 ln alpha) * sigma_{l,r}`` on each side; results are clamped
    back into [0, 1] since membership grades live there by definition.

    Parameters
    ----------
    gamma : (M, ...) array of primary memberships, input axis first, such
        as the (M, P, B) memberships of :class:`BatchTerms`.
    alpha : one slice level, or a (B,) array with one level per row of an
        (M, P, B) ``gamma``.

    Returns
    -------
    (lower, upper) arrays with the same shape as ``gamma``, satisfying
    lower <= gamma <= upper elementwise.
    """
    k = spread_scale(alpha)
    gamma = np.asarray(gamma, dtype=float)
    if isinstance(k, np.ndarray) and (gamma.ndim != 3
                                      or k.shape != gamma.shape[2:]):
        raise ValueError(f"per-row alpha of shape {k.shape} does not match "
                         f"memberships of shape {gamma.shape}")
    # one spread per input, down the first axis; per-row levels broadcast
    # along the last
    per_input = (-1,) + (1,) * (gamma.ndim - 1)
    # a spread too large for a float is inf, and the clamp gives its bound
    with np.errstate(over="ignore"):
        upper = gamma + params.sigma_r.reshape(per_input) * k
        np.minimum(upper, 1.0, out=upper)
        lower = gamma - params.sigma_l.reshape(per_input) * k
        np.maximum(lower, 0.0, out=lower)
    return lower, upper


# ---------------------------------------------------------------------------
# Rule firing
# ---------------------------------------------------------------------------

def _product_tnorm(mu: np.ndarray) -> np.ndarray:
    """Product over the first (input) axis, in the log domain to survive
    high M.

    The M log-factors are added in input order, one in-place add of a
    contiguous slab per input.  Each slab is floored and logged on its
    own, so that no temporary is as large as ``mu``: a slice's peak memory
    stays that of its bounds.  ``mu`` is never written to: callers keep
    it.
    """
    total = np.maximum(mu[0], _LOG_FLOOR)
    np.log(total, out=total)
    for m in range(1, len(mu)):
        logs = np.maximum(mu[m], _LOG_FLOOR)
        total += np.log(logs, out=logs)
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
    lower, upper = smf_bounds(pmf_batch(X, params).T, alpha, params)
    f_upper = _product_tnorm(upper)
    _check_firing(f_upper)
    return _product_tnorm(lower).T, f_upper.T


def _check_firing(f_upper: np.ndarray,
                  first_row: int | np.ndarray = 0) -> None:
    """Raise unless some rule fires in every row of a (P, B) firing array.

    ``first_row`` is the index of the array's first row in the caller's
    batch, or a (B,) array of each row's index there, so that the error
    names the row the caller passed.

    A row's total adds its rules in the order of a (B, P) array's row sum,
    so that the verdict and the message do not depend on the layout.  The
    sum down the rule axis adds them in another order; the firings are not
    negative, so it is within a few ulps of that total, and only the rows
    it puts near the threshold are summed again.
    """
    near = np.flatnonzero(f_upper.sum(axis=0) < 2.0 * FIRING_EPS)
    if near.size == 0:
        return
    total = np.ascontiguousarray(f_upper[:, near].T).sum(axis=1)
    if np.any(total < FIRING_EPS):
        idx = int(np.argmax(total < FIRING_EPS))
        at = int(near[idx])
        row = (int(first_row[at]) if isinstance(first_row, np.ndarray)
               else first_row + at)
        raise DegenerateFiringError(
            f"input row {row} lies outside the support of every rule "
            f"(total upper firing {total[idx]:.3e} < {FIRING_EPS:.0e})")


# ---------------------------------------------------------------------------
# Consequents
# ---------------------------------------------------------------------------

def consequent_batch(X: np.ndarray, params: ModelParams) -> np.ndarray:
    """First-order consequent values, shape (B, P)."""
    return _consequents(_checked_inputs(X, params), params)


def _consequents(X: np.ndarray, params: ModelParams) -> np.ndarray:
    return X @ params.a.T + params.a0[None, :]


# ---------------------------------------------------------------------------
# Karnik-Mendel type reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KMInternals:
    """Switch-point bookkeeping needed to backpropagate through reduction.

    ``order`` maps sorted position -> original rule index, with rules sorted
    by ascending consequent value: ``order[p, b]`` is the rule at sorted
    position p of row b.  Each interval end has a switch count and
    the weight total at that switch: ``lo`` puts upper firing on the ``L``
    smallest consequents and lower firing on the rest; ``hi`` puts lower
    firing on the ``R`` smallest and upper firing on the rest.
    """

    order: np.ndarray    # (P, B) argsort of consequents down each column
    L: np.ndarray        # (B,) switch count of the lower bound
    R: np.ndarray        # (B,) switch count of the upper bound
    den_lo: np.ndarray   # (B,) weight totals at the accepted switches
    den_hi: np.ndarray


#: Fill of a zero-weight switch candidate, per end: never the extremum.
_KM_FILL = np.array([np.inf, -np.inf])[:, None]


def _row_blocks(n: int) -> list[slice]:
    """Near-equal blocks of at most ``_ROW_BLOCK`` rows that cover ``n`` rows.

    Near-equal rather than ending in a short block: a one-row block of
    :func:`predict_batch` would take numpy's matrix-vector product, whose
    consequents can differ from the matrix-matrix product's in the last bit.
    """
    k = max(1, -(-n // _ROW_BLOCK))
    edges = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _overflow_exponents(low: np.ndarray, high: np.ndarray) -> np.ndarray | None:
    """Per row, the power of two that scales its largest |value| into
    [0.5, 1) if that is 2**512 or more, and 0 otherwise.

    ``low`` and ``high`` are each row's smallest and largest value.  Sums
    of a few values below 2**512 cannot overflow, so ``None`` stands for
    "no row needs scaling" and costs one ``min`` and one ``max``.
    Scaling by a power of two is exact unless a scaled value is subnormal.
    """
    if max(-low.min(initial=0.0), high.max(initial=0.0)) < 2.0 ** 512:
        return None
    _, exp = np.frexp(np.maximum(-low, high))
    exp[exp <= 512] = 0
    return exp


def _km_sorted(fls, fus, ys, order):
    """Both ends of the reduced interval, from rules sorted by consequent.

    ``fls``, ``fus`` and ``ys`` are (P, B), each column one row of the
    batch with its rules in the order ``order``; returns
    ``(lo, hi, KMInternals)``.

    Switch candidate k in 0..P of the lower end weights the k smallest
    consequents by upper firing and the others by lower firing; the upper
    end swaps the two firings.  Each extremum of the weighted average is
    attained at one of these candidates, so scanning all of them is exact,
    also when firings are exactly zero or consequents tie; zero-weight
    candidates are skipped.

    A candidate's sums are a prefix sum over the first k rules plus a
    suffix sum over the rest, each summed from its outer end (the suffix
    directly, not as total minus prefix, which cancels catastrophically
    when magnitudes span many orders).  All eight running sums, prefix and
    suffix of fu*y, fl*y, fu and fl, advance together in one
    candidate-major workspace, (P+1, 2, 4, B): each of its P - 1 in-place
    adds is one contiguous slab, and the inputs fill it without a
    transpose.  Each sum adds in cumsum's order, so the result is the same
    to the bit.

    Rows whose largest |y| is 2**512 or more are scaled by a power of two
    for the sums (:func:`_overflow_exponents`), which then cannot overflow.
    More than ``_ROW_BLOCK`` rows run in row blocks: the workspace of a
    whole large batch, such as a training epoch's, would be the largest
    temporary of its slice and raise peak memory.  Every row's results are
    the same either way.
    """
    B = ys.shape[1]
    if B > _ROW_BLOCK:
        parts = [_km_sorted(fls[:, r], fus[:, r], ys[:, r], None)
                 for r in _row_blocks(B)]
        lo, hi = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
        return lo, hi, KMInternals(order=order, **{
            f: np.concatenate([getattr(p[2], f) for p in parts])
            for f in ("L", "R", "den_lo", "den_hi")})
    # a sorted row's largest |y| is at one of its ends
    exp = _overflow_exponents(ys[0], ys[-1])
    if exp is not None:
        ys = np.ldexp(ys, -exp)
    P = len(ys)
    # ws[k, 0]: sums over the first k rules of (fu*y, fl*y, fu, fl);
    # ws[j, 1]: sums over the last j rules of (fl*y, fu*y, fl, fu)
    ws = np.empty((P + 1, 2, 4, B))
    ws[0] = 0.0
    np.multiply(fus, ys, out=ws[1:, 0, 0])
    np.multiply(fls, ys, out=ws[1:, 0, 1])
    ws[1:, 0, 2] = fus
    ws[1:, 0, 3] = fls
    # the suffix half: the prefix half's candidates reversed, with fu and
    # fl swapped in each pair
    pairs = ws.reshape(P + 1, 2, 2, 2, B)
    pairs[1:, 1] = pairs[:0:-1, 0, :, ::-1]
    for j in range(2, P + 1):
        ws[j] += ws[j - 1]
    # candidate k: prefix k plus suffix P - k, giving the numerators and
    # weight totals of (lo, hi)
    ws[:, 0] += ws[::-1, 1]
    vals, den = ws[:, 0, :2], ws[:, 0, 2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(vals, den, out=vals)
    np.copyto(vals, _KM_FILL, where=~(den > 0.0))
    L, R = vals[:, 0].argmin(axis=0), vals[:, 1].argmax(axis=0)
    # one gather: candidate k of row b has its (lo, hi) values at flat
    # k*8B + b and k*8B + B + b, and their weight totals 2B further on
    at = np.stack((L, R)) * (8 * B) + np.arange(2 * B).reshape(2, B)
    flat = ws.reshape(-1)
    (lo, hi), (den_lo, den_hi) = flat[at], flat[at + 2 * B]

    # Degenerate intervals can invert by an ulp through independent rounding
    # of the two bounds; pinch them back together.
    inverted = lo > hi
    if np.any(inverted):
        mid = 0.5 * (lo[inverted] + hi[inverted])
        lo[inverted] = mid
        hi[inverted] = mid
    if exp is not None:
        lo, hi = np.ldexp(lo, exp), np.ldexp(hi, exp)
    return lo, hi, KMInternals(order=order, L=L, R=R,
                               den_lo=den_lo, den_hi=den_hi)


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
    _check_firing(fu.T)

    order = np.argsort(y, axis=1, kind="stable")
    lo, hi, km = _km_sorted(*(np.take_along_axis(a, order, axis=1).T
                              for a in (fl, fu, y)), order.T)
    return (lo, hi, km) if return_internals else (lo, hi)


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
# Forward pass: alpha-independent batch terms, then one slice at a time
# ---------------------------------------------------------------------------

class BatchTerms(NamedTuple):
    """The alpha-independent terms of a batch, shared by every slice.

    Each row's rules are sorted once by ascending consequent (a stable
    sort), the order Karnik-Mendel reduction needs.  ``order`` maps sorted
    position -> rule index; ``gamma`` and ``y`` are already in that order.
    Each array is contiguous with the rows on its last axis.
    """

    gamma: np.ndarray  # (M, P, B) primary memberships
    y: np.ndarray      # (P, B) consequents, ascending down each column
    order: np.ndarray  # (P, B)


def batch_terms(X: np.ndarray, params: ModelParams) -> BatchTerms:
    """Check ``X`` once and compute its memberships and sorted consequents."""
    X = np.asarray(X, dtype=float)
    gamma, y = pmf_batch(X, params).T, _consequents(X, params)
    order = np.argsort(y.T, axis=0, kind="stable")
    # gather through flat positions: np.take on a flat index costs far
    # less per call than take_along_axis on small batches.  Sorted entry
    # (p, b) sits at order*B + b in each input's (P, B) memberships and in
    # the (P, B) consequents.  The memberships go first, so that their
    # unsorted array is freed before the consequents' copy is made; the
    # other order left a fit's heap one (M, P, B) array larger
    M, P, B = gamma.shape
    at = order * B
    at += np.arange(B)
    gamma = np.take(gamma.reshape(M, P * B), at, axis=1)
    return BatchTerms(gamma=gamma, y=np.take(y.T.copy(), at), order=order)


@dataclass(frozen=True)
class SliceForward:
    """One slice of the forward pass, with what backpropagation consumes.

    The (M, P, B) and (P, B) arrays are in consequent order, as in the
    :class:`BatchTerms` the slice ran on.
    """

    alpha: AlphaLevel | float | np.ndarray  # as passed to slice_forward
    lower: np.ndarray    # (M, P, B) membership bounds, clamped into [0, 1]
    upper: np.ndarray
    f_lower: np.ndarray  # (P, B) rule firings
    f_upper: np.ndarray
    lo: np.ndarray       # (B,) type-reduced interval
    hi: np.ndarray
    km: KMInternals


def slice_forward(terms: BatchTerms, alpha: AlphaLevel | float | np.ndarray,
                  params: ModelParams,
                  first_row: int | np.ndarray = 0) -> SliceForward:
    """Forward pass at one slice from the terms of :func:`batch_terms`.

    ``alpha`` is one level for every row, or a (B,) array with one level
    per row; each row's results equal those of the one-level slice at its
    own alpha, bit for bit, since every step after the bounds is per row.
    The secondary spreads are per input, not per rule, so the bounds and
    the t-norm run on the sorted rules as they are; the reduction needs no
    sort of its own.  ``first_row`` offsets the row a
    :class:`DegenerateFiringError` names, for terms of a block of rows;
    terms that stack a block pass a (B,) array of each row's index.
    """
    lower, upper = smf_bounds(terms.gamma, alpha, params)
    f_lower, f_upper = _product_tnorm(lower), _product_tnorm(upper)
    _check_firing(f_upper, first_row)
    lo, hi, km = _km_sorted(f_lower, f_upper, terms.y, terms.order)
    return SliceForward(alpha=alpha, lower=lower, upper=upper,
                        f_lower=f_lower, f_upper=f_upper, lo=lo, hi=hi, km=km)


def _slice_bounds(terms, alpha, params, first_row=0):
    """``(lo, hi)`` of one slice; the rest of its record is freed on return."""
    s = slice_forward(terms, alpha, params, first_row)
    return s.lo, s.hi


def trs_batch(X: np.ndarray, alpha: AlphaLevel | float,
              params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Interval bounds [lo, hi] at one slice for a batch, each (B,)."""
    return _slice_bounds(batch_terms(X, params), alpha, params)


def _block_bounds(terms: BatchTerms, levels: list[float], params: ModelParams,
                  first_row: int) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """``{level: (lo, hi)}`` over the b rows of one block.

    The levels run ``_ROW_BLOCK // b`` per call: one per-row-alpha slice
    over the terms stacked slice-major once per level, or, for a single
    level, a one-level slice on the terms as they are.
    """
    b = terms.y.shape[1]
    per_call = max(1, _ROW_BLOCK // max(b, 1))
    bounds = {}
    for i in range(0, len(levels), per_call):
        group = levels[i:i + per_call]
        k = len(group)
        if k == 1:
            bounds[group[0]] = _slice_bounds(terms, group[0], params, first_row)
        else:
            lo, hi = _slice_bounds(
                BatchTerms(*(np.concatenate((t,) * k, axis=-1)
                             for t in terms)),
                np.repeat(group, b), params, first_row + np.arange(k * b) % b)
            bounds.update(zip(group, zip(lo.reshape(k, b), hi.reshape(k, b))))
    return bounds


def _plane_point(bounds: np.ndarray, weights: np.ndarray,
                 total: float) -> np.ndarray:
    """Per row, the sum over planes of ``0.5 * (lo + hi) * p``, over ``total``.

    ``bounds`` is (planes, 2, b), each plane's ``(lo, hi)``, and ``weights``
    the (planes, 1) levels.  The terms add in plane order, starting from
    0.0, as a loop over planes does.  A row whose largest |bound| is 2**512
    or more is scaled by a power of two first, so that its sum cannot
    overflow, and its point is scaled back after.
    """
    plo, phi = bounds[:, 0], bounds[:, 1]
    # lo <= hi, so a row's largest |bound| is -min(lo) or max(hi)
    exp = _overflow_exponents(plo.min(axis=0), phi.max(axis=0))
    if exp is not None:
        plo, phi = np.ldexp(plo, -exp), np.ldexp(phi, -exp)
    terms = np.empty((len(weights) + 1, plo.shape[1]))
    terms[0] = 0.0
    np.multiply(0.5 * (plo + phi), weights, out=terms[1:])
    # cumsum adds row after row; a sum over the axis may pair rows up
    point = np.cumsum(terms, axis=0)[-1] / total
    return point if exp is None else np.ldexp(point, exp)


def predict_batch(X: np.ndarray, alpha: AlphaLevel | float, params: ModelParams,
                  planes: Sequence[float] = DEFAULT_PLANES):
    """
    Batched prediction: interval at ``alpha`` plus crisp point output.

    The rows run in blocks of at most ``_ROW_BLOCK``: memberships and
    sorted consequents are computed once per block and shared by all its
    slices.  A block runs its distinct slice levels, ``alpha`` first, at
    most ``_ROW_BLOCK`` (row, slice) pairs per call: a single row runs all
    its slices in one call, a bulk block one slice per call.  Each slice's
    bounds equal those of a one-slice call bit for bit.

    Returns
    -------
    (lo, hi, point) arrays of shape (B,).  ``lo``/``hi`` come from the
    requested slice; ``point`` aggregates slice centers over ``planes``.
    """
    alpha = _alpha_value(alpha)
    plane_values = [float(p) for p in planes]
    # NaN fails the comparison too
    if not all(ALPHA_MIN <= p <= 1.0 for p in plane_values):
        for p in plane_values:
            _alpha_value(p)  # raises, naming the first bad level
    if not plane_values:
        raise ValueError("plane stack must contain at least one alpha level")
    levels = list(dict.fromkeys([alpha, *plane_values]))
    weights = np.array(plane_values)[:, None]
    total = sum(plane_values)
    X = _checked_inputs(X, params)
    B = X.shape[0]
    lo, hi, point = np.empty(B), np.empty(B), np.empty(B)
    for rows in _row_blocks(B):
        bounds = _block_bounds(batch_terms(X[rows], params), levels, params,
                               rows.start)
        lo[rows], hi[rows] = bounds[alpha]
        point[rows] = _plane_point(np.array([bounds[p] for p in plane_values]),
                                   weights, total)
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
