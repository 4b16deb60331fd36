"""
Post-hoc coverage calibration of a trained model.

A model fitted for a wide envelope can serve any narrower coverage target
without retraining: the interval at slice alpha shrinks monotonically as
alpha grows, so empirical coverage on a held-out calibration set is a
non-increasing function of alpha.  Inverting that function picks the slice
whose interval covers a requested fraction of targets.  Two inverters are
provided: a sampled lookup table with linear interpolation, and a
derivative-free shrinking-step search that needs no quantization choices.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    ALPHA_MIN,
    BatchTerms,
    ModelParams,
    batch_terms,
    slice_forward,
    trs_batch,  # noqa: F401  (kept bound: bench/spans.py wraps it here)
)
from .errors import FlatCurveError
from .training import ENVELOPE


# ---------------------------------------------------------------------------
# Interval quality metrics
# ---------------------------------------------------------------------------

def _checked_targets(y, n: int, metric: str) -> np.ndarray:
    """``y`` as a finite float (n,) array with n > 0, or ValueError."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"targets must be a 1-D array of {n} values, "
                         f"got shape {y.shape}")
    if n == 0:
        raise ValueError(f"{metric} of an empty sample is undefined")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets contain non-finite values")
    return y


def _intervals(y, lo, hi, metric: str):
    """Targets and interval bounds as equal-length, non-empty 1-D arrays."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("y, lo, hi must be 1-D arrays of equal length")
    return _checked_targets(y, lo.size, metric), lo, hi


def picp(y, lo, hi) -> float:
    """Prediction interval coverage probability.

    Fraction of targets with lo_i <= y_i <= hi_i; boundary hits count as
    covered.
    """
    y, lo, hi = _intervals(y, lo, hi, "coverage")
    return float(np.mean((lo <= y) & (y <= hi)))


def pinaw(y, lo, hi) -> float:
    """Prediction interval normalized average width.

    Mean interval width divided by the target range.
    """
    y, lo, hi = _intervals(y, lo, hi, "width")
    span = float(y.max() - y.min())
    if span <= 0.0:
        raise ValueError("target range is zero; width cannot be normalized")
    return float(np.mean(hi - lo) / span)


def _coverage_oracle(params: ModelParams, X, y):
    """Which rows of one dataset a slice covers, as a function of alpha.

    Memberships, consequents and the consequent sort do not depend on
    alpha, so they are computed once here, and ``y`` is checked once; each
    call of the returned function runs one slice on them and returns the
    (Q,) boolean ``lo <= y <= hi`` (boundary hits count as covered).
    ``alpha`` is one level or a (Q,) array with one level per row.  Every
    slice picker probes through one oracle per dataset; the mean of a
    probe is :func:`picp` of it.

    Given an index array ``rows``, a call runs its slice on those rows'
    terms alone and returns their booleans, in ``rows`` order (an array
    ``alpha`` then has one level per entry of ``rows``); a
    :class:`DegenerateFiringError` names the row's index in ``X``.
    """
    terms = batch_terms(X, params)
    y = _checked_targets(y, terms.y.shape[1], "coverage")

    def covered(alpha, rows=None) -> np.ndarray:
        if rows is None:
            s = slice_forward(terms, alpha, params)
            return (s.lo <= y) & (y <= s.hi)
        # the terms keep their rows on the last axis
        s = slice_forward(BatchTerms(*(np.take(t, rows, axis=-1)
                                       for t in terms)), alpha,
                          params, first_row=rows)
        return (s.lo <= y[rows]) & (y[rows] <= s.hi)

    return covered


def coverage_at_alpha(params: ModelParams, X, y, alpha) -> float:
    """Empirical coverage of the slice-alpha interval on a dataset."""
    return float(np.mean(_coverage_oracle(params, X, y)(alpha)))


# ---------------------------------------------------------------------------
# Lookup-table inverter
# ---------------------------------------------------------------------------

def _isotonic_decreasing(values: np.ndarray) -> np.ndarray:
    """Least-squares non-increasing fit by pool-adjacent-violators."""
    vals = list(-np.asarray(values, dtype=float))  # fit non-decreasing on -v
    level = []
    weight = []
    for v in vals:
        level.append(v)
        weight.append(1.0)
        while len(level) > 1 and level[-2] > level[-1]:
            w = weight[-2] + weight[-1]
            merged = (level[-2] * weight[-2] + level[-1] * weight[-1]) / w
            level[-2:] = [merged]
            weight[-2:] = [w]
    out = np.concatenate([np.full(int(w), lv) for lv, w in zip(level, weight)])
    return -out


@dataclass(frozen=True)
class CalibrationTable:
    """Sampled (alpha, coverage) pairs with alpha ascending.

    Coverage is non-increasing in alpha, since intervals nest.  A table
    from :func:`build_lookup_table` is so by construction; a curve that
    breaks this, say one read from a file, is repaired isotonically at
    construction.
    """

    alphas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        p = np.asarray(self.phis, dtype=float)
        if a.ndim != 1 or a.shape != p.shape or a.size < 2:
            raise ValueError("need at least two (alpha, phi) pairs")
        if np.any(np.diff(a) <= 0.0):
            raise ValueError("alpha grid must be strictly increasing")
        if not np.all((a >= ALPHA_MIN) & (a <= 1.0)):
            raise ValueError(f"alpha grid must lie in [{ALPHA_MIN}, 1]")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("coverage values must be finite and lie in [0, 1]")
        if np.any(np.diff(p) > 0.0):
            p = _isotonic_decreasing(p)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "phis", p)

    def __len__(self) -> int:
        return self.alphas.size


@dataclass(frozen=True)
class LookupResult:
    alpha_star: float
    out_of_range: bool


def alpha_grid(delta: float) -> np.ndarray:
    """Quantized slice grid {alpha_min, delta, 2*delta, ..., 1}, deduplicated."""
    if not 0.0 < delta < 1.0:
        raise ValueError("step size must lie in (0, 1)")
    steps = np.arange(1, int(np.floor(1.0 / delta)) + 1) * delta
    pts = np.concatenate([[ALPHA_MIN], np.round(steps, 12), [1.0]])
    pts = np.unique(pts[pts >= ALPHA_MIN])
    if pts.size < 2:
        raise ValueError("grid collapsed to fewer than two points")
    return pts


def build_lookup_table(params: ModelParams, X, y, delta: float) -> CalibrationTable:
    """The coverage curve on the quantized grid, from per-row critical slices.

    Intervals nest as alpha grows, so each row is covered on a prefix of
    the grid: grid indices 0..k_i, with k_i = -1 for a row covered at no
    slice.  Then the coverage at grid index j is #(k_i >= j) / Q.  The top
    slice is probed first, over all rows: its firing check is the
    strictest, so a row outside every rule's support raises there.  After
    the bottom slice, the rows still open are bisected together, one slice
    per pass with one alpha per row: 2 + ceil(log2(n - 1)) slices for an
    n-point grid instead of n.

    Where every row's coverage nests, each phi is the float the mean of
    that slice's coverage booleans gives, and the curve is non-increasing
    by construction.  A target within rounding of a bound that moves by an
    ulp from slice to slice can break nesting; such a row counts as
    covered up to some slice that covers it where the next one does not,
    and moves a phi by at most 1/Q from that slice's mean.
    """
    grid = alpha_grid(delta)
    n = grid.size
    covered = _coverage_oracle(params, X, y)
    k = np.where(covered(grid[-1]), n - 1, -1)
    open_rows = (k < 0) & covered(grid[0])
    k[open_rows] = 0
    # an open row has 0 <= k_i <= n - 2: try steps of 2^m down to 1, each
    # pass probing every row (a closed row's probe is not used)
    for shift in reversed(range((n - 2).bit_length())):
        probe = k + (1 << shift)
        hit = covered(grid[np.minimum(probe, n - 1)])
        k = np.where(open_rows & (probe <= n - 2) & hit, probe, k)
    counts = np.bincount(k + 1, minlength=n + 1)
    phis = np.cumsum(counts[::-1])[::-1][1:] / k.size
    return CalibrationTable(alphas=grid, phis=phis)


def lookup_alpha(table: CalibrationTable, phi_d: float) -> LookupResult:
    """Invert the sampled curve at a coverage target.

    Interpolates alpha piecewise-linearly as a function of coverage.  A
    target outside the sampled coverage range clamps to the corresponding
    end slice and flags the result.  Flat (constant-coverage) runs are
    collapsed to their largest alpha, the narrowest interval achieving that
    coverage; a fully flat table cannot be inverted.
    """
    if not np.isfinite(phi_d):
        raise ValueError(f"coverage target must be finite, got {phi_d!r}")
    phis = table.phis
    alphas = table.alphas
    if phis.max() - phis.min() <= 0.0:
        raise FlatCurveError("coverage is constant across slices; cannot invert")
    if phi_d > phis.max():
        return LookupResult(alpha_star=float(alphas[int(np.argmax(phis))]),
                            out_of_range=True)
    if phi_d < phis.min():
        return LookupResult(alpha_star=float(alphas[int(np.argmin(phis))]),
                            out_of_range=True)
    # ascending-coverage orientation for interpolation; keep the largest
    # alpha wherever several slices share a coverage value
    phi_asc = phis[::-1]
    alpha_asc = alphas[::-1]
    keep = np.ones(phi_asc.size, dtype=bool)
    keep[1:] = np.diff(phi_asc) > 0.0
    a_star = float(np.interp(phi_d, phi_asc[keep], alpha_asc[keep]))
    return LookupResult(alpha_star=a_star, out_of_range=False)


def export_calibration_curve(table: CalibrationTable, path) -> None:
    """Write the sampled curve as a two-column CSV (alpha, phi)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "phi"])
        for a, p in zip(table.alphas, table.phis):
            writer.writerow([repr(float(a)), repr(float(p))])


def read_calibration_curve(path) -> CalibrationTable:
    """Read back a curve written by :func:`export_calibration_curve`."""
    path = Path(path)
    alphas = []
    phis = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["alpha", "phi"]:
            raise ValueError(f"{path}: expected the header alpha,phi, "
                             f"got {header!r}")
        for row in reader:
            try:
                alpha, phi = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"alpha,phi, got {row!r}") from None
            alphas.append(alpha)
            phis.append(phi)
    return CalibrationTable(alphas=np.array(alphas), phis=np.array(phis))


# ---------------------------------------------------------------------------
# Derivative-free search inverter
# ---------------------------------------------------------------------------

#: The search gives up once its step shrinks below this.
_DELTA_FLOOR = 1e-4


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the shrinking-step coverage search."""

    phi_d: float
    alpha_init: float = 0.5
    delta: float = 0.25
    gamma: float = 0.5
    epsilon: float | None = None  # default max(0.005, 1/Q), resolved per dataset
    max_iters: int = 100

    def __post_init__(self):
        if not 0.0 < self.phi_d < ENVELOPE:
            raise ValueError(f"coverage target must lie in (0, {ENVELOPE})")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")
        if not ALPHA_MIN <= self.alpha_init <= 1.0:
            raise ValueError(f"alpha_init must lie in [{ALPHA_MIN}, 1]")
        if self.delta <= 0.0:
            raise ValueError("initial step must be positive")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class CalibrationResult:
    phi_d: float
    alpha_star: float
    phi_achieved: float
    iterations: int
    converged: bool

    def as_dict(self) -> dict:
        return asdict(self)


def search_alpha(coverage_fn, cfg: SearchConfig) -> CalibrationResult:
    """
    Shrinking-step search for the slice matching a coverage target.

    Each iteration probes one step up and one step down (clipped to the
    admissible slice range), moves to whichever probe reduces the coverage
    error most (ties prefer the upward, narrower-interval side), and shrinks
    the step when neither helps.  Stops when the error drops below the
    tolerance; hitting the step floor or the iteration cap returns the best
    point seen with ``converged=False``.
    """
    if cfg.epsilon is None:
        raise ValueError("search over a bare coverage function needs an "
                         "explicit tolerance")
    alpha = float(min(max(cfg.alpha_init, ALPHA_MIN), 1.0))
    phi = float(coverage_fn(alpha))
    err = abs(phi - cfg.phi_d)
    best = (err, alpha, phi)
    iterations = 0
    delta = cfg.delta

    if err < cfg.epsilon:
        return CalibrationResult(cfg.phi_d, alpha, phi, 0, True)

    while iterations < cfg.max_iters:
        iterations += 1
        alpha_up = min(alpha + delta, 1.0)
        alpha_dn = max(alpha - delta, ALPHA_MIN)
        phi_up = float(coverage_fn(alpha_up))
        phi_dn = float(coverage_fn(alpha_dn))
        err_up = abs(phi_up - cfg.phi_d)
        err_dn = abs(phi_dn - cfg.phi_d)

        if err_up < err and not err_dn < err_up:
            alpha, phi, err = alpha_up, phi_up, err_up
        elif err_dn < err:
            alpha, phi, err = alpha_dn, phi_dn, err_dn
        else:
            delta *= cfg.gamma
            if delta < _DELTA_FLOOR:
                break
            continue

        if err < best[0]:
            best = (err, alpha, phi)
        if err < cfg.epsilon:
            return CalibrationResult(cfg.phi_d, alpha, phi, iterations, True)

    _, alpha, phi = best
    return CalibrationResult(cfg.phi_d, alpha, phi, iterations, False)


def calibrate_search(params: ModelParams, X, y,
                     cfg: SearchConfig) -> CalibrationResult:
    """Run the coverage search against a calibration dataset.

    An unset tolerance defaults to max(0.005, 1/Q): empirical coverage on Q
    points moves in steps of 1/Q, so a finer tolerance is unreachable.

    Each distinct alpha runs one slice (after a move, the opposite probe
    is the previous point), and only over the rows its earlier probes
    leave open.  Intervals nest as alpha grows, so a row covered at the
    nearest probed alpha above is covered here, and a row missed at the
    nearest probed alpha below is missed here; the first probe evaluates
    every row.  Probe coverage is thus non-increasing in alpha by
    construction.  Where every row's coverage nests, each probe equals
    :func:`coverage_at_alpha`; a target within rounding of a bound that
    moves by an ulp between slices can break nesting, and such a row then
    takes its neighbours' value.  The firing check sees only the rows a
    probe evaluates, so a row outside every rule's support at a slice
    raises only if that slice evaluates it.
    """
    if cfg.epsilon is None:
        q = np.size(y)
        if q == 0:
            raise ValueError("calibration set is empty")
        cfg = replace(cfg, epsilon=max(0.005, 1.0 / q))
    covered = _coverage_oracle(params, X, y)
    probed = {}  # alpha -> (Q,) coverage booleans

    def coverage(alpha: float) -> float:
        if alpha not in probed:
            probed[alpha] = _nested_probe(covered, probed, alpha)
        return float(np.mean(probed[alpha]))

    return search_alpha(coverage, cfg)


def _nested_probe(covered, probed: dict, alpha: float) -> np.ndarray:
    """The coverage booleans at a new ``alpha``, from its probed neighbours.

    Starts from the booleans of the nearest probed alpha above and runs
    one slice over the rows covered at the nearest probed alpha below and
    not above (every row where there is no such alpha).
    """
    if not probed:
        return covered(alpha)
    above = min((a for a in probed if a > alpha), default=None)
    below = max((a for a in probed if a < alpha), default=None)
    q = len(next(iter(probed.values())))
    hit = np.zeros(q, bool) if above is None else probed[above].copy()
    open_rows = ~hit if below is None else probed[below] & ~hit
    rows = np.flatnonzero(open_rows)
    hit[rows] = covered(alpha, rows)
    return hit
