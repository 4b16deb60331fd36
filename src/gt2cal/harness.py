"""
Experiment harness: data plumbing and the end-to-end pipeline.

The pipeline mirrors the two ways of reaching a coverage target phi_d:

* calibrated - split 70/15/15, train one wide-envelope (99%) model on the
  training split, pick the slice matching phi_d on the calibration split,
  report on the test split;
* direct - split 85/15 (calibration rows folded into training), train
  straight at phi_d's quantile pair, report the bottom slice on test.

Metrics are computed in z-scored space; normalization statistics always
come from the training split alone.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .calibration import SearchConfig, calibrate_search, picp, pinaw
from .core import _PARAM_FIELDS, ALPHA_MIN, ModelParams, predict_batch
from .errors import DegenerateFiringError, DivergenceError, SchemaError
from .training import ENVELOPE, TrainConfig, train

SCHEMA_VERSION = 1
_SPLIT_SCHEMES = {"70/15/15": (0.70, 0.15, 0.15), "85/15": (0.85, 0.0, 0.15)}


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadedDataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    target_name: str
    n_dropped: int

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def load_csv(path, target_column) -> LoadedDataset:
    """Read a numeric CSV with a header row.

    ``target_column`` selects the regression target by name or index; the
    remaining columns become features.  Rows containing anything that does
    not parse as a finite number are dropped and counted.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if isinstance(target_column, int) or (isinstance(target_column, str)
                                              and target_column.lstrip("-").isdigit()):
            t_idx = int(target_column)
            if not -len(header) <= t_idx < len(header):
                raise ValueError(f"target column index {t_idx} out of range")
            t_idx %= len(header)
        else:
            if target_column not in header:
                raise ValueError(
                    f"target column {target_column!r} not in header {header}")
            t_idx = header.index(target_column)
        if len(header) < 2:
            raise ValueError(f"{path} has only the target column "
                             f"{header[t_idx]!r}; need at least one feature")

        rows = []
        n_dropped = 0
        for raw in reader:
            if len(raw) != len(header):
                n_dropped += 1
                continue
            try:
                vals = [float(v) for v in raw]
            except ValueError:
                n_dropped += 1
                continue
            if not all(np.isfinite(vals)):
                n_dropped += 1
                continue
            rows.append(vals)

    if not rows:
        raise ValueError(f"{path} contains no usable numeric rows "
                         f"({n_dropped} dropped)")
    data = np.asarray(rows, dtype=float)
    y = data[:, t_idx]
    X = np.delete(data, t_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != t_idx]
    return LoadedDataset(X=X, y=y, feature_names=names,
                         target_name=header[t_idx], n_dropped=n_dropped)


def synthetic_heteroscedastic(n: int, seed: int):
    """1-D benchmark task with input-proportional noise:
    x ~ U[1, 3], y = x + 0.5 * x * e with e ~ N(0, 1)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 3.0, size=n)
    e = rng.standard_normal(n)
    return x[:, None], x + 0.5 * x * e


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationStats:
    """Per-column z-score statistics fitted on the training split only;
    construction raises ``ValueError`` unless ``x_mean`` and ``x_std`` are
    1-D vectors of one length, the means finite and the deviations finite
    and positive."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def __post_init__(self):
        object.__setattr__(self, "x_mean", np.asarray(self.x_mean, dtype=float))
        object.__setattr__(self, "x_std", np.asarray(self.x_std, dtype=float))
        object.__setattr__(self, "y_mean", float(self.y_mean))
        object.__setattr__(self, "y_std", float(self.y_std))
        if self.x_mean.ndim != 1 or self.x_std.shape != self.x_mean.shape:
            raise ValueError(f"x_mean and x_std must be 1-D vectors of one "
                             f"length, got shape {self.x_mean.shape} and "
                             f"shape {self.x_std.shape}")
        scales = np.append(self.x_std, self.y_std)
        if not (np.all(np.isfinite(scales)) and np.all(scales > 0.0)):
            raise ValueError("x_std and y_std must be finite and positive")
        if not np.all(np.isfinite(np.append(self.x_mean, self.y_mean))):
            raise ValueError("x_mean and y_mean must be finite")

    @classmethod
    def fit(cls, X, y, feature_names=None) -> "NormalizationStats":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        # the constructor rejects the statistics of non-finite values
        with np.errstate(invalid="ignore"):
            x_mean, x_std = X.mean(axis=0), X.std(axis=0)
            y_mean, y_std = y.mean(), y.std()
        for j, s in enumerate(x_std):
            if s <= 0.0:
                name = feature_names[j] if feature_names else f"column {j}"
                raise ValueError(f"feature {name!r} has zero variance on the "
                                 "fitting split")
        return cls(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)

    def apply(self, X, y=None):
        Xz = (np.asarray(X, dtype=float) - self.x_mean) / self.x_std
        if y is None:
            return Xz
        yz = (np.asarray(y, dtype=float) - self.y_mean) / self.y_std
        return Xz, yz

    def invert_y(self, yz):
        return np.asarray(yz, dtype=float) * self.y_std + self.y_mean

    def invert_x(self, Xz):
        return np.asarray(Xz, dtype=float) * self.x_std + self.x_mean


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSplit:
    train: np.ndarray
    calib: np.ndarray
    test: np.ndarray
    seed: int
    scheme: str


def split(n_rows: int, scheme: str, seed: int) -> DatasetSplit:
    """Seeded shuffle, then contiguous slices by the scheme's proportions.

    Calibration and test sizes are floored; leftover rows go to training.
    """
    if scheme not in _SPLIT_SCHEMES:
        raise ValueError(f"unknown split scheme {scheme!r}; "
                         f"choose from {sorted(_SPLIT_SCHEMES)}")
    if n_rows < 10:
        raise ValueError("need at least 10 rows to split")
    _, f_calib, f_test = _SPLIT_SCHEMES[scheme]
    n_calib = int(np.floor(n_rows * f_calib))
    n_test = int(np.floor(n_rows * f_test))
    n_train = n_rows - n_calib - n_test
    perm = np.random.default_rng(seed).permutation(n_rows)
    return DatasetSplit(
        train=perm[:n_train],
        calib=perm[n_train:n_train + n_calib],
        test=perm[n_train + n_calib:],
        seed=seed,
        scheme=scheme,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rmse(y, yhat) -> float:
    """Root mean squared error (computed in whatever space y lives in)."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ValueError("y and yhat must be 1-D arrays of equal length")
    if y.size == 0:
        raise ValueError("rmse of an empty sample is undefined")
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelBundle:
    params: ModelParams
    stats: NormalizationStats | None
    train_config: TrainConfig | None
    metadata: dict = field(default_factory=dict)


#: The model file's typed blocks, each with the type that holds it; a block
#: is written field by field and read back through its type's constructor.
_TYPED_BLOCKS = (("normalization", NormalizationStats),
                 ("train_config", TrainConfig))


def save_model(path, params: ModelParams, stats: NormalizationStats | None = None,
               train_config: TrainConfig | None = None,
               metadata: dict | None = None) -> None:
    """Write a model as JSON.

    Floats are serialized with shortest-roundtrip decimal encoding, so a
    load/save cycle reproduces every parameter bit for bit.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "gt2cal-model",
        "n_rules": params.n_rules,
        "n_inputs": params.n_inputs,
        "params": {f: getattr(params, f).tolist() for f in _PARAM_FIELDS},
        **{key: None if block is None else {
            f.name: np.asarray(getattr(block, f.name)).tolist()
            for f in fields(cls)}
           for (key, cls), block in zip(_TYPED_BLOCKS, (stats, train_config))},
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_model(path) -> ModelBundle:
    """Read a model written by :func:`save_model`; a file loads only if its
    blocks build the types that hold them and its metadata names a split
    that :func:`split` can redo, so that a model that loads can run
    (otherwise :class:`SchemaError`)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "gt2cal-model":
        raise SchemaError(f"{path} is not a model file")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {doc.get('schema_version')!r}")
    params_doc = doc.get("params")
    if not isinstance(params_doc, dict):
        raise SchemaError("model file is missing field 'params'")
    arrays = {}
    for name in _PARAM_FIELDS:
        if name not in params_doc:
            raise SchemaError(f"model file is missing field 'params.{name}'")
        try:
            arrays[name] = np.asarray(params_doc[name], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"model file field 'params.{name}' is not a "
                              f"numeric array: {exc}") from exc
    try:
        params = ModelParams(**arrays)
    except ValueError as exc:
        raise SchemaError(f"model file holds invalid parameters: {exc}") from exc

    for key in ("normalization", "train_config", "metadata"):
        if not isinstance(doc.get(key), (dict, type(None))):
            raise SchemaError(f"model file field '{key}' must be an object or "
                              f"null, got {type(doc[key]).__name__}")

    # each block builds the type that holds it, with its lists as tuples
    built = {}
    for key, cls in _TYPED_BLOCKS:
        block = doc.get(key)
        try:
            built[key] = None if block is None else cls(**{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in block.items()})
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"model file holds an invalid {key} block: "
                              f"{exc}") from exc
    stats = built["normalization"]
    if stats is not None and stats.x_mean.shape != (params.n_inputs,):
        raise SchemaError(f"normalization x_mean and x_std must have shape "
                          f"({params.n_inputs},), got shape "
                          f"{stats.x_mean.shape}")
    # the split that ``gt2cal train --scheme`` wrote, which --split redoes
    metadata = doc.get("metadata") or {}
    scheme, seed = metadata.get("scheme", "all"), metadata.get("seed", 0)
    if scheme not in ("all", *_SPLIT_SCHEMES) or type(seed) is not int or seed < 0:
        raise SchemaError(f"model file metadata must name a split scheme from "
                          f"{['all', *_SPLIT_SCHEMES]} and a non-negative "
                          f"integer seed, got {scheme!r} and {seed!r}")
    return ModelBundle(params=params, stats=stats,
                       train_config=built["train_config"], metadata=metadata)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedRun:
    """Metrics of one (seed, coverage-target) cell, in z-scored space."""

    seed: int
    phi_d: float
    rmse: float
    picp: float
    pinaw: float
    alpha_star: float | None = None
    phi_achieved: float | None = None
    iterations: int | None = None
    converged: bool | None = None


@dataclass
class ExperimentReport:
    dataset: str
    n_features: int
    n_rows: int
    mode: str
    phi_ds: tuple[float, ...]
    seeds: tuple[int, ...]
    runs: list[SeedRun] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)

    def runs_for(self, phi_d: float) -> list[SeedRun]:
        return [r for r in self.runs if r.phi_d == phi_d]

    def aggregate(self, metric: str, phi_d: float) -> tuple[float, float]:
        """Mean and sample standard deviation of a metric across seeds."""
        vals = np.array([getattr(r, metric) for r in self.runs_for(phi_d)])
        if vals.size == 0:
            raise ValueError(f"no successful runs for phi_d={phi_d}")
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        return float(vals.mean()), std


def interval_metrics(params: ModelParams, X, y, alpha, planes) -> dict:
    """RMSE of the point output and PICP/PINAW of the slice-alpha interval."""
    lo, hi, point = predict_batch(X, alpha, params, planes)
    return {"rmse": rmse(y, point), "picp": picp(y, lo, hi),
            "pinaw": pinaw(y, lo, hi)}


#: The ways :func:`run_pipeline` reaches a coverage target.
PIPELINE_MODES = ("calibrated", "direct")


def run_pipeline(X, y, phi_ds, seeds, mode: str = "calibrated",
                 train_cfg: TrainConfig | None = None,
                 dataset_name: str = "dataset") -> ExperimentReport:
    """
    Repeat the full experiment across seeds and aggregate the metrics.

    Coverage targets must stay below the training envelope ``ENVELOPE``.
    A seed whose training diverges or degenerates is recorded as a failure
    without aborting the remaining seeds.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    phi_list = _coverage_targets(phi_ds)
    if mode not in PIPELINE_MODES:
        raise ValueError(f"unknown pipeline mode {mode!r}")

    base_cfg = train_cfg or TrainConfig()
    report = ExperimentReport(dataset=dataset_name, n_features=X.shape[1],
                              n_rows=X.shape[0], mode=mode,
                              phi_ds=tuple(phi_list), seeds=tuple(int(s) for s in seeds))

    for seed in report.seeds:
        try:
            if mode == "calibrated":
                report.runs.extend(
                    _calibrated_seed(X, y, phi_list, seed, base_cfg))
            else:
                report.runs.extend(
                    _direct_seed(X, y, phi_list, seed, base_cfg))
        except (DivergenceError, DegenerateFiringError, ValueError) as exc:
            report.failures.append((seed, str(exc)))
    return report


def _coverage_targets(phi_ds) -> list[float]:
    """One coverage target or several, as a list of floats in
    (0, ``ENVELOPE``), or ValueError."""
    phi_list = [float(p) for p in np.atleast_1d(phi_ds)]
    for p in phi_list:
        if not 0.0 < p < ENVELOPE:
            raise ValueError(f"coverage target {p} must lie in (0, {ENVELOPE})")
    return phi_list


def _seed_config(base_cfg: TrainConfig, phi: float, seed: int) -> TrainConfig:
    """``base_cfg`` trained for envelope coverage ``phi`` with ``seed``."""
    target = TrainConfig.for_coverage(phi)
    return replace(base_cfg, tau_lo=target.tau_lo, tau_hi=target.tau_hi,
                   seed=seed)


def _calibrated_seed(X, y, phi_list, seed, base_cfg):
    parts = split(X.shape[0], "70/15/15", seed)
    stats = NormalizationStats.fit(X[parts.train], y[parts.train])
    Xtr, ytr = stats.apply(X[parts.train], y[parts.train])
    Xcal, ycal = stats.apply(X[parts.calib], y[parts.calib])
    Xte, yte = stats.apply(X[parts.test], y[parts.test])

    cfg = _seed_config(base_cfg, ENVELOPE, seed)
    fitted = train(Xtr, ytr, cfg)

    runs = []
    for phi_d in phi_list:
        cal = calibrate_search(fitted.params, Xcal, ycal,
                               SearchConfig(phi_d=phi_d))
        metrics = interval_metrics(fitted.params, Xte, yte, cal.alpha_star,
                                   cfg.point_planes)
        runs.append(SeedRun(seed=seed, **cal.as_dict(), **metrics))
    return runs


def _direct_seed(X, y, phi_list, seed, base_cfg):
    parts = split(X.shape[0], "85/15", seed)
    stats = NormalizationStats.fit(X[parts.train], y[parts.train])
    Xtr, ytr = stats.apply(X[parts.train], y[parts.train])
    Xte, yte = stats.apply(X[parts.test], y[parts.test])

    runs = []
    for phi_d in phi_list:
        cfg = _seed_config(base_cfg, phi_d, seed)
        fitted = train(Xtr, ytr, cfg)
        metrics = interval_metrics(fitted.params, Xte, yte, ALPHA_MIN,
                                   cfg.point_planes)
        runs.append(SeedRun(seed=seed, phi_d=phi_d, **metrics))
    return runs


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------

def format_report(reports: list[ExperimentReport]) -> str:
    """Tabular side-by-side summary of pipeline runs.

    RMSE and PINAW are scaled by 100 for display (PICP is shown as a
    percentage); stored metrics stay unscaled.
    """
    by_key: dict[tuple[str, float], dict[str, ExperimentReport]] = {}
    for rep in reports:
        for phi_d in rep.phi_ds:
            by_key.setdefault((rep.dataset, phi_d), {})[rep.mode] = rep

    lines = []
    for (dataset, phi_d), modes in by_key.items():
        any_rep = next(iter(modes.values()))
        pct = round(phi_d * 100)
        header = [f"Dataset {dataset} ({any_rep.n_features} x {any_rep.n_rows}),"
                  f" target coverage {pct}%"]
        cols = []
        if "direct" in modes:
            cols.append((f"direct({pct}%)", modes["direct"]))
        if "calibrated" in modes:
            cols.append((f"calibrated({pct}%)", modes["calibrated"]))
        title = "  ".join(f"{name:>24}" for name, _ in cols)
        header.append(f"{'metric':8}{title}")
        for metric, scale in (("rmse", 100.0), ("picp", 100.0), ("pinaw", 100.0)):
            cells = []
            for _, rep in cols:
                try:
                    mean, std = rep.aggregate(metric, phi_d)
                    cells.append(f"{mean * scale:10.2f} (+/-{std * scale:5.2f})")
                except ValueError:
                    cells.append(f"{'n/a':>21}")
            header.append(f"{metric.upper():8}" + "  ".join(f"{c:>24}" for c in cells))
        for _, rep in cols:
            for seed, msg in rep.failures:
                header.append(f"  [seed {seed} failed: {msg}]")
        lines.append("\n".join(header))
    return "\n\n".join(lines)


#: Keys of each :func:`report_rows` row, in order; a CSV header can name
#: them even when every seed failed and there are no rows.
REPORT_COLUMNS = ("dataset", "mode", *(f.name for f in fields(SeedRun)))


def report_rows(reports: list[ExperimentReport]) -> list[dict]:
    """Flat per-seed rows (for CSV export of a report)."""
    return [dict(zip(REPORT_COLUMNS, (rep.dataset, rep.mode, *astuple(run))))
            for rep in reports for run in rep.runs]
