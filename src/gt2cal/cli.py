"""Command-line interface.

Subcommands cover the full workflow: ``train`` fits a model and writes it
as JSON, ``calibrate`` picks the slice for a coverage target, ``evaluate``
scores a model at a slice, ``curve`` exports the sampled coverage curve,
and ``report`` runs the whole multi-seed pipeline from a spec file.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationResult,
    SearchConfig,
    build_lookup_table,
    calibrate_search,
    coverage_at_alpha,
    export_calibration_curve,
    lookup_alpha,
)
from .core import ALPHA_MIN
from .harness import (
    _SPLIT_SCHEMES,
    PIPELINE_MODES,
    REPORT_COLUMNS,
    NormalizationStats,
    _coverage_targets,
    format_report,
    interval_metrics,
    load_csv,
    load_model,
    report_rows,
    run_pipeline,
    save_model,
    split,
    synthetic_heteroscedastic,
)
from .training import ENVELOPE, HISTORY_COLUMNS, TrainConfig, train


#: Lookup grid step of ``calibrate --method lookup`` and ``curve``.
_GRID_STEP = 0.1

#: Keys that ``report`` reads from a spec: the first two are required, and
#: a key that names a ``TrainConfig`` field sets that field of every fit.
_SPEC_KEYS = ("data", "phi_d", "target", "name", "seeds", "modes",
              "epochs", "minibatch", "lr", "n_rules")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dataset_options(p, split=None):
    """--data and --target, plus --model and --split when given a split default."""
    if split is not None:
        p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV dataset (or synthetic:N)")
    p.add_argument("--target", default=None, help="target column name or index")
    if split is not None:
        p.add_argument("--split", choices=["train", "calib", "test", "all"],
                       default=split)


def _build_parser():
    parser = _Parser(prog="gt2cal", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key=value file with default options")
    parser.add_argument("--seed", type=int, default=0, help="global seed")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("train", help="fit a model and write it as JSON")
    _dataset_options(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--phi", type=float, default=ENVELOPE,
                       help="envelope coverage; sets a symmetric quantile pair")
    group.add_argument("--taus", nargs=2, type=float, metavar=("LO", "HI"),
                       help="explicit quantile pair")
    p.add_argument("--rules", type=int, default=TrainConfig.n_rules)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--minibatch", type=int, default=TrainConfig.minibatch)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--scheme", choices=["all", *_SPLIT_SCHEMES],
                   default="all", help="which split's training rows to fit on")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--log-out", default=None, help="training log CSV")

    p = sub.add_parser("calibrate", help="pick the slice for a coverage target")
    _dataset_options(p, split="calib")
    p.add_argument("--phi-d", type=float, required=True)
    p.add_argument("--method", choices=["search", "lookup"], default="search")
    p.add_argument("--delta", type=float, default=None,
                   help="search step / lookup grid spacing")
    p.add_argument("--gamma", type=float, default=SearchConfig.gamma)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--alpha-init", type=float,
                   default=SearchConfig.alpha_init)
    p.add_argument("--out", default=None, help="write the result record JSON")
    p.add_argument("--curve-out", default=None,
                   help="also export the sampled curve CSV (lookup method)")

    p = sub.add_parser("evaluate", help="score a model at a slice")
    _dataset_options(p, split="test")
    p.add_argument("--alpha", type=float, default=ALPHA_MIN)

    p = sub.add_parser("curve", help="export the sampled coverage curve")
    _dataset_options(p, split="calib")
    p.add_argument("--delta", type=float, default=_GRID_STEP)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="run the multi-seed pipeline from a spec")
    p.add_argument("--spec", required=True, help="JSON experiment spec")
    p.add_argument("--out-csv", default=None, help="per-seed rows CSV")

    return parser, sub.choices


def _read_config(path) -> dict:
    """``key = value`` lines, values as read: argparse converts them."""
    values = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _load_dataset(spec: str, target, seed: int):
    """Dataset from a CSV path or a synthetic:N[:seed] shorthand."""
    if spec.startswith("synthetic:"):
        parts = spec.split(":")
        n = int(parts[1])
        data_seed = int(parts[2]) if len(parts) > 2 else seed
        X, y = synthetic_heteroscedastic(n, data_seed)
        return X, y, f"synthetic-{n}"
    if target is None:
        raise UsageError("--target is required for CSV datasets")
    ds = load_csv(spec, target)
    if ds.n_dropped:
        print(f"dropped {ds.n_dropped} non-numeric rows", file=sys.stderr)
    return ds.X, ds.y, Path(spec).stem


def _rows_for_split(bundle_meta: dict, n_rows: int, which: str, seed: int):
    if which == "all":
        return np.arange(n_rows)
    scheme = bundle_meta.get("scheme")
    split_seed = bundle_meta.get("seed", seed)
    if scheme in (None, "all"):
        raise UsageError(
            f"model was trained without a split scheme; --split {which} is "
            "undefined (use --split all)")
    parts = split(n_rows, scheme, split_seed)
    idx = getattr(parts, which)
    if idx.size == 0:
        raise UsageError(f"split {which!r} is empty under scheme {scheme!r}")
    return idx


def _cmd_train(args) -> int:
    X, y, name = _load_dataset(args.data, args.target, args.seed)
    fit = dict(n_rules=args.rules, epochs=args.epochs,
               minibatch=args.minibatch, lr=args.lr, seed=args.seed)
    cfg = (TrainConfig(*args.taus, **fit) if args.taus
           else TrainConfig.for_coverage(args.phi, **fit))

    if args.scheme == "all":
        train_rows = np.arange(X.shape[0])
    else:
        train_rows = split(X.shape[0], args.scheme, args.seed).train
    stats = NormalizationStats.fit(X[train_rows], y[train_rows])
    Xz, yz = stats.apply(X[train_rows], y[train_rows])

    result = train(Xz, yz, cfg)
    save_model(args.out, result.params, stats=stats, train_config=cfg,
               metadata={"dataset": name, "scheme": args.scheme,
                         "seed": args.seed, "best_epoch": result.best_epoch,
                         "best_loss": result.best_loss})
    if args.log_out:
        with open(args.log_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTORY_COLUMNS)
            writer.writerows(result.history_rows())
    last = result.history[-1]
    print(f"trained {name}: best epoch {result.best_epoch} "
          f"loss {result.best_loss:.6f} "
          f"train picp@bottom {last['picp_alpha0']:.4f}")
    print(f"model written to {args.out}")
    return 0


def _prepare_eval_data(args):
    bundle = load_model(args.model)
    X, y, _ = _load_dataset(args.data, args.target, args.seed)
    if X.shape[1] != bundle.params.n_inputs:
        raise UsageError(
            f"dataset has {X.shape[1]} features but model expects "
            f"{bundle.params.n_inputs}")
    rows = _rows_for_split(bundle.metadata, X.shape[0], args.split, args.seed)
    if bundle.stats is None:
        raise UsageError("model file carries no normalization statistics")
    Xz, yz = bundle.stats.apply(X[rows], y[rows])
    return bundle, Xz, yz


def _cmd_calibrate(args) -> int:
    bundle, Xz, yz = _prepare_eval_data(args)
    if args.method == "search":
        cfg = SearchConfig(phi_d=args.phi_d, alpha_init=args.alpha_init,
                           gamma=args.gamma, epsilon=args.epsilon)
        if args.delta is not None:
            cfg = replace(cfg, delta=args.delta)
        res = calibrate_search(bundle.params, Xz, yz, cfg)
    else:
        delta = _GRID_STEP if args.delta is None else args.delta
        table = build_lookup_table(bundle.params, Xz, yz, delta)
        hit = lookup_alpha(table, args.phi_d)
        achieved = coverage_at_alpha(bundle.params, Xz, yz, hit.alpha_star)
        res = CalibrationResult(args.phi_d, hit.alpha_star, achieved,
                                len(table), not hit.out_of_range)
        if args.curve_out:
            export_calibration_curve(table, args.curve_out)
            print(f"curve written to {args.curve_out}")
    print(f"alpha_star {res.alpha_star:.6f} "
          f"phi_achieved {res.phi_achieved:.4f} converged {res.converged}")
    if args.out:
        Path(args.out).write_text(json.dumps(res.as_dict(), indent=2))
        print(f"record written to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    bundle, Xz, yz = _prepare_eval_data(args)
    # a file without a training block is served as TrainConfig's default
    planes = (bundle.train_config or TrainConfig()).point_planes
    metrics = interval_metrics(bundle.params, Xz, yz, args.alpha, planes)
    print(f"alpha {args.alpha}")
    for name in ("picp", "pinaw", "rmse"):
        print(f"{name} {metrics[name]:.6f}")
    return 0


def _cmd_curve(args) -> int:
    bundle, Xz, yz = _prepare_eval_data(args)
    table = build_lookup_table(bundle.params, Xz, yz, args.delta)
    export_calibration_curve(table, args.out)
    print(f"curve with {len(table)} points written to {args.out}")
    return 0


def _is_number(value) -> bool:
    """Whether a JSON value is a number (``true`` and ``false`` are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _spec_list(key: str, value, item_ok, noun: str) -> list:
    """``value``, the spec's ``key``, if it is a non-empty list whose every
    item passes ``item_ok``; otherwise a usage error that names the key."""
    if not (isinstance(value, list) and value and all(map(item_ok, value))):
        raise UsageError(f"spec key {key!r} must be {noun}, got {value!r}")
    return value


def _cmd_report(args) -> int:
    spec = json.loads(Path(args.spec).read_text())
    if not isinstance(spec, dict):
        raise UsageError("spec must be a JSON object")
    unknown = spec.keys() - set(_SPEC_KEYS)
    if unknown:
        raise UsageError(f"unknown spec keys: {sorted(unknown)}")
    for key in _SPEC_KEYS[:2]:
        if key not in spec:
            raise UsageError(f"spec is missing required key {key!r}")
    train_keys = [f.name for f in fields(TrainConfig) if f.name in spec]
    # TrainConfig checks each value's type and range, such as "lr": NaN,
    # which Python's json reads as a float
    try:
        cfg = TrainConfig(**{key: spec[key] for key in train_keys})
    except ValueError as exc:
        raise UsageError(f"spec: {exc}") from None
    seeds = _spec_list("seeds", spec.get("seeds", [1, 2, 3, 4, 5]),
                       lambda s: type(s) is int, "a non-empty list of integers")
    modes = _spec_list("modes", spec.get("modes", list(PIPELINE_MODES)),
                       lambda m: m in PIPELINE_MODES,
                       f"a non-empty list drawn from {list(PIPELINE_MODES)}")
    phi_d = spec["phi_d"]
    phi_ds = _spec_list("phi_d", [phi_d] if _is_number(phi_d) else phi_d,
                        _is_number, "a number or a non-empty list of numbers")
    try:
        phi_ds = _coverage_targets(phi_ds)
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"spec key 'phi_d': {exc}") from None
    X, y, default_name = _load_dataset(str(spec["data"]), spec.get("target"),
                                       args.seed)
    name = spec.get("name", default_name)

    reports = []
    for mode in modes:
        rep = run_pipeline(X, y, phi_ds, seeds, mode=mode, train_cfg=cfg,
                           dataset_name=name)
        reports.append(rep)
        for seed, msg in rep.failures:
            print(f"[{mode}] seed {seed} failed: {msg}", file=sys.stderr)
    print(format_report(reports))
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            writer.writerows(report_rows(reports))
        print(f"per-seed rows written to {args.out_csv}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "calibrate": _cmd_calibrate,
    "evaluate": _cmd_evaluate,
    "curve": _cmd_curve,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser, children = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        if args.config is not None:
            # the file's values become defaults, and a second parse lets
            # explicit flags override them
            defaults = _read_config(args.config)
            parsers = (parser, *children.values())
            # one-value options only: a "command" key would pick a
            # subcommand, and a config value is one string, not --taus's two
            dests = [{a.dest for a in p._actions
                      if a.option_strings and a.nargs is None}
                     for p in parsers]
            unknown = set(defaults).difference(*dests)
            if unknown:
                raise UsageError(f"unknown config keys: {sorted(unknown)}")
            for p, known in zip(parsers, dests):
                p.set_defaults(**{k: v for k, v in defaults.items()
                                  if k in known})
            args = parser.parse_args(argv)
            # argparse converts a string default with its option's type but
            # checks choices only on the command line
            sub = children[args.command]
            for action in sub._actions:
                if action.dest in defaults:
                    try:
                        sub._check_value(action, getattr(args, action.dest))
                    except argparse.ArgumentError as exc:
                        sub.error(str(exc))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, OSError, KeyError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
