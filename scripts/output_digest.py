#!/usr/bin/env python3
"""Print a SHA-256 digest of every numeric output of this checkout.

One ``name sha256`` line per output: trained parameters, loss and gradient,
piece signatures, batched and single-row prediction, search calibration,
the lookup table, and one-slice bounds and coverage, all on seeded
synthetic data (4 inputs, 10 rules) made here with numpy alone.  Run it on two commits and diff the outputs:
equal lines mean bit-identical results.

Usage: python scripts/output_digest.py
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gt2cal.calibration import (  # noqa: E402
    SearchConfig,
    build_lookup_table,
    calibrate_search,
    coverage_at_alpha,
)
from gt2cal.core import predict, predict_batch, trs_batch  # noqa: E402
from gt2cal.training import (  # noqa: E402
    TrainConfig,
    loss_and_grad,
    piece_signature,
    train,
)

SEED = 3
N_TRAIN, N_CAL, N_INPUTS, N_RULES = 800, 400, 4, 10


def make_data(seed):
    """Heteroscedastic nonlinear regression in z-scored units."""
    rng = np.random.default_rng(seed)
    n = N_TRAIN + N_CAL
    X = rng.normal(size=(n, N_INPUTS))
    signal = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] - 0.3 * X[:, 3]
    noise = (0.2 + 0.3 * np.abs(X[:, 0])) * rng.normal(size=n)
    y = signal + noise
    y = (y - y.mean()) / y.std()
    return X[:N_TRAIN], y[:N_TRAIN], X[N_TRAIN:], y[N_TRAIN:]


def emit(name, *parts):
    """Print ``name`` and the SHA-256 of float64 arrays and raw bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            arr = np.ascontiguousarray(part, dtype=np.float64)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
    print(f"{name} {h.hexdigest()}")


def main():
    X, y, Xc, yc = make_data(SEED)
    base = TrainConfig(n_rules=N_RULES, seed=SEED, lr=1e-2, epochs=3)
    stack = replace(base, point_output="plane-stack", epochs=1)
    configs = {"alpha0": base, "plane-stack": stack,
               "plane-stack-0.5-1.0": replace(stack, planes=(0.5, 1.0))}

    fits = {name: train(X, y, cfg) for name, cfg in configs.items()}
    for name, res in fits.items():
        p = res.params
        emit(f"train.{name}", p.c, p.sigma, p.sigma_l, p.sigma_r, p.a, p.a0,
             [res.best_loss, res.best_epoch])

    raw = fits["alpha0"].raw
    Xb, yb = X[:64], y[:64]
    for name, cfg in configs.items():
        loss, grad = loss_and_grad(Xb, yb, raw, cfg)
        emit(f"loss_and_grad.{name}", [loss], grad.to_vector())
        emit(f"piece_signature.{name}", piece_signature(Xb, yb, raw, cfg))

    params = fits["alpha0"].params
    for alpha in (0.01, 0.37, 1.0):
        emit(f"predict_batch.alpha{alpha}", *predict_batch(Xc, alpha, params))
    emit("predict_batch.planes-0.5-1.0",
         *predict_batch(Xc, 0.5, params, (0.5, 1.0)))
    emit("predict.row0", predict(Xc[0], 0.37, params))

    for phi_d in (0.80, 0.85, 0.90, 0.95):
        r = calibrate_search(params, Xc, yc, SearchConfig(phi_d=phi_d))
        emit(f"calibrate_search.{phi_d:.2f}",
             [r.alpha_star, r.phi_achieved, r.iterations, float(r.converged)])

    table = build_lookup_table(params, Xc, yc, 0.01)
    emit("lookup_table.0.01", table.alphas, table.phis)

    for alpha in (0.01, 0.37, 1.0):
        emit(f"trs_batch.alpha{alpha}", *trs_batch(Xc, alpha, params))
        emit(f"coverage_at_alpha.alpha{alpha}",
             [coverage_at_alpha(params, Xc, yc, alpha)])


if __name__ == "__main__":
    main()
