#!/usr/bin/env python3
"""Print a SHA-256 digest of every numeric output of this checkout.

One ``name sha256`` line per output: trained parameters and per-epoch
history (also with a one-row last minibatch), loss and gradient,
piece signatures, batched prediction over one and several row blocks and
at every slice grouping, single-row prediction, search calibration (also
down to the step floor and from both ends of the slice range), the
lookup table, one-slice bounds and coverage, and the Karnik-Mendel
switch counts and weight totals of one slice (also for a 1-rule model,
a 2-rule model with tied consequents and more than 1024 rows), all on
seeded synthetic data (4 inputs, 10 rules) made here with numpy alone.
Two more models check what 4 inputs cannot: a seeded 12-input model,
whose t-norm adds 12 log-factors per rule (one slice, batched prediction
at 3 and 1025 rows, one search), and the trained model with consequents
scaled to reach 2**600 on half of the rows, whose Karnik-Mendel sums and
point run scaled.  Run it on two commits and diff the outputs: equal
lines mean bit-identical results.

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
from gt2cal.core import (  # noqa: E402
    ModelParams,
    batch_terms,
    predict,
    predict_batch,
    slice_forward,
    trs_batch,
)
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
    # 799-row minibatches: every epoch ends on a one-row step
    fit_configs = {**configs,
                   "alpha0-mb799": replace(base, minibatch=N_TRAIN - 1)}

    fits = {name: train(X, y, cfg) for name, cfg in fit_configs.items()}
    for name, res in fits.items():
        p = res.params
        emit(f"train.{name}", p.c, p.sigma, p.sigma_l, p.sigma_r, p.a, p.a0,
             [res.best_loss, res.best_epoch], res.history_rows())

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
    # the stacked train and calibration rows span more than one row block
    emit("predict_batch.all-rows",
         *predict_batch(np.vstack([X, Xc]), 0.37, params))
    emit("predict.row0", predict(Xc[0], 0.37, params))
    # 12 slice levels per row block: one call of all 12 (1 and 7 rows),
    # calls of 11 + 1 (86 rows) and of 3 + 3 + 3 + 3 (300 rows)
    for n_rows in (1, 7, 86, 300):
        emit(f"predict_batch.rows{n_rows}",
             *predict_batch(Xc[:n_rows], 0.37, params))
    emit("predict.rows0-4", [predict(x, 0.37, params) for x in Xc[:5]])

    searches = {f"{phi_d:.2f}": SearchConfig(phi_d=phi_d)
                for phi_d in (0.80, 0.85, 0.90, 0.95)}
    # targets off the 1/400 coverage steps: each search runs down to the
    # step floor, where late probes find every row decided
    searches.update({f"{phi_d}-eps1e-4": SearchConfig(phi_d=phi_d,
                                                     epsilon=1e-4)
                     for phi_d in (0.5013, 0.9013, 0.31)})
    # starts at both ends of the slice range
    searches.update({f"0.90-init{a}": SearchConfig(phi_d=0.9, alpha_init=a)
                     for a in (0.01, 1.0)})
    for name, cfg in searches.items():
        r = calibrate_search(params, Xc, yc, cfg)
        emit(f"calibrate_search.{name}",
             [r.alpha_star, r.phi_achieved, r.iterations, float(r.converged)])

    # 100, 21 and 332 grid points: bisections of 7, 5 and 9 passes
    for delta in (0.01, 0.05, 0.003):
        table = build_lookup_table(params, Xc, yc, delta)
        emit(f"lookup_table.{delta}", table.alphas, table.phis)

    for alpha in (0.01, 0.37, 1.0):
        emit(f"trs_batch.alpha{alpha}", *trs_batch(Xc, alpha, params))
        emit(f"coverage_at_alpha.alpha{alpha}",
             [coverage_at_alpha(params, Xc, yc, alpha)])

    p = params
    models = {
        "": p,
        ".1-rule": ModelParams(c=p.c[:1], sigma=p.sigma[:1], sigma_l=p.sigma_l,
                               sigma_r=p.sigma_r, a=p.a[:1], a0=p.a0[:1]),
        # both rules share the first rule's consequent: every row ties
        ".2-rule-tied": ModelParams(c=p.c[:2], sigma=p.sigma[:2],
                                    sigma_l=p.sigma_l, sigma_r=p.sigma_r,
                                    a=p.a[[0, 0]], a0=p.a0[[0, 0]]),
    }
    for name, m in models.items():
        terms = batch_terms(Xc, m)
        for alpha in (0.01, 0.37, 1.0):
            s = slice_forward(terms, alpha, m)
            emit(f"slice_forward{name}.alpha{alpha}", s.lo, s.hi, s.km.L,
                 s.km.R, s.km.den_lo, s.km.den_hi)
    # 1200 rows: more than one Karnik-Mendel row block
    s = slice_forward(batch_terms(np.vstack([X, Xc]), params), 0.37, params)
    emit("slice_forward.all-rows.alpha0.37", s.lo, s.hi, s.km.L, s.km.R,
         s.km.den_lo, s.km.den_hi)

    m12, X12, y12 = wide_model(SEED)
    s = slice_forward(batch_terms(X12, m12), 0.37, m12)
    emit("slice_forward.12-inputs.alpha0.37", s.lo, s.hi, s.km.L, s.km.R,
         s.km.den_lo, s.km.den_hi)
    for n_rows in (3, 1025):
        emit(f"predict_batch.12-inputs.rows{n_rows}",
             *predict_batch(X12[:n_rows], 0.37, m12))
    r = calibrate_search(m12, X12, y12, SearchConfig(phi_d=0.8))
    emit("calibrate_search.12-inputs.0.80",
         [r.alpha_star, r.phi_achieved, r.iterations, float(r.converged)])

    # consequent slope 2**600 on input 0 of rule 0, and input 0 zeroed in
    # every other row: half of the rows reach 2**600, half stay small
    big = ModelParams(c=p.c, sigma=p.sigma, sigma_l=p.sigma_l,
                      sigma_r=p.sigma_r, a=p.a.copy(), a0=p.a0)
    big.a[0, 0] = 2.0 ** 600
    Xbig = Xc.copy()
    Xbig[::2, 0] = 0.0
    for alpha in (0.01, 0.37, 1.0):
        s = slice_forward(batch_terms(Xbig, big), alpha, big)
        emit(f"slice_forward.2**600.alpha{alpha}", s.lo, s.hi, s.km.L,
             s.km.R, s.km.den_lo, s.km.den_hi)
    emit("predict_batch.2**600", *predict_batch(Xbig, 0.37, big))
    emit("predict.2**600.row1", predict(Xbig[1], 0.37, big))


def wide_model(seed, n_inputs=12, n_rules=10, n_rows=1025):
    """A seeded 12-input rule base, inputs, and targets around its point.

    Primary deviations of 2 to 3 keep a product of 12 memberships well
    above the firing threshold; no training is involved.  With unit noise
    on the targets, a search for 0.80 coverage converges inside the slice
    range.
    """
    rng = np.random.default_rng(seed)
    P, M = n_rules, n_inputs
    m = ModelParams(c=rng.normal(size=(P, M)),
                    sigma=2.0 + rng.random((P, M)),
                    sigma_l=0.05 + 0.3 * rng.random(M),
                    sigma_r=0.05 + 0.3 * rng.random(M),
                    a=0.3 * rng.normal(size=(P, M)), a0=rng.normal(size=P))
    X = rng.normal(size=(n_rows, M))
    point = predict_batch(X, 1.0, m)[2]
    return m, X, point + rng.normal(size=n_rows)


if __name__ == "__main__":
    main()
