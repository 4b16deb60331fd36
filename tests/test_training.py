import itertools
from dataclasses import replace

import numpy as np
import pytest

from gt2cal.core import DEFAULT_PLANES, ModelParams, predict_batch
from gt2cal.errors import DivergenceError
from gt2cal.training import (
    AdamState,
    RawParams,
    TrainConfig,
    _forward,
    adam_step,
    init_raw,
    inv_softplus,
    log_cosh_loss,
    loss_and_grad,
    piece_signature,
    pinball_pair_loss,
    softplus,
    train,
)

import oracles
from conftest import heteroscedastic_line


def random_raw(seed, n_rules=3, n_inputs=2):
    rng = np.random.default_rng(seed)
    P, M = n_rules, n_inputs
    return RawParams(
        c=rng.normal(size=(P, M)),
        rho_sigma=inv_softplus(0.5 + rng.random((P, M))),
        rho_sigma_l=inv_softplus(0.05 + 0.3 * rng.random(M)),
        rho_sigma_r=inv_softplus(0.05 + 0.3 * rng.random(M)),
        a=0.5 * rng.normal(size=(P, M)),
        a0=rng.normal(size=P),
    )


def gradient_check_instance(seed, h=1e-5):
    """FD-vs-analytic comparison on one random instance.

    Returns the max relative error, or None when any probe crosses into a
    different smooth piece (KM switch flip under perturbation), in which
    case the caller should resample.
    """
    rng = np.random.default_rng(seed)
    P, M, B = 3, 2, 16
    X = rng.normal(size=(B, M))
    y = rng.normal(size=B)
    raw = random_raw(seed + 10_000, P, M)
    cfg = TrainConfig(tau_lo=0.1, tau_hi=0.9, n_rules=P)
    theta = raw.to_vector()
    sig0 = piece_signature(X, y, raw, cfg)

    numeric = np.zeros_like(theta)
    for i in range(theta.size):
        vp = theta.copy()
        vp[i] += h
        vm = theta.copy()
        vm[i] -= h
        rp = RawParams.from_vector(vp, P, M)
        rm = RawParams.from_vector(vm, P, M)
        if (piece_signature(X, y, rp, cfg) != sig0
                or piece_signature(X, y, rm, cfg) != sig0):
            return None
        numeric[i] = (_forward(X, y, rp, cfg).loss
                      - _forward(X, y, rm, cfg).loss) / (2.0 * h)

    _, grad = loss_and_grad(X, y, raw, cfg)
    analytic = grad.to_vector()
    denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric),
                               np.full_like(analytic, 1e-6)])
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestLossTerms:
    def test_log_cosh_at_zero(self):
        assert log_cosh_loss(0.0) == 0.0

    def test_log_cosh_at_one(self):
        # frozen from direct evaluation of log(cosh(1))
        assert log_cosh_loss(1.0) == pytest.approx(0.4337808304830271, abs=1e-12)

    def test_log_cosh_asymptotic(self):
        assert log_cosh_loss(50.0) == pytest.approx(50.0 - np.log(2.0), abs=1e-12)

    def test_log_cosh_huge_residual_stays_finite(self):
        assert np.isfinite(log_cosh_loss(1e6))

    def test_pinball_zero_residuals(self):
        assert pinball_pair_loss(2.0, 2.0, 2.0, 0.05, 0.95) == 0.0

    def test_pinball_upper_asymmetry(self):
        # residual +1 above the upper bound costs tau_hi, -1 costs 1-tau_hi
        above = pinball_pair_loss(3.0, 3.0, 2.0, 0.05, 0.95)
        below = pinball_pair_loss(1.0, 1.0, 2.0, 0.05, 0.95)
        assert above == pytest.approx(0.95)
        assert below == pytest.approx(0.05)

    def test_pinball_median_is_half_absolute(self):
        for r in (-2.0, 0.5, 3.0):
            val = pinball_pair_loss(r, 0.0, r, 0.5, 0.51)
            assert val == pytest.approx(0.5 * abs(r) + 0.51 * 0.0, abs=1e-12)


class TestTrainConfig:
    def test_coverage_pairs(self):
        assert TrainConfig.for_coverage(0.90).tau_lo == pytest.approx(0.05)
        assert TrainConfig.for_coverage(0.90).tau_hi == pytest.approx(0.95)
        assert TrainConfig.for_coverage(0.95).tau_lo == pytest.approx(0.025)
        assert TrainConfig.for_coverage(0.99).tau_hi == pytest.approx(0.995)

    def test_envelope_is_the_default_quantile_pair(self):
        from gt2cal.training import ENVELOPE

        assert ENVELOPE == 0.99 == TrainConfig().tau_hi - TrainConfig().tau_lo

    @pytest.mark.parametrize("kw", [
        {"tau_lo": 0.6}, {"tau_hi": 0.4}, {"minibatch": 0},
        {"n_rules": 0}, {"point_output": "typo"},
    ])
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -0.0,
                                    -1e-3])
    def test_rejects_invalid_learning_rate(self, lr):
        with pytest.raises(ValueError, match=r"^lr must be"):
            TrainConfig(lr=lr)


class TestRawParams:
    def test_softplus_roundtrip(self):
        s = np.array([1e-4, 0.1, 1.0, 20.0])
        np.testing.assert_allclose(softplus(inv_softplus(s)), s, rtol=1e-12)

    def test_constrain_always_valid(self, rng):
        for _ in range(20):
            raw = RawParams(
                c=rng.normal(size=(2, 3)),
                rho_sigma=rng.normal(size=(2, 3)) * 50,
                rho_sigma_l=rng.normal(size=3) * 50,
                rho_sigma_r=rng.normal(size=3) * 50,
                a=rng.normal(size=(2, 3)),
                a0=rng.normal(size=2),
            )
            params = raw.constrain()  # would raise if any sigma were <= 0
            assert isinstance(params, ModelParams)

    def test_vector_roundtrip(self):
        raw = random_raw(3)
        back = RawParams.from_vector(raw.to_vector(), 3, 2)
        for f in RawParams._FIELDS:
            np.testing.assert_array_equal(getattr(raw, f), getattr(back, f))


class TestTotalLoss:
    def test_exact_single_rule_model_has_zero_loss(self):
        # one rule represents y = 2x exactly and its interval is crisp
        raw = RawParams(
            c=np.zeros((1, 1)), rho_sigma=np.full((1, 1), inv_softplus(1.0)),
            rho_sigma_l=np.full(1, -60.0), rho_sigma_r=np.full(1, -60.0),
            a=np.full((1, 1), 2.0), a0=np.zeros(1),
        )
        cfg = TrainConfig(n_rules=1)
        X = np.linspace(-1, 1, 7)[:, None]
        y = 2.0 * X[:, 0]
        assert _forward(X, y, raw, cfg).loss == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_equals_its_loss(self):
        raw = random_raw(11)
        cfg = TrainConfig(tau_lo=0.2, tau_hi=0.8, n_rules=3)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(2, 2))
        y = rng.normal(size=2)
        l0 = _forward(X[:1], y[:1], raw, cfg).loss
        l1 = _forward(X[1:], y[1:], raw, cfg).loss
        both = _forward(X, y, raw, cfg).loss
        assert both == pytest.approx(0.5 * (l0 + l1), rel=1e-12)

    def test_empty_batch_rejected(self):
        raw = random_raw(1)
        with pytest.raises(ValueError):
            _forward(np.zeros((0, 2)), np.zeros(0), raw, TrainConfig(n_rules=3))

    def test_degenerate_firing_reports_sample_index(self):
        raw = random_raw(21)
        raw.rho_sigma_r = np.full(2, -60.0)  # secondary spread at the floor
        raw.rho_sigma_l = np.full(2, -60.0)
        X = np.array([[0.1, -0.2], [1e6, 1e6], [0.3, 0.0]])
        y = np.zeros(3)
        from gt2cal.errors import DegenerateFiringError
        with pytest.raises(DegenerateFiringError, match="row 1"):
            _forward(X, y, raw, TrainConfig(n_rules=3)).loss


class TestGradient:
    def test_matches_central_differences(self):
        checked = 0
        seed = 0
        worst = 0.0
        while checked < 25 and seed < 600:
            seed += 1
            err = gradient_check_instance(seed)
            if err is None:
                continue
            worst = max(worst, err)
            checked += 1
        assert checked == 25, "could not find enough switch-stable instances"
        assert worst <= 1e-4, f"gradient mismatch: {worst:.3e}"

    def test_plane_stack_gradient(self):
        rng = np.random.default_rng(42)
        P, M, B = 3, 2, 12
        X = rng.normal(size=(B, M))
        y = rng.normal(size=B)
        raw = random_raw(7, P, M)
        # alpha=1 is excluded: its interval collapses, so every switch
        # candidate ties and the recorded switch index flips spuriously
        cfg = TrainConfig(tau_lo=0.1, tau_hi=0.9, n_rules=P,
                          point_output="plane-stack",
                          planes=(0.01, 0.3, 0.7))
        theta = raw.to_vector()
        sig0 = piece_signature(X, y, raw, cfg)
        _, grad = loss_and_grad(X, y, raw, cfg)
        analytic = grad.to_vector()
        h = 1e-5
        stable_errs = []
        for i in range(theta.size):
            vp = theta.copy(); vp[i] += h
            vm = theta.copy(); vm[i] -= h
            rp = RawParams.from_vector(vp, P, M)
            rm = RawParams.from_vector(vm, P, M)
            if (piece_signature(X, y, rp, cfg) != sig0
                    or piece_signature(X, y, rm, cfg) != sig0):
                continue
            num = (_forward(X, y, rp, cfg).loss
                   - _forward(X, y, rm, cfg).loss) / (2 * h)
            denom = max(abs(analytic[i]), abs(num), 1e-6)
            stable_errs.append(abs(analytic[i] - num) / denom)
        assert len(stable_errs) >= 8, "too few switch-stable coordinates to judge"
        assert max(stable_errs) <= 1e-4

    def test_duplicated_batch_leaves_gradient_unchanged(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        raw = random_raw(5)
        cfg = TrainConfig(tau_lo=0.1, tau_hi=0.9, n_rules=3)
        _, g1 = loss_and_grad(X, y, raw, cfg)
        _, g2 = loss_and_grad(np.tile(X, (2, 1)), np.tile(y, 2), raw, cfg)
        np.testing.assert_allclose(g1.to_vector(), g2.to_vector(), rtol=1e-12)

    def test_gradient_vanishes_for_unfired_rule(self):
        # rule 2 sits 1000 z-units away with floor-level secondary spread:
        # its firing underflows to exactly zero in 30 dimensions
        M = 30
        rng = np.random.default_rng(3)
        raw = RawParams(
            c=np.vstack([np.zeros(M), np.full(M, 1000.0)]),
            rho_sigma=np.full((2, M), inv_softplus(1.0)),
            rho_sigma_l=np.full(M, -800.0),
            rho_sigma_r=np.full(M, -800.0),
            a=rng.normal(size=(2, M)),
            a0=np.array([0.0, 5.0]),
        )
        X = 0.1 * rng.normal(size=(4, M))
        y = rng.normal(size=4)
        cfg = TrainConfig(n_rules=2)
        _, grad = loss_and_grad(X, y, raw, cfg)
        assert np.all(grad.a[1] == 0.0)
        assert grad.a0[1] == 0.0
        assert np.all(grad.c[1] == 0.0)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        theta = np.array([1.0, -2.0, 3.0])
        state = AdamState.init(3)
        new, state2 = adam_step(theta, np.zeros(3), state)
        np.testing.assert_array_equal(new, theta)
        assert state2.t == 1

    def test_first_step_closed_form(self):
        theta = np.zeros(4)
        g = np.array([0.5, -3.0, 1e-4, 0.0])
        lr, eps = 1e-3, 1e-8
        new, _ = adam_step(theta, g, AdamState.init(4), lr=lr, eps=eps)
        expected = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(new, expected, rtol=1e-12)

    def test_pure_and_deterministic(self):
        theta = np.array([1.0, 2.0])
        g = np.array([0.1, -0.2])
        state = AdamState.init(2)
        a1, s1 = adam_step(theta, g, state)
        a2, s2 = adam_step(theta, g, state)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(s1.m, s2.m)
        assert state.t == 0  # input state untouched


@pytest.fixture(scope="module")
def linear_task():
    rng = np.random.default_rng(10)
    x = rng.uniform(-2, 2, size=400)
    X = x[:, None]
    y = 2.0 * x
    # z-scored space
    Xz = (X - X.mean(0)) / X.std(0)
    yz = (y - y.mean()) / y.std()
    return Xz, yz


@pytest.fixture(scope="module")
def linear_fit(linear_task):
    Xz, yz = linear_task
    cfg = TrainConfig(n_rules=2, epochs=150, minibatch=64, lr=1e-2, seed=0)
    return train(Xz, yz, cfg)


class TestTraining:
    def test_linear_sanity_rmse(self, linear_fit):
        assert min(h["rmse"] for h in linear_fit.history) < 1e-2

    def test_loss_decreases_early(self, linear_fit):
        losses = [h["loss"] for h in linear_fit.history[:10]]
        first = np.median(losses[:5])
        second = np.median(losses[5:10])
        assert second < first

    def test_best_epoch_tracks_minimum(self, linear_fit):
        losses = [h["loss"] for h in linear_fit.history]
        assert linear_fit.best_loss == min(losses)
        assert losses[linear_fit.best_epoch - 1] == linear_fit.best_loss

    def test_deterministic_given_seed(self):
        X, y = heteroscedastic_line(120, seed=3)
        Xz = (X - X.mean(0)) / X.std(0)
        yz = (y - y.mean()) / y.std()
        cfg = TrainConfig(n_rules=3, epochs=5, seed=7)
        r1 = train(Xz, yz, cfg)
        r2 = train(Xz, yz, cfg)
        assert np.array_equal(r1.params.c, r2.params.c)
        assert np.array_equal(r1.params.sigma, r2.params.sigma)
        assert np.array_equal(r1.params.a, r2.params.a)
        assert np.array_equal(r1.params.a0, r2.params.a0)

    def test_constraints_preserved_through_updates(self):
        X, y = heteroscedastic_line(100, seed=1)
        Xz = (X - X.mean(0)) / X.std(0)
        yz = (y - y.mean()) / y.std()
        cfg = TrainConfig(n_rules=3, epochs=3, lr=0.5, seed=2)  # huge steps
        result = train(Xz, yz, cfg)
        assert np.all(result.params.sigma > 0)
        assert np.all(result.params.sigma_l > 0)
        assert np.all(result.params.sigma_r > 0)

    def test_envelope_coverage_tracks_quantile_pair(self):
        # training at a 90% pair puts bottom-slice train coverage near 90%
        X, y = heteroscedastic_line(1500, seed=9)
        Xz = (X - X.mean(0)) / X.std(0)
        yz = (y - y.mean()) / y.std()
        cfg = TrainConfig.for_coverage(0.90, n_rules=5, epochs=250, seed=9)
        result = train(Xz, yz, cfg)
        assert 0.86 <= result.history[-1]["picp_alpha0"] <= 0.94

    def test_wider_upper_quantile_covers_more(self):
        X, y = heteroscedastic_line(400, seed=4)
        Xz = (X - X.mean(0)) / X.std(0)
        yz = (y - y.mean()) / y.std()
        coverages = []
        for tau_hi in (0.8, 0.95, 0.995):
            cfg = TrainConfig(tau_lo=0.1, tau_hi=tau_hi, n_rules=5,
                              epochs=60, seed=11)
            result = train(Xz, yz, cfg)
            from gt2cal.core import trs_batch
            _, hi = trs_batch(Xz, 0.01, result.params)
            coverages.append(float(np.mean(yz <= hi)))
        assert coverages[0] <= coverages[1] + 1e-9
        assert coverages[1] <= coverages[2] + 1e-9

    def test_divergence_reports_epoch(self):
        X, y = heteroscedastic_line(64, seed=5)
        yz = (y - y.mean()) / y.std()
        Xz = (X - X.mean(0)) / X.std(0)
        yz = yz.copy()
        yz[0] = np.inf  # forces a non-finite loss immediately
        cfg = TrainConfig(n_rules=2, epochs=2, seed=1)
        with pytest.raises(DivergenceError) as exc:
            train(Xz, yz, cfg)
        assert exc.value.epoch == 1

    def test_non_finite_gradient_is_divergence(self):
        # 12 inputs at default settings: a step's loss stays finite while
        # its gradient does not (a subnormal Karnik-Mendel denominator)
        from gt2cal.harness import NormalizationStats, split
        rng = np.random.default_rng(0)
        n, M = 4000, 12
        X = rng.normal(size=(n, M))
        w = rng.normal(size=M)
        noise = (0.2 + 0.3 * np.abs(X[:, 1])) * rng.normal(size=n)
        y = X @ w + np.sin(X[:, 0]) + noise
        train_rows = split(n, "70/15/15", seed=0).train
        stats = NormalizationStats.fit(X[train_rows], y[train_rows])
        Xz, yz = stats.apply(X[train_rows], y[train_rows])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="gradient") as exc:
            train(Xz, yz, TrainConfig(seed=0))
        assert exc.value.epoch == 1

    def test_init_uses_training_rows(self):
        X, y = heteroscedastic_line(50, seed=6)
        cfg = TrainConfig(n_rules=4, seed=3)
        raw = init_raw(X, y, cfg, np.random.default_rng(3))
        # every center row is a training input row
        for row in raw.c:
            assert any(np.allclose(row, xr) for xr in X)


class TestPointOutput:
    @pytest.mark.parametrize("planes", [(0.5, 1.0), DEFAULT_PLANES])
    def test_trained_point_is_served_point(self, planes):
        # the point the loss fits is the one predict_batch reports, also
        # when the plane stack leaves out the bottom slice
        X, y = heteroscedastic_line(200, seed=8)
        Xz = (X - X.mean(0)) / X.std(0)
        yz = (y - y.mean()) / y.std()
        cfg = TrainConfig(n_rules=3, epochs=2, seed=5, planes=planes,
                          point_output="plane-stack")
        result = train(Xz, yz, cfg)
        trained = _forward(Xz, yz, result.raw, cfg).point
        served = predict_batch(Xz, 0.5, result.params, planes)[2]
        np.testing.assert_allclose(trained, served, rtol=0.0, atol=1e-12)

    def test_empty_plane_stack_rejected(self):
        # an empty stack would leave the point with no weight at all
        with pytest.raises(ValueError, match="plane stack"):
            TrainConfig(planes=(), point_output="plane-stack")


def _train_task(n=150, M=3, seed=12):
    """A z-scored nonlinear task whose row count is not a multiple of 64."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, M))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, -1] + 0.3 * rng.normal(size=n)
    return X, (y - y.mean()) / y.std()


def _result_arrays(res):
    """Every array of a TrainResult: the six raw, then the six constrained."""
    return ([getattr(res.raw, f) for f in RawParams._FIELDS]
            + [getattr(res.params, f) for f in
               ("c", "sigma", "sigma_l", "sigma_r", "a", "a0")])


def _result_bytes(res):
    return ([a.tobytes() for a in _result_arrays(res)]
            + [np.float64(res.best_loss).tobytes(), res.best_epoch,
               np.array(res.history_rows()).tobytes()])


_BASE = TrainConfig(n_rules=4, epochs=3, lr=1e-2, seed=2)
_STACK = TrainConfig(n_rules=4, epochs=1, lr=1e-2, seed=2,
                     point_output="plane-stack")


class TestFlatTraining:
    """Training on one flat parameter vector equals, byte for byte, the
    loop that stepped on a fresh RawParams per minibatch."""

    @pytest.mark.parametrize("cfg", [
        _BASE,                                   # 150 rows: a 22-row last step
        _STACK,                                  # the default 11 planes
        replace(_STACK, planes=(0.5, 1.0), epochs=2),
        replace(_BASE, minibatch=149),           # a one-row last step
        replace(_BASE, n_rules=1),
    ], ids=["alpha0", "plane-stack", "plane-stack-0.5-1.0", "mb-n-1",
            "one-rule"])
    def test_train_matches_the_per_field_loop(self, cfg):
        X, y = _train_task()
        got, want = train(X, y, cfg), oracles.train(X, y, cfg)
        assert _result_bytes(got) == _result_bytes(want)

        for rows in (slice(0, 64), slice(7, 8)):
            loss, grad = loss_and_grad(X[rows], y[rows], got.raw, cfg)
            ref_loss, ref_grad = oracles.loss_and_grad(X[rows], y[rows],
                                                       got.raw, cfg)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.to_vector().tobytes() == ref_grad.to_vector().tobytes()

    @pytest.mark.parametrize("cfg", [TrainConfig(n_rules=2),
                                     TrainConfig(n_rules=2, planes=(0.5, 1.0),
                                                 point_output="plane-stack")])
    def test_gradient_of_an_unfired_rule_matches(self, cfg):
        # rule 2's firing underflows to exactly zero, so many of its terms
        # are zeros whose sign the two routines may reach differently
        M = 30
        rng = np.random.default_rng(3)
        raw = RawParams(
            c=np.vstack([np.zeros(M), np.full(M, 1000.0)]),
            rho_sigma=np.full((2, M), inv_softplus(1.0)),
            rho_sigma_l=np.full(M, -800.0),
            rho_sigma_r=np.full(M, -800.0),
            a=rng.normal(size=(2, M)),
            a0=np.array([0.0, 5.0]),
        )
        X = 0.1 * rng.normal(size=(4, M))
        y = rng.normal(size=4)
        for rows in (slice(0, 4), slice(0, 1)):
            _, grad = loss_and_grad(X[rows], y[rows], raw, cfg)
            _, ref = oracles.loss_and_grad(X[rows], y[rows], raw, cfg)
            assert grad.to_vector().tobytes() == ref.to_vector().tobytes()

    def test_forward_matches(self):
        X, y = _train_task()
        raw = random_raw(4, n_rules=3, n_inputs=3)
        for cfg in (_BASE, _STACK):
            got = _forward(X, y, raw, replace(cfg, n_rules=3))
            want = oracles._forward(X, y, raw, replace(cfg, n_rules=3))
            assert np.float64(got.loss).tobytes() == \
                np.float64(want.loss).tobytes()
            for a, b in ((got.point, want.point), (got.lo, want.lo),
                         (got.hi, want.hi)):
                assert a.tobytes() == b.tobytes()


class TestTrainingAliasing:
    """The loop steps on views; nothing it returns or reads may alias."""

    def test_no_two_result_arrays_share_memory(self):
        X, y = _train_task()
        res = train(X, y, _BASE)
        arrays = _result_arrays(res)
        for (i, a), (j, b) in itertools.combinations(enumerate(arrays), 2):
            assert not np.shares_memory(a, b), (i, j)
        for a in arrays:
            assert not np.shares_memory(a, X)
            assert not np.shares_memory(a, y)

    def test_inputs_are_left_as_they_were(self):
        X, y = _train_task()
        before = (X.tobytes(), y.tobytes())
        train(X, y, _BASE)
        assert (X.tobytes(), y.tobytes()) == before

    def test_a_second_fit_leaves_the_first_alone(self):
        X, y = _train_task()
        first = train(X, y, _BASE)
        before = _result_bytes(first)
        train(X, y, replace(_BASE, seed=5, lr=0.5))
        train(X, y, _BASE)
        assert _result_bytes(first) == before
