import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gt2cal.core import (
    DEFAULT_PLANES,
    AlphaLevel,
    FiringIntervals,
    ModelParams,
    TypeReducedSet,
    alpha_plane_center,
    consequent_values,
    firing_intervals,
    gt2_aggregate,
    km_reduce_batch,
    km_type_reduce,
    pmf_eval,
    predict,
    predict_batch,
    smf_bounds,
    spread_scale,
    trs_batch,
    _product_tnorm,
)
from gt2cal.errors import DegenerateFiringError

from conftest import random_model
from oracles import km_enumeration, km_vertex_bruteforce, product_tnorm_log


def single_rule_model(c, sigma, sigma_l, sigma_r, a, a0):
    """1-rule helper with scalar parameters."""
    return ModelParams(
        c=np.array([[c]]), sigma=np.array([[sigma]]),
        sigma_l=np.array([sigma_l]), sigma_r=np.array([sigma_r]),
        a=np.array([[a]]), a0=np.array([a0]),
    )


class TestAlphaLevel:
    def test_accepts_bounds(self):
        assert float(AlphaLevel(0.01)) == 0.01
        assert float(AlphaLevel(1.0)) == 1.0

    @pytest.mark.parametrize("bad", [0.0, 0.0099, 1.0001, -1.0, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            AlphaLevel(bad)

    def test_spread_scale_at_bottom_slice(self):
        assert spread_scale(0.01) == pytest.approx(3.0348542587702925, abs=1e-12)
        assert spread_scale(1.0) == 0.0


class TestModelParams:
    def test_learnable_count_formula(self):
        for P, M in [(1, 1), (10, 4), (7, 19)]:
            rng = np.random.default_rng(P * 100 + M)
            m = random_model(rng, n_rules=P, n_inputs=M)
            assert m.n_learnable == (2 * P + 2) * M + P * (M + 1)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            single_rule_model(0.0, 0.0, 0.1, 0.1, 0.0, 0.0)

    def test_rejects_rule_indexed_secondary_deviations(self):
        with pytest.raises(ValueError):
            ModelParams(
                c=np.zeros((2, 1)), sigma=np.ones((2, 1)),
                sigma_l=np.full((2, 1), 0.1), sigma_r=np.array([0.1]),
                a=np.zeros((2, 1)), a0=np.zeros(2),
            )


class TestPrimaryMembership:
    def test_center_gives_one(self):
        m = single_rule_model(0.7, 0.3, 0.1, 0.1, 0.0, 0.0)
        assert pmf_eval([0.7], m)[0, 0] == 1.0

    def test_one_sigma_away(self):
        m = single_rule_model(0.7, 0.3, 0.1, 0.1, 0.0, 0.0)
        assert pmf_eval([1.0], m)[0, 0] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_two_sigma_away(self):
        m = single_rule_model(0.7, 0.3, 0.1, 0.1, 0.0, 0.0)
        assert pmf_eval([1.3], m)[0, 0] == pytest.approx(0.1353352832366127, abs=1e-12)

    def test_rejects_non_finite_input(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            pmf_eval([np.nan], m)


class TestSecondaryBounds:
    def test_alpha_one_collapses_to_primary(self):
        m = single_rule_model(0.0, 1.0, 0.2, 0.3, 0.0, 0.0)
        gamma = np.array([[0.42]])
        lower, upper = smf_bounds(gamma, 1.0, m)
        assert lower[0, 0] == 0.42 and upper[0, 0] == 0.42

    def test_bottom_slice_spread(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 0.0)
        gamma = np.array([[0.5]])
        lower, upper = smf_bounds(gamma, 0.01, m)
        assert lower[0, 0] == pytest.approx(0.19651457412297073, abs=1e-9)
        assert upper[0, 0] == pytest.approx(0.8034854258770292, abs=1e-9)

    def test_upper_clamped_at_one(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 0.0)
        lower, upper = smf_bounds(np.array([[0.9]]), 0.01, m)
        assert upper[0, 0] == 1.0
        assert lower[0, 0] < 0.9

    def test_rejects_alpha_below_floor(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            smf_bounds(np.array([[0.5]]), 0.005, m)


class TestFiring:
    def test_single_dimension_equals_membership_bounds(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 0.0)
        x = np.array([0.5])
        gamma = pmf_eval(x, m)
        lower, upper = smf_bounds(gamma, 0.2, m)
        f = firing_intervals(x, 0.2, m)
        assert f.lower[0] == pytest.approx(lower[0, 0], rel=1e-15)
        assert f.upper[0] == pytest.approx(upper[0, 0], rel=1e-15)

    def test_product_tnorm_two_dims(self):
        # memberships 0.5 in each of two dimensions fire at 0.25
        m = ModelParams(
            c=np.array([[0.0, 0.0]]),
            sigma=np.array([[1.0, 1.0]]) / np.sqrt(2 * np.log(2)),
            sigma_l=np.array([1e-9, 1e-9]), sigma_r=np.array([1e-9, 1e-9]),
            a=np.zeros((1, 2)), a0=np.zeros(1),
        )
        f = firing_intervals(np.array([1.0, 1.0]), 1.0, m)
        assert f.upper[0] == pytest.approx(0.25, abs=1e-12)

    def test_bottom_slice_lower_firing(self):
        m = ModelParams(
            c=np.array([[0.0, 0.0]]), sigma=np.array([[1.0, 1.0]]),
            sigma_l=np.array([0.1, 0.1]), sigma_r=np.array([0.1, 0.1]),
            a=np.zeros((1, 2)), a0=np.zeros(1),
        )
        # primary grade 0.5 per dimension at x = sqrt(2 ln 2) sigma
        x = np.full(2, np.sqrt(2 * np.log(2)))
        f = firing_intervals(x, 0.01, m)
        assert f.lower[0] == pytest.approx(0.19651457412297073 ** 2, abs=1e-9)

    def test_degenerate_firing_raises(self):
        m = single_rule_model(0.0, 0.01, 1e-9, 1e-9, 0.0, 0.0)
        with pytest.raises(DegenerateFiringError):
            firing_intervals(np.array([100.0]), 1.0, m)


class TestProductTnorm:
    """The in-place left-to-right log-sum against the one-reduction formula."""

    @pytest.mark.parametrize("M", [1, 2, 4, 7])
    @pytest.mark.parametrize("B", [1, 64])
    def test_bit_identical_below_eight_factors(self, rng, M, B):
        # numpy sums an axis shorter than 8 left to right, as the kernel does
        mu = rng.random((B, 6, M))
        mu[rng.random(mu.shape) < 0.1] = 0.0
        mu[0, 0, 0] = 0.0
        before = mu.copy()
        np.testing.assert_array_equal(_product_tnorm(mu), product_tnorm_log(mu))
        np.testing.assert_array_equal(mu, before)

    @pytest.mark.parametrize("M", [8, 19, 40])
    def test_log_sum_within_summation_bound(self, rng, M):
        # numpy sums 8 or more terms with pairwise accumulators, so only the
        # rounding of the log-sum may differ: two orders of an M-term sum
        # differ by at most 2*M*eps*sum|log mu|.  Factors stay in
        # [0.05, 1] so neither product leaves the normal range, and
        # sum|log mu| is large enough to cover the exp/log rounding.
        mu = 0.05 + 0.95 * rng.random((64, 6, M))
        before = mu.copy()
        got = _product_tnorm(mu)
        want = product_tnorm_log(mu)
        bound = 2 * M * np.finfo(float).eps * np.sum(np.abs(np.log(mu)), axis=-1)
        assert np.all(np.abs(np.log(got) - np.log(want)) <= bound)
        np.testing.assert_array_equal(mu, before)


class TestConsequents:
    def test_constant_consequent(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 3.0)
        assert consequent_values([1.7], m)[0] == 3.0

    def test_linear_consequent(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 2.0, 1.0)
        assert consequent_values([0.5], m)[0] == pytest.approx(2.0, abs=1e-15)

    def test_intercept_only_at_origin(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, n_rules=3, n_inputs=2)
        np.testing.assert_allclose(consequent_values(np.zeros(2), m), m.a0)


class TestKarnikMendel:
    def test_single_rule_collapses(self):
        f = FiringIntervals(lower=np.array([0.2]), upper=np.array([0.9]))
        trs = km_type_reduce(f, np.array([4.2]))
        assert trs.lo == trs.hi == pytest.approx(4.2)

    def test_degenerate_intervals_give_weighted_average(self):
        w = np.array([0.2, 0.5, 0.3])
        y = np.array([1.0, -2.0, 4.0])
        f = FiringIntervals(lower=w, upper=w)
        trs = km_type_reduce(f, y)
        expected = float(np.dot(w, y) / w.sum())
        assert trs.lo == pytest.approx(expected, abs=1e-12)
        assert trs.hi == pytest.approx(expected, abs=1e-12)

    def test_two_rule_switch_example(self):
        f = FiringIntervals(lower=np.array([0.5, 0.5]), upper=np.array([1.0, 1.0]))
        y = np.array([0.0, 1.0])
        trs = km_type_reduce(f, y)
        assert trs.lo == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert trs.hi == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_total_firing_raises(self):
        f = FiringIntervals(lower=np.zeros(2), upper=np.zeros(2))
        with pytest.raises(DegenerateFiringError):
            km_type_reduce(f, np.array([0.0, 1.0]))

    def test_matches_enumeration_on_random_instances(self, rng):
        for _ in range(500):
            P = int(rng.integers(1, 7))
            y = rng.normal(size=P) * 5
            fu = rng.random(P)
            fl = fu * rng.random(P)
            fu[rng.integers(P)] = max(fu.max(), 0.5)  # keep total firing alive
            trs = km_type_reduce(FiringIntervals(lower=fl, upper=fu), y)
            lo_ref, hi_ref = km_enumeration(fl, fu, y)
            assert abs(trs.lo - lo_ref) <= 1e-12
            assert abs(trs.hi - hi_ref) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_vertex_bruteforce(self, data):
        P = data.draw(st.integers(1, 4))
        y = data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=P, max_size=P))
        base = data.draw(st.lists(
            st.floats(0, 1, allow_nan=False), min_size=P, max_size=P))
        frac = data.draw(st.lists(
            st.floats(0, 1, allow_nan=False), min_size=P, max_size=P))
        fu = np.asarray(base)
        fl = fu * np.asarray(frac)
        if fu.sum() < 1e-6:
            fu[0] = 1.0
        trs = km_type_reduce(FiringIntervals(lower=fl, upper=fu), np.asarray(y))
        lo_ref, hi_ref = km_vertex_bruteforce(fl, fu, np.asarray(y))
        assert trs.lo == pytest.approx(lo_ref, abs=1e-9)
        assert trs.hi == pytest.approx(hi_ref, abs=1e-9)

    def test_internals_reproduce_both_bounds(self, rng):
        # ties, exact-zero lower firings and a few silent rules
        B, P = 300, 6
        y = 10.0 + np.round(2.0 * rng.normal(size=(B, P)))
        fu = rng.random((B, P))
        fu[rng.random((B, P)) < 0.1] = 0.0
        fu[:, 0] = np.maximum(fu[:, 0], 0.5)  # keep total firing alive
        fl = fu * rng.random((B, P))
        fl[rng.random((B, P)) < 0.3] = 0.0
        lo, hi, km = km_reduce_batch(fl, fu, y, return_internals=True)
        rank = np.argsort(km.order, axis=1)
        w_lo = np.where(rank < km.L[:, None], fu, fl)
        w_hi = np.where(rank < km.R[:, None], fl, fu)
        for w, den, bound in ((w_lo, km.den_lo, lo), (w_hi, km.den_hi, hi)):
            np.testing.assert_allclose(den, w.sum(axis=1), rtol=1e-12)
            np.testing.assert_allclose(bound, (w * y).sum(axis=1) / den,
                                       rtol=1e-12)

    def test_batch_ordering_is_preserved(self, rng):
        fl = rng.random((8, 5)) * 0.5
        fu = fl + rng.random((8, 5)) * 0.5
        y = rng.normal(size=(8, 5))
        lo, hi = km_reduce_batch(fl, fu, y)
        for b in range(8):
            trs = km_type_reduce(FiringIntervals(lower=fl[b], upper=fu[b]), y[b])
            assert lo[b] == pytest.approx(trs.lo, rel=1e-12, abs=1e-13)
            assert hi[b] == pytest.approx(trs.hi, rel=1e-12, abs=1e-13)


class TestAggregation:
    def test_midpoint(self):
        assert alpha_plane_center(TypeReducedSet(1 / 3, 2 / 3)) == pytest.approx(0.5)
        assert alpha_plane_center(TypeReducedSet(-1.0, 1.0)) == 0.0
        assert alpha_plane_center(TypeReducedSet(2.5, 2.5)) == 2.5

    def test_single_plane_passthrough(self):
        assert gt2_aggregate([3.7], [0.01]) == pytest.approx(3.7)

    def test_two_plane_weighting(self):
        assert gt2_aggregate([2.0, 4.0], [0.5, 1.0]) == pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_constant_centers(self):
        assert gt2_aggregate([1.5] * 11, list(np.linspace(0.01, 1, 11))) == pytest.approx(1.5)

    def test_empty_planes_rejected(self):
        with pytest.raises(ValueError):
            gt2_aggregate([], [])

    def test_output_within_center_range(self, rng):
        centers = rng.normal(size=6)
        alphas = 0.01 + 0.99 * rng.random(6)
        out = gt2_aggregate(centers, alphas)
        assert centers.min() - 1e-12 <= out <= centers.max() + 1e-12


class TestPredict:
    def test_vanishing_secondary_spread_collapses_interval(self, rng):
        m = random_model(rng, n_rules=3, n_inputs=2)
        tight = ModelParams(c=m.c, sigma=m.sigma,
                            sigma_l=np.full(2, 1e-12), sigma_r=np.full(2, 1e-12),
                            a=m.a, a0=m.a0)
        lo, hi, _ = predict(rng.normal(size=2), 1.0, tight)
        assert hi - lo < 1e-9

    def test_single_rule_model_is_crisp(self, rng):
        m = random_model(rng, n_rules=1, n_inputs=2)
        x = rng.normal(size=2)
        for alpha in (0.01, 0.5, 1.0):
            lo, hi, point = predict(x, alpha, m)
            expected = float(consequent_values(x, m)[0])
            assert lo == pytest.approx(expected, abs=1e-12)
            assert hi == pytest.approx(expected, abs=1e-12)
            assert point == pytest.approx(expected, abs=1e-12)

    def test_nesting_across_alpha(self, rng):
        m = random_model(rng, n_rules=5, n_inputs=2)
        X = rng.normal(size=(1000, 2))
        lo1, hi1 = trs_batch(X, 0.01, m)
        lo2, hi2 = trs_batch(X, 0.5, m)
        assert np.all(lo1 <= lo2 + 1e-12)
        assert np.all(hi2 <= hi1 + 1e-12)

    def test_trs_within_consequent_range(self, rng):
        m = random_model(rng, n_rules=4, n_inputs=2)
        X = rng.normal(size=(200, 2))
        from gt2cal.core import consequent_batch
        y = consequent_batch(X, m)
        lo, hi = trs_batch(X, 0.05, m)
        assert np.all(lo >= y.min(axis=1) - 1e-12)
        assert np.all(hi <= y.max(axis=1) + 1e-12)

    def test_membership_sanity_random_models(self, rng):
        for _ in range(20):
            m = random_model(rng, n_rules=3, n_inputs=3)
            x = rng.normal(size=3)
            gamma = pmf_eval(x, m)
            for alpha in (0.01, 0.3, 0.77, 1.0):
                lower, upper = smf_bounds(gamma, alpha, m)
                assert np.all(lower >= 0.0) and np.all(upper <= 1.0)
                assert np.all(lower <= gamma + 1e-15)
                assert np.all(gamma <= upper + 1e-15)

    def test_shift_covariance(self, rng):
        m = random_model(rng, n_rules=4, n_inputs=2)
        b = 7.25
        shifted = ModelParams(c=m.c, sigma=m.sigma, sigma_l=m.sigma_l,
                              sigma_r=m.sigma_r, a=m.a, a0=m.a0 + b)
        x = rng.normal(size=2)
        lo, hi, point = predict(x, 0.05, m)
        lo2, hi2, point2 = predict(x, 0.05, shifted)
        assert lo2 == pytest.approx(lo + b, abs=1e-9)
        assert hi2 == pytest.approx(hi + b, abs=1e-9)
        assert point2 == pytest.approx(point + b, abs=1e-9)

    def test_batch_matches_scalar(self, rng):
        m = random_model(rng, n_rules=4, n_inputs=3)
        X = rng.normal(size=(16, 3))
        lo, hi, point = predict_batch(X, 0.2, m)
        for i in range(16):
            slo, shi, spoint = predict(X[i], 0.2, m)
            assert slo == pytest.approx(lo[i], abs=1e-14)
            assert shi == pytest.approx(hi[i], abs=1e-14)
            assert spoint == pytest.approx(point[i], abs=1e-14)


class TestSharedForward:
    """predict_batch shares memberships and consequents across its slices;
    each slice must still equal a standalone trs_batch bit for bit."""

    @pytest.mark.parametrize("alpha", [0.3, 0.37, 0.01, 1.0])
    @pytest.mark.parametrize("planes", [DEFAULT_PLANES, (0.2, 0.5, 0.9)])
    def test_predict_batch_equals_per_plane_trs_batch(self, rng, alpha, planes):
        m = random_model(rng, n_rules=5, n_inputs=3)
        X = rng.normal(size=(300, 3))
        lo, hi, point = predict_batch(X, alpha, m, planes)
        ref_lo, ref_hi = trs_batch(X, alpha, m)
        weighted = np.zeros(len(X))
        for p in planes:
            plo, phi_ = trs_batch(X, p, m)
            weighted += 0.5 * (plo + phi_) * p
        np.testing.assert_array_equal(lo, ref_lo)
        np.testing.assert_array_equal(hi, ref_hi)
        np.testing.assert_array_equal(point, weighted / sum(planes))
