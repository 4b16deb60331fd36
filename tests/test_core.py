import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gt2cal import core
from gt2cal.core import (
    DEFAULT_PLANES,
    AlphaLevel,
    FiringIntervals,
    ModelParams,
    batch_terms,
    consequent_batch,
    firing_batch,
    km_reduce_batch,
    km_type_reduce,
    predict,
    pmf_batch,
    predict_batch,
    slice_forward,
    smf_bounds,
    spread_scale,
    trs_batch,
    _product_tnorm,
    _ROW_BLOCK,
)
from gt2cal.errors import DegenerateFiringError

import oracles
from conftest import random_model
from oracles import (
    km_enumeration,
    km_sorted_cumsum,
    km_vertex_bruteforce,
    product_tnorm_inplace,
    product_tnorm_log,
    slice_reference,
)


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

    @pytest.mark.parametrize("P, M", [(1, 0), (0, 2)])
    def test_rejects_empty_rule_base(self, P, M):
        with pytest.raises(ValueError, match="at least one rule and one input"):
            ModelParams(c=np.zeros((P, M)), sigma=np.ones((P, M)),
                        sigma_l=np.ones(M), sigma_r=np.ones(M),
                        a=np.zeros((P, M)), a0=np.zeros(P))

    def test_rejects_rule_indexed_secondary_deviations(self):
        with pytest.raises(ValueError):
            ModelParams(
                c=np.zeros((2, 1)), sigma=np.ones((2, 1)),
                sigma_l=np.full((2, 1), 0.1), sigma_r=np.array([0.1]),
                a=np.zeros((2, 1)), a0=np.zeros(2),
            )

    FIELDS = ("c", "sigma", "sigma_l", "sigma_r", "a", "a0")

    @staticmethod
    def fields_with(**bad):
        """The fields of a valid 2-rule, 3-input model, with entry 1 of
        each named field set to the given value."""
        fields = {"c": np.zeros((2, 3)), "sigma": np.ones((2, 3)),
                  "sigma_l": np.full(3, 0.1), "sigma_r": np.full(3, 0.2),
                  "a": np.zeros((2, 3)), "a0": np.zeros(2)}
        for name, value in bad.items():
            fields[name].flat[1] = value
        return fields

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", FIELDS)
    def test_names_the_non_finite_field(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} contains non-finite values$"):
            ModelParams(**self.fields_with(**{name: value}))

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("name", ["sigma", "sigma_l", "sigma_r"])
    def test_names_the_non_positive_deviation(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be strictly positive$"):
            ModelParams(**self.fields_with(**{name: value}))

    @pytest.mark.parametrize("bad, named", [
        # non-finite values come first, in field order, then deviations
        ({"c": np.nan, "a0": np.nan}, "c contains non-finite"),
        ({"sigma_r": np.nan, "a0": np.inf}, "sigma_r contains non-finite"),
        ({"sigma": 0.0, "a": np.nan}, "a contains non-finite"),
        ({"sigma_l": -1.0, "sigma_r": np.inf}, "sigma_r contains non-finite"),
        ({"sigma": 0.0, "sigma_r": -1.0}, "sigma must be strictly"),
        ({"sigma_l": 0.0, "sigma_r": 0.0}, "sigma_l must be strictly"),
    ])
    def test_first_failing_check_wins(self, bad, named):
        with pytest.raises(ValueError, match=f"^{named}"):
            ModelParams(**self.fields_with(**bad))

    def test_one_field_with_both_faults_is_non_finite(self):
        fields = self.fields_with(sigma=np.nan)
        fields["sigma"][0, 0] = 0.0
        with pytest.raises(ValueError, match="^sigma contains non-finite"):
            ModelParams(**fields)

    def test_valid_fields_pass_unchanged(self):
        fields = self.fields_with()
        m = ModelParams(**fields)
        for name in self.FIELDS:
            assert getattr(m, name) is fields[name]


class TestPrimaryMembership:
    def test_ratio_too_large_to_square_is_silent(self):
        # (0 - 1e200) / 1 squares to inf: membership 0, with no warning,
        # and the same outputs as a far center whose square is finite
        def model(far):
            return ModelParams(c=np.array([[0.0], [far]]), sigma=np.ones((2, 1)),
                               sigma_l=np.full(1, 0.1), sigma_r=np.full(1, 0.1),
                               a=np.zeros((2, 1)), a0=np.array([1.0, 2.0]))
        X = np.zeros((1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = pmf_batch(X, model(1e200))
            got = predict_batch(X, 0.37, model(1e200))
        assert gamma.tolist() == [[[1.0], [0.0]]]
        for g, want in zip(got, predict_batch(X, 0.37, model(1e10))):
            assert g.tobytes() == want.tobytes()

    def test_center_gives_one(self):
        m = single_rule_model(0.7, 0.3, 0.1, 0.1, 0.0, 0.0)
        assert pmf_batch(np.array([[0.7]]), m)[0, 0, 0] == 1.0

    def test_one_sigma_away(self):
        m = single_rule_model(0.7, 0.3, 0.1, 0.1, 0.0, 0.0)
        assert pmf_batch(np.array([[1.0]]), m)[0, 0, 0] == pytest.approx(
            0.6065306597126334, abs=1e-12)

    def test_two_sigma_away(self):
        m = single_rule_model(0.7, 0.3, 0.1, 0.1, 0.0, 0.0)
        assert pmf_batch(np.array([[1.3]]), m)[0, 0, 0] == pytest.approx(
            0.1353352832366127, abs=1e-12)

    def test_rejects_non_finite_input(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            pmf_batch(np.array([[np.nan]]), m)


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

    # k * 1e308 overflows to inf, and the clamp gives the bound that any
    # spread this wide gives: every lower grade 0, every upper grade 1
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_l, sigma_r", [(1e308, 10.0), (10.0, 1e308)])
    def test_spread_too_large_for_a_float_is_silent(self, sigma_l, sigma_r):
        X = np.zeros((1, 1))
        got = predict_batch(X, 0.37, one_input_model([0.0, 0.0], [1.0, 2.0],
                                                     sigma_l, sigma_r))
        assert (got[0][0], got[1][0]) == (1.0, 2.0)
        assert got[2][0] == pytest.approx(1.5, rel=1e-15)
        wide = one_input_model([0.0, 0.0], [1.0, 2.0], 10.0, 10.0)
        for g, want in zip(got, predict_batch(X, 0.37, wide)):
            assert g.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_l, sigma_r", [(1e308, 10.0), (10.0, 1e308)])
    def test_spread_too_large_for_a_float_per_row_alpha(self, sigma_l, sigma_r):
        m = one_input_model([0.0, 0.0], [1.0, 2.0], sigma_l, sigma_r)
        terms = batch_terms(np.zeros((3, 1)), m)
        s = slice_forward(terms, np.array([0.37, 0.01, 0.5]), m)
        assert np.all(s.lower == 0.0) and np.all(s.upper == 1.0)
        assert s.lo.tolist() == [1.0] * 3 and s.hi.tolist() == [2.0] * 3


class TestFiring:
    def test_single_dimension_equals_membership_bounds(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 0.0)
        X = np.array([[0.5]])
        lower, upper = smf_bounds(pmf_batch(X, m).T, 0.2, m)  # input-major
        f_lower, f_upper = firing_batch(X, 0.2, m)
        assert f_lower[0, 0] == pytest.approx(lower[0, 0, 0], rel=1e-15)
        assert f_upper[0, 0] == pytest.approx(upper[0, 0, 0], rel=1e-15)

    def test_product_tnorm_two_dims(self):
        # memberships 0.5 in each of two dimensions fire at 0.25
        m = ModelParams(
            c=np.array([[0.0, 0.0]]),
            sigma=np.array([[1.0, 1.0]]) / np.sqrt(2 * np.log(2)),
            sigma_l=np.array([1e-9, 1e-9]), sigma_r=np.array([1e-9, 1e-9]),
            a=np.zeros((1, 2)), a0=np.zeros(1),
        )
        _, f_upper = firing_batch(np.array([[1.0, 1.0]]), 1.0, m)
        assert f_upper[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_bottom_slice_lower_firing(self):
        m = ModelParams(
            c=np.array([[0.0, 0.0]]), sigma=np.array([[1.0, 1.0]]),
            sigma_l=np.array([0.1, 0.1]), sigma_r=np.array([0.1, 0.1]),
            a=np.zeros((1, 2)), a0=np.zeros(1),
        )
        # primary grade 0.5 per dimension at x = sqrt(2 ln 2) sigma
        X = np.full((1, 2), np.sqrt(2 * np.log(2)))
        f_lower, _ = firing_batch(X, 0.01, m)
        assert f_lower[0, 0] == pytest.approx(0.19651457412297073 ** 2, abs=1e-9)

    def test_degenerate_firing_raises(self):
        m = single_rule_model(0.0, 0.01, 1e-9, 1e-9, 0.0, 0.0)
        with pytest.raises(DegenerateFiringError):
            firing_batch(np.array([[100.0]]), 1.0, m)


class TestProductTnorm:
    """The in-place left-to-right log-sum against the one-reduction formula.

    The kernel multiplies down the first (input) axis of an input-major
    array; the references multiply along the last axis of the same values
    in the (rows, P, M) layout.
    """

    @pytest.mark.parametrize("M", [1, 2, 4, 7])
    @pytest.mark.parametrize("B", [1, 64])
    def test_bit_identical_below_eight_factors(self, rng, M, B):
        # numpy sums an axis shorter than 8 left to right, as the kernel does
        mu = rng.random((B, 6, M))
        mu[rng.random(mu.shape) < 0.1] = 0.0
        mu[0, 0, 0] = 0.0
        inputs_first = np.ascontiguousarray(mu.T)
        before = inputs_first.copy()
        np.testing.assert_array_equal(_product_tnorm(inputs_first).T,
                                      product_tnorm_log(mu))
        np.testing.assert_array_equal(inputs_first, before)

    @pytest.mark.parametrize("M", [8, 19, 40])
    def test_log_sum_within_summation_bound(self, rng, M):
        # numpy sums 8 or more terms with pairwise accumulators, so only the
        # rounding of the log-sum may differ: two orders of an M-term sum
        # differ by at most 2*M*eps*sum|log mu|.  Factors stay in
        # [0.05, 1] so neither product leaves the normal range, and
        # sum|log mu| is large enough to cover the exp/log rounding.
        mu = 0.05 + 0.95 * rng.random((64, 6, M))
        inputs_first = np.ascontiguousarray(mu.T)
        before = inputs_first.copy()
        got = _product_tnorm(inputs_first).T
        want = product_tnorm_log(mu)
        bound = 2 * M * np.finfo(float).eps * np.sum(np.abs(np.log(mu)), axis=-1)
        assert np.all(np.abs(np.log(got) - np.log(want)) <= bound)
        np.testing.assert_array_equal(inputs_first, before)

    @pytest.mark.parametrize("M", [1, 7, 8, 12, 19, 40])
    def test_bit_identical_to_row_major_kernel(self, rng, M):
        # at any M, the same adds in the same order as the kernel that ran
        # on (rows, P, M) arrays
        mu = rng.random((64, 6, M))
        mu[rng.random(mu.shape) < 0.1] = 0.0
        got = _product_tnorm(np.ascontiguousarray(mu.T)).T
        assert got.tobytes() == product_tnorm_inplace(mu).tobytes()


class TestConsequents:
    def test_constant_consequent(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 0.0, 3.0)
        assert consequent_batch(np.array([[1.7]]), m)[0, 0] == 3.0

    def test_linear_consequent(self):
        m = single_rule_model(0.0, 1.0, 0.1, 0.1, 2.0, 1.0)
        assert consequent_batch(np.array([[0.5]]), m)[0, 0] == pytest.approx(
            2.0, abs=1e-15)

    def test_intercept_only_at_origin(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, n_rules=3, n_inputs=2)
        np.testing.assert_allclose(consequent_batch(np.zeros((1, 2)), m)[0], m.a0)

    def test_rejects_wrong_input_width(self):
        m = random_model(np.random.default_rng(7), n_rules=3, n_inputs=2)
        with pytest.raises(ValueError, match=r"expected shape \(B, 2\)"):
            consequent_batch(np.zeros((1, 3)), m)


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
        rank = np.argsort(km.order.T, axis=1)  # order is (P, B)
        w_lo = np.where(rank < km.L[:, None], fu, fl)
        w_hi = np.where(rank < km.R[:, None], fl, fu)
        for w, den, bound in ((w_lo, km.den_lo, lo), (w_hi, km.den_hi, hi)):
            np.testing.assert_allclose(den, w.sum(axis=1), rtol=1e-12)
            np.testing.assert_allclose(bound, (w * y).sum(axis=1) / den,
                                       rtol=1e-12)

    def test_consequents_near_the_float_limit(self):
        # the weighted sums of 2 x 1e308 overflow unless scaled first
        m = ModelParams(c=np.zeros((2, 1)), sigma=np.ones((2, 1)),
                        sigma_l=np.full(1, 1e-20), sigma_r=np.full(1, 1e-20),
                        a=np.zeros((2, 1)), a0=np.array([1e308, 1e308]))
        lo, hi = trs_batch(np.zeros((1, 1)), 0.37, m)
        assert lo[0] == hi[0] == 1e308
        # unequal firings: each bound is a weighted average of 1e308
        wide = ModelParams(c=m.c, sigma=m.sigma, sigma_l=np.full(1, 0.1),
                           sigma_r=np.full(1, 0.1), a=m.a, a0=m.a0)
        lo, hi = trs_batch(np.zeros((1, 1)), 0.37, wide)
        np.testing.assert_allclose([lo[0], hi[0]], 1e308, rtol=1e-15, atol=0)

    def test_scaled_row_leaves_other_rows_of_the_batch_alone(self, rng):
        fu = 0.5 + 0.5 * rng.random((6, 3))
        fl = fu * rng.random((6, 3))
        y = rng.normal(size=(6, 3))
        y[2] = [5e307, 1e308, 1e308]
        lo, hi = km_reduce_batch(fl, fu, y)
        assert np.all(np.isfinite([lo[2], hi[2]]))
        assert 5e307 <= lo[2] <= hi[2] <= 1e308
        for i in (0, 1, 3, 4, 5):
            ref_lo, ref_hi = km_reduce_batch(fl[i:i + 1], fu[i:i + 1], y[i:i + 1])
            assert (lo[i], hi[i]) == (ref_lo[0], ref_hi[0])

    def test_power_of_two_consequents_scale_bounds_exactly(self, rng):
        m = random_model(rng, n_rules=5, n_inputs=2)
        X = rng.normal(size=(200, 2))
        big = ModelParams(c=m.c, sigma=m.sigma, sigma_l=m.sigma_l,
                          sigma_r=m.sigma_r, a=np.ldexp(m.a, 1015),
                          a0=np.ldexp(m.a0, 1015))
        for alpha in (0.01, 0.37, 1.0):
            lo, hi = trs_batch(X, alpha, m)
            big_lo, big_hi = trs_batch(X, alpha, big)
            np.testing.assert_array_equal(big_lo, np.ldexp(lo, 1015))
            np.testing.assert_array_equal(big_hi, np.ldexp(hi, 1015))

    def test_batch_ordering_is_preserved(self, rng):
        fl = rng.random((8, 5)) * 0.5
        fu = fl + rng.random((8, 5)) * 0.5
        y = rng.normal(size=(8, 5))
        lo, hi = km_reduce_batch(fl, fu, y)
        for b in range(8):
            trs = km_type_reduce(FiringIntervals(lower=fl[b], upper=fu[b]), y[b])
            assert lo[b] == pytest.approx(trs.lo, rel=1e-12, abs=1e-13)
            assert hi[b] == pytest.approx(trs.hi, rel=1e-12, abs=1e-13)


def km_case(rng, B, P, zero_frac=0.0, tie=False):
    """Sorted consequents and firings of B rows over P rules.

    ``zero_frac`` of the firings are exactly zero, but one rule of each
    row keeps upper firing; ``tie`` rounds the consequents so that some
    tie.
    """
    y = 3.0 * rng.normal(size=(B, P))
    if tie:
        y = np.round(y)
    fu = rng.random((B, P))
    fu[rng.random((B, P)) < zero_frac] = 0.0
    fu[:, 0] = np.maximum(fu[:, 0], 0.25)
    fl = fu * rng.random((B, P))
    fl[rng.random((B, P)) < zero_frac] = 0.0
    order = np.argsort(y, axis=1, kind="stable")
    return tuple(np.take_along_axis(a, order, axis=1) for a in (fl, fu, y))


def assert_km_equals_cumsum_reference(fl, fu, y):
    """The one-pass reduction, run on the (P, B) transposes of the (B, P)
    inputs, equals the per-end cumsum one, byte for byte."""
    lo, hi, km = core._km_sorted(*(np.ascontiguousarray(a.T)
                                   for a in (fl, fu, y)), None)
    got = (lo, hi, km.L, km.R, km.den_lo, km.den_hi)
    for name, g, w in zip(("lo", "hi", "L", "R", "den_lo", "den_hi"), got,
                          km_sorted_cumsum(fl, fu, y)):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


class TestOnePassKM:
    """``_km_sorted`` sums all switch candidates in one pass along the rule
    axis; it must equal the cumsum reference in every output bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(B=st.integers(0, 80), P=st.sampled_from([1, 2, 3, 10, 17]),
           seed=st.integers(0, 2 ** 32 - 1),
           zero_frac=st.sampled_from([0.0, 0.3, 1.0]), tie=st.booleans())
    def test_property(self, B, P, seed, zero_frac, tie):
        rng = np.random.default_rng(seed)
        assert_km_equals_cumsum_reference(*km_case(rng, B, P, zero_frac, tie))

    # 1025 rows and more run in row blocks of at most 1024
    @pytest.mark.parametrize("B", [957, 1024, 1025, 1435, 6698])
    def test_bench_sized_batches(self, rng, B):
        assert_km_equals_cumsum_reference(*km_case(rng, B, 10, 0.05, True))

    def test_zero_firings(self, rng):
        fl, fu, y = km_case(rng, 200, 10, zero_frac=0.3)
        fl[::3] = 0.0  # every lower firing of these rows is zero
        fu[1::7] = 0.0  # only one rule fires
        fu[1::7, 4] = 0.5
        fl = np.minimum(fl, fu)
        assert_km_equals_cumsum_reference(fl, fu, y)

    def test_tied_and_negative_zero_consequents(self, rng):
        fl, fu, y = km_case(rng, 200, 6)
        y = np.sort(np.round(y / 3.0), axis=1)
        y[y == 0.0] = -0.0
        y[::4] = -0.0
        y[1::4, 1:3] = y[1::4, :1]
        assert_km_equals_cumsum_reference(fl, fu, y)

    def test_scaled_rows(self, rng):
        fl, fu, y = km_case(rng, 60, 10, zero_frac=0.1)
        y[::3] = np.ldexp(y[::3], 1020)
        y[1::3] *= 2.0 ** 512 / np.abs(y[1::3]).max(axis=1, keepdims=True)
        y = np.sort(y, axis=1)
        assert_km_equals_cumsum_reference(fl, fu, y)

    @pytest.mark.parametrize("P", [3, 10])
    def test_pinched_rows(self, rng, P):
        # with all consequents tied, every candidate is the same average
        # mathematically; the ends sum it in different orders, and some
        # rows invert by an ulp before the pinch
        fl, fu, y = km_case(rng, 2000, P)
        y = np.repeat(y[:, :1], P, axis=1)
        lo, _, _ = oracles._km_end(fu, fl, y, minimize=True)
        hi, _, _ = oracles._km_end(fl, fu, y, minimize=False)
        assert np.any(lo > hi)
        assert_km_equals_cumsum_reference(fl, fu, y)


def slice_case(rng, B, P, M, special=False):
    """Memberships (B, P, M) and consequents (B, P) of B rows, each row's
    rules sorted by consequent, in the (rows, P, M) layout.

    ``special`` rounds the consequents so that some tie, gives about one
    (row, rule) pair in five memberships of exactly 0 in every input (a
    firing of exactly 0 from M = 2 on), sets some memberships to exactly
    1, and scales the consequents of row B // 2 past 2**512.  One rule of
    every row keeps memberships of at least 0.5, so every row fires.
    """
    y = 3.0 * rng.normal(size=(B, P))
    gamma = rng.random((B, P, M))
    if special:
        y = np.round(y)
        y[B // 2] = np.ldexp(y[B // 2], 600)
        gamma[rng.random((B, P)) < 0.2] = 0.0
        gamma[rng.random(gamma.shape) < 0.1] = 1.0
    live = rng.integers(0, P, B)
    gamma[np.arange(B), live] = np.maximum(gamma[np.arange(B), live], 0.5)
    return gamma, np.sort(y, axis=1)


SLICE_FIELDS = ("lower", "upper", "f_lower", "f_upper", "lo", "hi", "L", "R",
                "den_lo", "den_hi")


def assert_slice_equals_row_major_reference(gamma, y, alpha, m):
    """``slice_forward`` on the input-major transposes of ``gamma`` and
    ``y`` equals the (rows, P, M) slice of ``oracles.slice_reference`` in
    every output, byte for byte; below 8 inputs, its firings also equal
    the one-reduction t-norm of the reference's bounds."""
    B, P, M = gamma.shape
    terms = core.BatchTerms(gamma=np.ascontiguousarray(gamma.T),
                            y=np.ascontiguousarray(y.T),
                            order=np.repeat(np.arange(P)[:, None], B, axis=1))
    s = slice_forward(terms, alpha, m)
    got = (s.lower.T, s.upper.T, s.f_lower.T, s.f_upper.T, s.lo, s.hi,
           s.km.L, s.km.R, s.km.den_lo, s.km.den_hi)
    want = slice_reference(gamma, y, alpha, m)
    for name, g, w in zip(SLICE_FIELDS, got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    if M < 8:
        for g, bounds in ((got[2], want[0]), (got[3], want[1])):
            assert g.tobytes() == product_tnorm_log(bounds).tobytes()


class TestInputMajorSlice:
    """The slice path runs on (M, P, B) memberships and (P, B) firings and
    consequents; it must equal the (rows, P, M) slice to the bit."""

    ALPHAS = (0.01, 0.37, 1.0)

    @pytest.mark.parametrize("M", range(1, 13))
    @pytest.mark.parametrize("P", range(1, 13))
    def test_every_rule_and_input_count(self, P, M):
        rng = np.random.default_rng(1000 * P + M)
        m = random_model(rng, n_rules=P, n_inputs=M)
        for special in (False, True):
            gamma, y = slice_case(rng, 37, P, M, special)
            for alpha in (*self.ALPHAS, rng.uniform(0.01, 1.0, 37)):
                assert_slice_equals_row_major_reference(gamma, y, alpha, m)

    # 1024 rows is one Karnik-Mendel row block; 1025 and 2049 are two and
    # three
    @pytest.mark.parametrize("B", [1, 2, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("P, M", [(1, 1), (10, 4), (12, 12)])
    def test_row_counts(self, B, P, M):
        rng = np.random.default_rng(B + 100 * P + M)
        m = random_model(rng, n_rules=P, n_inputs=M)
        grid = np.array([0.01, 0.05, 0.37, 0.5, 1.0])
        for special in (False, True):
            gamma, y = slice_case(rng, B, P, M, special)
            for alpha in (*self.ALPHAS, rng.choice(grid, B)):
                assert_slice_equals_row_major_reference(gamma, y, alpha, m)

    def test_cases_reach_the_special_paths(self):
        # the special rows do what the cases above rely on
        rng = np.random.default_rng(5)
        m = random_model(rng, n_rules=6, n_inputs=3)
        gamma, y = slice_case(rng, 40, 6, 3, special=True)
        want = slice_reference(gamma, y, 1.0, m)
        f_lower, f_upper = want[2], want[3]
        assert np.any(f_upper == 0.0) and np.any(f_lower == 0.0)
        assert np.any(np.diff(y, axis=1) == 0.0)
        assert np.abs(y[20]).max() >= 2.0 ** 512 > np.abs(np.delete(y, 20, 0)).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_firing_check_gives_the_row_sum_verdict(self, monkeypatch, seed):
        # numpy pairs the terms of a 10-rule row sum of a (B, P) array,
        # where a sum down the rule axis of (P, B) firings adds them one by
        # one; at a threshold between the two totals, the check must give
        # the row sum's verdict and total
        rng = np.random.default_rng(seed)
        while True:
            f = np.repeat(1e-16 * rng.random((1, 10)), 3, axis=0)
            firings = np.ascontiguousarray(f.T)
            row_sum, down = f.sum(axis=1)[0], firings.sum(axis=0)[0]
            if row_sum != down:
                break
        monkeypatch.setattr(core, "FIRING_EPS", max(row_sum, down))
        if row_sum < down:
            with pytest.raises(DegenerateFiringError,
                               match=rf"input row 7 .*{row_sum:.3e} <"):
                core._check_firing(firings, first_row=7)
        else:
            core._check_firing(firings, first_row=7)

    @pytest.mark.parametrize("M", [1, 4, 12])
    def test_batch_terms_feed_the_same_slice(self, rng, M):
        # through batch_terms, from inputs: the gathers into the input-major
        # layout take each row's sorted rules, as the (rows, P, M) gather did
        m = random_model(rng, n_rules=7, n_inputs=M)
        X = rng.normal(size=(300, M))
        order = np.argsort(X @ m.a.T + m.a0, axis=1, kind="stable")
        gamma = np.take_along_axis(pmf_batch(X, m), order[:, :, None], 1)
        y = np.take_along_axis(X @ m.a.T + m.a0, order, 1)
        terms = batch_terms(X, m)
        for alpha in (0.01, 0.37, rng.uniform(0.01, 1.0, 300)):
            s = slice_forward(terms, alpha, m)
            want = slice_reference(gamma, y, alpha, m)
            for g, w in zip((s.lower.T, s.upper.T, s.f_lower.T, s.f_upper.T,
                             s.lo, s.hi, s.km.L, s.km.R, s.km.den_lo,
                             s.km.den_hi), want):
                assert g.tobytes() == w.tobytes()
            assert s.km.order.T.tobytes() == order.tobytes()


def one_input_model(c, a0, sigma_l, sigma_r):
    """Rules on one input with unit primary deviation and constant
    consequents ``a0``."""
    P = len(a0)
    return ModelParams(
        c=np.asarray(c, dtype=float)[:, None], sigma=np.ones((P, 1)),
        sigma_l=np.array([sigma_l]), sigma_r=np.array([sigma_r]),
        a=np.zeros((P, 1)), a0=np.asarray(a0, dtype=float),
    )


class TestAggregation:
    """The point of ``predict_batch``: slice centers weighted by alpha."""

    X0 = np.zeros((1, 1))

    def test_midpoint(self):
        # one plane at 0.5, a power of two, so the point is the midpoint
        # (lo + hi) / 2 bit for bit; at x = c every upper grade is 1
        half = 0.5 / spread_scale(0.5)  # lower grade 1 - k*sigma_l = 0.5
        m = one_input_model([0.0, 0.0], [0.0, 1.0], half, 1.0)
        lo, hi, point = predict_batch(self.X0, 0.5, m, (0.5,))
        assert lo[0] == pytest.approx(1 / 3, abs=1e-12)
        assert hi[0] == pytest.approx(2 / 3, abs=1e-12)
        assert point[0] == 0.5 * (lo[0] + hi[0]) == pytest.approx(0.5)
        # lower grades clamp to 0, so [lo, hi] spans both consequents
        m = one_input_model([0.0, 0.0], [-1.0, 1.0], 10.0, 1.0)
        lo, hi, point = predict_batch(self.X0, 0.5, m, (0.5,))
        assert (lo[0], hi[0], point[0]) == (-1.0, 1.0, 0.0)
        # negligible spreads: lower = upper = 1 and the interval is a point
        m = one_input_model([0.0], [2.5], 1e-20, 1e-20)
        lo, hi, point = predict_batch(self.X0, 0.5, m, (0.5,))
        assert (lo[0], hi[0], point[0]) == (2.5, 2.5, 2.5)

    def test_single_plane_passthrough(self):
        m = one_input_model([0.0], [3.7], 0.1, 0.1)
        _, _, point = predict_batch(self.X0, 0.01, m, (0.01,))
        assert point[0] == pytest.approx(3.7)

    def test_two_plane_weighting(self):
        # rule 2 sits 30 deviations away: at alpha = 1 only rule 1 fires
        # (center 4); at alpha = 0.5 both fire over [0, 1] (center 2)
        m = one_input_model([0.0, 30.0], [4.0, 0.0], 10.0, 10.0)
        for alpha, center in ((0.5, 2.0), (1.0, 4.0)):
            lo, hi = trs_batch(self.X0, alpha, m)
            assert 0.5 * (lo[0] + hi[0]) == pytest.approx(center, abs=1e-12)
        _, _, point = predict_batch(self.X0, 0.5, m, (0.5, 1.0))
        assert point[0] == pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_constant_centers(self):
        m = one_input_model([0.0], [1.5], 0.1, 0.1)
        planes = list(np.linspace(0.01, 1, 11))
        _, _, point = predict_batch(self.X0, 0.5, m, planes)
        assert point[0] == pytest.approx(1.5)

    def test_empty_planes_rejected(self):
        m = one_input_model([0.0], [1.5], 0.1, 0.1)
        with pytest.raises(ValueError):
            predict_batch(self.X0, 0.5, m, [])

    def test_point_near_the_float_limit(self):
        # the weighted sum over 11 planes of 3.3e307 overflows unless scaled
        m = one_input_model([0.0, 0.0], [3.3e307, 3.3e307], 1e-20, 1e-20)
        lo, hi, point = predict(np.zeros(1), 0.37, m)
        assert lo == hi == 3.3e307
        assert point == pytest.approx(3.3e307, rel=1e-15, abs=0)

    def test_power_of_two_consequents_scale_the_point_exactly(self, rng):
        # |y| stays below 8 here, so 2**1021 y is finite, but an unscaled
        # sum over the default planes (weights 5.51) is not
        m = random_model(rng, n_rules=5, n_inputs=2)
        X = rng.normal(size=(300, 2))
        big = ModelParams(c=m.c, sigma=m.sigma, sigma_l=m.sigma_l,
                          sigma_r=m.sigma_r, a=np.ldexp(m.a, 1021),
                          a0=np.ldexp(m.a0, 1021))
        for n_rows in (1, 300):
            _, _, point = predict_batch(X[:n_rows], 0.37, m)
            _, _, big_point = predict_batch(X[:n_rows], 0.37, big)
            np.testing.assert_array_equal(big_point, np.ldexp(point, 1021))

    def test_scaled_point_leaves_other_rows_of_the_block_alone(self):
        # the slope makes rows at x = 1 huge and rows at x = 0 small
        m = ModelParams(c=np.zeros((3, 1)), sigma=np.full((3, 1), 2.0),
                        sigma_l=np.array([0.2]), sigma_r=np.array([0.3]),
                        a=np.array([[1e308], [5e307], [0.0]]),
                        a0=np.array([0.25, -1.5, 2.0]))
        X = np.array([[0.0], [1.0], [0.0], [1.0], [0.0]])
        lo, hi, point = predict_batch(X, 0.37, m)
        assert np.all(np.isfinite(point))
        for i in (0, 2, 4):
            want = predict_batch(X[i:i + 1], 0.37, m)
            assert (lo[i], hi[i], point[i]) == tuple(w[0] for w in want)

    def test_output_within_center_range(self, rng):
        m = random_model(rng, n_rules=5, n_inputs=2)
        X = rng.normal(size=(20, 2))
        alphas = list(0.01 + 0.99 * rng.random(6))
        centers = np.array([0.5 * np.add(*trs_batch(X, a, m)) for a in alphas])
        _, _, point = predict_batch(X, alphas[0], m, alphas)
        assert np.all(centers.min(axis=0) - 1e-12 <= point)
        assert np.all(point <= centers.max(axis=0) + 1e-12)


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
            expected = float(consequent_batch(x[None, :], m)[0, 0])
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
            gamma = pmf_batch(x[None, :], m)[0].T  # (M, P): input axis first
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

    @pytest.mark.parametrize("n_rows", [2 * _ROW_BLOCK + 37, _ROW_BLOCK + 1])
    def test_row_blocks_equal_per_plane_trs_batch(self, rng, n_rows):
        m = random_model(rng, n_rules=10, n_inputs=4)
        X = rng.normal(size=(n_rows, 4))
        lo, hi, point = predict_batch(X, 0.37, m)
        ref_lo, ref_hi = trs_batch(X, 0.37, m)
        weighted = np.zeros(n_rows)
        for p in DEFAULT_PLANES:
            plo, phi_ = trs_batch(X, p, m)
            weighted += 0.5 * (plo + phi_) * p
        np.testing.assert_array_equal(lo, ref_lo)
        np.testing.assert_array_equal(hi, ref_hi)
        np.testing.assert_array_equal(point, weighted / sum(DEFAULT_PLANES))
        for i in (0, _ROW_BLOCK - 1, _ROW_BLOCK, n_rows // 2, n_rows - 1):
            np.testing.assert_allclose(predict(X[i], 0.37, m),
                                       (lo[i], hi[i], point[i]),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_rows, blocks", [
        (1, 1), (_ROW_BLOCK, 1), (_ROW_BLOCK + 1, 2), (2 * _ROW_BLOCK + 37, 3)])
    def test_batch_terms_once_per_row_block(self, rng, monkeypatch,
                                            n_rows, blocks):
        calls = []
        real = core.batch_terms

        def counting(X, params):
            calls.append(len(X))
            return real(X, params)

        monkeypatch.setattr(core, "batch_terms", counting)
        m = random_model(rng, n_rules=3, n_inputs=2)
        predict_batch(rng.normal(size=(n_rows, 2)), 0.5, m)
        assert len(calls) == blocks
        assert sum(calls) == n_rows
        assert max(calls) <= _ROW_BLOCK

    def test_slice_runs_no_sort_and_no_gather(self, rng, monkeypatch):
        m = random_model(rng, n_rules=6, n_inputs=3)
        terms = batch_terms(rng.normal(size=(50, 3)), m)
        ref = slice_forward(terms, 0.3, m)
        calls = []
        for name in ("argsort", "sort", "take", "take_along_axis", "put_along_axis"):
            real = getattr(np, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        s = slice_forward(terms, 0.3, m)
        assert calls == []
        np.testing.assert_array_equal(s.lo, ref.lo)
        np.testing.assert_array_equal(s.hi, ref.hi)

    def test_terms_are_in_consequent_order(self, rng):
        m = random_model(rng, n_rules=6, n_inputs=3)
        X = rng.normal(size=(40, 3))
        X[:20] = np.round(X[:20])  # integer rows: tied consequents
        m = ModelParams(c=m.c, sigma=m.sigma, sigma_l=m.sigma_l,
                        sigma_r=m.sigma_r, a=np.round(m.a), a0=np.round(m.a0))
        terms = batch_terms(X, m)
        y = X @ m.a.T + m.a0
        order = np.argsort(y, axis=1, kind="stable")
        # input-major, rows last: order and y are (P, B), gamma (M, P, B)
        np.testing.assert_array_equal(terms.order, order.T)
        np.testing.assert_array_equal(terms.y, np.take_along_axis(y, order, 1).T)
        np.testing.assert_array_equal(
            terms.gamma,
            np.take_along_axis(pmf_batch(X, m), order[:, :, None], 1).T)
        assert np.all(np.diff(terms.y, axis=0) >= 0.0)
        assert all(t.flags.c_contiguous for t in terms)

    def test_degenerate_row_named_in_the_callers_batch(self):
        m = single_rule_model(0.0, 0.01, 1e-9, 1e-9, 0.0, 0.0)
        X = np.zeros((2000, 1))
        X[1500] = 100.0  # past the first row block
        with pytest.raises(DegenerateFiringError, match=r"input row 1500 "):
            predict_batch(X, 1.0, m)


class TestPerRowAlpha:
    """A (B,) alpha runs each row at its own slice, bit for bit."""

    def test_slice_equals_scalar_slice_per_row(self, rng):
        m = random_model(rng, n_rules=7, n_inputs=3)
        terms = batch_terms(rng.normal(size=(120, 3)), m)
        grid = np.array([0.01, 0.05, 0.3, 0.37, 0.5, 0.99, 1.0])
        alphas = np.where(rng.random(120) < 0.5, rng.choice(grid, 120),
                          rng.uniform(0.01, 1.0, 120))
        s = slice_forward(terms, alphas, m)
        assert s.alpha is alphas
        for i, a in enumerate(alphas):
            ref = slice_forward(terms, float(a), m)
            # the rows are the last axis of every slice array
            for name in ("lower", "upper", "f_lower", "f_upper", "lo", "hi"):
                np.testing.assert_array_equal(getattr(s, name)[..., i],
                                              getattr(ref, name)[..., i])
            for name in ("L", "R", "den_lo", "den_hi"):
                np.testing.assert_array_equal(getattr(s.km, name)[i],
                                              getattr(ref.km, name)[i])

    def test_spread_scale_array_equals_scalar(self):
        from gt2cal.calibration import alpha_grid

        rng = np.random.default_rng(20)
        for alphas in (alpha_grid(0.01), alpha_grid(0.003),
                       rng.uniform(0.01, 1.0, 10_000)):
            want = np.array([spread_scale(float(a)) for a in alphas])
            got = spread_scale(alphas)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    @pytest.mark.parametrize("alphas", [
        np.array([0.5, np.nan, 0.5]), np.array([0.5, 0.005, 0.5]),
        np.array([0.5, 1.5, 0.5]), np.full(4, 0.5), np.full((3, 1), 0.5)])
    def test_rejects_bad_per_row_alpha(self, rng, alphas):
        # 2 inputs, 4 rules, 3 rows: only the row axis, the last of the
        # (M, P, B) memberships, takes a (3,) alpha; (4,) matches the rules
        m = random_model(rng, n_rules=4, n_inputs=2)
        terms = batch_terms(rng.normal(size=(3, 2)), m)
        assert terms.gamma.shape == (2, 4, 3)
        with pytest.raises(ValueError):
            slice_forward(terms, alphas, m)
        with pytest.raises(ValueError):
            smf_bounds(terms.gamma, alphas, m)
        if alphas.shape != (4,):  # a length only the batch can refuse
            with pytest.raises(ValueError):
                spread_scale(alphas)


def per_plane_reference(X, alpha, m, planes):
    """``predict_batch`` from one standalone ``trs_batch`` per slice."""
    lo, hi = trs_batch(X, alpha, m)
    weighted = np.zeros(len(X))
    for p in planes:
        plo, phi_ = trs_batch(X, p, m)
        weighted += 0.5 * (plo + phi_) * p
    return lo, hi, weighted / sum(planes)


class TestStackedSlices:
    """A small block runs several slices in one per-row-alpha call; every
    output still equals the per-plane reference bit for bit."""

    # group boundaries for 12 slice levels: 1024 // b slices per call
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 85, 86, 100, 341, 342,
                                        512, 513])
    def test_equals_per_plane_reference(self, rng, n_rows):
        m = random_model(rng, n_rules=10, n_inputs=4)
        X = rng.normal(size=(n_rows, 4))
        got = predict_batch(X, 0.37, m)
        for g, w in zip(got, per_plane_reference(X, 0.37, m, DEFAULT_PLANES)):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("alpha, planes", [
        (0.5, DEFAULT_PLANES),         # alpha is one of the planes
        (0.37, (0.2, 0.5, 0.9)),       # alpha is none of them
        (0.3, (0.2, 0.5, 0.2, 0.9)),   # a duplicated plane
        (0.3, (0.7,)),                 # a single plane
        (0.7, (0.7,)),                 # a single plane, at alpha
        (0.5, (0.5, 1.0)),
    ])
    @pytest.mark.parametrize("n_rows", [1, 7, 86, 342])
    def test_plane_stacks_equal_per_plane_reference(self, rng, alpha, planes,
                                                    n_rows):
        m = random_model(rng, n_rules=6, n_inputs=3)
        X = rng.normal(size=(n_rows, 3))
        got = predict_batch(X, alpha, m, planes)
        for g, w in zip(got, per_plane_reference(X, alpha, m, planes)):
            np.testing.assert_array_equal(g, w)

    def _count_slices(self, monkeypatch):
        calls = []
        real = core.slice_forward

        def counting(terms, alpha, params, first_row=0):
            calls.append(alpha)
            return real(terms, alpha, params, first_row)

        monkeypatch.setattr(core, "slice_forward", counting)
        return calls

    def test_one_row_predict_makes_one_slice_call(self, rng, monkeypatch):
        m = random_model(rng, n_rules=10, n_inputs=4)
        calls = self._count_slices(monkeypatch)
        predict(rng.normal(size=4), 0.37, m)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [0.37, *DEFAULT_PLANES])

    def test_bulk_block_runs_one_level_per_call(self, rng, monkeypatch):
        m = random_model(rng, n_rules=3, n_inputs=2)
        calls = self._count_slices(monkeypatch)
        predict_batch(rng.normal(size=(_ROW_BLOCK, 2)), 0.37, m)
        assert calls == [0.37, *DEFAULT_PLANES]

    def test_empty_batch(self, rng):
        m = random_model(rng, n_rules=3, n_inputs=2)
        out = predict_batch(np.zeros((0, 2)), 0.37, m)
        assert len(out) == 3
        for a in out:
            assert a.shape == (0,)

    def test_degenerate_row_named_by_its_index(self):
        # row 3 is far outside the one rule: its upper firing is zero only
        # at alpha = 1, the last of the 12 stacked slices
        m = single_rule_model(0.0, 0.01, 0.1, 0.1, 0.0, 0.0)
        X = np.zeros((5, 1))
        X[3] = 100.0
        assert trs_batch(X, 0.9, m)[0].shape == (5,)
        with pytest.raises(DegenerateFiringError) as want:
            trs_batch(X, 1.0, m)
        with pytest.raises(DegenerateFiringError, match=r"input row 3 ") as got:
            predict_batch(X, 0.37, m)
        assert str(got.value) == str(want.value)
