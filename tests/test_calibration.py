import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gt2cal.calibration
import gt2cal.core
from gt2cal.calibration import (
    CalibrationTable,
    SearchConfig,
    alpha_grid,
    build_lookup_table,
    calibrate_search,
    coverage_at_alpha,
    export_calibration_curve,
    lookup_alpha,
    picp,
    pinaw,
    read_calibration_curve,
    search_alpha,
    _coverage_oracle,
)
from gt2cal.core import ModelParams, trs_batch
from gt2cal.errors import DegenerateFiringError, FlatCurveError

from conftest import random_model


def linear_coverage(alpha):
    """Analytic stand-in for an empirical coverage curve: monotone linear
    from 0.99 at the bottom slice down to 0.50 at alpha = 1."""
    return 0.99 - 0.49 * (alpha - 0.01) / 0.99


class TestPicp:
    def test_two_of_three_covered(self):
        val = picp(np.array([1.0, 2.0, 3.0]),
                   np.array([0.0, 0.0, 4.0]),
                   np.array([2.0, 3.0, 5.0]))
        assert val == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_all_inside(self):
        y = np.array([0.5, -1.0])
        assert picp(y, y - 1, y + 1) == 1.0

    def test_boundary_counts_as_covered(self):
        y = np.array([2.0])
        assert picp(y, np.array([2.0]), np.array([3.0])) == 1.0
        assert picp(y, np.array([1.0]), np.array([2.0])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            picp(np.array([]), np.array([]), np.array([]))

    def test_values_are_multiples_of_reciprocal_count(self, rng):
        for _ in range(10):
            q = int(rng.integers(1, 40))
            y = rng.normal(size=q)
            lo = y - rng.random(q)
            hi = y + rng.random(q) - 0.5
            val = picp(y, lo, hi)
            assert (val * q) == pytest.approx(round(val * q), abs=1e-9)


class TestPinaw:
    def test_constant_width(self):
        y = np.array([0.0, 4.0])
        assert pinaw(y, y - 0.5, y + 0.5) == pytest.approx(1.0 / 4.0)

    def test_zero_width(self):
        y = np.array([0.0, 1.0, 2.0])
        assert pinaw(y, y, y) == 0.0

    def test_mixed_widths(self):
        y = np.array([0.0, 4.0])
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 3.0])
        assert pinaw(y, lo, hi) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_range_rejected(self):
        y = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            pinaw(y, y - 1, y + 1)


class TestCoverageAtAlpha:
    def test_monotone_in_alpha(self, rng):
        m = random_model(rng, n_rules=5, n_inputs=2)
        X = rng.normal(size=(300, 2))
        y = rng.normal(size=300)
        assert coverage_at_alpha(m, X, y, 0.2) >= coverage_at_alpha(m, X, y, 0.8)

    def test_collapsed_interval_covers_nothing(self, rng):
        from gt2cal.core import ModelParams
        m = random_model(rng, n_rules=4, n_inputs=2)
        tight = ModelParams(c=m.c, sigma=m.sigma,
                            sigma_l=np.full(2, 1e-12), sigma_r=np.full(2, 1e-12),
                            a=m.a, a0=m.a0)
        X = rng.normal(size=(200, 2))
        y = rng.normal(size=200)  # continuous targets never hit a point interval
        assert coverage_at_alpha(tight, X, y, 1.0) == 0.0


class TestAlphaGrid:
    def test_tenth_step(self):
        grid = alpha_grid(0.1)
        np.testing.assert_allclose(
            grid, [0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])

    def test_half_step(self):
        np.testing.assert_allclose(alpha_grid(0.5), [0.01, 0.5, 1.0])

    def test_invalid_step(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                alpha_grid(bad)


class TestLookupTable:
    def test_phi_column_non_increasing_after_repair(self, rng):
        m = random_model(rng, n_rules=5, n_inputs=2)
        X = rng.normal(size=(150, 2))
        y = rng.normal(size=150)
        table = build_lookup_table(m, X, y, delta=0.1)
        assert len(table) == 11
        assert np.all(np.diff(table.phis) <= 0)

    def test_two_point_interpolation(self):
        table = CalibrationTable(alphas=np.array([0.01, 1.0]),
                                 phis=np.array([0.99, 0.50]))
        res = lookup_alpha(table, 0.745)
        assert res.alpha_star == pytest.approx(0.505, abs=1e-12)
        assert not res.out_of_range

    def test_knot_hit_returns_grid_alpha(self):
        table = CalibrationTable(alphas=np.array([0.01, 0.4, 1.0]),
                                 phis=np.array([0.95, 0.6, 0.1]))
        assert lookup_alpha(table, 0.6).alpha_star == pytest.approx(0.4)

    def test_out_of_range_clamps_with_flag(self):
        table = CalibrationTable(alphas=np.array([0.01, 1.0]),
                                 phis=np.array([0.9, 0.4]))
        high = lookup_alpha(table, 0.95)
        assert high.alpha_star == 0.01 and high.out_of_range
        low = lookup_alpha(table, 0.1)
        assert low.alpha_star == 1.0 and low.out_of_range

    def test_flat_table_cannot_invert(self):
        table = CalibrationTable(alphas=np.array([0.01, 0.5, 1.0]),
                                 phis=np.array([0.7, 0.7, 0.7]))
        with pytest.raises(FlatCurveError):
            lookup_alpha(table, 0.6)

    def test_flat_run_resolves_to_largest_alpha(self):
        table = CalibrationTable(alphas=np.array([0.01, 0.3, 0.6, 1.0]),
                                 phis=np.array([0.9, 0.7, 0.7, 0.2]))
        assert lookup_alpha(table, 0.7).alpha_star == pytest.approx(0.6)

    def test_rejects_bad_grids(self):
        cases = [
            ([0.5, 0.5], [1, 0]),
            ([0.001, 0.5], [1, 0]),
            ([0.5], [1.0]),
            ([0.01, np.nan], [0.9, 0.4]),
            # NaN compares false, so it would also pass the order check
            ([0.01, 0.5], [np.nan, 0.4]),
            ([0.01, 0.5], [0.9, np.nan]),
            ([0.01, 0.5], [np.inf, 0.4]),
            ([0.01, 0.5], [1.2, 0.4]),
            ([0.01, 0.5], [0.9, -0.1]),
            # coverage that rises with alpha is rejected, not repaired
            ([0.01, 0.5, 1.0], [0.9, 0.5, 0.6]),
        ]
        for alphas, phis in cases:
            with pytest.raises(ValueError):
                CalibrationTable(alphas=np.array(alphas), phis=np.array(phis))

    def test_rejects_non_finite_target(self):
        table = CalibrationTable(alphas=np.array([0.01, 1.0]),
                                 phis=np.array([0.9, 0.4]))
        # and every target that is not a probability strictly inside (0, 1)
        for phi_d in (np.nan, np.inf, -np.inf, 1.5, 1.0, 0.0, -1.0):
            with pytest.raises(ValueError):
                lookup_alpha(table, phi_d)


class TestCurveExport:
    def test_roundtrip(self, tmp_path, rng):
        m = random_model(rng, n_rules=4, n_inputs=2)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        table = build_lookup_table(m, X, y, delta=0.1)
        path = tmp_path / "curve.csv"
        export_calibration_curve(table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,phi"
        assert len(lines) == 12  # header + 11 grid rows
        back = read_calibration_curve(path)
        np.testing.assert_array_equal(back.alphas, table.alphas)
        np.testing.assert_array_equal(back.phis, table.phis)

    def test_written_phi_non_increasing(self, tmp_path, rng):
        m = random_model(rng, n_rules=3, n_inputs=2)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        table = build_lookup_table(m, X, y, delta=0.25)
        path = tmp_path / "curve.csv"
        export_calibration_curve(table, path)
        phis = [float(l.split(",")[1]) for l in
                path.read_text().strip().splitlines()[1:]]
        assert np.all(np.diff(phis) <= 0)

    @pytest.mark.parametrize("text", ["", "alpha,phi\n0.01,0.9\n0.5\n",
                                      "alpha,phi\n0.01,abc\n",
                                      "alpha,phi\n0.01,0.5\n1.0,0.9\n"])
    def test_malformed_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_calibration_curve(path)


class TestSearch:
    def test_converges_on_analytic_curve(self):
        cfg = SearchConfig(phi_d=0.90, alpha_init=0.5, delta=0.25,
                           gamma=0.5, epsilon=1e-3)
        res = search_alpha(linear_coverage, cfg)
        assert res.converged
        assert abs(res.phi_achieved - 0.90) < 1e-3
        assert res.iterations <= 100

    def test_zero_iterations_when_already_at_target(self):
        phi0 = linear_coverage(0.5)
        cfg = SearchConfig(phi_d=phi0, alpha_init=0.5, epsilon=1e-6)
        res = search_alpha(linear_coverage, cfg)
        assert res.iterations == 0
        assert res.converged
        assert res.alpha_star == 0.5

    def test_unreachable_target_stops_at_boundary(self):
        # nothing below phi(1) = 0.50 is reachable
        cfg = SearchConfig(phi_d=0.30, alpha_init=0.5, epsilon=1e-3)
        res = search_alpha(linear_coverage, cfg)
        assert not res.converged
        assert res.alpha_star == pytest.approx(1.0, abs=1e-6)
        assert res.phi_achieved == pytest.approx(0.50, abs=1e-6)

    def test_error_non_increasing_over_accepted_moves(self):
        # truncating the deterministic search at growing iteration caps
        # exposes the best-so-far error after each iteration
        errors = []
        for cap in range(1, 30):
            cfg = SearchConfig(phi_d=0.8, alpha_init=0.99, delta=0.25,
                               gamma=0.5, epsilon=1e-9, max_iters=cap)
            res = search_alpha(linear_coverage, cfg)
            errors.append(abs(res.phi_achieved - 0.8))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_requires_explicit_tolerance(self):
        cfg = SearchConfig(phi_d=0.9)
        with pytest.raises(ValueError):
            search_alpha(linear_coverage, cfg)

    def test_rejects_bad_configs(self):
        for kw in ({"phi_d": 0.99}, {"phi_d": 0.0},
                   {"phi_d": 0.9, "gamma": 1.0},
                   {"phi_d": 0.9, "alpha_init": 0.001},
                   {"phi_d": 0.9, "epsilon": 0.0},
                   # NaN and inf steps and tolerances, and iteration caps
                   # that are no positive integer
                   {"phi_d": 0.9, "delta": np.nan},
                   {"phi_d": 0.9, "delta": np.inf},
                   {"phi_d": 0.9, "delta": 0.0},
                   {"phi_d": 0.9, "epsilon": np.nan},
                   {"phi_d": 0.9, "epsilon": np.inf},
                   {"phi_d": 0.9, "epsilon": 1.5},
                   {"phi_d": 0.9, "max_iters": 0},
                   {"phi_d": 0.9, "max_iters": 2.5},
                   {"phi_d": 0.9, "max_iters": True}):
            with pytest.raises(ValueError):
                SearchConfig(**kw)

    def test_one_calibration_row_gets_the_default_tolerance(self, rng):
        # max(0.005, 1/Q) is 1 at Q = 1, the calibration split of 10 rows
        # under 70/15/15: a tolerance of 1 stays valid
        m = random_model(rng, n_rules=3, n_inputs=1)
        X = np.zeros((1, 1))
        res = calibrate_search(m, X, [0.0], SearchConfig(phi_d=0.8))
        assert (res.alpha_star, res.iterations, res.converged) == (0.5, 0, True)

    def test_many_random_targets_converge(self, rng):
        for _ in range(20):
            phi_d = float(rng.uniform(0.51, 0.98))
            cfg = SearchConfig(phi_d=phi_d, alpha_init=0.5, delta=0.25,
                               gamma=0.5, epsilon=1e-3)
            res = search_alpha(linear_coverage, cfg)
            assert res.converged and abs(res.phi_achieved - phi_d) <= 1e-3

    def test_tied_probes_move_up(self):
        # both probes improve the error of 0.5 to exactly 0.25: the upward,
        # narrower-interval side wins
        curve = {0.5: 1.0, 0.75: 0.25, 0.25: 0.75}
        cfg = SearchConfig(phi_d=0.5, alpha_init=0.5, delta=0.25,
                           epsilon=0.3)
        res = search_alpha(curve.__getitem__, cfg)
        assert (res.alpha_star, res.iterations, res.converged) == \
            (0.75, 1, True)

    @pytest.mark.parametrize("nan_at, move_to", [(0.25, 0.75), (0.75, 0.25)])
    def test_nan_probe_loses_to_an_improving_probe(self, nan_at, move_to):
        # a NaN error compares false both ways, so the finite probe that
        # improves is taken whichever side the NaN is on
        curve = {0.5: 1.0, 0.75: 0.25, 0.25: 0.75, nan_at: float("nan")}
        cfg = SearchConfig(phi_d=0.5, alpha_init=0.5, delta=0.25,
                           epsilon=0.3)
        res = search_alpha(curve.__getitem__, cfg)
        assert (res.alpha_star, res.iterations, res.converged) == \
            (move_to, 1, True)


@pytest.fixture(scope="module")
def wide_envelope_fit():
    """A quick 99%-envelope fit on the synthetic task, z-scored."""
    from gt2cal.harness import synthetic_heteroscedastic
    from gt2cal.training import TrainConfig, train

    X, y = synthetic_heteroscedastic(1200, seed=8)
    Xz = (X - X.mean(0)) / X.std(0)
    yz = (y - y.mean()) / y.std()
    cfg = TrainConfig.for_coverage(0.99, n_rules=5, epochs=200, seed=8)
    fitted = train(Xz, yz, cfg)
    return fitted.params, Xz, yz


class TestTrainedModelCoverage:
    def test_bottom_slice_coverage_near_training_target(self, wide_envelope_fit):
        params, Xz, yz = wide_envelope_fit
        cov = coverage_at_alpha(params, Xz, yz, 0.01)
        assert abs(cov - 0.99) <= 0.03


class TestSearchOnModel:
    def test_search_and_lookup_agree(self, rng):
        # synthetic "coverage curve" of an untrained random model is still
        # monotone, which is all the agreement property needs
        m = random_model(rng, n_rules=6, n_inputs=2)
        X = rng.normal(size=(400, 2))
        y = 0.5 * rng.normal(size=400)
        phis = build_lookup_table(m, X, y, delta=0.01)
        target = float(np.quantile(phis.phis, 0.5))
        if not 0.0 < target < 0.99:
            pytest.skip("random model's coverage range misses usable targets")
        res_search = calibrate_search(m, X, y, SearchConfig(phi_d=target))
        res_lookup = lookup_alpha(phis, target)
        cov_search = coverage_at_alpha(m, X, y, res_search.alpha_star)
        cov_lookup = coverage_at_alpha(m, X, y, res_lookup.alpha_star)
        assert abs(cov_search - cov_lookup) <= 2.0 / 400


class TestCoverageOracle:
    """Both pickers probe one oracle per calibration set."""

    @pytest.fixture
    def calib(self, rng):
        m = random_model(rng, n_rules=6, n_inputs=3)
        X = rng.normal(size=(250, 3))
        y = 0.5 * rng.normal(size=250)
        return m, X, y

    def test_lookup_table_equals_per_probe_coverage(self, calib):
        m, X, y = calib
        grid = alpha_grid(0.05)
        per_probe = [coverage_at_alpha(m, X, y, a) for a in grid]
        for a, phi in zip(grid, per_probe):
            assert phi == picp(y, *trs_batch(X, a, m))
        want = CalibrationTable(alphas=grid, phis=np.array(per_probe))
        np.testing.assert_array_equal(build_lookup_table(m, X, y, 0.05).phis,
                                      want.phis)

    @pytest.mark.parametrize("phi_d", [0.3, 0.6, 0.9])
    def test_search_equals_per_probe_search(self, calib, phi_d):
        m, X, y = calib
        cfg = SearchConfig(phi_d=phi_d)
        eps = replace(cfg, epsilon=max(0.005, 1.0 / y.size))
        want = search_alpha(lambda a: coverage_at_alpha(m, X, y, a), eps)
        assert calibrate_search(m, X, y, cfg) == want

    @pytest.mark.parametrize("phi_d", [0.3, 0.6, 0.9])
    def test_search_runs_one_slice_per_distinct_alpha(self, calib, phi_d,
                                                      monkeypatch):
        m, X, y = calib
        cfg = SearchConfig(phi_d=phi_d)
        probes = []

        def uncached(alpha):
            probes.append(alpha)
            return coverage_at_alpha(m, X, y, alpha)

        eps = replace(cfg, epsilon=max(0.005, 1.0 / y.size))
        want = search_alpha(uncached, eps)
        calls = []

        def counting(terms, alpha, params, first_row=0):
            calls.append(alpha)
            return gt2cal.core.slice_forward(terms, alpha, params, first_row)

        monkeypatch.setattr(gt2cal.calibration, "slice_forward", counting)
        assert calibrate_search(m, X, y, cfg) == want
        assert sorted(calls) == sorted(set(probes))
        assert len(calls) < len(probes)

    @pytest.mark.parametrize("phi_d", [0.3, 0.6, 0.9])
    def test_search_evaluates_only_open_rows(self, calib, phi_d, monkeypatch):
        m, X, y = calib
        rows = []

        def counting(terms, alpha, params, first_row=0):
            rows.append(terms.y.shape[1])  # the rows are the last axis
            return gt2cal.core.slice_forward(terms, alpha, params, first_row)

        monkeypatch.setattr(gt2cal.calibration, "slice_forward", counting)
        calibrate_search(m, X, y, SearchConfig(phi_d=phi_d))
        assert rows[0] == y.size
        assert len(rows) > 1 and sum(rows) < len(rows) * y.size

    def test_memberships_computed_once_per_picker(self, calib, monkeypatch):
        m, X, y = calib
        calls = []
        original = gt2cal.core.batch_terms

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # batch_terms computes memberships, under both names it is bound to
        monkeypatch.setattr(gt2cal.core, "batch_terms", counting)
        monkeypatch.setattr(gt2cal.calibration, "batch_terms", counting)
        res = calibrate_search(m, X, y, SearchConfig(phi_d=0.6))
        assert res.iterations > 0 and len(calls) == 1
        calls.clear()
        build_lookup_table(m, X, y, 0.01)
        assert len(calls) == 1


class TestNestedSearch:
    """The search evaluates only the rows its earlier probes leave open."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_per_probe_search(self, data):
        P = data.draw(st.integers(1, 8), label="P")
        M = data.draw(st.integers(1, 5), label="M")
        Q = data.draw(st.integers(1, 300), label="Q")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = random_model(rng, n_rules=P, n_inputs=M)
        X = rng.normal(size=(Q, M))
        # each row's target: noise, or on a bound of a slice the search
        # probes early (covered down to that slice, up to rounding)
        at = data.draw(st.sampled_from([0.01, 0.25, 0.5, 0.75, 1.0]),
                       label="bound")
        lo, hi = trs_batch(X, at, m)
        on_bound = rng.random(Q) < 0.5
        y = np.where(on_bound, np.where(rng.random(Q) < 0.5, lo, hi),
                     rng.normal(size=Q))
        phi_d = data.draw(st.floats(0.02, 0.98), label="phi_d")
        cfg = SearchConfig(phi_d=phi_d)

        probes = {}
        real = gt2cal.calibration.search_alpha

        def spy(coverage_fn, cfg):
            def coverage(alpha):
                probes[alpha] = coverage_fn(alpha)
                return probes[alpha]
            return real(coverage_fn=coverage, cfg=cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gt2cal.calibration, "search_alpha", spy)
            got = calibrate_search(m, X, y, cfg)
        alphas = sorted(probes)
        assert np.all(np.diff([probes[a] for a in alphas]) <= 0.0)

        hits = np.array([(lo <= y) & (y <= hi)
                         for lo, hi in (trs_batch(X, a, m) for a in alphas)]).T
        unnested = np.any(np.diff(hits.astype(int), axis=1) > 0, axis=1)
        if not np.any(unnested):
            eps = replace(cfg, epsilon=max(0.005, 1.0 / Q))
            want = search_alpha(lambda a: coverage_at_alpha(m, X, y, a), eps)
            assert got == want
        else:
            direct = coverage_at_alpha(m, X, y, got.alpha_star)
            assert abs(got.phi_achieved - direct) <= unnested.sum() / Q

    @staticmethod
    def one_rule_model():
        return ModelParams(c=np.zeros((1, 1)), sigma=np.full((1, 1), 0.01),
                           sigma_l=np.full(1, 1e-9), sigma_r=np.full(1, 1e-9),
                           a=np.zeros((1, 1)), a0=np.zeros(1))

    def test_row_outside_every_rule_raises(self):
        X = np.zeros((50, 1))
        X[37] = 100.0
        # every row's interval is [0, 0]: the first ten rows are never
        # covered, so a later probe evaluates only the other forty
        y = np.where(np.arange(50) < 10, 1.0, 0.0)
        # only the top slice sees row 37 outside every rule's support
        cfg = SearchConfig(phi_d=0.5, alpha_init=1.0)
        with pytest.raises(DegenerateFiringError, match="input row 37 "):
            calibrate_search(self.one_rule_model(), X, y, cfg)
        cfg = SearchConfig(phi_d=0.5, alpha_init=0.5, delta=0.5)
        with pytest.raises(DegenerateFiringError, match="input row 37 "):
            calibrate_search(self.one_rule_model(), X, y, cfg)

    def test_rows_path_names_the_callers_row(self):
        X = np.zeros((50, 1))
        X[37] = 100.0
        covered = _coverage_oracle(self.one_rule_model(), X, np.zeros(50))
        np.testing.assert_array_equal(covered(1.0, np.array([4, 9])),
                                      [True, True])
        with pytest.raises(DegenerateFiringError, match="input row 37 "):
            covered(1.0, np.array([4, 37, 9]))


class TestNonFiniteTargets:
    """A non-finite target is an error, not a miss."""

    @pytest.fixture
    def calib(self, rng):
        m = random_model(rng, n_rules=5, n_inputs=2)
        X = rng.normal(size=(200, 2))
        y = rng.normal(size=200)
        return m, X, y

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_picker_rejects(self, calib, bad):
        m, X, y = calib
        y = y.copy()
        y[::10] = bad
        with pytest.raises(ValueError, match="non-finite"):
            coverage_at_alpha(m, X, y, 0.01)
        with pytest.raises(ValueError, match="non-finite"):
            calibrate_search(m, X, y, SearchConfig(phi_d=0.3))
        with pytest.raises(ValueError, match="non-finite"):
            build_lookup_table(m, X, y, 0.01)

    def test_all_infinite_targets_rejected(self, calib):
        m, X, y = calib
        with pytest.raises(ValueError, match="non-finite"):
            build_lookup_table(m, X, np.full_like(y, np.inf), 0.01)

    def test_metrics_reject(self):
        y, lo, hi = np.array([np.nan, 1.0]), np.zeros(2), np.full(2, 2.0)
        with pytest.raises(ValueError, match="non-finite"):
            picp(y, lo, hi)
        with pytest.raises(ValueError, match="non-finite"):
            pinaw(y, lo, hi)

    def test_targets_must_match_rows(self, calib):
        m, X, y = calib
        with pytest.raises(ValueError, match="200 values"):
            coverage_at_alpha(m, X, y[:-1], 0.5)
        with pytest.raises(ValueError, match="empty"):
            coverage_at_alpha(m, X[:0], y[:0], 0.5)


class TestBisectionTable:
    """The table from per-row critical slices equals the per-probe table."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_per_probe_table(self, data):
        P = data.draw(st.integers(1, 8), label="P")
        M = data.draw(st.integers(1, 5), label="M")
        Q = data.draw(st.integers(1, 300), label="Q")
        delta = data.draw(st.sampled_from([0.003, 0.01, 0.05, 0.3]),
                          label="delta")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = random_model(rng, n_rules=P, n_inputs=M)
        X = rng.normal(size=(Q, M))
        grid = alpha_grid(delta)
        # each row's target: noise, on a slice bound (covered down to that
        # slice), far outside (covered at no slice) or inside the top
        # slice (covered at every slice)
        y = rng.normal(size=Q)
        kind = rng.integers(0, 4, size=Q)
        at = grid[data.draw(st.integers(0, grid.size - 1), label="bound")]
        lo, hi = trs_batch(X, at, m)
        y = np.where(kind == 1, np.where(rng.random(Q) < 0.5, lo, hi), y)
        y = np.where(kind == 2, 1e3, y)
        top_lo, top_hi = trs_batch(X, 1.0, m)
        y = np.where(kind == 3, 0.5 * (top_lo + top_hi), y)

        hits = np.array([(lo <= y) & (y <= hi)
                         for lo, hi in (trs_batch(X, a, m) for a in grid)]).T
        assert np.all(hits[kind == 1, np.searchsorted(grid, at)])
        raw = np.array([coverage_at_alpha(m, X, y, a) for a in grid])
        np.testing.assert_array_equal(raw, hits.mean(axis=0))
        got = build_lookup_table(m, X, y, delta)
        np.testing.assert_array_equal(got.alphas, grid)
        # a target within rounding of a bound that moves by an ulp from
        # slice to slice can be covered at a slice and not at a lower one;
        # only such rows may then count differently, each by 1/Q
        unnested = np.any(np.diff(hits.astype(int), axis=1) > 0, axis=1)
        if not np.any(unnested):
            np.testing.assert_array_equal(got.phis, raw)
        else:
            assert np.all(np.diff(got.phis) <= 0.0)
            assert np.all(np.abs(got.phis - raw) <= unnested.sum() / Q + 1e-12)

    @pytest.mark.parametrize("delta, passes", [
        (0.01, 9), (0.003, 11), (0.05, 7), (0.3, 4), (1 / 17, 7), (0.5, 3)])
    def test_slice_count(self, rng, monkeypatch, delta, passes):
        n = alpha_grid(delta).size
        assert passes == 2 + int(np.ceil(np.log2(max(n - 1, 1))))
        m = random_model(rng, n_rules=6, n_inputs=3)
        X = rng.normal(size=(250, 3))
        y = 0.5 * rng.normal(size=250)
        calls = []
        real = gt2cal.core._slice_firings

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # one call per slice: the firings of both ends
        monkeypatch.setattr(gt2cal.core, "_slice_firings", counting)
        build_lookup_table(m, X, y, delta)
        assert len(calls) <= passes

    @pytest.mark.parametrize("delta", [0.01, 0.003, 0.05, 0.3, 1 / 17, 0.5])
    def test_exact_slice_count(self, rng, monkeypatch, delta):
        # the top probe, then one bisection pass per bit of n - 1
        n = alpha_grid(delta).size
        m = random_model(rng, n_rules=6, n_inputs=3)
        X = rng.normal(size=(250, 3))
        y = 0.5 * rng.normal(size=250)
        calls = []
        real = gt2cal.core._slice_firings

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # one call per slice: the firings of both ends
        monkeypatch.setattr(gt2cal.core, "_slice_firings", counting)
        build_lookup_table(m, X, y, delta)
        assert len(calls) == 1 + (n - 1).bit_length()

    def test_row_outside_every_rule_raises(self):
        m = ModelParams(c=np.zeros((1, 1)), sigma=np.full((1, 1), 0.01),
                        sigma_l=np.full(1, 1e-9), sigma_r=np.full(1, 1e-9),
                        a=np.zeros((1, 1)), a0=np.zeros(1))
        X = np.zeros((50, 1))
        X[37] = 100.0
        with pytest.raises(DegenerateFiringError, match="input row 37 "):
            build_lookup_table(m, X, np.zeros(50), 0.01)
