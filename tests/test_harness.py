import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gt2cal.cli import UsageError, _rows_for_split
from gt2cal.core import predict_batch
from gt2cal.errors import DegenerateFiringError, SchemaError
from gt2cal.harness import (
    NormalizationStats,
    _seed_config,
    format_report,
    load_csv,
    load_model,
    rmse,
    run_pipeline,
    save_model,
    split,
    synthetic_heteroscedastic,
)
from gt2cal.training import ENVELOPE, TrainConfig, _forward_at, train

from conftest import random_model


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] +
                              [",".join(str(v) for v in r) for r in rows]) + "\n")


class TestLoadCsv:
    def test_numeric_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a", "b", "t"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        ds = load_csv(p, "t")
        assert ds.n_rows == 3 and ds.n_features == 2
        assert ds.feature_names == ["a", "b"]
        np.testing.assert_array_equal(ds.y, [3, 6, 9])
        assert ds.n_dropped == 0

    def test_non_numeric_row_dropped(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a", "t"], [[1, 2], ["NA", 4], [5, 6]])
        ds = load_csv(p, "t")
        assert ds.n_rows == 2
        assert ds.n_dropped == 1

    def test_target_by_index(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a", "b"], [[1, 2], [3, 4]])
        ds = load_csv(p, 0)
        np.testing.assert_array_equal(ds.y, [1, 3])
        assert ds.target_name == "a"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "t")

    def test_unknown_target(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError, match="target column"):
            load_csv(p, "zzz")

    @pytest.mark.parametrize("target", ["y", 0])
    def test_target_column_alone_is_rejected(self, tmp_path, target):
        p = tmp_path / "y_only.csv"
        write_csv(p, ["y"], [[1], [2], [3]])
        with pytest.raises(ValueError, match=r"y_only\.csv.*'y'"):
            load_csv(p, target)

    def test_all_rows_unusable(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a", "b"], [["x", "y"]])
        with pytest.raises(ValueError, match="no usable"):
            load_csv(p, "b")


class TestNormalization:
    def test_fit_transform_basics(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        stats = NormalizationStats.fit(X, y)
        Xz, yz = stats.apply(X, y)
        np.testing.assert_allclose(Xz[:, 0], [-1.22474487, 0.0, 1.22474487])
        np.testing.assert_allclose(yz, Xz[:, 0])
        assert abs(Xz.mean()) < 1e-12 and abs(Xz.std() - 1) < 1e-12

    def test_roundtrip(self, rng):
        X = rng.normal(size=(40, 3)) * 5 + 2
        y = rng.normal(size=40) * 3 - 1
        stats = NormalizationStats.fit(X, y)
        _, yz = stats.apply(X, y)
        np.testing.assert_allclose(stats.invert_y(yz), y, atol=1e-12)
        np.testing.assert_allclose(stats.invert_x(stats.apply(X)), X, atol=1e-12)

    def test_no_leakage_from_other_splits(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        stats = NormalizationStats.fit(X[:60], y[:60])
        # statistics ignore the held-out rows entirely
        X2 = X.copy()
        X2[60:] = 1e6
        stats2 = NormalizationStats.fit(X2[:60], y[:60])
        np.testing.assert_array_equal(stats.x_mean, stats2.x_mean)
        # applying train stats leaves held-out data non-centered in general
        Xz = stats.apply(X[60:])
        assert abs(Xz.mean()) > 1e-3

    @pytest.mark.parametrize("kw, match", [
        ({"x_std": [1.0, 0.0]}, "finite and positive"),
        ({"y_std": 0.0}, "finite and positive"),
        ({"x_std": [1.0, np.inf]}, "finite and positive"),
        ({"y_std": np.inf}, "finite and positive"),
        ({"x_mean": [0.0, 0.0, 0.0]}, r"shape \(3,\) and shape \(2,\)"),
        ({"x_std": [1.0]}, r"shape \(2,\) and shape \(1,\)"),
    ])
    def test_constructor_checks_its_fields(self, kw, match):
        fields = dict(x_mean=[0.0, 0.0], x_std=[1.0, 1.0], y_mean=0.0,
                      y_std=1.0)
        with pytest.raises(ValueError, match=match):
            NormalizationStats(**{**fields, **kw})

    def test_zero_variance_named(self):
        X = np.ones((10, 2))
        X[:, 0] = np.arange(10)
        y = np.arange(10.0)
        with pytest.raises(ValueError, match="temperature"):
            NormalizationStats.fit(X, y, feature_names=["x0", "temperature"])


class TestSplit:
    def test_sizes_70_15_15(self):
        parts = split(100, "70/15/15", seed=1)
        assert (len(parts.train), len(parts.calib), len(parts.test)) == (70, 15, 15)

    def test_remainder_goes_to_train(self):
        parts = split(101, "70/15/15", seed=1)
        assert (len(parts.train), len(parts.calib), len(parts.test)) == (71, 15, 15)

    def test_disjoint_and_complete(self):
        parts = split(57, "70/15/15", seed=9)
        joined = np.concatenate([parts.train, parts.calib, parts.test])
        assert sorted(joined.tolist()) == list(range(57))

    def test_85_15_has_empty_calibration(self):
        parts = split(100, "85/15", seed=2)
        assert (len(parts.train), len(parts.calib), len(parts.test)) == (85, 0, 15)

    def test_deterministic(self):
        a = split(200, "70/15/15", seed=5)
        b = split(200, "70/15/15", seed=5)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            split(100, "50/50", seed=0)


class TestRmse:
    def test_perfect(self):
        y = np.array([1.0, 2.0])
        assert rmse(y, y) == 0.0

    def test_three_four_residuals(self):
        assert rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(
            3.5355339059327378, abs=1e-12)

    def test_shift_invariance(self, rng):
        y = rng.normal(size=20)
        yhat = rng.normal(size=20)
        assert rmse(y + 5, yhat + 5) == pytest.approx(rmse(y, yhat), rel=1e-12)


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        m = random_model(rng, n_rules=4, n_inputs=3)
        stats = NormalizationStats.fit(rng.normal(size=(30, 3)),
                                       rng.normal(size=30))
        path = tmp_path / "model.json"
        save_model(path, m, stats=stats, train_config=TrainConfig(),
                   metadata={"note": "roundtrip"})
        bundle = load_model(path)
        for f in ("c", "sigma", "sigma_l", "sigma_r", "a", "a0"):
            np.testing.assert_array_equal(getattr(bundle.params, f),
                                          getattr(m, f))
        np.testing.assert_array_equal(bundle.stats.x_mean, stats.x_mean)
        assert bundle.metadata["note"] == "roundtrip"
        assert bundle.train_config == TrainConfig()

    def test_predictions_identical_after_roundtrip(self, tmp_path, rng):
        m = random_model(rng, n_rules=5, n_inputs=2)
        path = tmp_path / "model.json"
        save_model(path, m)
        loaded = load_model(path).params
        X = rng.normal(size=(50, 2))
        lo1, hi1, p1 = predict_batch(X, 0.05, m)
        lo2, hi2, p2 = predict_batch(X, 0.05, loaded)
        assert np.array_equal(lo1, lo2)
        assert np.array_equal(hi1, hi2)
        assert np.array_equal(p1, p2)

    def test_missing_field_named(self, tmp_path, rng):
        m = random_model(rng, n_rules=2, n_inputs=2)
        path = tmp_path / "model.json"
        save_model(path, m)
        doc = json.loads(path.read_text())
        del doc["params"]["sigma_r"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="sigma_r"):
            load_model(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(SchemaError):
            load_model(path)

    def test_corrupted_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_model(path)


class TestMalformedFields:
    """A field of the wrong type is a schema error that names the field."""

    @staticmethod
    def _write(tmp_path, rng, section, **fields):
        m = random_model(rng, n_rules=2, n_inputs=2)
        path = tmp_path / "model.json"
        save_model(path, m)
        doc = json.loads(path.read_text())
        if section is None:
            doc.update(fields)
        else:
            doc[section].update(fields)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("value", [
        {"x": 1},                  # an object
        "abc",                     # a string that is not a number
        [[1.0, 2.0], [3.0]],       # a ragged list
        [[10 ** 400, 0.0], [0.0, 0.0]],  # an integer past the float range
    ])
    def test_param_field_not_numeric(self, tmp_path, rng, value):
        path = self._write(tmp_path, rng, "params", c=value)
        with pytest.raises(SchemaError, match=r"params\.c"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("normalization", 5), ("train_config", [0.5]), ("metadata", "seed 1")])
    def test_block_not_an_object(self, tmp_path, rng, field, value):
        # the CLI reads train_config and metadata with dict.get
        path = self._write(tmp_path, rng, None, **{field: value})
        with pytest.raises(SchemaError, match=field):
            load_model(path)

    def test_model_without_inputs_does_not_load(self, tmp_path, rng):
        # it would load and then fail at the first prediction
        path = self._write(tmp_path, rng, "params", c=[[]], sigma=[[]],
                           sigma_l=[], sigma_r=[], a=[[]], a0=[0.0])
        with pytest.raises(SchemaError, match="at least one"):
            load_model(path)


_DROP = object()

#: Every field of a saved model with a normalization block, as key paths.
_FIELD_PATHS = (
    [("kind",), ("schema_version",), ("params",)]
    + [("params", f) for f in ("c", "sigma", "sigma_l", "sigma_r", "a", "a0")]
    + [("normalization",)]
    + [("normalization", k) for k in ("x_mean", "x_std", "y_mean", "y_std")]
    + [("train_config",), ("train_config", "planes"), ("metadata",)]
    + [("metadata", "scheme"), ("metadata", "seed")])

# Finite values span the whole float64 range: a model that loads must run
# also with consequents near the float limit.
_numbers = (st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([float("nan"), float("inf"), float("-inf")]))
_json_values = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=4)
    | st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


def _numbers_shaped(shape):
    """Nested lists of numbers with the given shape."""
    if not shape:
        return _numbers
    return st.lists(_numbers_shaped(shape[1:]), min_size=shape[0],
                    max_size=shape[0])


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    rng = np.random.default_rng(7)
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    stats = NormalizationStats.fit(rng.normal(size=(30, 2)), rng.normal(size=30))
    save_model(path, random_model(rng, n_rules=3, n_inputs=2), stats=stats,
               train_config=TrainConfig(),
               metadata={"scheme": "70/15/15", "seed": 3})
    return path, json.loads(path.read_text())


class TestModelFileFuzz:
    """A model file either fails to load with SchemaError, or it runs."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loads_and_runs_or_is_rejected(self, saved_model, data):
        path, original = saved_model
        doc = copy.deepcopy(original)
        *parents, key = data.draw(st.sampled_from(_FIELD_PATHS), label="field")
        owner = doc
        for name in parents:
            owner = owner[name]
        value = data.draw(st.just(_DROP) | _json_values
                          | _numbers_shaped(np.shape(owner[key])), label="value")
        if value is _DROP:
            del owner[key]
        else:
            owner[key] = value
        path.write_text(json.dumps(doc))

        try:
            bundle = load_model(path)
        except SchemaError:
            return
        # the file's split, as ``gt2cal evaluate --split test`` redoes it
        try:
            _rows_for_split(bundle.metadata, 20, "test", 0)
        except UsageError:
            pass  # trained without a split: --split all is required
        X = np.zeros((1, bundle.params.n_inputs))
        # at the planes of the point the file trained, as ``gt2cal
        # evaluate`` serves it, and at the file's own planes
        cfg = bundle.train_config or TrainConfig()
        for planes in (cfg.point_planes, cfg.planes):
            try:
                out = predict_batch(X, 0.37, bundle.params, planes)
            except DegenerateFiringError:
                return
            assert all(np.all(np.isfinite(v)) for v in out)


class TestNormalizationBlockChecks:
    """A model file whose normalization block cannot run must not load."""

    @staticmethod
    def _write(tmp_path, rng, **norm):
        m = random_model(rng, n_rules=3, n_inputs=2)
        stats = NormalizationStats(x_mean=np.zeros(2), x_std=np.ones(2),
                                   y_mean=0.0, y_std=1.0)
        path = tmp_path / "model.json"
        save_model(path, m, stats=stats)
        doc = json.loads(path.read_text())
        doc["normalization"].update(norm)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("key", ["x_mean", "x_std"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_vector_length_must_match_inputs(self, tmp_path, rng, key, length):
        path = self._write(tmp_path, rng, **{key: [1.0] * length})
        with pytest.raises(SchemaError, match=r"shape \(2,\)"):
            load_model(path)

    @pytest.mark.parametrize("norm", [
        {"x_std": [0.0, 1.0]},
        {"x_std": [1.0, -2.0]},
        {"x_std": [1.0, float("inf")]},
        {"y_std": 0.0},
        {"y_std": float("nan")},
    ])
    def test_deviations_must_be_finite_and_positive(self, tmp_path, rng, norm):
        path = self._write(tmp_path, rng, **norm)
        with pytest.raises(SchemaError, match="finite and positive"):
            load_model(path)

    def test_means_must_be_finite(self, tmp_path, rng):
        path = self._write(tmp_path, rng, x_mean=[0.0, float("nan")])
        with pytest.raises(SchemaError, match="finite"):
            load_model(path)

    def test_non_numeric_value_is_a_schema_error(self, tmp_path, rng):
        path = self._write(tmp_path, rng, y_mean="centre")
        with pytest.raises(SchemaError, match="normalization"):
            load_model(path)

    def test_valid_block_loads(self, tmp_path, rng):
        path = self._write(tmp_path, rng, x_mean=[1.5, -2.0], x_std=[0.5, 3.0])
        stats = load_model(path).stats
        np.testing.assert_array_equal(stats.x_std, [0.5, 3.0])


class TestTrainConfigBlockChecks:
    """A model file whose train_config block TrainConfig rejects must not
    load: ``gt2cal evaluate`` runs the file at its planes."""

    @staticmethod
    def _write(tmp_path, rng, **overrides):
        path = tmp_path / "model.json"
        save_model(path, random_model(rng, n_rules=3, n_inputs=2),
                   train_config=TrainConfig())
        doc = json.loads(path.read_text())
        doc["train_config"].update(overrides)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("overrides", [
        {"planes": [0.0]}, {"planes": "abc"}, {"planes": []},
        {"point_output": "typo"}, {"n_layers": 2}, {"epochs": 2.5}])
    def test_rejected_block_does_not_load(self, tmp_path, rng, overrides):
        path = self._write(tmp_path, rng, **overrides)
        with pytest.raises(SchemaError, match="train_config"):
            load_model(path)

    def test_valid_block_loads_as_a_train_config(self, tmp_path, rng):
        path = self._write(tmp_path, rng, planes=[0.5, 1.0])
        assert load_model(path).train_config.planes == (0.5, 1.0)


class TestMetadataSplitChecks:
    """A model file loads only if ``--split`` can redo the split its
    metadata names: ``gt2cal evaluate --split test`` runs it."""

    @pytest.mark.parametrize("metadata", [
        {"seed": 1.5}, {"seed": "x"}, {"seed": True}, {"seed": -1},
        {"seed": None}, {"scheme": ["a"]}, {"scheme": "60/20/20"},
        {"scheme": None}])
    def test_unredoable_split_does_not_load(self, tmp_path, rng, metadata):
        path = tmp_path / "model.json"
        save_model(path, random_model(rng, n_rules=3, n_inputs=2),
                   metadata={"scheme": "70/15/15", "seed": 3, **metadata})
        with pytest.raises(SchemaError, match="metadata"):
            load_model(path)


@pytest.fixture(scope="module")
def small_pipeline_reports():
    X, y = synthetic_heteroscedastic(400, seed=0)
    cfg = TrainConfig(n_rules=4, epochs=40, seed=0)
    cal = run_pipeline(X, y, [0.8], seeds=[1, 2], mode="calibrated",
                       train_cfg=cfg, dataset_name="tiny")
    direct = run_pipeline(X, y, [0.8], seeds=[1, 2], mode="direct",
                          train_cfg=cfg, dataset_name="tiny")
    return cal, direct


class TestPipeline:
    def test_rejects_unreachable_target(self):
        X, y = synthetic_heteroscedastic(100, seed=0)
        with pytest.raises(ValueError, match="0.99"):
            run_pipeline(X, y, [0.995], seeds=[1])

    def test_report_structure(self, small_pipeline_reports):
        cal, direct = small_pipeline_reports
        assert len(cal.runs) == 2 and len(direct.runs) == 2
        assert cal.mode == "calibrated" and direct.mode == "direct"
        for run in cal.runs:
            assert run.alpha_star is not None
            assert 0.01 <= run.alpha_star <= 1.0
        for run in direct.runs:
            assert run.alpha_star is None

    def test_aggregate_matches_rows(self, small_pipeline_reports):
        cal, _ = small_pipeline_reports
        mean, std = cal.aggregate("picp", 0.8)
        vals = [r.picp for r in cal.runs_for(0.8)]
        assert mean == pytest.approx(np.mean(vals), abs=1e-12)
        assert std == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    @pytest.mark.parametrize("mode, scheme, phi", [
        ("calibrated", "70/15/15", ENVELOPE), ("direct", "85/15", 0.8)])
    def test_seed_records_the_trained_point_rmse(self, small_pipeline_reports,
                                                 mode, scheme, phi):
        # the default alpha0 fit trains the bottom slice's centre: that is
        # the point a seed scores, not the centre of the plane stack
        rep = dict(zip(("calibrated", "direct"), small_pipeline_reports))[mode]
        X, y = synthetic_heteroscedastic(400, seed=0)
        parts = split(len(y), scheme, 1)
        stats = NormalizationStats.fit(X[parts.train], y[parts.train])
        Xtr, ytr = stats.apply(X[parts.train], y[parts.train])
        Xte, yte = stats.apply(X[parts.test], y[parts.test])
        cfg = _seed_config(TrainConfig(n_rules=4, epochs=40, seed=0), phi, 1)
        params = train(Xtr, ytr, cfg).params
        trained = _forward_at(Xte, yte, params, cfg).point
        assert rep.runs_for(0.8)[0].seed == 1
        assert rep.runs_for(0.8)[0].rmse == pytest.approx(rmse(yte, trained),
                                                          rel=1e-12)

    def test_five_seed_report_has_row_per_seed(self):
        X, y = synthetic_heteroscedastic(300, seed=5)
        cfg = TrainConfig(n_rules=3, epochs=8, seed=0)
        rep = run_pipeline(X, y, [0.8], seeds=[1, 2, 3, 4, 5], train_cfg=cfg)
        assert len(rep.runs) == 5
        assert [r.seed for r in rep.runs] == [1, 2, 3, 4, 5]
        mean, std = rep.aggregate("rmse", 0.8)
        assert np.isfinite(mean) and np.isfinite(std)

    def test_deterministic_report(self):
        X, y = synthetic_heteroscedastic(300, seed=3)
        cfg = TrainConfig(n_rules=3, epochs=10, seed=0)
        r1 = run_pipeline(X, y, [0.8], seeds=[4], train_cfg=cfg)
        r2 = run_pipeline(X, y, [0.8], seeds=[4], train_cfg=cfg)
        assert r1.runs == r2.runs

    def test_format_report_contains_metrics(self, small_pipeline_reports):
        text = format_report(list(small_pipeline_reports))
        assert "RMSE" in text and "PICP" in text and "PINAW" in text
        assert "calibrated(80%)" in text and "direct(80%)" in text

    def test_failed_seed_recorded_not_fatal(self):
        X, y = synthetic_heteroscedastic(60, seed=1)
        y = y.copy()
        y[:3] = np.inf  # guarantees a training failure for any seed
        rep = run_pipeline(X, y, [0.8], seeds=[1, 2],
                           train_cfg=TrainConfig(n_rules=2, epochs=2))
        assert len(rep.failures) == 2
        assert rep.runs == []
