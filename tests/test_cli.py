import csv
import json

import numpy as np
import pytest

from gt2cal.cli import _load_dataset, _rows_for_split, main
from gt2cal.harness import load_model, synthetic_heteroscedastic
from gt2cal.training import _forward_at


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    X, y = synthetic_heteroscedastic(700, seed=12)
    rows = [f"{x[0]},{t}" for x, t in zip(X, y)]
    path.write_text("x,target\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, dataset_csv):
    out = tmp_path_factory.mktemp("model") / "model.json"
    log = out.with_suffix(".log.csv")
    code = main(["--seed", "3", "train", "--data", str(dataset_csv),
                 "--target", "target", "--phi", "0.99", "--rules", "5",
                 "--epochs", "300", "--scheme", "70/15/15",
                 "--out", str(out), "--log-out", str(log)])
    assert code == 0
    return out, log


class TestTrainCommand:
    def test_writes_model_and_log(self, trained_model):
        out, log = trained_model
        bundle = load_model(out)
        assert bundle.params.n_rules == 5
        assert bundle.metadata["scheme"] == "70/15/15"
        with log.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "picp_alpha0", "rmse"]
        assert len(rows) == 301

    def test_explicit_tau_pair(self, tmp_path, dataset_csv):
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(dataset_csv), "--target", "target",
                     "--taus", "0.1", "0.9", "--rules", "2", "--epochs", "2",
                     "--out", str(out)])
        assert code == 0
        assert load_model(out).train_config.tau_hi == 0.9


class TestCalibrateCommand:
    def test_search_method(self, tmp_path, dataset_csv, trained_model):
        record = tmp_path / "cal.json"
        code = main(["--seed", "3", "calibrate", "--model", str(trained_model[0]),
                     "--data", str(dataset_csv), "--target", "target",
                     "--phi-d", "0.85", "--method", "search",
                     "--out", str(record)])
        assert code == 0
        doc = json.loads(record.read_text())
        assert doc["phi_d"] == 0.85
        assert 0.01 <= doc["alpha_star"] <= 1.0
        assert abs(doc["phi_achieved"] - 0.85) < 0.05

    def test_lookup_method_with_curve(self, tmp_path, dataset_csv, trained_model):
        curve = tmp_path / "curve.csv"
        code = main(["--seed", "3", "calibrate", "--model", str(trained_model[0]),
                     "--data", str(dataset_csv), "--target", "target",
                     "--phi-d", "0.85", "--method", "lookup",
                     "--delta", "0.1", "--curve-out", str(curve)])
        assert code == 0
        with curve.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "phi"]
        assert len(rows) == 12  # header + 11 grid points

    @pytest.mark.parametrize("method", ["search", "lookup"])
    @pytest.mark.parametrize("phi_d", ["1.5", "0", "-1"])
    def test_target_outside_the_unit_interval_is_rejected(
            self, capsys, dataset_csv, trained_model, method, phi_d):
        code = main(["--seed", "3", "calibrate", "--model", str(trained_model[0]),
                     "--data", str(dataset_csv), "--target", "target",
                     "--phi-d", phi_d, "--method", method])
        assert code == 2
        captured = capsys.readouterr()
        assert "coverage target" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("method", ["search", "lookup"])
    def test_zero_delta_is_rejected(self, dataset_csv, trained_model, method):
        code = main(["--seed", "3", "calibrate", "--model", str(trained_model[0]),
                     "--data", str(dataset_csv), "--target", "target",
                     "--phi-d", "0.85", "--method", method, "--delta", "0"])
        assert code == 2


class TestEvaluateCommand:
    def test_prints_metrics(self, capsys, dataset_csv, trained_model):
        code = main(["--seed", "3", "evaluate", "--model", str(trained_model[0]),
                     "--data", str(dataset_csv), "--target", "target",
                     "--alpha", "0.01", "--split", "test"])
        assert code == 0
        out = capsys.readouterr().out
        metrics = dict(line.split() for line in out.strip().splitlines())
        assert 0.8 <= float(metrics["picp"]) <= 1.0
        assert float(metrics["pinaw"]) > 0

    @pytest.mark.parametrize("block", ["kept", "null"])
    def test_scores_the_trained_point(self, tmp_path, capsys, dataset_csv,
                                      trained_model, block):
        # the model trained the bottom slice's centre (alpha0, the
        # TrainConfig default a file without a training block is served as)
        model = trained_model[0]
        bundle = load_model(model)
        if block == "null":
            doc = json.loads(model.read_text())
            doc["train_config"] = None
            model = tmp_path / "model.json"
            model.write_text(json.dumps(doc))
        code = main(["--seed", "3", "evaluate", "--model", str(model),
                     "--data", str(dataset_csv), "--target", "target",
                     "--split", "test"])
        assert code == 0
        metrics = dict(line.split()
                       for line in capsys.readouterr().out.splitlines())
        X, y, _ = _load_dataset(str(dataset_csv), "target", 3)
        rows = _rows_for_split(bundle.metadata, len(y), "test", 3)
        Xz, yz = bundle.stats.apply(X[rows], y[rows])
        trained = _forward_at(Xz, yz, bundle.params, bundle.train_config).point
        assert float(metrics["rmse"]) == pytest.approx(
            float(np.sqrt(np.mean((yz - trained) ** 2))), abs=5e-7)

    def test_feature_mismatch_is_usage_error(self, tmp_path, trained_model):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,t\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n"
                       "13,14,15\n16,17,18\n19,20,21\n22,23,24\n"
                       "25,26,27\n28,29,30\n")
        code = main(["evaluate", "--model", str(trained_model[0]),
                     "--data", str(bad), "--target", "t"])
        assert code == 1

    @pytest.mark.parametrize("metadata", [
        {"seed": 1.5}, {"seed": "x"}, {"scheme": ["a"]}])
    def test_unredoable_split_is_an_error_not_a_traceback(
            self, tmp_path, capsys, dataset_csv, trained_model, metadata):
        # unchecked, such metadata would reach split() and raise TypeError
        doc = json.loads(trained_model[0].read_text())
        doc["metadata"].update(metadata)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(["evaluate", "--model", str(model), "--data",
                     str(dataset_csv), "--target", "target",
                     "--split", "test"])
        assert code == 2
        assert "metadata" in capsys.readouterr().err


class TestCurveCommand:
    def test_curve_rows(self, tmp_path, dataset_csv, trained_model):
        out = tmp_path / "c.csv"
        code = main(["--seed", "3", "curve", "--model", str(trained_model[0]),
                     "--data", str(dataset_csv), "--target", "target",
                     "--delta", "0.25", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "alpha,phi"
        assert len(rows) == 1 + 5  # grid 0.01, 0.25, 0.5, 0.75, 1.0
        # phi column non-increasing
        phis = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))


class TestReportCommand:
    def test_synthetic_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "demo", "data": "synthetic:300:7", "phi_d": [0.8],
            "seeds": [1, 2], "modes": ["calibrated"],
            "epochs": 15, "n_rules": 3,
        }))
        rows_csv = tmp_path / "rows.csv"
        code = main(["report", "--spec", str(spec), "--out-csv", str(rows_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "demo" in out and "PICP" in out
        with rows_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["seed"] for r in rows} == {"1", "2"}

    @pytest.mark.parametrize("doc, named", [
        # the flag is --rules, but the spec key is n_rules
        ({"data": "synthetic:300:7", "phi_d": [0.8], "seeds": [1],
          "modes": ["direct"], "epochs": 1, "rules": 500}, "'rules'"),
        (["data", "phi_d"], "JSON object"),
    ])
    def test_malformed_spec_is_usage_error(self, tmp_path, capsys, doc, named):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["report", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("epochs", "2"), ("epochs", 2.5), ("epochs", True), ("lr", "0.01")])
    def test_spec_value_of_the_wrong_type_is_usage_error(self, tmp_path,
                                                         capsys, key, value):
        spec = tmp_path / "spec.json"
        doc = {"data": "synthetic:300:7", "phi_d": [0.8], "seeds": [1],
               "modes": ["direct"], "epochs": 1}
        spec.write_text(json.dumps({**doc, key: value}))
        assert main(["report", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        # TrainConfig's own check, which names the field
        assert f"usage error: spec: {key} must be" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("seeds", 3), ("seeds", [True]), ("seeds", []), ("seeds", [1, 2.0]),
        ("modes", "direct"), ("modes", ["direct", "drect"]), ("modes", []),
        ("phi_d", [0.8, "x"]), ("phi_d", True), ("phi_d", []),
        ("phi_d", "0.8"), ("phi_d", [1.5]), ("phi_d", 0.0),
        ("phi_d", 10 ** 400)])
    def test_spec_pipeline_key_is_checked_before_the_data_loads(
            self, tmp_path, capsys, monkeypatch, key, value):
        def no_load(*args):
            raise AssertionError("the dataset loaded")

        monkeypatch.setattr("gt2cal.cli._load_dataset", no_load)
        spec = tmp_path / "spec.json"
        doc = {"data": "synthetic:300:7", "phi_d": [0.8], "seeds": [1],
               "modes": ["direct"], "epochs": 1}
        spec.write_text(json.dumps({**doc, key: value}))
        assert main(["report", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert f"spec key {key!r}" in captured.err
        assert captured.out == ""

    # Python's json reads NaN and Infinity as floats and a 401-digit number
    # as an int, so they pass the type check; the value check runs before
    # the dataset loads
    @pytest.mark.parametrize("lr", ["NaN", "Infinity", "-Infinity", "0",
                                    "0.0", "-0.001", "1" + "0" * 400])
    def test_spec_learning_rate_out_of_range_is_usage_error(
            self, tmp_path, capsys, monkeypatch, lr):
        def no_load(*args):
            raise AssertionError("the dataset loaded")

        monkeypatch.setattr("gt2cal.cli._load_dataset", no_load)
        spec = tmp_path / "spec.json"
        spec.write_text('{"data": "synthetic:300:7", "phi_d": [0.8], '
                        '"seeds": [1], "modes": ["direct"], "epochs": 1, '
                        f'"lr": {lr}}}')
        assert main(["report", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert "usage error: spec: lr must be" in captured.err
        assert captured.out == ""

    def test_csv_header_when_every_seed_fails(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        # 500 rules cannot be placed on 210 training rows
        spec.write_text(json.dumps({
            "data": "synthetic:300:7", "phi_d": [0.8], "seeds": [1, 2],
            "modes": ["calibrated"], "epochs": 2, "n_rules": 500,
        }))
        rows_csv = tmp_path / "rows.csv"
        code = main(["report", "--spec", str(spec), "--out-csv", str(rows_csv)])
        assert code == 0
        assert "seed 1 failed" in capsys.readouterr().err
        with rows_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [["dataset", "mode", "seed", "phi_d", "rmse", "picp",
                         "pinaw", "alpha_star", "phi_achieved", "iterations",
                         "converged"]]


class TestUsageAndErrors:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["train", "--nonsense"]) == 1

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["evaluate", "--model", str(tmp_path / "no.json"),
                     "--data", "synthetic:50"]) == 2

    def test_csv_with_only_the_target_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "y_only.csv"
        data.write_text("y\n" + "\n".join(str(i) for i in range(20)) + "\n")
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--target", "y",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "y_only.csv" in err and "'y'" in err
        assert not out.exists()

    def test_config_file_defaults_and_overrides(self, tmp_path, dataset_csv):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("epochs = 2\nrules = 2\n# comment\n")
        out = tmp_path / "m.json"
        code = main(["--config", str(cfg), "train", "--data", str(dataset_csv),
                     "--target", "target", "--rules", "3", "--out", str(out)])
        assert code == 0
        bundle = load_model(out)
        assert bundle.train_config.epochs == 2      # from config file
        assert bundle.params.n_rules == 3           # flag overrides config

    def test_config_file_with_equals_form(self, tmp_path, dataset_csv):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("epochs = 2\nrules = 2\n")
        out = tmp_path / "m.json"
        code = main([f"--config={cfg}", "train", "--data", str(dataset_csv),
                     "--target", "target", "--out", str(out)])
        assert code == 0
        bundle = load_model(out)
        assert bundle.train_config.epochs == 2
        assert bundle.params.n_rules == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("not_a_real_option = 5\n")
        assert main(["--config", str(cfg), "train", "--data", "synthetic:50",
                     "--out", "x.json"]) == 1

    def test_config_cannot_name_the_subcommand(self, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("command = train\n")
        assert main(["--config", str(cfg)]) == 1

    def test_config_without_a_file_is_usage_error(self, capsys):
        assert main(["--config"]) == 1
        assert "--config" in capsys.readouterr().err


class TestConfigValues:
    """A config value is converted and checked exactly as its flag is."""

    @pytest.mark.parametrize("line", ["epochs = true", "epochs = 2.0",
                                      "rules = 2.5", "minibatch = 1e2"])
    def test_bad_train_value_is_usage_error(self, tmp_path, dataset_csv, line):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "m.json"
        code = main(["--config", str(cfg), "train", "--data", str(dataset_csv),
                     "--target", "target", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, command", [
        ("method = serch", ["calibrate", "--phi-d", "0.85"]),
        ("split = tst", ["evaluate"]),
    ])
    def test_bad_choice_is_usage_error(self, tmp_path, capsys, dataset_csv,
                                       trained_model, line, command):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(line + "\n")
        code = main(["--config", str(cfg), "--seed", "3", *command,
                     "--model", str(trained_model[0]), "--data", str(dataset_csv),
                     "--target", "target"])
        assert code == 1
        bad = line.split(" = ")[1]
        assert f"invalid choice: '{bad}'" in capsys.readouterr().err

    def test_choice_from_config_equals_the_flag(self, tmp_path, capsys,
                                                dataset_csv, trained_model):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("split = calib\nalpha = 0.3\n")
        base = ["--seed", "3", "evaluate", "--model", str(trained_model[0]),
                "--data", str(dataset_csv), "--target", "target"]
        assert main(["--config", str(cfg), *base]) == 0
        from_config = capsys.readouterr().out
        assert main([*base, "--split", "calib", "--alpha", "0.3"]) == 0
        assert capsys.readouterr().out == from_config

    def test_multi_value_option_is_not_a_config_key(self, tmp_path, dataset_csv):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("taus = 0.1\n")
        out = tmp_path / "m.json"
        code = main(["--config", str(cfg), "train", "--data", str(dataset_csv),
                     "--target", "target", "--epochs", "1", "--out", str(out)])
        assert code == 1
        assert not out.exists()
