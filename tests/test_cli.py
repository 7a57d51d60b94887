"""CLI flags, exit codes, and report emission."""

import json

import pytest

from truthval.cli import main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "seed": 1,
        "repeats": 2,
        "model": {"family": "beta-bernoulli"},
        "sources": [
            {"generator": "bernoulli", "n_points": 8, "p": 0.7},
            {"generator": "bernoulli", "n_points": 5, "p": 0.4},
        ],
        "validation": {"generator": "bernoulli", "n_points": 12, "p": 0.7},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExitCodes:
    def test_success(self, config_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--config", str(config_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 1

    def test_bad_config_contents(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"family": "quantum"}, "sources": []}))
        assert main(["--config", str(path)]) == 1

    def test_input_error_exit_code(self, tmp_path, capsys):
        cfg = {
            "model": {"family": "beta-bernoulli"},
            "sources": [
                {"csv": str(tmp_path / "missing.csv"), "output_column": "y", "kind": "binary"}
            ],
            "validation": {"generator": "bernoulli", "n_points": 4},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, config_path, capsys, monkeypatch):
        from truthval.errors import NumericalError

        def explode(config):
            raise NumericalError("synthetic factorization failure")

        monkeypatch.setattr("truthval.cli.run_experiment", explode)
        assert main(["--config", str(config_path)]) == 3
        assert "numerical error" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "model",
        [
            {"family": "gaussian-known-var"},
            {"family": "bayes-linreg", "n_features": 1},
            {"family": "gp"},
        ],
        ids=lambda model: model["family"],
    )
    def test_nan_cell_in_a_source_exits_2(self, tmp_path, capsys, model):
        good = tmp_path / "good.csv"
        good.write_text("x,y\n0.1,1.0\n0.4,0.5\n0.9,-0.2\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.2,0.3\n0.5,nan\n0.8,0.1\n")
        cfg = {
            "model": model,
            "sources": [
                {"csv": str(good), "output_column": "y"},
                {"csv": str(bad), "output_column": "y"},
            ],
            "validation": {"csv": str(good), "output_column": "y"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "bad.csv" in err and "NaN" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_rewards_exit_3(self, tmp_path, capsys):
        # Finite but huge outputs overflow the Gaussian predictive.
        huge = tmp_path / "huge.csv"
        huge.write_text("y\n1e300\n-1e300\n")
        cfg = {
            "model": {"family": "gaussian-known-var"},
            "standardize_outputs": False,
            "sources": [{"csv": str(huge), "output_column": "y"}],
            "validation": {"csv": str(huge), "output_column": "y", "subset_fraction": 1.0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestFlags:
    def test_stdout_json_by_default(self, config_path, capsys):
        assert main(["--config", str(config_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 1

    def test_seed_override(self, config_path, capsys):
        main(["--config", str(config_path), "--seed", "99"])
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_csv_format(self, config_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["--config", str(config_path), "--format", "csv", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "repeat,source,strategy,value,reward"

    def test_threads_env_honored_and_overridden(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv("TRUTHVAL_THREADS", "2")
        main(["--config", str(config_path)])
        assert json.loads(capsys.readouterr().out)["config"]["threads"] == 2
        main(["--config", str(config_path), "--threads", "4"])
        assert json.loads(capsys.readouterr().out)["config"]["threads"] == 4

    def test_sampled_non_shapley_weights_exit_0(self, tmp_path, capsys):
        cfg = {
            "model": {"family": "beta-bernoulli"},
            "sources": [{"generator": "bernoulli", "n_points": 5}] * 2,
            "validation": {"generator": "bernoulli", "n_points": 8},
            "weights": "banzhaf",
            "estimator": "sampled",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 2

    def test_bad_threads_env(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv("TRUTHVAL_THREADS", "many")
        assert main(["--config", str(config_path)]) == 1

    def test_same_config_same_bytes_modulo_wall_time(self, config_path, capsys):
        main(["--config", str(config_path)])
        first = json.loads(capsys.readouterr().out)
        main(["--config", str(config_path)])
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_time_s"), second.pop("wall_time_s")
        assert first == second


def two_source_cross_validation(**overrides):
    """Two 6-row Bernoulli sources rewarded without a validation set."""
    cfg = {
        "model": {"family": "beta-bernoulli"},
        "sources": [{"generator": "bernoulli", "n_points": 6, "p": 0.6}] * 2,
        "post": {"kind": "cross-validation"},
        "weights": "banzhaf",
    }
    cfg.update(overrides)
    return cfg


class TestConfigurationErrorsExit1:
    def run(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["--config", str(path)])
        return code, capsys.readouterr().err

    def test_csv_source_without_output_column(self, tmp_path, capsys, config_path):
        cfg = json.loads(config_path.read_text())
        data = tmp_path / "data.csv"
        data.write_text("y\n1\n0\n")
        cfg["sources"][0] = {"csv": str(data), "kind": "binary"}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "output_column" in err

    def test_non_string_weight_family_sweep_value(self, tmp_path, capsys, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["sweep"] = {"axis": "weight-family", "values": [3]}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "weight-family" in err

    def test_weights_list(self, tmp_path, capsys, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["weights"] = ["shapley"]
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "weights" in err

    def test_cross_validation_rejects_sampled_estimator(self, tmp_path, capsys):
        cfg = two_source_cross_validation(estimator={"kind": "sampled", "permutations": 1})
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "sampled" in err

    def test_cross_validation_honors_exact_limit(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, two_source_cross_validation())[0] == 0
        cfg = two_source_cross_validation(estimator={"exact_limit": 1})
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "exact" in err
