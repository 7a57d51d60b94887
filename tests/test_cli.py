"""CLI flags, exit codes, and report emission."""

import json

import pytest

from truthval import valuation
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
        cfg = two_source_cross_validation(sources=[{"generator": "bernoulli", "n_points": 6}] * 21)
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "21 sources exceed the limit of 20" in err

    @pytest.mark.parametrize(
        "n, changes, reason",
        [
            (2, {"dvf": "cardinality", "estimator": "sampled"}, "sampled estimator is not"),
            (21, {"estimator": "exact"}, "21 sources exceed the limit of 20"),
            (21, {"dvf": "cardinality"}, "21 sources exceed the limit of 20"),
            (65, {"estimator": "sampled"}, "65 sources exceed the limit of 64"),
        ],
        ids=["sampled-cardinality", "exact-21", "cardinality-21", "sampled-65"],
    )
    def test_source_limits(self, tmp_path, capsys, n, changes, reason):
        cfg = {
            "model": {"family": "beta-bernoulli"},
            "sources": [{"generator": "bernoulli", "n_points": 3}] * n,
            "validation": {"generator": "bernoulli", "n_points": 4},
            **changes,
        }
        if "dvf" in changes:
            del cfg["validation"]
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and reason in err

    def test_source_limit_is_checked_before_any_source_is_read(self, tmp_path, capsys):
        missing = {"csv": str(tmp_path / "missing.csv"), "output_column": "y", "kind": "binary"}
        code, err = self.run(tmp_path, capsys, two_source_cross_validation(sources=[missing] * 21))
        assert code == 1
        assert err.startswith("configuration error:") and "limit of 20" in err

    @pytest.mark.parametrize(
        "changes",
        [{"dvf": "cardinality"}, {"post": "cross-validation"}],
        ids=["validation-free-dvf", "cross-validation"],
    )
    def test_validation_section_that_is_never_read(self, tmp_path, capsys, config_path, changes):
        cfg = {**json.loads(config_path.read_text()), **changes}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "never reads" in err

    @pytest.mark.parametrize(
        "axis, changes, reason",
        [
            ("friedman-alpha", {}, "'bernoulli' validation spec"),
            ("friedman-beta", {"validation": {"generator": "linear", "n_points": 8}},
             "'linear' validation spec"),
            ("validation-noise", {"validation": None, "dvf": "cardinality"}, "no validation"),
            ("validation-fraction", {"post": "cross-validation"}, "no validation"),
            ("sorted-fraction", {"dvf": "cardinality"}, "no validation"),
        ],
        ids=["alpha-bernoulli-pool", "beta-linear-pool", "no-validation-section",
             "cross-validation", "validation-free-dvf"],
    )
    def test_numeric_sweep_that_changes_nothing(
        self, tmp_path, capsys, config_path, axis, changes, reason
    ):
        cfg = {**json.loads(config_path.read_text()), **changes}
        cfg["sweep"] = {"axis": axis, "values": [0.25, 0.5]}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and axis in err and reason in err

    def test_gp_lattice_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(valuation, "_physical_memory", lambda: 100_000)
        cfg = {
            "model": {"family": "gp"},
            "sources": [{"generator": "friedman", "n_points": 60}] * 2,
            "validation": {"generator": "friedman", "n_points": 20},
        }
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        # 8 bytes x (120 rows x (6 inputs + 120 factor + 20 pool + 1 white)
        # + 3 stack levels x (20 pool means + a 10 x 10 validation covariance)
        # + a 60-row append after 60 rows: 60 x (2 x 60 + 60 + 3 x 20)).
        assert err.startswith("configuration error:") and "needs 0.000259 GB" in err

    def test_standardize_outputs_must_be_boolean(self, tmp_path, capsys, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["standardize_outputs"] = "no"
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "standardize_outputs" in err

    @pytest.mark.parametrize(
        "post, key",
        [
            ({"kind": "budget"}, "budget"),
            ({"kind": "scaled"}, "budget"),
            ({"kind": "budget", "budget": 1.0, "a": "x"}, "a"),
            ({"kind": "scaled", "budget": 1.0, "gamma": "x"}, "gamma"),
        ],
    )
    def test_post_processing_needs_numeric_settings(
        self, tmp_path, capsys, config_path, post, key
    ):
        cfg = json.loads(config_path.read_text())
        cfg["post"] = post
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and repr(key) in err

    @pytest.mark.parametrize(
        "key, value",
        [("post", ["budget"]), ("estimator", ["exact"]), ("sweep", "x")],
    )
    def test_section_that_is_not_an_object(self, tmp_path, capsys, config_path, key, value):
        cfg = json.loads(config_path.read_text())
        cfg[key] = value
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and key in err

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--threads", "2"]])
    def test_top_level_list_with_override_flag(self, tmp_path, capsys, flag):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([{"seed": 1}]))
        assert main(["--config", str(path), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "JSON object" in err

    def test_estimator_key_typo(self, tmp_path, capsys, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["estimator"] = {"permutaions": 5}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "permutaions" in err


def _with(cfg, path, value):
    """``cfg`` with the entry at ``path`` (a tuple of keys and indices) set to ``value``."""
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


class TestSchemaErrorsExit1:
    """Values of the wrong JSON type and keys no section uses are configuration
    errors, never tracebacks or silently ignored settings."""

    def run(self, tmp_path, capsys, config_path, path, value):
        cfg = _with(json.loads(config_path.read_text()), path, value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["--config", str(cfg_path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("sweep",), {"axis": "validation-noise", "values": ["a"]}),
            (("sweep",), {"axis": "validation-noise", "values": [None]}),
            (("model", "alpha"), "2"),
            (("model", "alpha"), None),
            (("model",), {"family": "gp", "lengthscales": "a"}),
            (("model",), {"family": "gp", "jitter": "x"}),
            (("sources", 0, "p"), "x"),
            (("sources", 0), {"generator": "linear", "n_points": 5, "weights": "ab"}),
            (("strategies",), [{"tag": "subset", "frac": "x"}, "truthful"]),
            (("validation", "subset_fraction"), "a"),
            (("validation", "noise_sd"), "x"),
            (("post",), {"kind": "cross-validation", "validation_frac": "x"}),
            (("weights",), {"family": "beta", "alpha": "2", "beta": 1}),
        ],
        ids=[
            "sweep-value-string", "sweep-value-null", "model-alpha-string",
            "model-alpha-null", "gp-lengthscales", "gp-jitter", "bernoulli-p",
            "linear-weights", "strategy-frac", "subset-fraction", "validation-noise-sd",
            "validation-frac", "beta-weights-alpha",
        ],
    )
    def test_non_numeric_value(self, tmp_path, capsys, config_path, path, value):
        code, err = self.run(tmp_path, capsys, config_path, path, value)
        assert code == 1
        assert err.startswith("configuration error:")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("sources", 0, "n_points"), -1),
            (("sources", 0), {"generator": "linear", "n_points": -1}),
            (("sources", 0), {"generator": "friedman", "n_points": -1}),
            (("sources", 0), {"generator": "linear", "n_points": 5, "noise_sd": -1}),
            (("sources", 0, "p"), 1.5),
            (("sources", 0, "p"), -0.1),
            (("validation", "subset_fraction"), 0),
            (("validation", "subset_fraction"), 1.5),
            (("validation", "sorted_fraction"), 0.0),
            (("validation", "noise_sd"), -1),
            (("sweep",), {"axis": "validation-noise", "values": [-1, 0]}),
            (("sweep",), {"axis": "validation-fraction", "values": [0.5, 2.0]}),
            (("sweep",), {"axis": "sorted-fraction", "values": [0.0, 1.0]}),
            (("post",), {"kind": "budget", "budget": -1}),
            (("post",), {"kind": "budget", "budget": 1.0, "a": 0}),
            (("post",), {"kind": "scaled", "budget": 0}),
            (("post",), {"kind": "cross-validation", "validation_frac": 1.0}),
        ],
        ids=[
            "bernoulli-n-points", "linear-n-points", "friedman-n-points", "linear-noise-sd",
            "p-above-1", "p-below-0", "subset-fraction-0", "subset-fraction-above-1",
            "sorted-fraction-0", "validation-noise-sd", "validation-noise-sweep",
            "validation-fraction-sweep", "sorted-fraction-sweep", "budget", "budget-a",
            "scaled-budget", "validation-frac-1",
        ],
    )
    def test_out_of_range_value(self, tmp_path, capsys, config_path, path, value):
        code, err = self.run(tmp_path, capsys, config_path, path, value)
        assert code == 1
        assert err.startswith("configuration error:")
        assert "must be" in err

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("sources", 0, "pp"), 0.7, "pp"),
            (("model", "alpah"), 2.0, "alpah"),
            (("validation", "subset_fracton"), 0.5, "subset_fracton"),
            (("post",), {"kind": "scaled", "budget": 1.0, "gama": 0.1}, "gama"),
            (("weights",), {"family": "shapley", "alpha": 2.0}, "alpha"),
            (("sweep",), {"axis": "validation-noise", "source": 0, "values": [0.0]}, "source"),
            (("dvf",), {"kind": "log-score", "extra": 1}, "extra"),
            (("strategies",), "truthful", "strategies"),
            (
                ("sweep",),
                {"axis": "strategy-grid", "source": True, "values": ["truthful"]},
                "source",
            ),
        ],
        ids=[
            "source-typo", "model-typo", "validation-typo", "post-typo", "shapley-alpha",
            "numeric-sweep-source", "dvf-extra-key", "strategies-string", "sweep-source-bool",
        ],
    )
    def test_error_names_the_key(self, tmp_path, capsys, config_path, path, value, key):
        code, err = self.run(tmp_path, capsys, config_path, path, value)
        assert code == 1
        assert err.startswith("configuration error:") and key in err


class TestInconsistentSources:
    @pytest.mark.parametrize("path", ["exact", "sampled", "cross-validation"])
    def test_feature_count_mismatch_exits_2_with_one_message(self, tmp_path, capsys, path):
        one = tmp_path / "one.csv"
        one.write_text("x,y\n0.1,1.0\n0.4,0.5\n0.9,-0.2\n0.3,0.3\n")
        two = tmp_path / "two.csv"
        two.write_text("a,b,y\n0.1,0.2,1.0\n0.4,0.1,0.5\n0.9,0.5,-0.2\n0.3,0.3,0.3\n")
        cfg = {
            "model": {"family": "gp"},
            "sources": [
                {"csv": str(one), "output_column": "y"},
                {"csv": str(two), "output_column": "y"},
            ],
        }
        if path == "cross-validation":
            cfg["post"] = {"kind": "cross-validation", "validation_frac": 0.5}
        else:
            cfg["validation"] = {"csv": str(one), "output_column": "y"}
            cfg["estimator"] = {"kind": path, "permutations": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        # The pipeline stage in brackets differs by path; the message does not.
        assert err.startswith("input error: [")
        assert err.split("] ", 1)[1].strip() == (
            "datasets do not match: 1 features (regression) and 2 features (regression)"
        )


class TestDeterminism:
    def test_gp_cross_validation_same_rows_at_any_thread_count(self, tmp_path, capsys):
        cfg = {
            "seed": 3,
            "repeats": 3,
            "model": {"family": "gp", "lengthscales": 0.7, "noise_var": 0.1},
            "sources": [
                {"generator": "friedman", "n_points": n, "noise_sd": 0.5} for n in (12, 9, 10)
            ],
            "post": {"kind": "cross-validation", "variant": "breve"},
            "sweep": {
                "axis": "strategy-grid",
                "source": 0,
                "values": ["truthful", {"tag": "duplicate", "copies": 2}],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        payloads = []
        for threads in ("1", "2"):
            assert main(["--config", str(path), "--threads", threads]) == 0
            report = json.loads(capsys.readouterr().out)
            payloads.append(json.dumps([report["rows"], report["summary"]]))
        assert payloads[0] == payloads[1]
