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

    @pytest.mark.parametrize(
        "model", [{"family": "gp"}, {"family": "bayes-linreg", "n_features": 1}]
    )
    def test_header_only_validation_csv_exits_2(self, tmp_path, capsys, model):
        data, empty = tmp_path / "data.csv", tmp_path / "empty.csv"
        data.write_text("x,y\n0.1,1.0\n0.4,0.5\n0.9,-0.2\n")
        empty.write_text("x,y\n")
        spec = {"csv": str(data), "output_column": "y"}
        cfg = {
            "model": model,
            "sources": [spec, spec],
            "validation": {"csv": str(empty), "output_column": "y"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "input error: [table] validation set must be non-empty"
        )

    def test_featureless_pool_cannot_keep_a_sorted_fraction(self, tmp_path, capsys):
        data = tmp_path / "outputs.csv"
        data.write_text("y\n0.3\n-1.2\n0.8\n2.0\n")
        spec = {"csv": str(data), "output_column": "y"}
        cfg = {
            "model": {"family": "gaussian-known-var"},
            "sources": [spec, spec],
            "validation": {**spec, "sorted_fraction": 0.5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "no order to sort by" in err

    def test_numerical_error_exit_code(self, config_path, capsys, monkeypatch):
        from truthval.errors import NumericalError

        def explode(config):
            raise NumericalError("synthetic factorization failure")

        monkeypatch.setattr("truthval.cli.run_experiment", explode)
        assert main(["--config", str(config_path)]) == 3
        assert "numerical error" in capsys.readouterr().err


class TestGpKernelNotPositiveDefinite:
    def run(self, tmp_path, dvf, jitter):
        # Two sources share inputs 0..3, 20 lengthscales apart, and the noise
        # is below half an ulp of the kernel diagonal: appending the second
        # source to the first leaves a singular block unless jitter is set.
        specs = []
        for i, ys in enumerate([(0.3, -1.2, 0.8, 2.0), (1.1, 0.4, -0.6, 0.2)]):
            path = tmp_path / f"source{i}.csv"
            path.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in enumerate(ys)))
            specs.append({"csv": str(path), "output_column": "y"})
        cfg = {
            "model": {"family": "gp", "lengthscales": 0.05, "noise_var": 1e-17, "jitter": jitter},
            "sources": specs,
            "dvf": dvf,
        }
        if dvf == "log-score":
            cfg["validation"] = specs[0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return main(["--config", str(path)])

    def test_log_score_exits_3_naming_noise_and_jitter(self, tmp_path, capsys):
        assert self.run(tmp_path, "log-score", 0.0) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:")
        assert "noise_var 1e-17 with jitter 0; a larger model 'jitter'" in err
        assert self.run(tmp_path, "log-score", 1e-6) == 0

    @pytest.mark.parametrize("jitter", [0.0, 1e-6])
    def test_info_gain_exits_3_at_any_jitter(self, tmp_path, capsys, jitter):
        assert self.run(tmp_path, "info-gain", jitter) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "noise_var 1e-17 with no jitter" in err
        assert "larger" not in err


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
        assert err.startswith("configuration error:") and "sweep['values'][0]" in err
        assert "weight family" in err

    def test_negative_scaled_gamma(self, tmp_path, capsys, config_path):
        # budget * phi / (max phi + gamma) exceeds the budget for gamma < 0.
        cfg = json.loads(config_path.read_text())
        cfg["post"] = {"kind": "scaled", "budget": 1.0, "gamma": -0.05}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "post['gamma'] must be" in err

    @pytest.mark.parametrize(
        "section, where",
        [("strategies", "strategies[1]"), ("sweep", "sweep['values'][1]")],
    )
    def test_binary_flip_level_above_one(self, tmp_path, capsys, config_path, section, where):
        # On binary labels the noise-output level is a flip probability; a
        # level of 1 flips every label and runs, a level above 1 is refused.
        cfg = json.loads(config_path.read_text())
        for level, want in ((1.0, 0), (1.5, 1)):
            flip = {"tag": "noise-output", "level": level}
            if section == "strategies":
                cfg["strategies"] = ["truthful", flip]
            else:
                cfg["sweep"] = {"axis": "strategy-grid", "source": 0, "values": ["truthful", flip]}
            code, err = self.run(tmp_path, capsys, cfg)
            assert code == want
        assert err.startswith("configuration error:") and f"{where}['level']" in err
        assert "flip probability" in err and "1.5" in err

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

    # A two-source run that could sample: an auto estimator is exact here too.
    @pytest.mark.parametrize("kind", ["exact", "auto"])
    def test_exact_estimator_takes_no_permutations(self, tmp_path, capsys, config_path, kind):
        cfg = json.loads(config_path.read_text())
        cfg["estimator"] = {"kind": kind, "permutations": 7}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:")
        assert f"unknown config key estimator['permutations'] (kind '{kind}')" in err

    @pytest.mark.parametrize(
        "changes",
        [{"post": "none", "dvf": "cardinality"}, {}],
        ids=["validation-free-dvf", "cross-validation"],
    )
    def test_exact_only_run_refuses_permutations(self, tmp_path, capsys, changes):
        # Such a run cannot sample, and no auto estimator takes the key.
        cfg = two_source_cross_validation(estimator={"permutations": 7}, **changes)
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:")
        assert "unknown config key estimator['permutations'] (kind 'auto')" in err

    def test_cross_validation_honors_exact_limit(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, two_source_cross_validation())[0] == 0
        cfg = two_source_cross_validation(sources=[{"generator": "bernoulli", "n_points": 6}] * 21)
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "21 sources exceed the limit of 20" in err

    @pytest.mark.parametrize("dvf", ["mean-log-score", "cardinality"])
    def test_cross_validation_rejects_other_dvf(self, tmp_path, capsys, dvf):
        # Cross-validation games are scored by log-score; any other dvf
        # would be ignored, so it is refused.
        code, err = self.run(tmp_path, capsys, two_source_cross_validation(dvf=dvf))
        assert code == 1
        assert err.startswith("configuration error:")
        assert "post 'cross-validation'" in err and f"dvf {dvf!r}" in err

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
        # The lattice's pool is the 10 rows of the one validation subset:
        # 8 bytes x (120 rows x (6 inputs + 120 factor + 10 pool + 2 white)
        # + 3 stack levels x (2 x 10 pool means + a 10 x 10 validation covariance)
        # + a 60-row append after 60 rows: 60 x (2 x 60 + 60 + 2 x 10)).
        assert err.startswith("configuration error:") and "needs 0.000231 GB" in err
        assert "a 10-row validation pool" in err

    @pytest.mark.parametrize(
        "changes",
        [
            {"validation": {"generator": "bernoulli", "n_points": 10, "sorted_fraction": 0.5}},
            {"sweep": {"axis": "sorted-fraction", "values": [0.5, 1.0]}},
        ],
        ids=["section", "sweep"],
    )
    def test_sorted_fraction_of_a_bernoulli_pool(self, tmp_path, capsys, config_path, changes):
        cfg = {**json.loads(config_path.read_text()), **changes}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "sorted_fraction" in err

    @pytest.mark.parametrize(
        "changes, says",
        [
            ({"validation": {"generator": "bernoulli", "n_points": 10, "noise_sd": 0.5}},
             "'bernoulli'"),
            ({"sweep": {"axis": "validation-noise", "values": [0.0, 0.5]}}, "'bernoulli'"),
            ({"validation": {"csv": "missing.csv", "output_column": "y", "kind": "binary",
                             "noise_sd": 0.5}}, "binary outputs"),
            ({"validation": {"csv": "missing.csv", "output_column": "y", "kind": "binary"},
              "sweep": {"axis": "validation-noise", "values": [0.0, 0.5]}}, "binary outputs"),
        ],
        ids=["bernoulli-key", "sweep", "binary-csv-key", "binary-csv-sweep"],
    )
    def test_noise_sd_of_a_binary_pool(self, tmp_path, capsys, config_path, changes, says):
        # Gaussian output noise is undefined for binary outputs. A Bernoulli
        # spec has no noise_sd key, and a binary CSV pool refuses a nonzero
        # one; both before any data is read.
        cfg = {**json.loads(config_path.read_text()), **changes}
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "noise_sd" in err and says in err

    def test_cross_validation_split_that_leaves_no_remainder(self, tmp_path, capsys):
        cfg = {
            "model": {"family": "gp"},
            "sources": [{"generator": "friedman", "n_points": n} for n in (2, 2, 3)],
            "post": {"kind": "cross-validation", "validation_frac": 0.9},
        }
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "source 0 has 2 points" in err

    @pytest.mark.parametrize(
        "changes, section",
        [
            ({"validation": {"generator": "friedman", "n_points": 8}}, "sources[0]"),
            ({"dvf": "cardinality"}, "sources[0]"),
            ({"post": "cross-validation"}, "sources[0]"),
            (
                {
                    "sources": [{"generator": "linear", "n_points": 4}] * 2,
                    "validation": {"generator": "bernoulli", "n_points": 8},
                },
                "validation",
            ),
            (
                {
                    "sources": [
                        {"generator": "friedman", "n_points": 4},
                        {"csv": "missing.csv", "output_column": "y", "kind": "binary"},
                    ],
                    "validation": {"generator": "friedman", "n_points": 8},
                },
                "sources[1]",
            ),
        ],
        ids=["log-score", "cardinality", "cross-validation", "validation", "csv-unread"],
    )
    def test_data_kind_must_match_the_model(self, tmp_path, capsys, changes, section):
        # Two Bernoulli sources under a regression model, changed as given;
        # the mismatch is refused before any data is read.
        cfg = {
            "model": {"family": "gaussian-known-var"},
            "sources": [{"generator": "bernoulli", "n_points": 6}] * 2,
            **changes,
        }
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith(f"configuration error: {section} holds")
        assert "'gaussian-known-var'" in err

    def test_standardize_outputs_must_be_boolean(self, tmp_path, capsys, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["standardize_outputs"] = "no"
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "standardize_outputs" in err

    def test_standardize_outputs_needs_a_regression_model(self, tmp_path, capsys, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["standardize_outputs"] = True
        code, err = self.run(tmp_path, capsys, cfg)
        assert code == 1
        assert err.startswith("configuration error:") and "standardize_outputs" in err
        assert "'beta-bernoulli'" in err

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
            (("validation",), {"generator": "friedman", "n_points": 8, "noise_sd": -1}),
            (("validation",), {"csv": "pool.csv", "output_column": "y", "noise_sd": -1}),
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
            "sorted-fraction-0", "validation-noise-sd", "csv-validation-noise-sd",
            "validation-fraction-sweep", "sorted-fraction-sweep", "budget", "budget-a",
            "scaled-budget", "validation-frac-1",
        ],
    )
    def test_out_of_range_value(self, tmp_path, capsys, config_path, path, value):
        code, err = self.run(tmp_path, capsys, config_path, path, value)
        assert code == 1
        assert err.startswith("configuration error:")
        assert "must be" in err

    def test_out_of_range_validation_noise_sweep(self, tmp_path, capsys, config_path):
        # On a regression pool: a Bernoulli pool refuses the axis before its
        # values are checked.
        config_path.write_text(json.dumps({
            "model": {"family": "gaussian-known-var"},
            "sources": [{"generator": "friedman", "n_points": 5}] * 2,
            "validation": {"generator": "friedman", "n_points": 8},
        }))
        sweep = {"axis": "validation-noise", "values": [-1, 0]}
        code, err = self.run(tmp_path, capsys, config_path, ("sweep",), sweep)
        assert code == 1
        assert err.startswith("configuration error:") and "sweep['values'][0] must be" in err

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
            cfg["estimator"] = {"kind": "sampled", "permutations": 3} if path == "sampled" else path
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
    @staticmethod
    def payloads(tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        payloads = []
        for threads in ("1", "2"):
            assert main(["--config", str(path), "--threads", threads]) == 0
            report = json.loads(capsys.readouterr().out)
            payloads.append(json.dumps([report["rows"], report["summary"]]))
        return payloads

    @pytest.mark.parametrize(
        "estimator", ["exact", {"kind": "sampled", "permutations": 40}], ids=["exact", "sampled"]
    )
    def test_gp_strategy_grid_same_rows_at_any_thread_count(self, tmp_path, capsys, estimator):
        # Standardized: one lattice for the three points, per repeat when sampled.
        cfg = {
            "seed": 5,
            "repeats": 2,
            "model": {"family": "gp", "lengthscales": 0.7, "noise_var": 0.1},
            "sources": [{"generator": "friedman", "n_points": n} for n in (10, 8, 6)],
            "validation": {"generator": "friedman", "n_points": 16},
            "estimator": estimator,
            "standardize_outputs": True,
            "sweep": {
                "axis": "strategy-grid",
                "source": 1,
                "values": ["truthful", {"tag": "noise-output", "level": 2.0}, "duplicate"],
            },
        }
        payloads = self.payloads(tmp_path, capsys, cfg)
        assert payloads[0] == payloads[1]
        assert len(json.loads(payloads[0])[0]) == 3 * 2 * 3

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
        payloads = self.payloads(tmp_path, capsys, cfg)
        assert payloads[0] == payloads[1]
