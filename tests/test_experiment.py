"""End-to-end experiment runner behavior."""

import csv
import io
import json
import time

import numpy as np
import pytest

from truthval import experiment
from truthval.datagen import derive_seed, load_csv
from truthval.errors import ConfigurationError
from truthval.experiment import (
    ExperimentConfig,
    _materialize,
    emit_report,
    render_report,
    run_experiment,
)


def _schema_sections(spec, found):
    """Every named section reachable from ``spec`` in the config schema."""
    if isinstance(spec, experiment._Named):
        if spec not in found:
            found.append(spec)
        tables = list(spec.tables.values())
    elif isinstance(spec, list):
        return _schema_sections(spec[0], found)
    elif isinstance(spec, dict):
        tables = [spec]
    else:
        return found
    for table in tables:
        for item, _ in table.values():
            _schema_sections(item, found)
    return found


BERNOULLI = {
    "seed": 11,
    "repeats": 3,
    "model": {"family": "beta-bernoulli"},
    "sources": [
        {"generator": "bernoulli", "n_points": 10, "p": 0.7},
        {"generator": "bernoulli", "n_points": 6, "p": 0.4},
    ],
    "validation": {
        "generator": "bernoulli",
        "n_points": 16,
        "p": 0.7,
        "subset_fraction": 0.5,
    },
}


FRIEDMAN_POOL = {"generator": "friedman", "n_points": 8}


def bernoulli_config(**overrides):
    return ExperimentConfig.from_dict({**BERNOULLI, **overrides})


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config"):
            bernoulli_config(typo=1)

    def test_strategy_count_must_match_sources(self):
        with pytest.raises(ConfigurationError):
            bernoulli_config(strategies=["truthful"])

    def test_sweep_source_must_exist(self):
        with pytest.raises(ConfigurationError):
            bernoulli_config(
                sweep={"axis": "strategy-grid", "source": 5, "values": ["truthful"]}
            )

    def test_numeric_sweep_must_be_ordered(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            bernoulli_config(
                sweep={"axis": "validation-noise", "values": [0.5, 0.1]}
            )

    def test_log_score_needs_validation_section(self):
        with pytest.raises(ConfigurationError, match="validation"):
            ExperimentConfig.from_dict(
                {
                    "model": {"family": "beta-bernoulli"},
                    "sources": [{"generator": "bernoulli", "n_points": 4}],
                }
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"validation": {"generator": "bernoulli", "n_points": 8}},
            {"model": {"family": "gaussian-known-var"}},
            {"model": {"family": "bayes-linreg", "n_features": 1}},
            {"model": {"family": "gp", "lengthscales": [0.5]}},
            {"sources": [{"generator": "friedman", "n_points": 5, "alpha": 0.3}] * 2},
            {"sources": [{"generator": "linear", "n_points": 5, "weights": [1.0]}] * 2},
            {"sources": [{"csv": "data.csv", "output_column": "y"}] * 2},
            {"post": {"kind": "budget", "budget": 0.5}},
            {"post": {"kind": "scaled", "budget": 1}},
            {"post": "cross-validation", "validation": None},
            {"sweep": {"axis": "strategy-grid", "source": 1,
                       "values": ["truthful", {"tag": "duplicate", "copies": 2}]}},
            {"sweep": {"axis": "validation-fraction", "values": [0.25, 1]}},
            {"sweep": {"axis": "validation-noise", "values": [0.0, 0.5]}},
            {"sweep": {"axis": "friedman-alpha", "values": [0, 1]}, "validation": FRIEDMAN_POOL},
            {"sweep": {"axis": "friedman-beta", "values": [0, 1]}, "validation": FRIEDMAN_POOL},
            {"sweep": {"axis": "sorted-fraction", "values": [0.5, 1.0]}},
            {"sweep": {"axis": "weight-family",
                       "values": ["shapley", {"family": "beta", "alpha": 4, "beta": 1}]}},
        ],
        ids=[
            "base", "validation-defaults", "gaussian-known-var", "bayes-linreg", "gp", "friedman",
            "linear", "csv", "budget", "scaled", "cross-validation", "strategy-grid",
            "validation-fraction", "validation-noise", "friedman-alpha", "friedman-beta",
            "sorted-fraction", "weight-family",
        ],
    )
    def test_config_echo_round_trips_through_json(self, overrides):
        cfg = bernoulli_config(**overrides)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.resolved)))
        assert again.resolved == cfg.resolved
        # The echo holds the defaults that ran.
        resolved, given = cfg.resolved, {**BERNOULLI, **overrides}
        assert resolved["strategies"] == ["truthful"] * 2 and resolved["dvf"] == "log-score"
        # auto is echoed as the estimator it chose.
        assert resolved["estimator"] == {"kind": "exact", "permutations": 3000}
        if given["validation"] is not None:
            assert resolved["validation"]["subset_fraction"] == given["validation"].get(
                "subset_fraction", 0.5
            )
            assert resolved["validation"]["sorted_fraction"] == 1.0
        assert all("generator" in spec for spec in resolved["sources"])

    @pytest.mark.parametrize(
        "section, variant",
        [
            (section, variant)
            for section in _schema_sections(experiment._CONFIG, [])
            for variant in section.tables
        ],
        ids=lambda item: item if isinstance(item, str) else item.what.replace(" ", "-"),
    )
    def test_every_schema_section_rejects_unknown_keys(self, section, variant):
        with pytest.raises(ConfigurationError, match="zz_typo"):
            experiment._walk({section.key: variant, "zz_typo": 1}, section, section.what)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 1.7},
            {"repeats": True},
            {"threads": "2"},
            {"estimator": {"permutations": 100.0}},
            {"model": {"family": "bayes-linreg", "n_features": 2.0}},
        ],
        ids=["seed", "repeats", "threads", "permutations", "n_features"],
    )
    def test_integer_fields_reject_non_integers(self, overrides):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            bernoulli_config(**overrides)

    def test_generator_n_points_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="n_points must be an integer"):
            _materialize({"generator": "bernoulli", "n_points": 4.5}, seed=0)


def skewed_bernoulli_config(**overrides):
    """Three Bernoulli sources of very different sizes: Shapley, Banzhaf and
    individual rewards of source 0 all differ here."""
    return bernoulli_config(
        seed=0,
        repeats=1,
        sources=[{"generator": "bernoulli", "n_points": k, "p": 0.7} for k in (5, 20, 60)],
        validation={"generator": "bernoulli", "n_points": 40, "p": 0.7, "subset_fraction": 1.0},
        **overrides,
    )


class TestSampledWeights:
    @pytest.mark.parametrize("family", ["banzhaf", "individual"])
    def test_other_weights_match_exact(self, family):
        sampled = skewed_bernoulli_config(
            weights=family, estimator={"kind": "sampled", "permutations": 4000}
        )
        got = [row.reward for row in run_experiment(sampled).rows]
        want = [row.reward for row in run_experiment(skewed_bernoulli_config(weights=family)).rows]
        shapley = run_experiment(skewed_bernoulli_config()).rows[0].reward
        np.testing.assert_allclose(got, want, rtol=0.05, atol=0.01)
        # Source 0's Shapley, Banzhaf and individual rewards are far apart here.
        assert abs(got[0] - want[0]) < abs(got[0] - shapley) / 5

    def test_sampled_runs_weight_sweep(self):
        report = run_experiment(
            skewed_bernoulli_config(
                estimator="sampled",
                sweep={"axis": "weight-family", "values": ["shapley", "banzhaf"]},
            )
        )
        rewards = {row.sweep: row.reward for row in report.rows if row.source == 0}
        assert rewards["banzhaf"] < rewards["shapley"] - 0.01

    def test_auto_samples_beyond_exact_limit(self):
        sources = [{"generator": "bernoulli", "n_points": 3, "p": 0.6}] * 21
        auto, sampled = (
            bernoulli_config(sources=sources, estimator={"kind": kind, "permutations": 20})
            for kind in ("auto", "sampled")
        )
        assert auto.resolved == sampled.resolved
        assert auto.resolved["estimator"]["kind"] == "sampled"
        rows = run_experiment(auto).rows
        assert len(rows) == 3 * 21
        assert rows == run_experiment(sampled).rows


class TestConfigShapes:
    def test_filled_in_defaults_are_not_shared_between_configs(self):
        def linear_config():
            return bernoulli_config(sources=[{"generator": "linear", "n_points": 4}])

        linear_config().resolved["sources"][0]["weights"].append(2.0)
        assert linear_config().resolved["sources"][0]["weights"] == [1.0]

    def test_csv_source_needs_output_column(self):
        with pytest.raises(ConfigurationError, match="output_column"):
            bernoulli_config(sources=[{"csv": "data.csv"}])

    def test_csv_validation_needs_output_column(self):
        with pytest.raises(ConfigurationError, match="output_column"):
            bernoulli_config(validation={"csv": "data.csv"})

    @pytest.mark.parametrize("value", [3, ["shapley"], None])
    def test_weight_family_sweep_values_are_names_or_objects(self, value):
        with pytest.raises(ConfigurationError, match="weight-family sweep value"):
            bernoulli_config(sweep={"axis": "weight-family", "values": ["shapley", value]})

    def test_weights_must_not_be_a_list(self):
        with pytest.raises(ConfigurationError, match="weights must be"):
            bernoulli_config(weights=["shapley"])

    def test_cross_validation_rejects_sampled_estimator(self):
        with pytest.raises(ConfigurationError, match="cross-validation"):
            bernoulli_config(post={"kind": "cross-validation"}, estimator="sampled")


class TestRunner:
    def test_single_source_reward_equals_value(self):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 2,
                "repeats": 2,
                "model": {"family": "beta-bernoulli"},
                "sources": [{"generator": "bernoulli", "n_points": 9, "p": 0.6}],
                "validation": {"generator": "bernoulli", "n_points": 10, "p": 0.6},
            }
        )
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.reward == pytest.approx(row.value, abs=1e-12)

    def test_deterministic_across_runs_and_threads(self):
        base = bernoulli_config(repeats=4)
        threaded = bernoulli_config(repeats=4, threads=3)
        a, b, c = run_experiment(base), run_experiment(base), run_experiment(threaded)
        for other in (b, c):
            assert len(a.rows) == len(other.rows)
            for ra, rb in zip(a.rows, other.rows):
                assert (ra.value, ra.reward) == (rb.value, rb.reward)

    def test_report_bytes_identical_modulo_wall_time(self):
        cfg = bernoulli_config()
        a = json.loads(render_report(run_experiment(cfg), "json"))
        b = json.loads(render_report(run_experiment(cfg), "json"))
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_budget_post_processing_caps(self):
        report = run_experiment(
            bernoulli_config(post={"kind": "budget", "a": 1.0, "budget": 0.05})
        )
        assert all(row.reward <= 0.05 + 1e-12 for row in report.rows)

    def test_sampled_estimator_close_to_exact_here(self):
        exact = run_experiment(bernoulli_config(repeats=1))
        sampled = run_experiment(
            bernoulli_config(
                repeats=1, estimator={"kind": "sampled", "permutations": 4000}
            )
        )
        for ra, rb in zip(exact.rows, sampled.rows):
            assert ra.value == pytest.approx(rb.value, abs=1e-12)  # singleton values exact
            assert ra.reward == pytest.approx(rb.reward, abs=0.05)

    def test_strategy_sweep_reuses_validation_subsets(self):
        cfg = bernoulli_config(
            repeats=2,
            sweep={
                "axis": "strategy-grid",
                "source": 0,
                "values": ["truthful", {"tag": "duplicate", "copies": 2}],
            },
        )
        report = run_experiment(cfg)
        assert report.sweep_axis == "strategy-grid"
        # Source 1 submits the same data against the same validation subsets,
        # so its stand-alone value is identical across sweep points.
        by_sweep = {}
        for row in report.rows:
            if row.source == 1:
                by_sweep.setdefault(row.sweep, []).append(row.value)
        values = list(by_sweep.values())
        assert values[0] == values[1]

    def test_pipeline_errors_name_the_stage(self):
        cfg = bernoulli_config(
            sources=[
                {"csv": "/nonexistent/file.csv", "output_column": "y", "kind": "binary"},
                {"generator": "bernoulli", "n_points": 6},
            ]
        )
        with pytest.raises(Exception, match=r"\[sources\]"):
            run_experiment(cfg)

    def test_cross_validation_mode(self):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 8,
                "repeats": 2,
                "model": {"family": "beta-bernoulli"},
                "sources": [{"generator": "bernoulli", "n_points": 8, "p": 0.5}] * 3,
                "post": {"kind": "cross-validation", "variant": "grave",
                         "validation_frac": 0.25},
            }
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 6

    def test_validation_noise_sweep(self):
        cfg = bernoulli_config()
        c2 = ExperimentConfig.from_dict(
            {
                **cfg.resolved,
                "model": {"family": "gaussian-known-var"},
                "sources": [
                    {"generator": "linear", "n_points": 10, "weights": [1.0], "noise_sd": 0.5}
                ],
                "validation": {
                    "generator": "linear", "n_points": 12, "weights": [1.0],
                    "noise_sd": 0.5, "subset_fraction": 1.0,
                },
                "strategies": ["truthful"],
                "standardize_outputs": False,
                "repeats": 1,
                "sweep": {"axis": "validation-noise", "values": [0.0, 2.0]},
            }
        )
        report = run_experiment(c2)
        by_sweep = {row.sweep: row.value for row in report.rows}
        # Heavier validation noise changes the scored outputs, hence the value.
        assert by_sweep["0"] != by_sweep["2"]

    def test_weight_family_sweep(self):
        cfg = bernoulli_config(
            sweep={"axis": "weight-family",
                   "values": ["shapley", {"family": "beta", "alpha": 4.0, "beta": 1.0}]},
            repeats=1,
        )
        report = run_experiment(cfg)
        sweeps = {row.sweep for row in report.rows}
        assert sweeps == {"shapley", "beta(4.0,1.0)"}

    def test_sorted_fraction_sweep(self):
        cfg = bernoulli_config()
        c2 = ExperimentConfig.from_dict(
            {
                **cfg.resolved,
                "model": {"family": "gp"},
                "sources": [{"generator": "friedman", "n_points": 15}],
                "strategies": ["truthful"],
                "validation": {"generator": "friedman", "n_points": 20,
                               "subset_fraction": 1.0},
                "repeats": 1,
                "sweep": {"axis": "sorted-fraction", "values": [0.25, 1.0]},
            }
        )
        report = run_experiment(c2)
        assert {row.sweep for row in report.rows} == {"0.25", "1"}

    def test_validation_free_baseline_needs_no_validation(self):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 4,
                "repeats": 1,
                "model": {"family": "beta-bernoulli"},
                "dvf": "cardinality",
                "sources": [
                    {"generator": "bernoulli", "n_points": 5},
                    {"generator": "bernoulli", "n_points": 3},
                ],
            }
        )
        report = run_experiment(cfg)
        values = {row.source: row.value for row in report.rows}
        assert values == {0: 5.0, 1: 3.0}

    def test_twenty_source_baselines_stay_within_a_minute(self):
        # Each baseline kind at the exact-enumeration limit: 20 ten-row
        # sources, one 2^20 table shared by both repeats.
        bernoulli = ({"family": "beta-bernoulli"}, {"generator": "bernoulli", "n_points": 10})
        linear = (
            {"family": "bayes-linreg", "n_features": 3},
            {"generator": "linear", "n_points": 10, "weights": [1.0, -0.5, 0.25]},
        )
        runs = {
            "cardinality": bernoulli, "volume": linear, "info-gain": linear,
            "kl-from-prior": bernoulli,
        }
        start = time.perf_counter()
        for dvf, (model, source) in runs.items():
            cfg = ExperimentConfig.from_dict(
                {"seed": 5, "repeats": 2, "model": model, "dvf": dvf, "sources": [source] * 20}
            )
            rows = run_experiment(cfg).rows
            assert [(r.value, r.reward) for r in rows[:20]] == [
                (r.value, r.reward) for r in rows[20:]
            ]
            assert np.isfinite([r.reward for r in rows]).all()
            if dvf == "cardinality":
                assert [r.value for r in rows] == [10.0] * 40
                np.testing.assert_allclose([r.reward for r in rows], 10.0, rtol=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"four 20-source baseline runs took {elapsed:.0f}s"


def _csv_pool_config(tmp_path, **overrides):
    """Two 1-feature linear sources scored on a CSV pool."""
    rng = np.random.default_rng(9)
    x = rng.uniform(size=40)
    y = 2.0 * x + rng.normal(size=40)
    path = tmp_path / "pool.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    source = {"generator": "linear", "n_points": 12, "weights": [2.0]}
    return ExperimentConfig.from_dict({
        "seed": 6,
        "repeats": 2,
        "model": {"family": "bayes-linreg", "n_features": 1},
        "sources": [source, {**source, "n_points": 7}],
        "validation": {"csv": str(path), "output_column": "y"},
        **overrides,
    })


class TestValidationPool:
    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(experiment, "load_csv", counted)
        return calls

    @pytest.mark.parametrize(
        "sweep",
        [
            {"axis": "strategy-grid", "source": 0,
             "values": ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"]},
            {"axis": "validation-fraction", "values": [0.25, 0.5, 1.0]},
        ],
        ids=["strategy-grid", "validation-fraction"],
    )
    def test_pool_is_read_once_per_run(self, tmp_path, reads, sweep):
        swept = run_experiment(_csv_pool_config(tmp_path, sweep=sweep))
        assert len(reads) == 1
        # Every sweep point gives the rows of the same point run on its own.
        for label, point in experiment._sweep_points(swept.config):
            alone = run_experiment(ExperimentConfig.from_dict({**point, "sweep": None}))
            got = [(r.repeat, r.source, r.strategy, r.value, r.reward)
                   for r in swept.rows if r.sweep == label]
            assert got == [(r.repeat, r.source, r.strategy, r.value, r.reward)
                           for r in alone.rows]

    @pytest.mark.parametrize("generator", ["linear", "friedman"])
    def test_noise_sd_is_the_generators_own_noise(self, generator):
        spec = {"generator": generator, "n_points": 30, "noise_sd": 0.5}
        point = ExperimentConfig.from_dict({
            "seed": 4,
            "model": {"family": "gaussian-known-var"},
            "sources": [{"generator": "linear", "n_points": 5}],
            "validation": spec,
        }).resolved
        pool = experiment._validation_pool(point, {})
        expected = _materialize(spec, derive_seed(4, "validation"))
        assert np.array_equal(pool.outputs, expected.outputs)
        assert np.array_equal(pool.inputs, expected.inputs)

    def test_noise_sd_perturbs_a_csv_pool(self, tmp_path):
        cfg = _csv_pool_config(tmp_path)
        point = {**cfg.resolved, "validation": {**cfg.resolved["validation"], "noise_sd": 0.5}}
        pool = experiment._validation_pool(point, {})
        raw = load_csv(point["validation"]["csv"], "y")
        noise = np.random.default_rng(derive_seed(6, "validation-perturb")).normal(0, 0.5, 40)
        assert np.array_equal(pool.outputs, raw.outputs + noise)


class TestReports:
    def test_csv_row_count_and_header(self, tmp_path):
        report = run_experiment(bernoulli_config(repeats=2))
        path = tmp_path / "out.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "repeat,source,strategy,value,reward"
        assert len(lines) == 1 + 2 * 2

    def test_csv_two_repeats_three_sources_has_six_rows(self, tmp_path):
        cfg = bernoulli_config(
            repeats=2,
            sources=[{"generator": "bernoulli", "n_points": 6, "p": 0.5}] * 3,
        )
        report = run_experiment(cfg)
        path = tmp_path / "out.csv"
        emit_report(report, "csv", path)
        assert len(path.read_text().strip().split("\n")) == 1 + 6

    def test_empty_report_is_header_only(self, tmp_path):
        from truthval.experiment import RunReport

        empty = RunReport(
            config={}, config_hash="0", seed=0, sweep_axis=None,
            rows=[], summary=[], wall_time_s=0.0,
        )
        path = tmp_path / "empty.csv"
        emit_report(empty, "csv", path)
        assert path.read_text() == "repeat,source,strategy,value,reward\n"

    def test_json_round_trips_numeric_fields(self, tmp_path):
        report = run_experiment(bernoulli_config())
        path = tmp_path / "out.json"
        emit_report(report, "json", path)
        loaded = json.loads(path.read_text())
        for parsed, row in zip(loaded["rows"], report.rows):
            assert parsed["value"] == row.value
            assert parsed["reward"] == row.reward

    def test_unwritable_path_errors_with_path(self):
        report = run_experiment(bernoulli_config(repeats=1))
        with pytest.raises(Exception, match="no/such/dir"):
            emit_report(report, "csv", "/no/such/dir/out.csv")

    def test_config_echo_embedded(self):
        report = run_experiment(bernoulli_config())
        assert report.config["model"] == {"family": "beta-bernoulli"}
        assert report.config_hash

    def test_csv_quotes_labels_with_commas(self):
        grid = ["truthful", {"tag": "inject", "frac": 0.1, "offset": 0.1}]
        report = run_experiment(
            bernoulli_config(sweep={"axis": "strategy-grid", "source": 0, "values": grid})
        )
        parsed = list(csv.DictReader(io.StringIO(render_report(report, "csv"))))
        assert len(parsed) == len(report.rows)
        for record, row in zip(parsed, report.rows):
            assert record["sweep"] == row.sweep
            assert int(record["repeat"]) == row.repeat
            assert float(record["reward"]) == row.reward
        assert "inject(frac=0.1,offset=0.1)" in {r["sweep"] for r in parsed}

    def test_confidence_interval_needs_two_repeats(self):
        single = run_experiment(bernoulli_config(repeats=1))
        assert all(entry["ci_reward"] is None for entry in single.summary)
        several = run_experiment(bernoulli_config(repeats=3))
        assert all(entry["ci_reward"] is not None for entry in several.summary)

    def test_student_t_quantile_matches_scipy_stats(self):
        from scipy.special import stdtrit
        from scipy.stats import t as student_t

        for k in range(2, 201):
            assert stdtrit(k - 1, 0.975) == student_t.ppf(0.975, k - 1), k

    def test_confidence_half_width_recomputed_from_rows(self):
        from scipy.stats import t as student_t

        report = run_experiment(bernoulli_config(repeats=3))
        crit = student_t.ppf(0.975, 2) / np.sqrt(3)
        for entry in report.summary:
            bucket = [r for r in report.rows if r.source == entry["source"]]
            assert len(bucket) == entry["n_repeats"] == 3
            values = np.array([r.value for r in bucket])
            rewards = np.array([r.reward for r in bucket])
            assert entry["ci_value"] == float(values.std(ddof=1)) * crit
            assert entry["ci_reward"] == float(rewards.std(ddof=1)) * crit


class TestGenerators:
    def test_linear_generator_shapes(self):
        ds = _materialize(
            {"generator": "linear", "n_points": 12, "weights": [1.0, 2.0], "noise_sd": 0.5},
            seed=3,
        )
        assert ds.inputs.shape == (12, 2)

    def test_friedman_source_alpha_changes_its_value(self):
        def source0_value(alpha):
            cfg = ExperimentConfig.from_dict(
                {
                    "seed": 5,
                    "model": {"family": "gaussian-known-var"},
                    "sources": [
                        {"generator": "friedman", "n_points": 8, "alpha": alpha, "beta": 9.0},
                        {"generator": "friedman", "n_points": 8},
                    ],
                    "validation": {"generator": "friedman", "n_points": 10},
                    "standardize_outputs": False,
                }
            )
            return run_experiment(cfg).rows[0].value

        assert source0_value(0.9) != source0_value(0.0)

    def test_unknown_generator(self):
        with pytest.raises(ConfigurationError):
            _materialize({"generator": "cauchy", "n_points": 3}, seed=0)
