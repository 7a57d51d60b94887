"""End-to-end experiment runner behavior."""

import csv
import io
import json
import time
import weakref

import numpy as np
import pytest

from truthval import experiment
from truthval.datagen import (
    Strategy,
    apply_strategy,
    derive_seed,
    load_csv,
    output_moments,
    shift_scale_outputs,
)
from truthval.mechanisms import cross_game_rewards, cross_game_scorer, cross_validation_rewards
from truthval.semivalues import (
    budget_cap,
    exact_semivalue,
    make_weights,
    sampled_semivalue,
    scaled_reward,
)
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
# Overrides that make BERNOULLI a run on regression data.
REGRESSION_RUN = {
    "model": {"family": "gaussian-known-var"},
    "sources": [{"generator": "friedman", "n_points": 5}] * 2,
    "validation": FRIEDMAN_POOL,
}


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
            REGRESSION_RUN,
            {**REGRESSION_RUN, "model": {"family": "bayes-linreg", "n_features": 1}},
            {**REGRESSION_RUN, "model": {"family": "gp", "lengthscales": [0.5]}},
            {**REGRESSION_RUN,
             "sources": [{"generator": "friedman", "n_points": 5, "alpha": 0.3}] * 2},
            {**REGRESSION_RUN,
             "sources": [{"generator": "linear", "n_points": 5, "weights": [1.0]}] * 2},
            {**REGRESSION_RUN, "sources": [{"csv": "data.csv", "output_column": "y"}] * 2},
            {"post": {"kind": "budget", "budget": 0.5}},
            {"post": {"kind": "scaled", "budget": 1}},
            {"post": "cross-validation", "validation": None},
            {"sweep": {"axis": "strategy-grid", "source": 1,
                       "values": ["truthful", {"tag": "duplicate", "copies": 2}]}},
            {"sweep": {"axis": "validation-fraction", "values": [0.25, 1]}},
            {**REGRESSION_RUN, "sweep": {"axis": "validation-noise", "values": [0.0, 0.5]}},
            {**REGRESSION_RUN, "sweep": {"axis": "friedman-alpha", "values": [0, 1]}},
            {**REGRESSION_RUN, "sweep": {"axis": "friedman-beta", "values": [0, 1]}},
            {**REGRESSION_RUN, "sweep": {"axis": "sorted-fraction", "values": [0.5, 1.0]}},
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
        assert resolved["strategies"] == [{"tag": "truthful"}] * 2
        assert resolved["dvf"] == "log-score"
        # auto is echoed as the estimator it chose, and exact reads no permutations.
        assert resolved["estimator"] == {"kind": "exact"}
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
            {"estimator": {"kind": "sampled", "permutations": 100.0}},
            {"model": {"family": "bayes-linreg", "n_features": 2.0}},
        ],
        ids=["seed", "repeats", "threads", "permutations", "n_features"],
    )
    def test_integer_fields_reject_non_integers(self, overrides):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            bernoulli_config(**overrides)

    def test_generator_n_points_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="n_points must be an integer"):
            experiment._walk({"generator": "bernoulli", "n_points": 4.5}, experiment._DATA, "")


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
        # A bare auto samples with the sampled estimator's default permutations.
        auto, sampled = (
            bernoulli_config(sources=sources, estimator=estimator)
            for estimator in ({}, {"kind": "sampled"})
        )
        assert auto.resolved == sampled.resolved
        assert auto.resolved["estimator"] == {"kind": "sampled", "permutations": 3000}
        rows = run_experiment(auto).rows
        assert len(rows) == 3 * 21
        assert rows == run_experiment(sampled).rows


class TestCanonicalEcho:
    """Every spelling of one run resolves to one config, hence one hash."""

    def test_spellings_of_one_run_share_one_hash(self):
        pool = {"generator": "friedman", "n_points": 10}
        base = {
            "seed": 3,
            "repeats": 2,
            "model": {"family": "gaussian-known-var"},
            "sources": [{"generator": "friedman", "n_points": n} for n in (6, 4)],
            "validation": pool,
        }
        spellings = [
            {},
            {"strategies": ["truthful", "truthful"]},
            {"strategies": [{"tag": "truthful"}, {"tag": "truthful"}]},
            {"validation": {**pool, "noise_sd": 1.0}},
            {"estimator": "exact"},
            {"estimator": {"kind": "exact"}},
        ]
        reports = [run_experiment(ExperimentConfig.from_dict({**base, **s})) for s in spellings]
        assert {report.config_hash for report in reports} == {reports[0].config_hash}
        assert all(report.rows == reports[0].rows for report in reports)
        assert reports[0].config["validation"]["noise_sd"] == 1.0

    @pytest.mark.parametrize(
        "sweep, names, objects",
        [
            ({"axis": "weight-family"}, ["shapley", "banzhaf"],
             [{"family": "shapley"}, {"family": "banzhaf"}]),
            ({"axis": "strategy-grid", "source": 0}, ["truthful", "duplicate"],
             [{"tag": "truthful"}, {"tag": "duplicate"}]),
        ],
        ids=["weight-family", "strategy-grid"],
    )
    def test_sweep_values_as_names_or_objects_share_one_hash(self, sweep, names, objects):
        reports = [
            run_experiment(bernoulli_config(sweep={**sweep, "values": values}))
            for values in (names, objects)
        ]
        assert reports[0].config_hash == reports[1].config_hash
        assert reports[0].config["sweep"]["values"] == objects
        assert reports[0].rows == reports[1].rows


class TestConfigShapes:
    def test_filled_in_defaults_are_not_shared_between_configs(self):
        def linear_config():
            return bernoulli_config(
                **{**REGRESSION_RUN, "sources": [{"generator": "linear", "n_points": 4}]}
            )

        linear_config().resolved["sources"][0]["weights"].append(2.0)
        assert linear_config().resolved["sources"][0]["weights"] == [1.0]
        # Each source's default strategy is its own object.
        strategies = bernoulli_config().resolved["strategies"]
        strategies[0]["frac"] = 0.5
        assert strategies[1] == {"tag": "truthful"}

    def test_csv_source_needs_output_column(self):
        with pytest.raises(ConfigurationError, match="output_column"):
            bernoulli_config(sources=[{"csv": "data.csv"}])

    def test_csv_validation_needs_output_column(self):
        with pytest.raises(ConfigurationError, match="output_column"):
            bernoulli_config(validation={"csv": "data.csv"})

    @pytest.mark.parametrize("value", [3, ["shapley"], None])
    def test_weight_family_sweep_values_are_names_or_objects(self, value):
        with pytest.raises(ConfigurationError, match=r"sweep\['values'\]\[1\].*weight family"):
            bernoulli_config(sweep={"axis": "weight-family", "values": ["shapley", value]})

    def test_weights_must_not_be_a_list(self):
        with pytest.raises(ConfigurationError, match="weights must be"):
            bernoulli_config(weights=["shapley"])

    @pytest.mark.parametrize(
        "changes", [{"post": "cross-validation"}, {"dvf": "cardinality"}],
        ids=["cross-validation", "validation-free-dvf"],
    )
    def test_runs_without_a_validation_set_take_the_sampled_estimator(self, changes):
        cfg = bernoulli_config(validation=None, estimator="sampled", **changes)
        assert cfg.resolved["estimator"] == {"kind": "sampled", "permutations": 3000}


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"estimator": {"kind": "sampled", "permutations": 50}},
            {"dvf": "cardinality", "validation": None},
            {"dvf": "cardinality", "validation": None,
             "estimator": {"kind": "sampled", "permutations": 50}},
            {"post": "cross-validation", "validation": None,
             "estimator": {"kind": "sampled", "permutations": 50}},
        ],
        ids=["exact", "sampled", "validation-free", "sampled-validation-free",
             "sampled-cross-validation"],
    )
    def test_deterministic_across_runs_and_threads(self, overrides):
        base = bernoulli_config(repeats=4, **overrides)
        threaded = bernoulli_config(repeats=4, threads=3, **overrides)
        a, b, c = run_experiment(base), run_experiment(base), run_experiment(threaded)
        for other in (b, c):
            assert len(a.rows) == len(other.rows) == 4 * 2
            for ra, rb in zip(a.rows, other.rows):
                assert (ra.value, ra.reward) == (rb.value, rb.reward)

    @pytest.mark.parametrize("dvf, games", [("cardinality", 1), ("log-score", 3)])
    def test_one_exact_semivalue_call_per_run(self, monkeypatch, dvf, games):
        # One call takes every game, 2^2 values each: a validation-free
        # valuation has one game for every repeat; a log-score valuation has
        # one per repeat's validation subset.
        seen = []

        def counting(values, weights):
            seen.append(values.shape)
            return exact_semivalue(values, weights)

        monkeypatch.setattr(experiment, "exact_semivalue", counting)
        validation = None if dvf == "cardinality" else BERNOULLI["validation"]
        report = run_experiment(bernoulli_config(dvf=dvf, validation=validation))
        assert seen == [(games, 4)]
        assert len(report.rows) == 3 * 2

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

    @pytest.mark.parametrize(
        "estimator", ["exact", {"kind": "sampled", "permutations": 200}], ids=["exact", "sampled"]
    )
    @pytest.mark.parametrize(
        "post",
        [{"kind": "budget", "budget": 0.2, "a": 1.5}, {"kind": "scaled", "budget": 0.2, "gamma": 0.1}],
        ids=["budget", "scaled"],
    )
    def test_post_processing_maps_the_runs_own_rewards(self, estimator, post):
        # Source 0's rewards clear the budget here and source 1's do not.
        plain = run_experiment(bernoulli_config(estimator=estimator)).rows
        rows = run_experiment(bernoulli_config(estimator=estimator, post=post)).rows
        for r in range(BERNOULLI["repeats"]):
            phi = np.array([row.reward for row in plain if row.repeat == r])
            if post["kind"] == "budget":
                want = budget_cap(phi, post["a"], post["budget"])
            else:
                want = scaled_reward(phi, post["budget"], post["gamma"])
            assert [row.reward for row in rows if row.repeat == r] == want.tolist()
        assert max(row.reward for row in rows) <= post["budget"]

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

    @pytest.mark.parametrize(
        "variant, family, grid",
        [
            pytest.param("breve", "gp", True, id="breve"),
            pytest.param("grave", "gp", True, id="grave"),
            pytest.param("breve", "gp", False, id="no-grid-gp"),
            pytest.param("breve", "bayes-linreg", False, id="no-grid-bayes-linreg"),
        ],
    )
    def test_cross_validation_rows_are_the_mechanisms_rewards(self, variant, family, grid):
        # Each point of a standardized grid, or the one point without a grid,
        # is split and rewarded in every repeat exactly as
        # cross_validation_rewards does it on that point's standardized
        # submissions with the repeat's split seeds.
        seed, repeats, n = 8, 2, 3
        model = {"family": "gp", "lengthscales": 0.7, "noise_var": 0.1}
        if family == "bayes-linreg":
            model = {"family": "bayes-linreg", "n_features": 6, "noise_var": 0.5}
        config = {
            "seed": seed,
            "repeats": repeats,
            "model": model,
            "sources": [{"generator": "friedman", "n_points": k} for k in (9, 7, 8)],
            "standardize_outputs": True,
            "post": {"kind": "cross-validation", "variant": variant, "validation_frac": 0.3},
        }
        if grid:
            config["sweep"] = {"axis": "strategy-grid", "source": 1, "values": [
                "truthful", {"tag": "noise-output", "level": 0.5}, "duplicate",
            ]}
        cfg = ExperimentConfig.from_dict(config)
        report = run_experiment(cfg)
        raw = [
            _materialize(spec, derive_seed(seed, "source", i))
            for i, spec in enumerate(cfg.resolved["sources"])
        ]
        weights = make_weights("shapley", n)
        points = experiment._sweep_points(report.config)
        assert len(report.rows) == len(points) * repeats * n
        for label, point in points:
            data = [
                apply_strategy(ds, Strategy(seed=derive_seed(seed, "strategy", i), **spec))
                for i, (ds, spec) in enumerate(zip(raw, point["strategies"]))
            ]
            data = [shift_scale_outputs(ds, *output_moments(data)) for ds in data]
            for r in range(repeats):
                splits = [derive_seed(seed, "split", r, j) for j in range(n)]
                cg = cross_validation_rewards(data, 0.3, weights, cfg.model, seed, splits)
                rows = [row for row in report.rows if row.sweep == label and row.repeat == r]
                got = [(row.value, row.reward) for row in rows]
                want = np.column_stack([np.diag(cg.per_game), getattr(cg, variant)])
                if family == "bayes-linreg":
                    # The scorer shifts and scales the same rows as the reference.
                    np.testing.assert_array_equal(got, want)
                elif grid:
                    # The grid's coalitions without the swept source project
                    # onto every point's columns, and each point's outputs are
                    # standardized on the lattice, so the rows match to rounding.
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
                else:
                    # The lattice applies the moments to the pool mean.
                    np.testing.assert_allclose(got, want, rtol=1e-12)

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
        assert point["validation"]["noise_sd"] == 0.5
        expected = _materialize(point["validation"], derive_seed(4, "validation"))
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

    def test_json_report_is_the_dataclass_dump(self):
        # The payload is built from the fields without copying them; the
        # bytes are those of the deep-copied dataclasses.asdict dump.
        import dataclasses

        grid = ["truthful", {"tag": "inject", "frac": 0.1, "offset": 0.1}, "duplicate"]
        report = run_experiment(
            bernoulli_config(sweep={"axis": "strategy-grid", "source": 0, "values": grid})
        )
        want = json.dumps(dataclasses.asdict(report), indent=2) + "\n"
        assert render_report(report, "json") == want

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
        spec = {"generator": "linear", "n_points": 12, "weights": [1.0, 2.0], "noise_sd": 0.5}
        ds = _materialize(experiment._walk(spec, experiment._DATA, ""), seed=3)
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
        with pytest.raises(ConfigurationError, match="'cauchy'"):
            bernoulli_config(sources=[{"generator": "cauchy", "n_points": 3}])


# The strategies of the GP benchmark's grid, in its order.
SIX_STRATEGIES = [
    "truthful",
    {"tag": "subset", "frac": 0.1},
    {"tag": "noise-output", "level": 3.0},
    {"tag": "duplicate", "copies": 3},
    {"tag": "inject", "frac": 0.1, "offset": 0.1},
    {"tag": "noise-input", "sd": 0.2},
]


def gp_grid_config(source, values, sizes=(8, 6, 5), estimator="auto"):
    return ExperimentConfig.from_dict({
        "seed": 4,
        "repeats": 2,
        "model": {"family": "gp", "lengthscales": 0.7, "noise_var": 0.1},
        "sources": [{"generator": "friedman", "n_points": k} for k in sizes],
        "validation": {"generator": "friedman", "n_points": 12},
        "estimator": estimator,
        "sweep": {"axis": "strategy-grid", "source": source, "values": values},
    })


def count_gp_appends(monkeypatch):
    """Record the rows of every block the GP lattice appends (crosses with the
    rows before it) and of every counts sibling it conditions from cross terms
    that an earlier block was already conditioned on."""
    from truthval import valuation

    calls = {"append": [], "sibling": []}
    block_cross, condition_block = valuation.block_cross, valuation.condition_block

    def crossed(path, start, inputs):
        calls["append"].append(len(inputs))
        return block_cross(path, start, inputs)

    def conditioned(path, cross, block, *args, **kwargs):
        if cross.inner is None:
            calls["sibling"].append(block.counts.size)
        return condition_block(path, cross, block, *args, **kwargs)

    monkeypatch.setattr(valuation, "block_cross", crossed)
    monkeypatch.setattr(valuation, "condition_block", conditioned)
    return calls


ESTIMATORS = pytest.mark.parametrize(
    "estimator", ["exact", {"kind": "sampled", "permutations": 40}], ids=["exact", "sampled"]
)


def point_rows(report, label):
    return [(r.repeat, r.source, r.strategy, r.value, r.reward)
            for r in report.rows if r.sweep == label]


class TestStrategyGridLattice:
    """A strategy grid is one lattice per repeat's scorer: the n - 1 unchanged
    sources followed by the G variants of the swept source, or, where each
    point has a validation split of its own, the unchanged sources once and
    then a lattice per point rooted at its variant."""

    @pytest.mark.parametrize(
        "source, values, appends, siblings",
        [
            # 2^(n-1) - 1 coalitions without the swept source, once, and the
            # 2^(n-1) with it, each with a leaf per point; per point, G (2^n - 1).
            # Of the leaves, duplicate has truthful's inputs with other counts,
            # so it is conditioned from truthful's cross terms, not appended.
            (1, ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"], 3 + 2 * 4, 4),
            # The benchmark's shape; 42 appends per point, 27 with a leaf per
            # variant. noise-output has truthful's inputs and counts, so it
            # only whitens its outputs; inject appends only its extra row
            # after truthful's leaf; duplicate is a counts sibling. Truthful,
            # subset, inject's tail and noise-input append: 3 + 4 x 4 = 19.
            (0, SIX_STRATEGIES, 3 + 4 * 4, 4),
        ],
        ids=["three-points", "benchmark-shape"],
    )
    def test_unchanged_coalitions_are_appended_once(
        self, source, values, appends, siblings, monkeypatch
    ):
        calls = count_gp_appends(monkeypatch)
        report = run_experiment(gp_grid_config(source, values))
        assert len(calls["append"]) == appends
        assert len(calls["sibling"]) == siblings
        assert len(report.rows) == len(values) * 2 * 3

    def test_noise_output_leaf_appends_nothing(self, monkeypatch):
        calls = count_gp_appends(monkeypatch)
        run_experiment(gp_grid_config(0, ["truthful", {"tag": "noise-output", "level": 3.0}]))
        grid = len(calls["append"])
        calls["append"].clear()
        run_experiment(gp_grid_config(0, ["truthful"]))
        assert grid == len(calls["append"]) == 3 + 4
        assert not calls["sibling"]

    def test_inject_appends_only_its_extra_rows(self, monkeypatch):
        # Sources of 8, 6 and 5 rows, source 0 swept: the other sources'
        # coalitions append 6, 5 and 5 rows, and under each of the 4 parents
        # truthful appends 8 and inject ceil(0.1 x 8) = 1 row, not 9.
        calls = count_gp_appends(monkeypatch)
        run_experiment(gp_grid_config(0, ["truthful", {"tag": "inject", "frac": 0.1, "offset": 0.1}]))
        assert sorted(calls["append"]) == sorted([6, 5, 5] + [8, 1] * 4)

    @pytest.mark.parametrize(
        "model, source, standardize",
        [
            ({"family": "bayes-linreg", "n_features": 1}, {"generator": "linear", "n_points": 9},
             True),
            ({"family": "bayes-linreg", "n_features": 1}, {"generator": "linear", "n_points": 9},
             False),
            ({"family": "gaussian-known-var"}, {"generator": "friedman", "n_points": 7}, True),
            ({"family": "gaussian-known-var"}, {"generator": "friedman", "n_points": 7}, False),
            ({"family": "beta-bernoulli"}, {"generator": "bernoulli", "n_points": 8}, False),
        ],
        ids=["bayes-linreg", "bayes-linreg-raw", "gaussian-known-var", "gaussian-known-var-raw",
             "beta-bernoulli"],
    )
    @pytest.mark.parametrize("dvf", ["log-score", "mean-log-score"])
    @ESTIMATORS
    def test_conjugate_grid_rows_equal_each_point_run_alone(
        self, model, source, standardize, dvf, estimator
    ):
        # Without standardization the points share the coalitions without the
        # swept source, which are scored in the same blocks as a point run
        # alone scores them, so the rows are equal, not merely close.
        grid = ExperimentConfig.from_dict({
            "seed": 8,
            "repeats": 2,
            "model": model,
            "dvf": dvf,
            "estimator": estimator,
            "standardize_outputs": standardize,
            "sources": [source, {**source, "n_points": 5}, {**source, "n_points": 6}],
            "strategies": ["truthful", {"tag": "noise-output", "level": 0.5}, "truthful"],
            "validation": {**source, "n_points": 14},
            "sweep": {"axis": "strategy-grid", "source": 2,
                      "values": ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"]},
        })
        report = run_experiment(grid)
        for label, point in experiment._sweep_points(report.config):
            alone = run_experiment(ExperimentConfig.from_dict({**point, "sweep": None}))
            assert point_rows(report, label) == point_rows(alone, None)

    @ESTIMATORS
    def test_conjugate_grid_sweeping_the_last_source_equals_each_point_run_alone(
        self, estimator, monkeypatch
    ):
        # Masks are scored sorted, in blocks, so with the last source swept
        # the first blocks hold no mask with it, and the followers take them
        # whole from the first point. Blocks of 4 coalitions (5 membership
        # entries and 7 statistics each) make that happen on 5 sources.
        from truthval import valuation

        monkeypatch.setattr(valuation, "_BLOCK_FLOATS", 4 * (5 + 7))
        source = {"generator": "linear", "n_points": 3, "weights": [1.0, -0.5]}
        grid = ExperimentConfig.from_dict({
            "seed": 6,
            "model": {"family": "bayes-linreg", "n_features": 2},
            "estimator": estimator,
            "standardize_outputs": False,
            "sources": [source] * 5,
            "validation": {**source, "n_points": 10},
            "sweep": {"axis": "strategy-grid", "source": 4,
                      "values": ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"]},
        })
        report = run_experiment(grid)
        for label, point in experiment._sweep_points(report.config):
            alone = run_experiment(ExperimentConfig.from_dict({**point, "sweep": None}))
            assert point_rows(report, label) == point_rows(alone, None)

    @pytest.mark.parametrize(
        "standardize, values, rows",
        [
            # U unique masks per values() call, H of them holding the swept
            # source: the first point of a moments group scores U, the rest H.
            (False, ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"],
             lambda u, h: u + 2 * h),
            (True, ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"],
             lambda u, h: 3 * u),
            # noise-input leaves the outputs, so the moments, as truthful's.
            (True, ["truthful", {"tag": "noise-input", "sd": 0.5}, "duplicate"],
             lambda u, h: 2 * u + h),
        ],
        ids=["raw", "standardized", "standardized-shared"],
    )
    def test_conjugate_points_share_coalitions_without_the_swept_source(
        self, standardize, values, rows, monkeypatch
    ):
        from truthval import valuation

        batch, scored, calls = valuation.log_predictive_batch, [0], []

        class Counted(valuation.CoalitionScorer):
            def values(self, masks):  # the rows scored here, not the priors at construction
                before = scored[0]
                out = super().values(masks)
                calls.append((np.unique(masks), scored[0] - before))
                return out

        def counted(model, nu, sums, summary):
            scored[0] += nu.size
            return batch(model, nu, sums, summary)

        monkeypatch.setattr(valuation, "log_predictive_batch", counted)
        monkeypatch.setattr(experiment, "CoalitionScorer", Counted)
        swept = 1
        run_experiment(ExperimentConfig.from_dict({
            "seed": 3,
            "repeats": 2,
            "model": {"family": "bayes-linreg", "n_features": 2},
            "estimator": {"kind": "sampled", "permutations": 30},
            "standardize_outputs": standardize,
            "sources": [{"generator": "linear", "n_points": k, "weights": [1.0, -0.5]}
                        for k in (6, 8, 5, 7, 4)],
            "validation": {"generator": "linear", "n_points": 20, "weights": [1.0, -0.5]},
            "sweep": {"axis": "strategy-grid", "source": swept, "values": values},
        }))
        assert len(calls) == 4  # the permutation prefixes and the singletons, per repeat
        for masks, count in calls:
            held = int(np.count_nonzero(masks >> swept & 1))
            assert 0 < held < masks.size
            assert count == rows(masks.size, held)

    @pytest.mark.parametrize("swept", [0, 1, 2], ids=["first", "middle", "last"])
    @ESTIMATORS
    @pytest.mark.parametrize("family", ["gp", "bayes-linreg"])
    def test_cross_validation_grid_rows_equal_each_point_run_alone(self, family, estimator, swept):
        # One scorer per repeat serves every point: the other sources'
        # coalitions on every point's splits, and each point's lattice rooted
        # at its own variant. Each point's rows are the mechanism's rewards on
        # its own standardized submissions and the repeat's split seeds.
        seed, repeats, n, frac = 6, 2, 3, 0.3
        if family == "gp":
            model = {"family": "gp", "lengthscales": 0.7, "noise_var": 0.1}
            source = {"generator": "friedman", "n_points": 8}
        else:
            model = {"family": "bayes-linreg", "n_features": 2}
            source = {"generator": "linear", "n_points": 8, "weights": [1.0, -0.5]}
        cfg = ExperimentConfig.from_dict({
            "seed": seed,
            "repeats": repeats,
            "model": model,
            "estimator": estimator,
            "sources": [{**source, "n_points": k} for k in (8, 6, 7)],
            "post": {"kind": "cross-validation", "validation_frac": frac},
            "sweep": {"axis": "strategy-grid", "source": swept, "values": [
                "truthful", {"tag": "noise-output", "level": 0.5}, "duplicate",
            ]},
        })
        report = run_experiment(cfg)
        raw = [
            _materialize(spec, derive_seed(seed, "source", i))
            for i, spec in enumerate(cfg.resolved["sources"])
        ]
        weights = make_weights("shapley", n)
        for label, point in experiment._sweep_points(report.config):
            data = [
                apply_strategy(ds, Strategy(seed=derive_seed(seed, "strategy", i), **spec))
                for i, (ds, spec) in enumerate(zip(raw, point["strategies"]))
            ]
            data = [shift_scale_outputs(ds, *output_moments(data)) for ds in data]
            for r in range(repeats):
                splits = [derive_seed(seed, "split", r, j) for j in range(n)]
                if estimator == "exact":
                    cg = cross_validation_rewards(data, frac, weights, cfg.model, seed, splits)
                else:
                    scorer = cross_game_scorer(data, frac, cfg.model, splits)
                    permutations = derive_seed(seed, "permutations", r)
                    phis = sampled_semivalue(scorer.values, weights, 40, permutations).values
                    cg = cross_game_rewards(phis)
                rows = [row for row in report.rows if row.sweep == label and row.repeat == r]
                got = [(row.value, row.reward) for row in rows]
                want = np.column_stack([np.diag(cg.per_game), cg.breve]).tolist()
                if family == "gp":
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
                else:
                    assert got == [tuple(pair) for pair in want]

    def test_cross_validation_grid_appends_the_shared_coalitions_once(self, monkeypatch):
        # The gp-cross-game benchmark's shape. Per repeat, the other sources'
        # coalitions {1}, {1, 2} and {2} are appended once for every point,
        # and each of the 6 points appends its variant at the root of its own
        # lattice and those 3 coalitions on top of it: 2 x (3 + 6 x 4) = 54,
        # where a lattice per point and repeat made 2 x 6 x 7 = 84.
        calls = count_gp_appends(monkeypatch)
        cfg = ExperimentConfig.from_dict({
            "seed": 1,
            "repeats": 2,
            "model": {"family": "gp", "lengthscales": [0.48, 0.54, 0.69, 1.15, 1.8, 400.0],
                      "noise_var": 0.03},
            "sources": [{"generator": "friedman", "n_points": k} for k in (400, 300, 300)],
            "post": {"kind": "cross-validation", "validation_frac": 0.25},
            "sweep": {"axis": "strategy-grid", "source": 0, "values": [
                *SIX_STRATEGIES[:4], {"tag": "inject", "frac": 0.5, "offset": 0.1},
                SIX_STRATEGIES[5],
            ]},
        })
        report = run_experiment(cfg)
        assert len(calls["append"]) == 54
        assert not calls["sibling"]
        assert len(report.rows) == 6 * 2 * 3

    @ESTIMATORS
    def test_gp_grid_rows_match_each_point_run_alone(self, estimator):
        report = run_experiment(gp_grid_config(0, SIX_STRATEGIES, estimator=estimator))
        for label, point in experiment._sweep_points(report.config):
            alone = run_experiment(ExperimentConfig.from_dict({**point, "sweep": None}))
            got, want = point_rows(report, label), point_rows(alone, None)
            assert [row[:3] for row in got] == [row[:3] for row in want]
            np.testing.assert_allclose(
                [row[3:] for row in got], [row[3:] for row in want], rtol=1e-10, atol=1e-12
            )

    def test_sampled_grid_builds_one_scorer_per_repeat(self, monkeypatch):
        # Every point of a sampled repeat draws the same permutations, so one
        # scorer serves them all, and its lattice shares the coalitions
        # without the swept source between the points.
        from truthval import valuation

        scorer_class, block_cross = experiment.CoalitionScorer, valuation.block_cross
        scorers, appends = [], []

        def counted_scorer(*args, **kwargs):
            scorers.append(args)
            return scorer_class(*args, **kwargs)

        def counted_cross(*args, **kwargs):
            appends.append(args[1])
            return block_cross(*args, **kwargs)

        monkeypatch.setattr(experiment, "CoalitionScorer", counted_scorer)
        monkeypatch.setattr(valuation, "block_cross", counted_cross)
        values = ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"]
        grid = gp_grid_config(1, values, estimator={"kind": "sampled", "permutations": 40})
        run_experiment(grid)
        grid_scorers, grid_appends = len(scorers), len(appends)
        scorers.clear()
        appends.clear()
        for _, point in experiment._sweep_points(grid.resolved):
            run_experiment(ExperimentConfig.from_dict({**point, "sweep": None}))
        assert grid_scorers == 2  # the repeats
        assert len(scorers) == 2 * len(values)
        assert grid_appends < len(appends)

    @pytest.mark.parametrize(
        "cross, estimator, scorers",
        [
            (True, "exact", 2),  # one per repeat, for every point on its splits
            (True, {"kind": "sampled", "permutations": 40}, 2),
            (False, "exact", 1),  # one table for every point and repeat
        ],
        ids=["cross-validation", "sampled-cross-validation", "exact"],
    )
    def test_scorers_per_grid(self, monkeypatch, cross, estimator, scorers):
        from truthval import mechanisms

        scorer_class, built, alive = experiment.CoalitionScorer, [], []

        def counted_scorer(*args, **kwargs):
            # Each scorer is dropped before the next one is built.
            assert all(ref() is None for ref in alive)
            built.append(args)
            alive.append(weakref.ref(scorer := scorer_class(*args, **kwargs)))
            return scorer

        monkeypatch.setattr(experiment, "CoalitionScorer", counted_scorer)
        monkeypatch.setattr(mechanisms, "CoalitionScorer", counted_scorer)
        values = ["truthful", {"tag": "subset", "frac": 0.5}, "duplicate"]
        grid = gp_grid_config(1, values, estimator=estimator).resolved
        if cross:
            grid = {**grid, "post": "cross-validation", "validation": None}
        report = run_experiment(ExperimentConfig.from_dict(grid))
        assert len(built) == scorers
        assert len(report.rows) == 3 * 2 * 3
