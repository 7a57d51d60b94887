"""Data generation, strategies, perturbations, splitting, CSV loading."""

import math

import numpy as np
import pytest

from truthval import (
    BetaBernoulliModel,
    Dataset,
    InputError,
    Strategy,
    apply_strategy,
    binary_dataset,
    derive_seed,
    friedman_generate,
    load_csv,
    output_moments,
    perturb_validation,
    shift_scale_outputs,
    split_train_validation,
    suff_stats,
)
from truthval.datagen import friedman_mean
from truthval.errors import ConfigurationError


class TestFriedman:
    def test_empty(self):
        assert len(friedman_generate(0, seed=0)) == 0

    def test_shapes_and_ranges(self):
        ds = friedman_generate(50, seed=1)
        assert ds.inputs.shape == (50, 6)
        assert np.all((ds.inputs >= 0) & (ds.inputs <= 1))

    def test_noiseless_center_point(self):
        x = np.full((1, 6), 0.5)
        got = friedman_mean(x)[0]
        assert got == pytest.approx(10 * math.sin(math.pi / 4) + 7.5, abs=1e-12)

    def test_feature_five_has_zero_coefficient(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(20, 6))
        shuffled = np.array(x)
        shuffled[:, 5] = rng.permutation(shuffled[:, 5])
        np.testing.assert_array_equal(friedman_mean(x), friedman_mean(shuffled))

    def test_alpha_beta_modify_generator(self):
        x = np.full((1, 6), 0.5)
        nominal = friedman_mean(x)[0]
        assert friedman_mean(x, beta=2.0)[0] == pytest.approx(nominal + 2.0, abs=1e-12)
        assert friedman_mean(x, alpha=1.0)[0] == pytest.approx(
            nominal - 10 * math.sin(math.pi / 4) + 10 * math.sin(math.pi / 2), abs=1e-12
        )

    def test_deterministic(self):
        a = friedman_generate(30, seed=9)
        b = friedman_generate(30, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    @pytest.mark.parametrize("noise_sd", [-1.0, float("nan")])
    def test_invalid_noise_sd_rejected(self, noise_sd):
        # Not silently read as noise_sd = 0.
        with pytest.raises(InputError, match="noise_sd"):
            friedman_generate(5, 0, noise_sd=noise_sd)


class TestStrategies:
    def setup_method(self):
        self.data = friedman_generate(40, seed=3)

    def test_truthful_is_identity(self):
        assert apply_strategy(self.data, Strategy("truthful")) is self.data

    def test_subset_keeps_original_rows(self):
        out = apply_strategy(self.data, Strategy("subset", frac=0.5, seed=4))
        assert len(out) == 20
        rows = {tuple(r) for r in self.data.inputs}
        assert all(tuple(r) in rows for r in out.inputs)

    def test_subset_ceiling(self):
        out = apply_strategy(self.data, Strategy("subset", frac=0.26, seed=4))
        assert len(out) == math.ceil(0.26 * 40)

    def test_duplicate_triples_stats(self):
        data = binary_dataset([1, 0, 1, 1])
        out = apply_strategy(data, Strategy("duplicate", copies=3))
        assert len(out) == 12
        model = BetaBernoulliModel()
        np.testing.assert_array_equal(suff_stats(out, model), 3 * suff_stats(data, model))

    def test_noise_output_regression(self):
        out = apply_strategy(self.data, Strategy("noise-output", level=0.3, seed=5))
        np.testing.assert_array_equal(out.inputs, self.data.inputs)
        assert not np.array_equal(out.outputs, self.data.outputs)

    def test_noise_output_binary_flips(self):
        data = binary_dataset(np.zeros(500))
        out = apply_strategy(data, Strategy("noise-output", level=0.3, seed=6))
        flipped = out.outputs.mean()
        assert 0.2 < flipped < 0.4

    def test_noise_output_binary_level_above_one_raises(self):
        # A flip probability of 1 flips every label; above 1 is refused on
        # binary labels, while regression takes it as a standard deviation.
        data = binary_dataset(np.zeros(5))
        assert apply_strategy(data, Strategy("noise-output", level=1.0)).outputs.tolist() == [1.0] * 5
        with pytest.raises(ConfigurationError, match="flip probability.*got 1.5"):
            apply_strategy(data, Strategy("noise-output", level=1.5))
        assert len(apply_strategy(self.data, Strategy("noise-output", level=2.0))) == 40

    def test_inject_appends_out_of_domain_rows(self):
        out = apply_strategy(self.data, Strategy("inject", frac=0.1, offset=0.1, seed=7))
        k = math.ceil(0.1 * 40)
        assert len(out) == 40 + k
        injected = out.inputs[40:]
        for col in range(2):
            assert np.all(injected[:, col] == self.data.inputs[:, col].min() - 0.1)
        np.testing.assert_array_equal(out.outputs[40:], 0.0)

    def test_inject_binary_uses_majority_class(self):
        data = Dataset(np.random.default_rng(8).uniform(size=(10, 2)),
                       np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0], dtype=float),
                       "binary")
        out = apply_strategy(data, Strategy("inject", frac=0.2, seed=9))
        np.testing.assert_array_equal(out.outputs[10:], 1.0)

    def test_inject_empty_errors(self):
        with pytest.raises(InputError):
            apply_strategy(friedman_generate(0, seed=0), Strategy("inject"))

    def test_subset_empty_returns_empty(self):
        out = apply_strategy(friedman_generate(0, seed=0), Strategy("subset", frac=0.5))
        assert len(out) == 0

    def test_noise_input_perturbs_every_cell(self):
        out = apply_strategy(self.data, Strategy("noise-input", sd=0.05, seed=10))
        np.testing.assert_array_equal(out.outputs, self.data.outputs)
        assert np.all(out.inputs != self.data.inputs)

    def test_all_strategies_are_seed_deterministic(self):
        for strat in (
            Strategy("subset", frac=0.4, seed=11),
            Strategy("noise-output", level=0.2, seed=11),
            Strategy("inject", frac=0.2, seed=11),
            Strategy("noise-input", sd=0.1, seed=11),
        ):
            a = apply_strategy(self.data, strat)
            b = apply_strategy(self.data, strat)
            np.testing.assert_array_equal(a.inputs, b.inputs)
            np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_nontrivial_strategies_change_stats(self):
        # Every non-truthful strategy with nonzero parameters must be visible
        # to the model through the sufficient statistics.
        from truthval import LinearRegressionModel

        model = LinearRegressionModel(n_features=6)
        base = suff_stats(self.data, model)
        for strat in (
            Strategy("subset", frac=0.5, seed=12),
            Strategy("noise-output", level=0.2, seed=12),
            Strategy("duplicate", copies=3),
            Strategy("inject", frac=0.1, seed=12),
            Strategy("noise-input", sd=0.05, seed=12),
        ):
            submitted = apply_strategy(self.data, strat)
            out = suff_stats(submitted, model)
            assert len(submitted) != len(self.data) or not np.array_equal(out, base)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Strategy("subset", frac=0.0)
        with pytest.raises(ConfigurationError):
            Strategy("duplicate", copies=0)
        with pytest.raises(ConfigurationError):
            Strategy("sell-data")


class TestPerturbValidation:
    def test_identity(self):
        ds = friedman_generate(25, seed=13)
        out = perturb_validation(ds, 0.0, 1.0, seed=14)
        np.testing.assert_array_equal(out.inputs, ds.inputs)
        np.testing.assert_array_equal(out.outputs, ds.outputs)

    def test_noise_is_seed_deterministic(self):
        ds = friedman_generate(25, seed=13)
        a = perturb_validation(ds, 0.5, 1.0, seed=15)
        b = perturb_validation(ds, 0.5, 1.0, seed=15)
        np.testing.assert_array_equal(a.outputs, b.outputs)
        assert not np.array_equal(a.outputs, ds.outputs)

    def test_sorted_fraction_row_count(self):
        ds = friedman_generate(100, seed=16)
        out = perturb_validation(ds, 0.0, 0.25, seed=17)
        assert len(out) == 25

    def test_sorted_fraction_keeps_sorted_prefix(self):
        ds = friedman_generate(60, seed=18)
        out = perturb_validation(ds, 0.0, 0.5, seed=19)
        # the retained rows are all original rows
        rows = {tuple(r) for r in ds.inputs}
        assert all(tuple(r) in rows for r in out.inputs)

    @pytest.mark.parametrize(
        "noise_sd, sorted_fraction, match",
        [
            (-0.1, 1.0, "noise_sd must be >= 0"),
            (float("nan"), 1.0, "noise_sd must be >= 0"),
            (0.0, 0.0, r"sorted_fraction must be in \(0, 1\]"),
            (0.0, 1.5, r"sorted_fraction must be in \(0, 1\]"),
            (0.0, float("nan"), r"sorted_fraction must be in \(0, 1\]"),
        ],
        ids=["negative-noise", "nan-noise", "fraction-0", "fraction-above-1", "nan-fraction"],
    )
    def test_checks_its_own_inputs(self, noise_sd, sorted_fraction, match):
        ds = friedman_generate(10, seed=20)
        with pytest.raises(ConfigurationError, match=match):
            perturb_validation(ds, noise_sd, sorted_fraction, seed=21)


class TestSplit:
    def test_quarter_split(self):
        ds = friedman_generate(100, seed=20)
        train, val = split_train_validation(ds, 0.25, seed=21)
        assert len(val) == 25 and len(train) == 75
        merged = np.vstack([train.inputs, val.inputs])
        np.testing.assert_array_equal(
            np.sort(merged, axis=0), np.sort(ds.inputs, axis=0)
        )

    def test_tiny_dataset_ceiling(self):
        ds = friedman_generate(1, seed=22)
        train, val = split_train_validation(ds, 0.5, seed=23)
        assert len(val) == 1 and len(train) == 0

    def test_deterministic(self):
        ds = friedman_generate(30, seed=24)
        a = split_train_validation(ds, 0.3, seed=25)
        b = split_train_validation(ds, 0.3, seed=25)
        np.testing.assert_array_equal(a[0].inputs, b[0].inputs)
        np.testing.assert_array_equal(a[1].inputs, b[1].inputs)

    def test_disjointness(self):
        inputs = np.arange(20, dtype=float).reshape(20, 1)
        ds = Dataset(inputs, np.zeros(20))
        train, val = split_train_validation(ds, 0.4, seed=26)
        assert set(train.inputs[:, 0]).isdisjoint(val.inputs[:, 0])

    def test_empty_input(self):
        train, val = split_train_validation(friedman_generate(0, seed=0), 0.5, seed=0)
        assert len(train) == 0 and len(val) == 0

    def test_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            split_train_validation(friedman_generate(5, seed=0), 1.0, seed=0)


class TestLoadCsv(object):
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "target")
        assert ds.inputs.shape == (3, 2)
        np.testing.assert_array_equal(ds.outputs, [3.0, 6.0, 9.0])

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        ds = load_csv(path, "y")
        assert len(ds) == 0 and ds.n_features == 1

    def test_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n1,oops\n")
        with pytest.raises(InputError, match="row 2"):
            load_csv(path, "y")

    def test_binary_domain_enforced(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_text("x,label\n0.1,1\n0.2,2\n")
        with pytest.raises(InputError):
            load_csv(path, "label", kind="binary")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(InputError, match="output column"):
            load_csv(path, "z")


class TestSeedingAndStandardization:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "strategy", 0) == derive_seed(7, "strategy", 0)
        assert derive_seed(7, "strategy", 0) != derive_seed(7, "strategy", 1)
        assert derive_seed(7, "strategy", 0) != derive_seed(8, "strategy", 0)
        assert derive_seed(7, "split", 0) != derive_seed(7, "strategy", 0)

    def test_output_moments_pool_all_rows(self):
        a = Dataset(np.zeros((2, 1)), np.array([1.0, 3.0]))
        b = Dataset(np.zeros((2, 1)), np.array([5.0, 7.0]))
        mean, sd = output_moments([a, b])
        assert mean == pytest.approx(4.0)
        assert sd == pytest.approx(np.std([1, 3, 5, 7]))

    def test_shift_scale(self):
        ds = Dataset(np.zeros((3, 1)), np.array([2.0, 4.0, 6.0]))
        out = shift_scale_outputs(ds, 4.0, 2.0)
        np.testing.assert_allclose(out.outputs, [-1.0, 0.0, 1.0])
