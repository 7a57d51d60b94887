"""Conjugate-family behavior: updates, sufficient statistics, predictives."""

import math

import numpy as np
import pytest

from truthval import (
    BetaBernoulliModel,
    Dataset,
    GaussianMeanModel,
    InputError,
    LinearRegressionModel,
    binary_dataset,
    combine_stats,
    concat_datasets,
    empty_dataset,
    log_predictive,
    mean_log_predictive,
    outputs_dataset,
    posterior_params,
    posterior_update,
    prior_params,
    suff_stats,
)
from truthval.errors import ConfigurationError


def random_binary(rng, n):
    return binary_dataset((rng.random(n) < 0.6).astype(float))


def random_regression(rng, n, d):
    return Dataset(rng.normal(size=(n, d)), rng.normal(size=n))


class TestSuffStats:
    def test_empty_dataset_has_zero_stats(self):
        model = BetaBernoulliModel()
        stats = suff_stats(binary_dataset([]), model)
        assert stats.count == 0
        assert np.all(stats.vector == 0.0)

    def test_binary_counts(self):
        stats = suff_stats(binary_dataset([1, 1, 0]), BetaBernoulliModel())
        assert stats.count == 3
        assert stats.vector[0] == 2.0

    def test_linreg_hand_example(self):
        # X = [1; 2], y = [1; 1]: y'y = 2, X'y = 3, X'X = 5 by direct products.
        model = LinearRegressionModel(n_features=1)
        data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
        stats = suff_stats(data, model)
        assert stats.count == 2
        np.testing.assert_allclose(stats.vector, [2.0, 3.0, 5.0])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(InputError):
            suff_stats(outputs_dataset([0.5]), BetaBernoulliModel())

    def test_additivity_over_random_partitions(self):
        rng = np.random.default_rng(1)
        model = LinearRegressionModel(n_features=3)
        for _ in range(50):
            a = random_regression(rng, rng.integers(0, 8), 3)
            b = random_regression(rng, rng.integers(0, 8), 3)
            merged = suff_stats(concat_datasets([a, b], n_features=3, kind="regression"), model)
            summed = combine_stats(suff_stats(a, model), suff_stats(b, model))
            assert merged.count == summed.count
            # matrix products accumulate in a different order, so allow ulps
            np.testing.assert_allclose(merged.vector, summed.vector, rtol=1e-12, atol=0)

    def test_additivity_exact_for_counts(self):
        rng = np.random.default_rng(12)
        model = BetaBernoulliModel()
        for _ in range(50):
            a = random_binary(rng, int(rng.integers(0, 10)))
            b = random_binary(rng, int(rng.integers(0, 10)))
            merged = suff_stats(concat_datasets([a, b], n_features=0, kind="binary"), model)
            summed = combine_stats(suff_stats(a, model), suff_stats(b, model))
            assert merged.count == summed.count
            np.testing.assert_array_equal(merged.vector, summed.vector)

    def test_duplication_changes_stats(self):
        # Duplicated data must be visible to the model, otherwise duplication
        # could never be strictly penalized.
        model = BetaBernoulliModel()
        single = binary_dataset([1.0])
        doubled = concat_datasets([single, single])
        a = suff_stats(single, model)
        b = suff_stats(doubled, model)
        assert (a.count, tuple(a.vector)) != (b.count, tuple(b.vector))


class TestPosteriorUpdate:
    def test_beta_counts(self):
        model = BetaBernoulliModel(1, 1)
        post = posterior_update(
            prior_params(model), suff_stats(binary_dataset([1, 1, 1, 0]), model)
        )
        a = post.nu0 * post.sigma0[0]
        assert a == pytest.approx(4.0, abs=1e-12)
        assert post.nu0 - a == pytest.approx(2.0, abs=1e-12)

    def test_empty_stats_is_identity(self):
        model = GaussianMeanModel(0.3, 2.0, 0.7)
        prior = prior_params(model)
        assert posterior_update(prior, suff_stats(outputs_dataset([]), model)) is prior

    def test_gaussian_precision_weighting(self):
        model = GaussianMeanModel(prior_mean=0.0, prior_var=1.0, noise_var=1.0)
        post = posterior_update(
            prior_params(model), suff_stats(outputs_dataset([2.0]), model)
        )
        assert post.sigma0[0] == pytest.approx(1.0, abs=1e-12)
        assert model.noise_var / post.nu0 == pytest.approx(0.5, abs=1e-12)

    def test_family_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            posterior_update(
                prior_params(BetaBernoulliModel()),
                suff_stats(outputs_dataset([1.0]), GaussianMeanModel()),
            )

    def test_two_step_update_matches_one_step(self):
        rng = np.random.default_rng(2)
        for model in (
            BetaBernoulliModel(2.0, 3.0),
            GaussianMeanModel(0.5, 2.0, 1.5),
            LinearRegressionModel(n_features=2, prior_var=0.8, noise_var=0.4),
        ):
            for _ in range(20):
                if isinstance(model, BetaBernoulliModel):
                    a, b = random_binary(rng, 4), random_binary(rng, 3)
                elif isinstance(model, GaussianMeanModel):
                    a = outputs_dataset(rng.normal(size=4))
                    b = outputs_dataset(rng.normal(size=3))
                else:
                    a, b = random_regression(rng, 4, 2), random_regression(rng, 3, 2)
                joint = posterior_update(
                    prior_params(model),
                    suff_stats(concat_datasets([a, b]), model),
                )
                stepped = posterior_update(
                    posterior_update(prior_params(model), suff_stats(a, model)),
                    suff_stats(b, model),
                )
                assert stepped.nu0 == joint.nu0
                np.testing.assert_allclose(stepped.sigma0, joint.sigma0, rtol=1e-12)


class TestLogPredictive:
    def test_beta_single_observation(self):
        model = BetaBernoulliModel(1, 1)
        assert log_predictive(model, binary_dataset([1]), binary_dataset([1])) == (
            pytest.approx(math.log(2 / 3), abs=1e-12)
        )

    def test_prior_predictive_is_uniform(self):
        model = BetaBernoulliModel(1, 1)
        lp = log_predictive(model, binary_dataset([]), binary_dataset([1]))
        assert lp == pytest.approx(math.log(0.5), abs=1e-12)

    def test_beta_three_point_posterior(self):
        model = BetaBernoulliModel(1, 1)
        lp = log_predictive(model, binary_dataset([1, 1, 0]), binary_dataset([1]))
        assert lp == pytest.approx(math.log(3 / 5), abs=1e-12)

    def test_empty_validation_rejected(self):
        with pytest.raises(InputError):
            log_predictive(BetaBernoulliModel(), binary_dataset([1]), binary_dataset([]))

    def test_predictive_normalization(self):
        # Summing the predictive over both outcomes must give exactly one.
        rng = np.random.default_rng(3)
        model = BetaBernoulliModel(1.5, 2.5)
        for _ in range(30):
            data = random_binary(rng, int(rng.integers(0, 10)))
            total = sum(
                math.exp(log_predictive(model, data, binary_dataset([y])))
                for y in (0.0, 1.0)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_joint_normalization_over_sequences(self):
        from itertools import product

        model = BetaBernoulliModel(2.0, 1.0)
        data = binary_dataset([1, 0, 1])
        total = sum(
            math.exp(log_predictive(model, data, binary_dataset(list(bits))))
            for bits in product((0.0, 1.0), repeat=3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model,make",
        [
            (BetaBernoulliModel(1.3, 0.7), "binary"),
            (GaussianMeanModel(0.2, 1.7, 0.6), "outputs"),
            (LinearRegressionModel(n_features=2, prior_var=1.2, noise_var=0.5), "reg"),
        ],
    )
    def test_chain_rule_consistency(self, model, make):
        # log p(t1, t2 | D) = log p(t1 | D) + log p(t2 | D + t1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            if make == "binary":
                data = random_binary(rng, 5)
                val = random_binary(rng, 3)
            elif make == "outputs":
                data = outputs_dataset(rng.normal(size=5))
                val = outputs_dataset(rng.normal(size=3))
            else:
                data = random_regression(rng, 5, 2)
                val = random_regression(rng, 3, 2)
            joint = log_predictive(model, data, val)
            chained = 0.0
            seen = data
            for i in range(len(val)):
                point = Dataset(val.inputs[i : i + 1], val.outputs[i : i + 1], val.kind)
                chained += log_predictive(model, seen, point)
                seen = concat_datasets([seen, point])
            assert chained == pytest.approx(joint, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        model = LinearRegressionModel(n_features=2, prior_var=1.0, noise_var=0.3)
        data = random_regression(rng, 6, 2)
        val = random_regression(rng, 4, 2)
        perm = rng.permutation(6)
        shuffled = Dataset(data.inputs[perm], data.outputs[perm])
        assert log_predictive(model, shuffled, val) == pytest.approx(
            log_predictive(model, data, val), abs=1e-10
        )

    def test_linreg_matches_dense_marginal(self):
        # Independent oracle: the marginal of y* is N(0, prior_var*Xf Xf' + noise*I)
        # over the stacked (train, validation) rows; condition numerically.
        rng = np.random.default_rng(6)
        model = LinearRegressionModel(n_features=3, prior_var=0.9, noise_var=0.4)
        train = random_regression(rng, 5, 3)
        val = random_regression(rng, 3, 3)

        def dense_joint_logpdf(x, y):
            cov = model.prior_var * (x @ x.T) + model.noise_var * np.eye(len(y))
            sign, logdet = np.linalg.slogdet(2 * np.pi * cov)
            return -0.5 * (logdet + y @ np.linalg.solve(cov, y))

        stacked_x = np.vstack([train.inputs, val.inputs])
        stacked_y = np.concatenate([train.outputs, val.outputs])
        expected = dense_joint_logpdf(stacked_x, stacked_y) - dense_joint_logpdf(
            train.inputs, train.outputs
        )
        assert log_predictive(model, train, val) == pytest.approx(expected, abs=1e-9)

    def test_gaussian_mean_matches_dense_joint(self):
        # Independent oracle: given the posterior N(mu, s2 / nu) of the mean, the
        # validation outputs are jointly N(mu 1, s2 (I + 1 1^T / nu)).
        rng = np.random.default_rng(7)
        for _ in range(20):
            model = GaussianMeanModel(
                rng.normal(0.0, 3.0), rng.uniform(0.1, 4.0), rng.uniform(0.1, 2.0)
            )
            data = outputs_dataset(rng.normal(2.0, 1.5, size=int(rng.integers(0, 8))))
            val = outputs_dataset(rng.normal(2.0, 1.5, size=int(rng.integers(1, 9))))
            params = posterior_params(model, data)
            mu, nu, m = params.sigma0[0], params.nu0, len(val)
            cov = model.noise_var * (np.eye(m) + np.ones((m, m)) / nu)
            r = val.outputs - mu
            sign, logdet = np.linalg.slogdet(2 * np.pi * cov)
            expected = -0.5 * (logdet + r @ np.linalg.solve(cov, r))
            assert log_predictive(model, data, val) == pytest.approx(expected, abs=1e-10)


class TestMeanLogPredictive:
    def test_single_point_equals_joint(self):
        model = BetaBernoulliModel(1, 1)
        data = binary_dataset([1, 0, 1])
        val = binary_dataset([1])
        assert mean_log_predictive(model, data, val) == pytest.approx(
            log_predictive(model, data, val), abs=1e-12
        )

    def test_symmetric_two_point_case(self):
        model = BetaBernoulliModel(1, 1)
        got = mean_log_predictive(model, binary_dataset([1, 0]), binary_dataset([1, 0]))
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_no_posterior_chaining(self):
        # Both validation points are scored against the same posterior 3/5.
        model = BetaBernoulliModel(1, 1)
        got = mean_log_predictive(model, binary_dataset([1, 1, 0]), binary_dataset([1, 1]))
        assert got == pytest.approx(math.log(3 / 5), abs=1e-12)


class TestDatasetContainer:
    def test_row_count_mismatch(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 1)), np.zeros(3))

    def test_binary_encoding_enforced(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((1, 1)), np.array([0.5]), "binary")

    def test_empty_dataset_is_valid(self):
        ds = empty_dataset(4)
        assert len(ds) == 0 and ds.n_features == 4

    def test_arrays_are_immutable(self):
        ds = outputs_dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            ds.outputs[0] = 5.0
