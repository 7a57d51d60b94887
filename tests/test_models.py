"""Conjugate-family behavior: sufficient statistics, posteriors, predictives."""

import math
from fractions import Fraction

import numpy as np
import pytest

from truthval import (
    BetaBernoulliModel,
    Dataset,
    GaussianMeanModel,
    InputError,
    LinearRegressionModel,
    binary_dataset,
    concat_datasets,
    log_predictive,
    mean_log_predictive,
    posterior_params,
    prior_params,
    suff_stats,
)
from truthval.data import empty_dataset, outputs_dataset


def random_binary(rng, n):
    return binary_dataset((rng.random(n) < 0.6).astype(float))


def random_regression(rng, n, d):
    return Dataset(rng.normal(size=(n, d)), rng.normal(size=n))


def exact_linreg_predictive(model, train, val):
    """log p(val | train) from the dense marginal N(0, prior_var X X' + noise_var I)
    of the stacked rows, in exact rational arithmetic: eliminating the
    covariance bordered by y leaves its pivots and -y' cov^-1 y."""

    def joint(x, y):
        x = [[Fraction(v) for v in row] for row in x]
        n = len(y)
        m = [
            [
                Fraction(model.prior_var) * sum(a * b for a, b in zip(x[i], x[j]))
                + (Fraction(model.noise_var) if i == j else 0)
                for j in range(n)
            ]
            + [Fraction(y[i])]
            for i in range(n)
        ]
        m.append([Fraction(v) for v in y] + [Fraction(0)])
        logdet = 0.0
        for k in range(n):
            logdet += math.log(m[k][k])
            for i in range(k + 1, n + 1):
                ratio = m[i][k] / m[k][k]
                for j in range(k + 1, n + 1):
                    m[i][j] -= ratio * m[k][j]
        return -0.5 * (n * math.log(2 * math.pi) + logdet - float(m[n][n]))

    stacked_x = np.vstack([train.inputs, val.inputs])
    stacked_y = np.concatenate([train.outputs, val.outputs])
    return joint(stacked_x, stacked_y) - joint(train.inputs, train.outputs)


class TestSufficientStatistics:
    def test_empty_dataset_has_zero_stats(self):
        model = BetaBernoulliModel()
        assert np.all(suff_stats(binary_dataset([]), model) == 0.0)

    def test_binary_counts(self):
        assert suff_stats(binary_dataset([1, 1, 0]), BetaBernoulliModel())[0] == 2.0

    def test_linreg_hand_example(self):
        # X = [1; 2], y = [1; 1]: y'y = 2, X'y = 3, X'X = 5 by direct products.
        model = LinearRegressionModel(n_features=1)
        data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(suff_stats(data, model), [2.0, 3.0, 5.0])

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
            summed = suff_stats(a, model) + suff_stats(b, model)
            # matrix products accumulate in a different order, so allow ulps
            np.testing.assert_allclose(merged, summed, rtol=1e-12, atol=0)

    def test_additivity_exact_for_counts(self):
        rng = np.random.default_rng(12)
        model = BetaBernoulliModel()
        for _ in range(50):
            a = random_binary(rng, int(rng.integers(0, 10)))
            b = random_binary(rng, int(rng.integers(0, 10)))
            merged = suff_stats(concat_datasets([a, b], n_features=0, kind="binary"), model)
            np.testing.assert_array_equal(merged, suff_stats(a, model) + suff_stats(b, model))

    def test_duplication_changes_stats(self):
        # Duplicated data must be visible to the model, otherwise duplication
        # could never be strictly penalized.
        model = BetaBernoulliModel()
        single = binary_dataset([1.0])
        doubled = concat_datasets([single, single])
        assert not np.array_equal(suff_stats(single, model), suff_stats(doubled, model))


class TestPosteriorUpdate:
    def test_prior_is_pseudo_count_and_summed_statistics(self):
        # (1.75, 4.5) is a prior whose alpha does not survive the round trip
        # (alpha + beta) * (alpha / (alpha + beta)); the sums hold alpha itself.
        assert (1.75 + 4.5) * (1.75 / (1.75 + 4.5)) != 1.75
        nu0, sums0 = prior_params(BetaBernoulliModel(1.75, 4.5))
        assert nu0 == 6.25 and sums0.tolist() == [1.75]
        nu0, sums0 = prior_params(GaussianMeanModel(0.3, 2.0, 0.7))
        assert nu0 == 0.7 / 2.0 and sums0.tolist() == [nu0 * 0.3]

    def test_beta_counts(self):
        model = BetaBernoulliModel(1, 1)
        nu, sums = posterior_params(model, binary_dataset([1, 1, 1, 0]))
        assert sums[0] == 4.0
        assert nu - sums[0] == 2.0

    def test_empty_stats_is_identity(self):
        model = GaussianMeanModel(0.3, 2.0, 0.7)
        nu0, sums0 = prior_params(model)
        nu, sums = posterior_params(model, outputs_dataset([]))
        assert nu == nu0
        np.testing.assert_array_equal(sums, sums0)

    def test_gaussian_precision_weighting(self):
        model = GaussianMeanModel(prior_mean=0.0, prior_var=1.0, noise_var=1.0)
        nu, sums = posterior_params(model, outputs_dataset([2.0]))
        assert sums[0] / nu == pytest.approx(1.0, abs=1e-12)
        assert model.noise_var / nu == pytest.approx(0.5, abs=1e-12)

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
                joint_nu, joint_sums = posterior_params(model, concat_datasets([a, b]))
                nu, sums = posterior_params(model, a)
                assert nu + len(b) == joint_nu
                np.testing.assert_allclose(sums + suff_stats(b, model), joint_sums, rtol=1e-12)


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

    @pytest.mark.parametrize(
        "noise_var, n_train, scale, offset",
        [
            (0.4, 5, 1.0, 0.0),
            (0.4, 5, 0.0, 0.0),  # all-zero outputs
            (0.4, 0, 1.0, 0.0),  # no training rows
            (1e-8, 5, 1e-3, 0.0),  # tiny noise, small outputs
            (0.4, 5, 1.0, 1e4),  # outputs far from the prior mean
        ],
        ids=["random", "zero-outputs", "empty-train", "tiny-noise", "offset"],
    )
    def test_linreg_matches_dense_marginal(self, noise_var, n_train, scale, offset):
        # Observed errors on these cases: at most 5.3e-15, 4.4e-16, 1.8e-15,
        # 1.7e-13 and 3.6e-7 (on a value of -7.2e8). Shifting the augmented
        # Gram's last entry by 1 instead of y'y + noise_var errs by 1.7e-8 on
        # tiny-noise, where the shift is 1e8 noise variances.
        rng = np.random.default_rng(6)
        model = LinearRegressionModel(n_features=3, prior_var=0.9, noise_var=noise_var)

        def shifted(data):
            return Dataset(data.inputs, data.outputs * scale + offset)

        train = shifted(random_regression(rng, n_train, 3))
        val = shifted(random_regression(rng, 3, 3))
        expected = exact_linreg_predictive(model, train, val)
        assert log_predictive(model, train, val) == pytest.approx(expected, rel=1e-14, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_linreg_noiseless_large_inputs_score(self, seed):
        # Outputs on the span of inputs near 1e5 at noise_var 1e-8: y'y is
        # about 1e11 and y'y - b'A^-1 b about 1e-8, so its rounding alone could
        # make the last pivot of the augmented Gram negative.
        rng = np.random.default_rng(seed)
        model = LinearRegressionModel(n_features=2, noise_var=1e-8)
        x, w = rng.uniform(1e5, 2e5, size=(13, 2)), rng.normal(size=2)
        train, val = Dataset(x[:10], x[:10] @ w), Dataset(x[10:], x[10:] @ np.ones(2))
        expected = exact_linreg_predictive(model, train, val)
        assert log_predictive(model, train, val) == pytest.approx(expected, rel=1e-13)

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
            nu, sums = posterior_params(model, data)
            mu, m = sums[0] / nu, len(val)
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


@pytest.mark.parametrize("score", [log_predictive, mean_log_predictive])
def test_validation_feature_count_is_checked(score):
    rng = np.random.default_rng(5)
    model = LinearRegressionModel(n_features=2)
    data, validation = random_regression(rng, 3, 2), random_regression(rng, 2, 3)
    with pytest.raises(InputError, match="validation has 3 features, model expects 2"):
        score(model, data, validation)


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
