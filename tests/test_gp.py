"""GP regression: posterior algebra, predictive scoring, numerical guards."""

import math

import numpy as np
import pytest

from truthval import (
    Dataset,
    GpHyper,
    NumericalError,
    concat_datasets,
    empty_dataset,
    gp_posterior,
    log_predictive,
    mean_log_predictive,
    se_ard_kernel,
)
from truthval.errors import ConfigurationError
from truthval.gp import gp_block


def unit_hyper(**kwargs):
    return GpHyper(**kwargs)


def random_train(rng, n, d=2):
    return Dataset(rng.uniform(size=(n, d)), rng.normal(size=n))


class TestKernel:
    def test_diagonal_is_signal_var(self):
        hyper = GpHyper(lengthscales=[0.5, 2.0], signal_var=3.0)
        x = np.random.default_rng(0).uniform(size=(4, 2))
        k = se_ard_kernel(x, x, hyper)
        np.testing.assert_allclose(np.diag(k), 3.0, atol=1e-12)

    @pytest.mark.parametrize(
        "lengthscales, signal_var", [(0.7, 1.0), ([0.48, 0.54, 1.15, 400.0], 2.3)]
    )
    def test_in_place_kernel_is_bit_identical_to_plain_expression(
        self, lengthscales, signal_var
    ):
        rng = np.random.default_rng(5)
        xa, xb = rng.normal(size=(37, 4)), rng.normal(size=(23, 4))
        hyper = GpHyper(lengthscales=lengthscales, signal_var=signal_var)
        ls = hyper.resolved_lengthscales(4)

        def plain(a, b):
            sa, sb = a / ls, b / ls
            sq = np.sum(sa**2, axis=1)[:, None] + np.sum(sb**2, axis=1)[None, :]
            sq = sq - 2.0 * (sa @ sb.T)
            return signal_var * np.exp(-0.5 * np.maximum(sq, 0.0))

        for a, b in ((xa, xb), (xa, xa)):
            assert np.array_equal(se_ard_kernel(a, b, hyper), plain(a, b))

    @pytest.mark.parametrize("lengthscales", [0.3, 7.0])
    def test_no_features_give_exactly_signal_var(self, lengthscales):
        # Every pair is maximally similar; the general expression gives that.
        hyper = GpHyper(lengthscales=lengthscales, signal_var=2.7)
        k = se_ard_kernel(np.empty((4, 0)), np.empty((3, 0)), hyper)
        assert np.array_equal(k, np.full((4, 3), 2.7))

    def test_lengthscale_validation(self):
        with pytest.raises(ConfigurationError):
            GpHyper(lengthscales=[1.0, -1.0])

    def test_mismatched_lengthscale_count(self):
        hyper = GpHyper(lengthscales=[1.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            hyper.resolved_lengthscales(2)


class TestPosterior:
    def test_empty_train_returns_prior(self):
        hyper = unit_hyper()
        x = np.array([[0.2, 0.4], [0.9, 0.1]])
        post = gp_posterior(empty_dataset(2), x, hyper)
        np.testing.assert_allclose(post.mean, 0.0)
        np.testing.assert_allclose(post.cov, se_ard_kernel(x, x, hyper))

    def test_single_point_scalar_algebra(self):
        # k = 1 at zero distance: mean stays 0 (zero target), latent variance
        # drops to 1 - 1/(1+1) = 0.5.
        train = Dataset(np.array([[0.0]]), np.array([0.0]))
        post = gp_posterior(train, np.array([[0.0]]), unit_hyper())
        assert post.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_two_point_train_matches_dense_solve(self):
        # Independent oracle: solve the 2x2 noisy-kernel system directly.
        hyper = GpHyper(lengthscales=0.7, signal_var=1.3, noise_var=0.4)
        train = Dataset(np.array([[0.1], [0.8]]), np.array([1.0, -0.5]))
        test = np.array([[0.4]])
        k_train = se_ard_kernel(train.inputs, train.inputs, hyper) + 0.4 * np.eye(2)
        k_cross = se_ard_kernel(train.inputs, test, hyper)
        alpha = np.linalg.solve(k_train, train.outputs)
        expected_mean = k_cross.T @ alpha
        expected_var = se_ard_kernel(test, test, hyper) - k_cross.T @ np.linalg.solve(
            k_train, k_cross
        )
        post = gp_posterior(train, test, hyper)
        assert post.mean[0] == pytest.approx(expected_mean[0], abs=1e-10)
        assert post.cov[0, 0] == pytest.approx(expected_var[0, 0], abs=1e-10)

    def test_monotone_information(self):
        # Conditioning on one more training point never raises latent variance.
        rng = np.random.default_rng(7)
        hyper = unit_hyper()
        for _ in range(10):
            train = random_train(rng, int(rng.integers(1, 15)))
            extra = random_train(rng, 1)
            test = rng.uniform(size=(6, 2))
            before = np.diag(gp_posterior(train, test, hyper).cov)
            after = np.diag(
                gp_posterior(concat_datasets([train, extra]), test, hyper).cov
            )
            assert np.all(after <= before + 1e-10)

    def test_cov_symmetric(self):
        rng = np.random.default_rng(8)
        post = gp_posterior(random_train(rng, 12), rng.uniform(size=(5, 2)), unit_hyper())
        np.testing.assert_allclose(post.cov, post.cov.T, atol=1e-10)


class TestLogPredictive:
    def test_single_point_value(self):
        train = Dataset(np.array([[0.0]]), np.array([0.0]))
        val = Dataset(np.array([[0.0]]), np.array([0.0]))
        got = log_predictive(unit_hyper(), train, val)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi * 1.5), abs=1e-12)

    def test_far_validation_reverts_to_prior(self):
        # With a tiny lengthscale the kernel correlation vanishes and each
        # validation point is scored under N(0, signal_var + noise_var).
        hyper = GpHyper(lengthscales=1e-3, signal_var=2.0, noise_var=0.5)
        train = Dataset(np.array([[0.0]]), np.array([3.0]))
        val = Dataset(np.array([[0.9]]), np.array([0.7]))
        expected = -0.5 * (math.log(2 * math.pi * 2.5) + 0.7**2 / 2.5)
        assert log_predictive(hyper, train, val) == pytest.approx(expected, abs=1e-9)

    def test_chain_rule_consistency(self):
        rng = np.random.default_rng(9)
        hyper = GpHyper(lengthscales=[0.8, 1.6], signal_var=1.2, noise_var=0.3)
        for _ in range(8):
            train = random_train(rng, int(rng.integers(0, 20)))
            val = random_train(rng, int(rng.integers(1, 6)))
            joint = log_predictive(hyper, train, val)
            chained = 0.0
            seen = train
            for i in range(len(val)):
                point = Dataset(val.inputs[i : i + 1], val.outputs[i : i + 1])
                chained += log_predictive(hyper, seen, point)
                seen = concat_datasets([seen, point])
            assert chained == pytest.approx(joint, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        hyper = unit_hyper()
        train = random_train(rng, 9)
        val = random_train(rng, 4)
        p_train, p_val = rng.permutation(9), rng.permutation(4)
        shuffled_train = Dataset(train.inputs[p_train], train.outputs[p_train])
        shuffled_val = Dataset(val.inputs[p_val], val.outputs[p_val])
        assert log_predictive(hyper, shuffled_train, shuffled_val) == pytest.approx(
            log_predictive(hyper, train, val), abs=1e-10
        )

    def test_pointwise_matches_joint_for_single_point(self):
        rng = np.random.default_rng(11)
        train = random_train(rng, 6)
        val = random_train(rng, 1)
        single = mean_log_predictive(unit_hyper(), train, val)
        assert single == pytest.approx(
            log_predictive(unit_hyper(), train, val), abs=1e-10
        )

    def test_duplicated_train_rows_collapse_to_one_row(self):
        # Identical rows make the noiseless kernel singular; they enter as one
        # row with the noise divided by their count, which factors without
        # any jitter.
        train = Dataset(np.array([[0.5], [0.5], [0.5]]), np.array([1.0, 1.0, 1.0]))
        val = Dataset(np.array([[0.2]]), np.array([0.4]))
        assert math.isfinite(log_predictive(unit_hyper(), train, val))

    def test_block_without_repeated_rows_is_the_rows_as_given(self):
        train = random_train(np.random.default_rng(3), 9)
        block = gp_block(train)
        assert np.array_equal(block.inputs, train.inputs)
        assert np.array_equal(block.outputs, train.outputs)
        assert np.array_equal(block.counts, np.ones(9))

    def test_jitter_matches_a_dense_solve_with_the_jitter_added(self):
        # Inputs 1e-9 apart are distinct rows, but their kernel is exactly the
        # all-ones matrix and the noise is below its ulp, so the factorization
        # fails at a jitter of 1e-17 and succeeds at e = 1e-9. At the training
        # inputs the latent covariance is then e / (3 + e) in every entry, which
        # tells the jitters apart.
        x = np.array([[0.0], [1e-9], [2e-9]])
        train = Dataset(x, np.array([0.5, -1.0, 2.0]))
        with pytest.raises(NumericalError, match="noise_var 1e-20 with jitter 1e-17"):
            gp_posterior(train, x, GpHyper(noise_var=1e-20, jitter=1e-17))
        hyper = GpHyper(noise_var=1e-20, jitter=1e-9)
        k_train = se_ard_kernel(x, x, hyper)
        assert np.array_equal(k_train, np.ones((3, 3)))
        k_noisy = k_train + (hyper.noise_var + hyper.jitter) * np.eye(3)
        want_mean = k_train @ np.linalg.solve(k_noisy, train.outputs)
        want_cov = k_train - k_train @ np.linalg.solve(k_noisy, k_train)
        post = gp_posterior(train, x, hyper)
        np.testing.assert_allclose(post.mean, want_mean, rtol=1e-5)
        np.testing.assert_allclose(post.cov, want_cov, rtol=1e-5)
        np.testing.assert_allclose(post.cov, hyper.jitter / 3.0, rtol=1e-5)

    def test_unsalvageable_kernel_raises(self, monkeypatch):
        # A training kernel that is not positive definite at the configured
        # jitter raises, naming the noise and the jitter: no jitter is added
        # behind the configured one.
        def failing(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        train = random_train(np.random.default_rng(12), 4)
        with pytest.raises(
            NumericalError, match="noise_var 1 with jitter 0; a larger model 'jitter'"
        ):
            gp_posterior(train, np.zeros((2, 2)), GpHyper())
