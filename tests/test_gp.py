"""GP regression: posterior algebra, predictive scoring, numerical guards.

The latent posterior is read off a :class:`~truthval.gp.GpPath` after one
:func:`~truthval.gp.append_block`, and log scores off :func:`dvf_value`; both
are checked against the dense solves on the raw rows in gp_reference.
"""

import math

import numpy as np
import pytest

from truthval import (
    CoalitionScorer,
    Dataset,
    DvfSpec,
    GpHyper,
    NumericalError,
    binary_dataset,
    concat_datasets,
    dvf_value,
    empty_dataset,
    log_predictive,
    outputs_dataset,
    se_ard_kernel,
)
from truthval.errors import ConfigurationError, InputError
from truthval.gp import GpPath, append_block, gp_block

from gp_reference import gp_log_score_raw_rows, gp_predict_raw_rows


def unit_hyper(**kwargs):
    return GpHyper(**kwargs)


def random_train(rng, n, d=2):
    return Dataset(rng.uniform(size=(n, d)), rng.normal(size=n))


def path_posterior(train, test, hyper):
    """Latent mean and covariance at ``test`` after appending the block of
    ``train`` to an empty path at the model's jitter."""
    block = gp_block(train)
    path = GpPath(block.counts.size, test)
    append_block(path, 0, block, hyper, hyper.jitter, test)
    return path.proj.T @ path.white[0], se_ard_kernel(test, test, hyper) - path.proj.T @ path.proj


def log_score(hyper, validation, kind="log-score"):
    return DvfSpec(kind, model=hyper, validation=validation)


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
        # A source with no rows leaves the posterior at the prior: it is
        # worth exactly zero, adds nothing to another source, and the value of
        # the other is scored against the prior's density of the validation set.
        rng = np.random.default_rng(6)
        hyper = unit_hyper()
        data, val = random_train(rng, 5), random_train(rng, 3)
        table = CoalitionScorer(hyper, "log-score", [empty_dataset(2), data], val).table()[0]
        assert table[0b01] == 0.0
        assert table[0b11] == table[0b10]
        want = gp_log_score_raw_rows(hyper, "log-score", val, data)
        assert table[0b10] == pytest.approx(want, rel=1e-12)

    def test_single_point_scalar_algebra(self):
        # k = 1 at zero distance: mean stays 0 (zero target), latent variance
        # drops to 1 - 1/(1+1) = 0.5.
        train = Dataset(np.array([[0.0]]), np.array([0.0]))
        mean, cov = path_posterior(train, np.array([[0.0]]), unit_hyper())
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_two_point_train_matches_dense_solve(self):
        # Independent oracle: solve the 2x2 noisy-kernel system directly.
        hyper = GpHyper(lengthscales=0.7, signal_var=1.3, noise_var=0.4)
        train = Dataset(np.array([[0.1], [0.8]]), np.array([1.0, -0.5]))
        test = np.array([[0.4]])
        expected_mean, expected_cov = gp_predict_raw_rows(hyper, train, test)
        mean, cov = path_posterior(train, test, hyper)
        assert mean[0] == pytest.approx(expected_mean[0], abs=1e-10)
        assert cov[0, 0] == pytest.approx(expected_cov[0, 0], abs=1e-10)

    def test_monotone_information(self):
        # Conditioning on one more training point never raises latent variance.
        rng = np.random.default_rng(7)
        hyper = unit_hyper()
        for _ in range(10):
            train = random_train(rng, int(rng.integers(1, 15)))
            extra = random_train(rng, 1)
            test = rng.uniform(size=(6, 2))
            before = np.diag(path_posterior(train, test, hyper)[1])
            after = np.diag(path_posterior(concat_datasets([train, extra]), test, hyper)[1])
            assert np.all(after <= before + 1e-10)


class TestLogPredictive:
    def test_single_point_value(self):
        # log N(0 | 0, 0.5 + 1) - log N(0 | 0, 1 + 1) = 1/2 log(4 / 3).
        train = Dataset(np.array([[0.0]]), np.array([0.0]))
        val = Dataset(np.array([[0.0]]), np.array([0.0]))
        got = dvf_value(log_score(unit_hyper(), val), train)
        assert got == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)

    def test_far_validation_reverts_to_prior(self):
        # With a tiny lengthscale the kernel correlation vanishes and each
        # validation point is scored under N(0, signal_var + noise_var) with
        # or without the training data, which is then worth nothing.
        hyper = GpHyper(lengthscales=1e-3, signal_var=2.0, noise_var=0.5)
        train = Dataset(np.array([[0.0]]), np.array([3.0]))
        val = Dataset(np.array([[0.9]]), np.array([0.7]))
        assert dvf_value(log_score(hyper, val), train) == pytest.approx(0.0, abs=1e-9)
        # At the training input the same output is scored under the posterior
        # N(2 / 2.5 * 3, 2 - 2^2 / 2.5 + 0.5) = N(2.4, 0.9) against that prior.
        near = Dataset(np.array([[0.0]]), np.array([0.7]))
        want = -0.5 * (math.log(2 * math.pi * 0.9) + 1.7**2 / 0.9) + 0.5 * (
            math.log(2 * math.pi * 2.5) + 0.7**2 / 2.5
        )
        assert dvf_value(log_score(hyper, near), train) == pytest.approx(want, rel=1e-12)

    def test_chain_rule_consistency(self):
        # log p(T | D) = sum_i log p(t_i | D, t_<i), so with T's values
        # v_T(D) = sum_i v_{t_i}(D + t_<i) - sum_i v_{t_i}(t_<i), where
        # v_t(S) = log p(t | S) - log p(t) is the value on validation set t.
        rng = np.random.default_rng(9)
        hyper = GpHyper(lengthscales=[0.8, 1.6], signal_var=1.2, noise_var=0.3)
        for _ in range(8):
            train = random_train(rng, int(rng.integers(0, 20)))
            val = random_train(rng, int(rng.integers(1, 6)))
            joint = dvf_value(log_score(hyper, val), train)
            chained = 0.0
            for i in range(len(val)):
                spec = log_score(hyper, Dataset(val.inputs[i : i + 1], val.outputs[i : i + 1]))
                before = Dataset(val.inputs[:i], val.outputs[:i])
                chained += dvf_value(spec, concat_datasets([train, before]))
                chained -= dvf_value(spec, before)
            assert chained == pytest.approx(joint, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        hyper = unit_hyper()
        train = random_train(rng, 9)
        val = random_train(rng, 4)
        p_train, p_val = rng.permutation(9), rng.permutation(4)
        shuffled_train = Dataset(train.inputs[p_train], train.outputs[p_train])
        shuffled_val = Dataset(val.inputs[p_val], val.outputs[p_val])
        assert dvf_value(log_score(hyper, shuffled_val), shuffled_train) == pytest.approx(
            dvf_value(log_score(hyper, val), train), abs=1e-10
        )

    def test_pointwise_matches_joint_for_single_point(self):
        rng = np.random.default_rng(11)
        train = random_train(rng, 6)
        val = random_train(rng, 1)
        single = dvf_value(log_score(unit_hyper(), val, "mean-log-score"), train)
        assert single == pytest.approx(dvf_value(log_score(unit_hyper(), val), train), abs=1e-10)

    def test_duplicated_train_rows_collapse_to_one_row(self):
        # Identical rows make the noiseless kernel singular; they enter as one
        # row with the noise divided by their count, which factors without
        # any jitter even where the noise is below an ulp of the kernel, and
        # scores as the raw rows do.
        train = Dataset(np.array([[0.5], [0.5], [0.5]]), np.array([1.0, 0.2, 1.3]))
        val = Dataset(np.array([[0.2]]), np.array([0.4]))
        got = dvf_value(log_score(unit_hyper(), val), train)
        want = gp_log_score_raw_rows(unit_hyper(), "log-score", val, train)
        assert got == pytest.approx(want, rel=1e-12)
        assert math.isfinite(dvf_value(log_score(GpHyper(noise_var=1e-17), val), train))

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
            path_posterior(train, x, GpHyper(noise_var=1e-20, jitter=1e-17))
        hyper = GpHyper(noise_var=1e-20, jitter=1e-9)
        assert np.array_equal(se_ard_kernel(x, x, hyper), np.ones((3, 3)))
        want_mean, want_cov = gp_predict_raw_rows(hyper, train, x)
        mean, cov = path_posterior(train, x, hyper)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-5)
        np.testing.assert_allclose(cov, want_cov, rtol=1e-5)
        np.testing.assert_allclose(cov, hyper.jitter / 3.0, rtol=1e-5)

    def test_unsalvageable_kernel_raises(self, monkeypatch):
        # A training kernel that is not positive definite at the configured
        # jitter raises, naming the noise and the jitter: no jitter is added
        # behind the configured one.
        def failing(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        rng = np.random.default_rng(12)
        train, val = random_train(rng, 4), random_train(rng, 2)
        with pytest.raises(
            NumericalError, match="noise_var 1 with jitter 0; a larger model 'jitter'"
        ):
            dvf_value(log_score(GpHyper(), val), train)


class TestScalarErrors:
    """The errors of scoring one GP dataset, which the scorer raises."""

    def test_pool_with_other_feature_count(self):
        rng = np.random.default_rng(13)
        spec = log_score(unit_hyper(), random_train(rng, 3, d=3))
        with pytest.raises(InputError, match="3 features"):
            dvf_value(spec, random_train(rng, 4))

    def test_binary_data(self):
        spec = log_score(unit_hyper(), outputs_dataset([0.3, -1.0]))
        with pytest.raises(InputError, match="binary"):
            dvf_value(spec, binary_dataset([1, 0, 1]))

    def test_kernel_that_is_not_positive_definite(self):
        x = np.array([[0.0], [1e-9], [2e-9]])
        val = random_train(np.random.default_rng(14), 2, d=1)
        spec = log_score(GpHyper(noise_var=1e-20, jitter=1e-17), val)
        with pytest.raises(NumericalError, match="noise_var 1e-20 with jitter 1e-17"):
            dvf_value(spec, Dataset(x, np.array([0.5, -1.0, 2.0])))

    def test_closed_forms_refuse_a_gp(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ConfigurationError, match="dvf_value or CoalitionScorer"):
            log_predictive(GpHyper(), random_train(rng, 3), random_train(rng, 2))
