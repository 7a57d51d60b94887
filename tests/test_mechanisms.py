"""Cross-game rewards built from per-source validation splits."""

import numpy as np
import pytest

from truthval import (
    BetaBernoulliModel,
    Dataset,
    DvfSpec,
    binary_dataset,
    build_char_table,
    cross_validation_rewards,
    exact_semivalue,
    make_weights,
    split_train_validation,
)
from truthval.datagen import derive_seed
from truthval.errors import ConfigurationError, UnsupportedConfigurationError
from truthval.mechanisms import cross_game_rewards, cross_game_scorer
from truthval.models import LinearRegressionModel
from truthval.semivalues import sampled_semivalue

MODEL = BetaBernoulliModel(1, 1)


def toy_sources(rng, n, size=6):
    return [binary_dataset((rng.random(size) < 0.5).astype(float)) for _ in range(n)]


class TestCrossValidationRewards:
    def test_accounting_identity(self):
        rng = np.random.default_rng(30)
        sources = toy_sources(rng, 3)
        cg = cross_validation_rewards(sources, 0.5, make_weights("shapley", 3), MODEL, seed=1)
        np.testing.assert_allclose(cg.grave - cg.breve, np.diag(cg.per_game), atol=1e-12)

    def test_matches_independent_double_loop(self):
        # Re-derive every per-game semivalue with a separate split + table +
        # semivalue pass and sum by hand.
        rng = np.random.default_rng(31)
        sources = toy_sources(rng, 3)
        weights = make_weights("shapley", 3)
        seeds = [101, 202, 303]
        cg = cross_validation_rewards(sources, 0.5, weights, MODEL, seed=0, split_seeds=seeds)

        remaining, validations = [], []
        for src, seed in zip(sources, seeds):
            rest, val = split_train_validation(src, 0.5, seed)
            remaining.append(rest)
            validations.append(val)
        expected = np.zeros((3, 3))
        for j in range(3):
            table = build_char_table(
                remaining, DvfSpec("log-score", model=MODEL, validation=validations[j])
            )
            expected[:, j] = exact_semivalue(table, weights)
        np.testing.assert_allclose(cg.per_game, expected, atol=1e-12)
        np.testing.assert_allclose(
            cg.breve, expected.sum(axis=1) - np.diag(expected), atol=1e-12
        )
        np.testing.assert_allclose(cg.grave, expected.sum(axis=1), atol=1e-12)

    def test_modified_symmetry_with_shared_split_seed(self):
        # Identical datasets split with the same seed occupy symmetric roles,
        # so their safe rewards must coincide.
        src = binary_dataset([1, 0, 1, 1, 0, 0])
        cg = cross_validation_rewards(
            [src, src], 0.5, make_weights("shapley", 2), MODEL, seed=0, split_seeds=[7, 7]
        )
        assert cg.breve[0] == pytest.approx(cg.breve[1], abs=1e-12)
        assert cg.per_game[0, 1] == pytest.approx(cg.per_game[1, 0], abs=1e-12)

    def test_per_game_empty_coalition_anchor(self):
        rng = np.random.default_rng(32)
        sources = toy_sources(rng, 2)
        weights = make_weights("shapley", 2)
        seeds = [1, 2]
        remaining, validations = [], []
        for src, seed in zip(sources, seeds):
            rest, val = split_train_validation(src, 0.5, seed)
            remaining.append(rest)
            validations.append(val)
        for j in range(2):
            table = build_char_table(
                remaining, DvfSpec("log-score", model=MODEL, validation=validations[j])
            )
            assert table[0] == 0.0

    def test_source_too_small_named(self):
        sources = [binary_dataset([1, 0, 1]), binary_dataset([1])]
        with pytest.raises(ConfigurationError, match="source 1"):
            cross_validation_rewards(sources, 0.5, make_weights("shapley", 2), MODEL, seed=0)

    def test_split_that_leaves_no_remainder_is_refused(self):
        # ceil(0.9 * n) is all n rows for n = 2 and 3, so no coalition would
        # hold a row and every value and reward would be exactly 0.
        sources = [binary_dataset([1, 0]), binary_dataset([0, 1]), binary_dataset([1, 1, 0])]
        with pytest.raises(ConfigurationError, match=r"source 0 has 2 points.*\(0.9 \* 2\) = 2"):
            cross_validation_rewards(sources, 0.9, make_weights("shapley", 3), MODEL, seed=0)
        cross_validation_rewards(sources, 0.4, make_weights("shapley", 3), MODEL, seed=0)

    def test_needs_two_sources(self):
        with pytest.raises(ConfigurationError):
            cross_validation_rewards(
                [binary_dataset([1, 0])], 0.5, make_weights("shapley", 1), MODEL, seed=0
            )

    def test_default_split_seeds_derived_per_source(self):
        src = binary_dataset([1, 0, 1, 1, 0, 0, 1, 0])
        cg = cross_validation_rewards(
            [src, src], 0.5, make_weights("shapley", 2), MODEL, seed=3
        )
        # Same data but independently derived splits: the games generally
        # differ, while the accounting identity still holds.
        np.testing.assert_allclose(cg.grave - cg.breve, np.diag(cg.per_game), atol=1e-12)

    def test_more_than_twenty_sources_are_refused(self):
        sources = [binary_dataset([1, 0, 1, 1])] * 21
        weights = make_weights("shapley", 21)
        with pytest.raises(UnsupportedConfigurationError, match="21 sources exceed the limit"):
            cross_validation_rewards(sources, 0.5, weights, MODEL, seed=0)


class TestSampledCrossGames:
    """The two pieces the runner and cross_validation_rewards share: the
    split games' scorer, then the reduction of their semivalues."""

    @pytest.mark.parametrize("family", ["shapley", "banzhaf"])
    def test_sampled_per_game_semivalues_within_four_standard_errors(self, family):
        rng = np.random.default_rng(33)
        model = LinearRegressionModel(n_features=2, prior_var=1.0, noise_var=0.25)
        sources = []
        for k in (9, 7, 8, 10):
            x = rng.uniform(-1, 1, size=(k, 2))
            sources.append(Dataset(x, x @ [1.0, -0.5] + rng.normal(0, 0.5, size=k), "regression"))
        weights = make_weights(family, 4)
        seeds = [derive_seed(5, "split", j) for j in range(4)]
        scorer = cross_game_scorer(sources, 0.3, model, seeds)
        exact = exact_semivalue(scorer.table(), weights)
        np.testing.assert_array_equal(
            cross_game_rewards(exact).breve,
            cross_validation_rewards(sources, 0.3, weights, model, 5).breve,
        )
        sampled = sampled_semivalue(scorer.values, weights, 2000, seed=6)
        assert sampled.values.shape == exact.shape == (4, 4)  # (games, sources)
        assert (sampled.stderr > 0).all()
        assert (np.abs(sampled.values - exact) <= 4 * sampled.stderr).all()
        rewards = cross_game_rewards(sampled.values)
        np.testing.assert_allclose(rewards.grave - rewards.breve, np.diag(sampled.values.T))
