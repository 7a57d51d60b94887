"""Semivalue weights, exact/sampled computation, and reward post-processing."""

import itertools
import math

import numpy as np
import pytest

from truthval import (
    CharacteristicTable,
    SemivalueWeights,
    budget_cap,
    exact_semivalue,
    make_weights,
    sampled_semivalue,
    scaled_reward,
)
from truthval.errors import ConfigurationError

# The worked 3-player game: values for {0}, {1}, {2}, pairs, and the grand
# coalition, indexed by bitmask.
GAME = CharacteristicTable(3, np.array([0, 3, 3, 5, 1, 4, 4, 6], dtype=float))
# Lowering player 1's contributions gives the strict-monotonicity comparison.
GAME_PRIME = CharacteristicTable(3, np.array([0, 3, 2, 4, 1, 4, 3, 5], dtype=float))


def permutation_shapley(table: CharacteristicTable) -> np.ndarray:
    """Independent oracle: average marginal contributions over all n! orders."""
    n = table.n
    phi = np.zeros(n)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        mask = 0
        for player in perm:
            phi[player] += table.values[mask | (1 << player)] - table.values[mask]
            mask |= 1 << player
    return phi / len(perms)


def random_table(rng, n, zero_empty=True) -> CharacteristicTable:
    values = rng.normal(size=2**n)
    if zero_empty:
        values[0] = 0.0
    return CharacteristicTable(n, values)


class TestWeights:
    def test_shapley_n3(self):
        w = make_weights("shapley", 3)
        np.testing.assert_allclose(w.w, [1 / 3, 1 / 6, 1 / 3], atol=1e-15)
        assert w.is_fair

    def test_banzhaf_n4(self):
        w = make_weights("banzhaf", 4)
        np.testing.assert_allclose(w.w, 1 / 8, atol=1e-15)
        assert sum(w.w[c] * math.comb(3, c) for c in range(4)) == pytest.approx(1.0)

    def test_individual_violates_fairness_flag(self):
        w = make_weights("individual", 5)
        np.testing.assert_allclose(w.w, [1, 0, 0, 0, 0], atol=0)
        assert not w.is_fair

    def test_beta_1_1_is_shapley(self):
        for n in (1, 2, 3, 5, 8):
            np.testing.assert_allclose(
                make_weights("beta", n, alpha=1.0, beta=1.0).w,
                make_weights("shapley", n).w,
                rtol=1e-12,
            )

    def test_beta_alpha_shifts_weight_to_small_coalitions(self):
        w = make_weights("beta", 5, alpha=16.0, beta=1.0)
        assert np.all(np.diff(w.w) < 0)

    def test_beta_requires_valid_parameters(self):
        with pytest.raises(ConfigurationError):
            make_weights("beta", 3, alpha=0.5, beta=1.0)

    def test_normalization_enforced(self):
        with pytest.raises(ConfigurationError):
            SemivalueWeights(3, np.array([1.0, 1.0, 1.0]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            SemivalueWeights(2, np.array([2.0, -1.0]))


class TestExactSemivalue:
    def test_worked_game_shapley(self):
        phi = exact_semivalue(GAME, make_weights("shapley", 3))
        np.testing.assert_allclose(phi, permutation_shapley(GAME), atol=1e-12)
        np.testing.assert_allclose(phi, [2.5, 2.5, 1.0], atol=1e-12)
        assert phi.sum() == pytest.approx(6.0, abs=1e-12)

    def test_strict_monotonicity_instance(self):
        shapley = make_weights("shapley", 3)
        hi = exact_semivalue(GAME, shapley)[1]
        lo = exact_semivalue(GAME_PRIME, shapley)[1]
        assert hi == pytest.approx(2.5, abs=1e-12)
        assert lo == pytest.approx(1.5, abs=1e-12)
        assert hi > lo

    def test_null_player_gets_exact_zero(self):
        rng = np.random.default_rng(16)
        for family in ("shapley", "banzhaf", "individual"):
            for _ in range(20):
                n = int(rng.integers(2, 7))
                values = rng.normal(size=2**n)
                values[0] = 0.0
                player = int(rng.integers(n))
                for mask in range(2**n):
                    if mask >> player & 1:
                        values[mask] = values[mask & ~(1 << player)]
                phi = exact_semivalue(
                    CharacteristicTable(n, values), make_weights(family, n)
                )
                assert phi[player] == 0.0

    def test_symmetric_players_equal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            values = rng.normal(size=2**n)
            values[0] = 0.0
            i, j = 0, 1
            for mask in range(2**n):
                if not (mask >> i & 1) and not (mask >> j & 1):
                    values[mask | (1 << j)] = values[mask | (1 << i)]
            phi = exact_semivalue(CharacteristicTable(n, values), make_weights("shapley", n))
            assert abs(phi[i] - phi[j]) <= 1e-12

    def test_monotone_in_own_contributions(self):
        # Raising v(C + i) on any subset of coalitions can only help player i.
        rng = np.random.default_rng(18)
        for family in ("shapley", "banzhaf"):
            for _ in range(20):
                n = int(rng.integers(2, 7))
                table = random_table(rng, n)
                i = int(rng.integers(n))
                raised = np.array(table.values)
                for mask in range(2**n):
                    if mask >> i & 1 and rng.random() < 0.5:
                        raised[mask] += rng.uniform(0.1, 1.0)
                w = make_weights(family, n)
                assert (
                    exact_semivalue(CharacteristicTable(n, raised), w)[i]
                    >= exact_semivalue(table, w)[i]
                )

    def test_individual_weights_reduce_to_singleton_value(self):
        rng = np.random.default_rng(19)
        table = random_table(rng, 4)
        phi = exact_semivalue(table, make_weights("individual", 4))
        expected = [table.values[1 << i] - table.values[0] for i in range(4)]
        np.testing.assert_allclose(phi, expected, atol=1e-12)

    def test_group_rationality(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            table = random_table(rng, n)
            phi = exact_semivalue(table, make_weights("shapley", n))
            assert phi.sum() == pytest.approx(table.values[-1], abs=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        n = 5
        t1, t2 = random_table(rng, n), random_table(rng, n)
        a, b = 1.7, -0.4
        combo = CharacteristicTable(n, a * t1.values + b * t2.values)
        w = make_weights("shapley", n)
        np.testing.assert_allclose(
            exact_semivalue(combo, w),
            a * exact_semivalue(t1, w) + b * exact_semivalue(t2, w),
            atol=1e-10,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            exact_semivalue(GAME, make_weights("shapley", 4))


def sampled_shapley(evaluator, n, n_permutations, seed):
    return sampled_semivalue(evaluator, make_weights("shapley", n), n_permutations, seed)


def scalar_sampled_shapley(evaluator, n, n_permutations, seed) -> np.ndarray:
    """Reference estimator: one permutation and one coalition at a time."""
    rng = np.random.default_rng(seed)
    total = np.zeros(n)
    for _ in range(n_permutations):
        mask, prev = 0, evaluator(0)
        for idx in rng.permutation(n):
            mask |= 1 << int(idx)
            cur = evaluator(mask)
            total[idx] += cur - prev
            prev = cur
    return total / n_permutations


class TestSampledShapley:
    def test_single_player_is_exact(self):
        est = sampled_shapley(lambda masks: np.where(masks > 0, 3.25, 0.0), 1, 7, seed=0)
        np.testing.assert_allclose(est.values, [3.25])

    def test_worked_game_within_three_stderr(self):
        est = sampled_shapley(lambda masks: GAME.values[masks], 3, 5000, seed=1)
        for got, se, exact in zip(est.values, est.stderr, (2.5, 2.5, 1.0)):
            assert abs(got - exact) <= 3 * se + 1e-12

    def test_fixed_seed_is_deterministic(self):
        a = sampled_shapley(lambda masks: GAME.values[masks], 3, 200, seed=42)
        b = sampled_shapley(lambda masks: GAME.values[masks], 3, 200, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.stderr, b.stderr)

    def test_unbiased_across_runs(self):
        rng = np.random.default_rng(22)
        n = 8
        table = random_table(rng, n)
        exact = exact_semivalue(table, make_weights("shapley", n))
        runs = np.vstack(
            [
                sampled_shapley(lambda m: table.values[m], n, 100, seed=s).values
                for s in range(200)
            ]
        )
        grand_mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
        assert np.all(np.abs(grand_mean - exact) <= 4 * se)

    def test_same_permutations_as_scalar_loop(self):
        rng = np.random.default_rng(23)
        n = 6
        table = random_table(rng, n)
        want = scalar_sampled_shapley(lambda m: table.values[m], n, 300, seed=5)
        got = sampled_shapley(lambda m: table.values[m], n, 300, seed=5).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSampledSemivalue:
    @pytest.mark.parametrize(
        "weights",
        [make_weights("banzhaf", 8), make_weights("beta", 8, alpha=4.0, beta=1.0)],
        ids=["banzhaf", "beta(4,1)"],
    )
    def test_unbiased_across_runs(self, weights):
        rng = np.random.default_rng(24)
        table = random_table(rng, 8)
        exact = exact_semivalue(table, weights)
        runs = np.vstack(
            [
                sampled_semivalue(lambda m: table.values[m], weights, 100, seed=s).values
                for s in range(200)
            ]
        )
        grand_mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
        assert np.all(np.abs(grand_mean - exact) <= 4 * se)
        # Banzhaf and Beta(4,1) differ from the Shapley value on this table.
        shapley = exact_semivalue(table, make_weights("shapley", 8))
        assert np.abs(exact - shapley).max() > 8 * se.max()

    def test_individual_weights_credit_only_first_position(self):
        # w = (1, 0, ..., 0): each source earns n * v({i}) when it comes first.
        est = sampled_semivalue(lambda m: GAME.values[m], make_weights("individual", 3), 1, 0)
        first = int(np.random.default_rng(0).permutation(3)[0])
        want = np.zeros(3)
        want[first] = 3 * GAME.values[1 << first]
        np.testing.assert_allclose(est.values, want)

    @pytest.mark.parametrize("n_permutations", [1, 60])
    def test_stacked_games_equal_separate_calls(self, n_permutations):
        # An evaluator of G games at once, shape (G, P, n + 1), gives each game
        # what it gives alone: the games share the permutations.
        rng = np.random.default_rng(7)
        tables = np.stack([random_table(rng, 6).values for _ in range(4)])
        weights = make_weights("beta", 6, alpha=4.0, beta=1.0)
        stacked = sampled_semivalue(lambda m: tables[:, m], weights, n_permutations, seed=5)
        assert stacked.values.shape == stacked.stderr.shape == (4, 6)
        for game, values, stderr in zip(tables, stacked.values, stacked.stderr):
            alone = sampled_semivalue(lambda m: game[m], weights, n_permutations, seed=5)
            assert values.tolist() == alone.values.tolist()
            assert stderr.tolist() == alone.stderr.tolist()

    def test_more_than_64_sources_rejected_before_evaluating(self):
        def evaluator(masks):
            raise AssertionError("evaluator must not be called")

        with pytest.raises(ConfigurationError, match="64"):
            sampled_semivalue(evaluator, make_weights("banzhaf", 65), 10**9, seed=0)

    def test_64_sources_use_every_mask_bit(self):
        weights = make_weights("shapley", 64)
        est = sampled_semivalue(lambda m: (m >> np.uint64(63)).astype(float), weights, 50, 3)
        # Only source 63's bit moves the value, by exactly one.
        np.testing.assert_allclose(est.values, np.eye(64)[63], atol=1e-12)


class TestPostProcessing:
    def test_budget_cap_example(self):
        np.testing.assert_allclose(
            budget_cap(np.array([0.04, 0.08]), a=1.0, budget=0.06), [0.04, 0.06]
        )

    def test_budget_cap_inactive(self):
        phi = np.array([0.01, 0.02])
        np.testing.assert_allclose(budget_cap(phi, a=2.0, budget=1.0), phi / 2.0)

    def test_budget_cap_passes_negative_through(self):
        np.testing.assert_allclose(
            budget_cap(np.array([-0.5, 0.5]), a=1.0, budget=0.1), [-0.5, 0.1]
        )

    def test_budget_cap_validates(self):
        with pytest.raises(ConfigurationError):
            budget_cap(np.array([1.0]), a=0.0, budget=1.0)

    def test_scaled_reward_division_by_max(self):
        np.testing.assert_allclose(
            scaled_reward(np.array([1.0, 2.0, 4.0]), budget=1.0, gamma=0.0),
            [0.25, 0.5, 1.0],
        )

    def test_scaled_reward_hand_value(self):
        np.testing.assert_allclose(
            scaled_reward(np.array([3.0, 3.0]), budget=2.0, gamma=1.0), [1.5, 1.5]
        )

    def test_scaled_reward_large_gamma_shrinks(self):
        out = scaled_reward(np.array([1.0, 2.0]), budget=1.0, gamma=1e9)
        assert np.all(out < 1e-8)

    def test_scaled_reward_precondition(self):
        with pytest.raises(ConfigurationError):
            scaled_reward(np.array([-1.0, -2.0]), budget=1.0, gamma=0.5)

    def test_scaled_reward_rejects_negative_gamma(self):
        # With gamma = -0.5 the rewards would be [2.0, 0.4], above the budget.
        with pytest.raises(ConfigurationError, match="gamma >= 0"):
            scaled_reward(np.array([1.0, 0.2]), budget=1.0, gamma=-0.5)
