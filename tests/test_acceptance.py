"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The desk-scale studies (GP strategy grid, no-validation mechanism,
20-source sampled run) use fixed seeds and are fully deterministic.
"""

import functools
import math
import time

import numpy as np
import pytest

from truthval import (
    BetaBernoulliModel,
    Dataset,
    DvfSpec,
    GaussianMeanModel,
    GpHyper,
    binary_dataset,
    budget_cap,
    concat_datasets,
    dvf_value,
    exact_semivalue,
    make_weights,
    oracle_dvf_truthfulness,
    oracle_rank_gap,
    oracle_semivalue_truthfulness,
    outputs_dataset,
    sampled_semivalue,
    scaled_reward,
    take_rows,
)
from truthval.errors import ConfigurationError
from truthval.experiment import ExperimentConfig, run_experiment

MODEL = BetaBernoulliModel(1, 1)


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {title}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {title}: PASS")
            return result

        return wrapper

    return decorate


# -- shared instance generators -------------------------------------------------


def alternative_grid(truth: Dataset, rng) -> list[Dataset]:
    """Subset, duplicate, flip, and permute variants of a true dataset."""
    n = len(truth)
    alts = []
    if n >= 2:
        keep = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        alts.append(take_rows(truth, np.sort(keep)))
        alts.append(take_rows(truth, rng.permutation(n)))
    alts.append(concat_datasets([truth, truth]))
    alts.append(concat_datasets([truth] * 3))
    flipped_one = np.array(truth.outputs)
    flipped_one[0] = 1.0 - flipped_one[0]
    alts.append(binary_dataset(flipped_one))
    alts.append(binary_dataset(1.0 - truth.outputs))
    return alts


def random_binary(rng, n):
    return binary_dataset((rng.random(n) < rng.uniform(0.2, 0.8)).astype(float))


def predictive_profile(data: Dataset, m: int) -> np.ndarray:
    """Independent oracle for the joint predictive over an m-point space.

    Probability of one representative sequence per success count, from the
    Beta-function ratio directly.
    """
    from scipy.special import betaln

    a = MODEL.alpha + data.outputs.sum()
    b = MODEL.beta + len(data) - data.outputs.sum()
    return np.exp(
        [betaln(a + s, b + m - s) - betaln(a, b) for s in range(m + 1)]
    )


def predictives_differ(truth: Dataset, alt: Dataset, m: int) -> bool:
    return bool(
        np.any(np.abs(predictive_profile(truth, m) - predictive_profile(alt, m)) > 1e-12)
    )


# -- criteria 1-3: enumeration oracles ------------------------------------------


@criterion(1, "log-score expected-gap equals predictive KL")
def test_criterion_01_dvf_oracle_identity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        truth = random_binary(rng, int(rng.integers(1, 7)))
        for alt in alternative_grid(truth, rng):
            validation_size = int(rng.integers(1, 5))
            verdict = oracle_dvf_truthfulness(MODEL, truth, alt, validation_size)
            assert abs(verdict.gap - verdict.kl_total) <= 1e-10
            assert verdict.gap >= -1e-12
            if predictives_differ(truth, alt, validation_size):
                assert verdict.strict and verdict.gap > 1e-12
            else:
                assert not verdict.strict and abs(verdict.gap) <= 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{checked} instances took {elapsed:.1f}s"
    print(f"  ({checked} instances in {elapsed:.2f}s)", end="")


def semivalue_instances():
    """(true_datasets, target) pairs for the n in {2, 3} oracle games."""
    return [
        ([binary_dataset([1, 0, 1]), binary_dataset([1, 0])], 0),
        ([binary_dataset([1, 1]), binary_dataset([0, 1])], 0),
        ([binary_dataset([1, 0, 1]), binary_dataset([1, 0]), binary_dataset([1])], 0),
        ([binary_dataset([0, 1]), binary_dataset([1]), binary_dataset([0, 0])], 0),
    ]


def weight_families(n):
    return [
        make_weights("shapley", n),
        make_weights("banzhaf", n),
        make_weights("beta", n, alpha=4.0, beta=1.0),
        make_weights("individual", n),
    ]


@criterion(2, "expected semivalue never prefers a posterior-changing lie")
def test_criterion_02_semivalue_oracle():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    checked = 0
    for true_datasets, target in semivalue_instances():
        n = len(true_datasets)
        for alt in alternative_grid(true_datasets[target], rng):
            for weights in weight_families(n):
                verdict = oracle_semivalue_truthfulness(
                    MODEL, true_datasets, alt, target, weights, validation_size=2
                )
                assert verdict.gap >= -1e-10
                if not verdict.strict:  # same statistics, same posterior
                    assert abs(verdict.gap) <= 1e-10
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{checked} games took {elapsed:.1f}s"
    print(f"  ({checked} games in {elapsed:.2f}s)", end="")


@criterion(3, "lying hurts the liar at least as much as anyone else")
def test_criterion_03_rank_oracle():
    rng = np.random.default_rng(8)
    for true_datasets, target in semivalue_instances():
        n = len(true_datasets)
        for alt in alternative_grid(true_datasets[target], rng):
            for weights in weight_families(n):
                for other in range(n):
                    if other == target:
                        continue
                    gap_own, gap_other = oracle_rank_gap(
                        MODEL, true_datasets, alt, target, other, weights,
                        validation_size=2,
                    )
                    assert gap_own >= gap_other - 1e-10


# -- criteria 4-6: fairness axioms and estimators --------------------------------


def random_table(rng, n):
    values = rng.normal(size=2**n)
    values[0] = 0.0
    return values


@criterion(4, "fairness axioms on 1000 random games")
def test_criterion_04_fairness_axioms():
    rng = np.random.default_rng(99)
    families = ["shapley", "banzhaf", "beta"]
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        family = families[trial % 3]
        weights = (
            make_weights("beta", n, alpha=4.0, beta=1.0)
            if family == "beta"
            else make_weights(family, n)
        )
        table = random_table(rng, n)
        # Null player: zero marginal contribution everywhere -> exactly 0.
        values = table.copy()
        player = int(rng.integers(n))
        for mask in range(2**n):
            if mask >> player & 1:
                values[mask] = values[mask & ~(1 << player)]
        assert exact_semivalue(values, weights)[player] == 0.0
        # Symmetric pair: mirrored contributions -> equal rewards.
        if n >= 2:
            values = table.copy()
            for mask in range(2**n):
                if not mask & 0b11:
                    values[mask | 0b10] = values[mask | 0b01]
            phi = exact_semivalue(values, weights)
            assert abs(phi[0] - phi[1]) <= 1e-12
        # Monotonicity: raising v(C + i) on some coalitions never hurts i.
        raised = table.copy()
        for mask in range(2**n):
            if mask >> player & 1 and rng.random() < 0.5:
                raised[mask] += rng.uniform(0.1, 1.0)
        assert (
            exact_semivalue(raised, weights)[player]
            >= exact_semivalue(table, weights)[player]
        )
    # Strict monotonicity on the worked 3-player instance.
    game = np.array([0, 3, 3, 5, 1, 4, 4, 6], dtype=float)
    game_prime = np.array([0, 3, 2, 4, 1, 4, 3, 5], dtype=float)
    shapley = make_weights("shapley", 3)
    phi = exact_semivalue(game, shapley)
    np.testing.assert_allclose(phi, [2.5, 2.5, 1.0], atol=1e-12)
    assert phi.sum() == pytest.approx(6.0, abs=1e-12)
    assert exact_semivalue(game, shapley)[1] == pytest.approx(2.5, abs=1e-12)
    assert exact_semivalue(game_prime, shapley)[1] == pytest.approx(1.5, abs=1e-12)


@criterion(5, "Shapley values sum to the grand-coalition value")
def test_criterion_05_group_rationality():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        table = random_table(rng, n)
        phi = exact_semivalue(table, make_weights("shapley", n))
        assert abs(phi.sum() - table[-1]) <= 1e-9


@criterion(6, "permutation sampling is unbiased and seed-deterministic")
def test_criterion_06_estimator_unbiasedness():
    rng = np.random.default_rng(101)
    n = 8
    table = random_table(rng, n)
    shapley = make_weights("shapley", n)
    exact = exact_semivalue(table, shapley)
    runs = np.vstack(
        [
            sampled_semivalue(lambda m: table[m], shapley, 100, seed=s).values
            for s in range(200)
        ]
    )
    grand_mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    assert np.all(np.abs(grand_mean - exact) <= 4 * se)
    again = sampled_semivalue(lambda m: table[m], shapley, 100, seed=123)
    once = sampled_semivalue(lambda m: table[m], shapley, 100, seed=123)
    np.testing.assert_array_equal(again.values, once.values)


# -- criterion 7: gameable baselines ----------------------------------------------


@criterion(7, "every validation-free baseline rewards duplication")
def test_criterion_07_baseline_inflation():
    rng = np.random.default_rng(102)
    specs = {
        "cardinality": DvfSpec("cardinality"),
        "info-gain": DvfSpec("info-gain", model=GpHyper(noise_var=0.5)),
        "kl-beta": DvfSpec("kl-from-prior", model=BetaBernoulliModel(1, 1)),
        "kl-gaussian": DvfSpec("kl-from-prior", model=GaussianMeanModel(0.0, 1.0, 1.0)),
        "volume": DvfSpec("volume"),
    }
    for _ in range(100):
        n = int(rng.integers(1, 6))
        binary = random_binary(rng, n)
        reg = Dataset(rng.uniform(0.2, 1.0, size=(max(n, 2), 2)), rng.normal(size=max(n, 2)))
        gauss = outputs_dataset(rng.normal(size=n))
        for name, spec in specs.items():
            data = {"cardinality": binary, "kl-beta": binary, "kl-gaussian": gauss}.get(
                name, reg
            )
            doubled = concat_datasets([data, data])
            assert dvf_value(spec, doubled) > dvf_value(spec, data), name
    # One-feature volume scales exactly as sqrt(k) under k-fold duplication.
    for _ in range(20):
        rows = int(rng.integers(1, 5))
        base = Dataset(rng.uniform(0.5, 2.0, size=(rows, 1)), np.zeros(rows))
        v1 = dvf_value(DvfSpec("volume"), base)
        for k in (2, 3, 4):
            vk = dvf_value(DvfSpec("volume"), concat_datasets([base] * k))
            assert abs(vk - math.sqrt(k) * v1) <= 1e-10 * max(1.0, v1)


# -- criteria 8-9: GP strategy study and the budget cap ----------------------------

GP_LENGTHSCALES = [0.48, 0.54, 0.69, 1.15, 1.8, 400.0]
STRATEGY_GRID = [
    "truthful",
    {"tag": "subset", "frac": 0.5},
    {"tag": "noise-output", "level": 1.0},
    {"tag": "duplicate", "copies": 3},
    {"tag": "inject", "frac": 0.1, "offset": 0.1},
    {"tag": "noise-input", "sd": 0.05},
]
GRID_LABELS = ["truthful", "subset", "noise-output", "duplicate", "inject", "noise-input"]


def summarize_by_strategy(report):
    """mean value/reward of each source per sweep label (tag prefix)."""
    values, rewards = {}, {}
    for entry in report.summary:
        label = entry["sweep"].split("(")[0]
        values[(entry["source"], label)] = entry["mean_value"]
        rewards[(entry["source"], label)] = entry["mean_reward"]
    return values, rewards


@pytest.fixture(scope="module")
def gp_study():
    config = ExperimentConfig.from_dict(
        {
            "seed": 0,
            "repeats": 20,
            "model": {
                "family": "gp",
                "lengthscales": GP_LENGTHSCALES,
                "signal_var": 1.0,
                "noise_var": 0.04,
            },
            "sources": [
                {"generator": "friedman", "n_points": 400},
                {"generator": "friedman", "n_points": 300},
                {"generator": "friedman", "n_points": 300},
            ],
            "validation": {"generator": "friedman", "n_points": 400, "subset_fraction": 0.5},
            "sweep": {"axis": "strategy-grid", "source": 0, "values": STRATEGY_GRID},
        }
    )
    start = time.perf_counter()
    report = run_experiment(config)
    return report, time.perf_counter() - start


@criterion(8, "GP strategy study: truth wins, others gain when source 0 lies")
def test_criterion_08_gp_desk_study(gp_study):
    report, elapsed = gp_study
    assert elapsed < 300.0, f"study took {elapsed:.0f}s"
    values, rewards = summarize_by_strategy(report)
    untruthful = [s for s in GRID_LABELS if s != "truthful"]
    for label in untruthful:
        assert values[(0, "truthful")] > values[(0, label)], f"value under {label}"
        assert rewards[(0, "truthful")] > rewards[(0, label)], f"reward under {label}"
    for source in (1, 2):
        for label in ("subset", "noise-output"):
            assert rewards[(source, label)] > rewards[(source, "truthful")], (
                f"source {source} under {label}"
            )
    print(f"  (20 repeats in {elapsed:.0f}s)", end="")


@criterion(9, "budget cap turns strict truthfulness into a tie at the cap")
def test_criterion_09_budget_cap(gp_study):
    report, _ = gp_study
    budget, a = 0.06, 1.0
    # Reassemble each repeat's semivalue vector and cap it.
    by_point: dict[tuple, dict[int, float]] = {}
    for row in report.rows:
        by_point.setdefault((row.sweep, row.repeat), {})[row.source] = row.reward
    capped_by_label: dict[str, list[float]] = {}
    for (sweep, _), phi_map in by_point.items():
        phi = np.array([phi_map[i] for i in range(3)])
        capped = budget_cap(phi, a, budget)
        assert np.all(capped <= budget)
        capped_by_label.setdefault(sweep.split("(")[0], []).append(capped[0])
    values, rewards = summarize_by_strategy(report)
    # Both truth and duplication clear the cap, so both collect exactly B in
    # every repeat: the mechanism is no longer strictly truthful, only truthful.
    assert rewards[(0, "truthful")] > a * budget
    assert rewards[(0, "duplicate")] > a * budget
    for label in ("truthful", "duplicate"):
        assert all(c == budget for c in capped_by_label[label])


# -- criterion 10: removing the validation set -------------------------------------


def cross_study(variant):
    config = ExperimentConfig.from_dict(
        {
            "seed": 0,
            "repeats": 10,
            "model": {
                "family": "gp",
                "lengthscales": GP_LENGTHSCALES,
                "signal_var": 1.0,
                "noise_var": 0.03,
            },
            "sources": [
                {"generator": "friedman", "n_points": 400},
                {"generator": "friedman", "n_points": 300},
                {"generator": "friedman", "n_points": 300},
            ],
            "post": {
                "kind": "cross-validation",
                "variant": variant,
                "validation_frac": 0.25,
            },
            "sweep": {
                "axis": "strategy-grid",
                "source": 0,
                "values": [
                    "truthful",
                    {"tag": "subset", "frac": 0.5},
                    {"tag": "noise-output", "level": 1.0},
                    {"tag": "duplicate", "copies": 3},
                    {"tag": "inject", "frac": 0.5, "offset": 0.1},
                    {"tag": "noise-input", "sd": 0.05},
                ],
            },
        }
    )
    return run_experiment(config)


@criterion(10, "cross-game rewards: excluding the own game restores truthfulness")
def test_criterion_10_no_validation_mechanism():
    _, safe = summarize_by_strategy(cross_study("breve"))
    untruthful = [s for s in GRID_LABELS if s != "truthful"]
    for label in untruthful:
        assert safe[(0, "truthful")] > safe[(0, label)], f"safe reward under {label}"
    _, unsafe = summarize_by_strategy(cross_study("grave"))
    gainers = [label for label in untruthful if unsafe[(0, label)] > unsafe[(0, "truthful")]]
    assert "inject" in gainers or "duplicate" in gainers, gainers
    print(f"  (own-game inflation via {gainers})", end="")


# -- criterion 11: scaled rewards ----------------------------------------------------


@criterion(11, "scaled rewards respect the budget; bad denominators rejected")
def test_criterion_11_scaled_reward():
    rng = np.random.default_rng(103)
    budget = 0.25
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        phi = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        gamma = float(rng.uniform(0.0, 5.0))
        if phi.max() + gamma <= 0:
            continue
        rewards = scaled_reward(phi, budget, gamma)
        assert np.all(rewards <= budget)
    with pytest.raises(ConfigurationError):
        scaled_reward(np.array([-2.0, -1.0]), budget, 0.5)


# -- criterion 12: twenty sources through the sampled estimator -----------------------


@criterion(12, "20-source sampled run keeps truth on top")
def test_criterion_12_twenty_sources():
    weights = [3.0, -2.0, 1.5, 1.0, -1.0, 0.0]
    source = {
        "generator": "linear",
        "n_points": 10,
        "weights": weights,
        "noise_sd": 1.0,
        "x_low": -0.5,
        "x_high": 0.5,
    }
    start = time.perf_counter()
    per_seed = []
    for seed in range(5):
        config = ExperimentConfig.from_dict(
            {
                "seed": seed,
                "repeats": 1,
                "model": {
                    "family": "bayes-linreg",
                    "n_features": 6,
                    "prior_var": 1.0,
                    "noise_var": 0.8,
                },
                "sources": [dict(source)] * 20,
                "validation": {**source, "n_points": 300, "subset_fraction": 1.0},
                "estimator": {"kind": "sampled", "permutations": 3000},
                "standardize_outputs": False,
                "sweep": {
                    "axis": "strategy-grid",
                    "source": 0,
                    "values": [
                        "truthful",
                        {"tag": "subset", "frac": 0.5},
                        {"tag": "noise-output", "level": 2.0},
                        {"tag": "duplicate", "copies": 3},
                        {"tag": "inject", "frac": 0.5, "offset": 0.1, "fill": 4.0},
                        {"tag": "noise-input", "sd": 0.5},
                    ],
                },
            }
        )
        report = run_experiment(config)
        per_seed.append(
            {
                entry["sweep"].split("(")[0]: entry["mean_reward"]
                for entry in report.summary
                if entry["source"] == 0
            }
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"5 seeds took {elapsed:.0f}s"
    mean = {k: float(np.mean([d[k] for d in per_seed])) for k in per_seed[0]}
    for label, value in mean.items():
        if label != "truthful":
            assert mean["truthful"] > value, f"{label}: {value} vs {mean['truthful']}"
    print(f"  (5 seeds x 3000 permutations in {elapsed:.0f}s)", end="")
