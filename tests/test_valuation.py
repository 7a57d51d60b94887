"""Valuation functions and characteristic tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthval import (
    BetaBernoulliModel,
    CharacteristicTable,
    CoalitionScorer,
    Dataset,
    DvfSpec,
    GaussianMeanModel,
    GpHyper,
    LinearRegressionModel,
    binary_dataset,
    build_char_table,
    coalition_data,
    concat_datasets,
    dvf_value,
    outputs_dataset,
    take_rows,
)
from truthval.errors import ConfigurationError, InputError, UnsupportedConfigurationError
from truthval.valuation import RankDeficientVolumeWarning


def log_score_spec(validation):
    return DvfSpec("log-score", model=BetaBernoulliModel(1, 1), validation=validation)


class TestSpecValidation:
    def test_log_score_requires_validation(self):
        with pytest.raises(ConfigurationError):
            DvfSpec("log-score", model=BetaBernoulliModel())

    def test_baselines_must_not_get_validation(self):
        with pytest.raises(ConfigurationError):
            DvfSpec("cardinality", validation=binary_dataset([1]))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            DvfSpec("accuracy")

    def test_kl_from_prior_restricted_to_closed_forms(self):
        with pytest.raises(UnsupportedConfigurationError):
            DvfSpec("kl-from-prior", model=LinearRegressionModel(n_features=2))


class TestLogScore:
    def test_empty_data_is_worth_zero(self):
        spec = log_score_spec(binary_dataset([1, 0]))
        assert dvf_value(spec, binary_dataset([])) == 0.0

    def test_beta_predictive_ratio(self):
        spec = log_score_spec(binary_dataset([1]))
        got = dvf_value(spec, binary_dataset([1, 1, 0]))
        assert got == pytest.approx(math.log(6 / 5), abs=1e-12)

    def test_mean_variant_empty_is_zero(self):
        spec = DvfSpec(
            "mean-log-score", model=BetaBernoulliModel(), validation=binary_dataset([1, 0])
        )
        assert dvf_value(spec, binary_dataset([])) == 0.0


class TestBaselines:
    def test_cardinality_counts_rows(self):
        assert dvf_value(DvfSpec("cardinality"), binary_dataset([1, 0, 1])) == 3.0

    def test_volume_scales_sqrt_k_one_feature(self):
        spec = DvfSpec("volume")
        base = Dataset(np.array([[2.0], [1.0]]), np.zeros(2))
        v1 = dvf_value(spec, base)
        for k in (2, 3, 5):
            vk = dvf_value(spec, concat_datasets([base] * k))
            assert vk == pytest.approx(math.sqrt(k) * v1, rel=1e-12)

    def test_volume_rank_deficient_is_zero_with_warning(self):
        spec = DvfSpec("volume")
        data = Dataset(np.array([[1.0, 2.0]]), np.zeros(1))  # 1 point, 2 features
        with pytest.warns(RankDeficientVolumeWarning):
            assert dvf_value(spec, data) == 0.0

    def test_info_gain_monotone_in_data(self):
        rng = np.random.default_rng(13)
        spec = DvfSpec("info-gain", model=GpHyper(noise_var=0.5))
        for _ in range(10):
            data = Dataset(rng.uniform(size=(6, 2)), rng.normal(size=6))
            extra = Dataset(rng.uniform(size=(1, 2)), rng.normal(size=1))
            assert dvf_value(spec, concat_datasets([data, extra])) >= (
                dvf_value(spec, data) - 1e-10
            )

    @pytest.mark.parametrize(
        "kind,model,factory",
        [
            ("cardinality", None, "binary"),
            ("info-gain", GpHyper(noise_var=0.7), "reg"),
            ("kl-from-prior", BetaBernoulliModel(1, 1), "binary"),
            ("kl-from-prior", GaussianMeanModel(0.0, 1.0, 1.0), "outputs"),
            ("volume", None, "reg"),
        ],
    )
    def test_duplication_strictly_inflates(self, kind, model, factory):
        # Every validation-set-free baseline rewards a source for submitting
        # the same information twice.
        rng = np.random.default_rng(14)
        spec = DvfSpec(kind, model=model)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            if factory == "binary":
                data = binary_dataset((rng.random(n) < 0.5).astype(float))
            elif factory == "outputs":
                data = outputs_dataset(rng.normal(size=n))
            else:
                data = Dataset(rng.uniform(0.2, 1.0, size=(max(n, 2), 2)), rng.normal(size=max(n, 2)))
            doubled = concat_datasets([data, data])
            assert dvf_value(spec, doubled) > dvf_value(spec, data)


class TestCharTable:
    def test_single_source(self):
        table = build_char_table([binary_dataset([1, 1])], log_score_spec(binary_dataset([1])))
        assert table.values[0] == 0.0
        assert table.values[1] == pytest.approx(math.log(3 / 4) - math.log(1 / 2), abs=1e-12)

    def test_identical_sources_symmetric(self):
        src = binary_dataset([1, 0, 1])
        table = build_char_table([src, src], log_score_spec(binary_dataset([1, 1])))
        assert table.values[0b01] == table.values[0b10]

    def test_anchor_exact_zero(self):
        rng = np.random.default_rng(15)
        sources = [
            binary_dataset((rng.random(3) < 0.5).astype(float)) for _ in range(3)
        ]
        table = build_char_table(sources, log_score_spec(binary_dataset([1, 0, 1])))
        assert table.values[0] == 0.0

    def test_union_order_invariance(self):
        # The table value of a coalition must not depend on how member rows
        # happen to be ordered inside the union. Counting statistics make the
        # conjugate case exact.
        model = BetaBernoulliModel(2, 1)
        a, b = binary_dataset([1, 1, 0]), binary_dataset([0, 0])
        spec = DvfSpec("log-score", model=model, validation=binary_dataset([1, 0]))
        assert dvf_value(spec, concat_datasets([a, b])) == dvf_value(
            spec, concat_datasets([b, a])
        )

    def test_union_order_invariance_gp(self):
        rng = np.random.default_rng(33)
        a = Dataset(rng.uniform(size=(4, 2)), rng.normal(size=4))
        b = Dataset(rng.uniform(size=(3, 2)), rng.normal(size=3))
        val = Dataset(rng.uniform(size=(3, 2)), rng.normal(size=3))
        spec = DvfSpec("log-score", model=GpHyper(noise_var=0.3), validation=val)
        assert dvf_value(spec, concat_datasets([a, b])) == pytest.approx(
            dvf_value(spec, concat_datasets([b, a])), abs=1e-10
        )

    def test_exact_limit_enforced(self):
        sources = [binary_dataset([1])] * 21
        with pytest.raises(ConfigurationError, match="sampled"):
            build_char_table(sources, log_score_spec(binary_dataset([1])))

    def test_table_shape_validated(self):
        with pytest.raises(ConfigurationError):
            CharacteristicTable(2, np.zeros(3))


# One instance per model family: the model and a factory for k random rows.
FAMILIES = {
    "beta-bernoulli": (
        BetaBernoulliModel(2.0, 1.5),
        lambda rng, k: binary_dataset((rng.random(k) < 0.6).astype(float)),
    ),
    "gaussian-known-var": (
        GaussianMeanModel(0.3, 2.0, 0.7),
        lambda rng, k: outputs_dataset(rng.normal(0.5, 1.0, size=k)),
    ),
    "bayes-linreg": (
        LinearRegressionModel(n_features=2, prior_var=0.8, noise_var=0.3),
        lambda rng, k: Dataset(rng.uniform(-1, 1, size=(k, 2)), rng.normal(size=k)),
    ),
    "gp": (
        GpHyper(lengthscales=0.8, signal_var=1.1, noise_var=0.2),
        lambda rng, k: Dataset(rng.uniform(size=(k, 2)), rng.normal(size=k)),
    ),
}


def assert_tables_match_dvf_value(model, kind, sources, pool, subsets):
    tables = CoalitionScorer(model, kind, sources, pool, subsets).table()
    assert len(tables) == len(subsets)
    for idx, table in zip(subsets, tables):
        spec = DvfSpec(kind, model=model, validation=take_rows(pool, idx))
        want = [dvf_value(spec, coalition_data(sources, m)) for m in range(2 ** len(sources))]
        assert table.values[0] == 0.0
        # The absolute floor only matters for values near zero, where
        # log p(T | D) - log p(T) loses digits to cancellation.
        np.testing.assert_allclose(table.values, want, rtol=1e-12, atol=1e-13)


class TestCoalitionScorer:
    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_table_matches_dvf_value(self, family, kind):
        rng = np.random.default_rng(50)
        model, rows = FAMILIES[family]
        sources = [rows(rng, k) for k in (5, 3, 6)]
        pool = rows(rng, 8)
        subsets = [np.array([0, 2, 5]), np.array([1, 3, 4, 6, 7])]
        assert_tables_match_dvf_value(model, kind, sources, pool, subsets)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        kind=st.sampled_from(["log-score", "mean-log-score"]),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        pool_size=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_instances_match_dvf_value(self, family, kind, sizes, pool_size, seed):
        rng = np.random.default_rng(seed)
        model, rows = FAMILIES[family]
        sources = [rows(rng, k) for k in sizes]
        pool = rows(rng, pool_size)
        subsets = [np.arange(pool_size), np.sort(rng.permutation(pool_size)[: 1 + pool_size // 2])]
        assert_tables_match_dvf_value(model, kind, sources, pool, subsets)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        kind=st.sampled_from(["log-score", "mean-log-score"]),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_match_dvf_value_for_any_mask_array(self, family, kind, sizes, shape, seed):
        rng = np.random.default_rng(seed)
        model, rows = FAMILIES[family]
        sources = [rows(rng, k) for k in sizes]
        pool = rows(rng, 5)
        subsets = [np.array([0, 3]), np.arange(5)]
        n = len(sources)
        # Draws from a few coalitions repeat masks; the empty mask is always in.
        masks = rng.integers(0, 2**n, size=shape)
        masks[0, 0] = 0
        got = CoalitionScorer(model, kind, sources, pool, subsets).values(masks)
        assert got.shape == (len(subsets),) + shape
        for idx, values in zip(subsets, got):
            spec = DvfSpec(kind, model=model, validation=take_rows(pool, idx))
            want = np.vectorize(lambda m: dvf_value(spec, coalition_data(sources, int(m))))(masks)
            assert values[0, 0] == 0.0
            np.testing.assert_allclose(values, want, rtol=1e-12, atol=1e-13)

    def test_values_match_table_for_any_mask_shape(self):
        rng = np.random.default_rng(51)
        model, rows = FAMILIES["bayes-linreg"]
        sources = [rows(rng, 4) for _ in range(3)]
        scorer = CoalitionScorer(model, "log-score", sources, rows(rng, 5))
        table = scorer.table()[0].values
        masks = np.array([[5, 0, 5], [7, 1, 5]], dtype=np.uint64)
        np.testing.assert_allclose(scorer.values(masks), table[masks][None], rtol=1e-14, atol=0)
        assert scorer.values(np.zeros((0, 4), dtype=int)).shape == (1, 0, 4)

    @pytest.mark.parametrize("masks", [np.array([0.0, 1.0]), np.array([-1]), np.array([8])])
    def test_values_rejects_masks_outside_the_game(self, masks):
        model, rows = FAMILIES["beta-bernoulli"]
        rng = np.random.default_rng(52)
        scorer = CoalitionScorer(model, "log-score", [rows(rng, 2)] * 3, rows(rng, 3))
        with pytest.raises(ConfigurationError):
            scorer.values(masks)

    def test_rejects_baseline_kinds_and_empty_validation(self):
        model = FAMILIES["beta-bernoulli"][0]
        sources = [binary_dataset([1, 0])]
        with pytest.raises(ConfigurationError):
            CoalitionScorer(model, "cardinality", sources, binary_dataset([1]))
        with pytest.raises(InputError):
            CoalitionScorer(model, "log-score", sources, binary_dataset([1]), [[]])
