"""Valuation functions and the games, arrays of coalition values, they define."""

import math
import re
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthval import (
    BetaBernoulliModel,
    CoalitionScorer,
    Dataset,
    DvfSpec,
    GaussianMeanModel,
    GpHyper,
    LinearRegressionModel,
    binary_dataset,
    build_char_table,
    concat_datasets,
    cross_validation_rewards,
    dvf_value,
    empty_like,
    exact_semivalue,
    friedman_generate,
    log_predictive,
    make_weights,
    mean_log_predictive,
    output_moments,
    posterior_params,
    shift_scale_outputs,
    split_train_validation,
    take_rows,
)
from truthval import valuation
from truthval.data import outputs_dataset
from truthval.mechanisms import cross_game_scorer
from truthval.errors import (
    ConfigurationError,
    InputError,
    NumericalError,
    UnsupportedConfigurationError,
)
from truthval.models import kl_from_prior_batch
from truthval.valuation import RankDeficientVolumeWarning

from gp_reference import gp_info_gain_raw_rows, gp_log_score_raw_rows


def coalition_data(sources, mask):
    """Multiset union (row concatenation) of the member datasets."""
    members = [ds for i, ds in enumerate(sources) if mask >> i & 1]
    return concat_datasets(members, n_features=sources[0].n_features, kind=sources[0].kind)


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


class TestScorerChecks:
    """The model and data checks that every kind makes, with a pool or without."""

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    def test_log_score_with_a_pool_requires_a_model(self, kind):
        pool = binary_dataset([1, 0])
        with pytest.raises(ConfigurationError, match=f"{kind} requires a model"):
            CoalitionScorer(None, kind, [binary_dataset([1])], pool)

    @pytest.mark.parametrize("kind", sorted(valuation.DVF_KINDS))
    def test_unknown_model_is_refused(self, kind):
        pool = binary_dataset([1, 0]) if kind in valuation.LOG_SCORE_KINDS else None
        with pytest.raises(ConfigurationError, match="unknown model"):
            CoalitionScorer(object(), kind, [binary_dataset([1])], pool)

    def test_empty_pool_or_subset_is_an_input_error(self):
        model, sources = BetaBernoulliModel(), [binary_dataset([1, 0])]
        with pytest.raises(InputError, match="validation set must be non-empty"):
            CoalitionScorer(model, "log-score", sources, binary_dataset([]))
        with pytest.raises(InputError, match="validation set must be non-empty"):
            CoalitionScorer(model, "log-score", sources, binary_dataset([1, 0]), [[0], []])
        with pytest.raises(InputError, match="validation set must be non-empty"):
            dvf_value(log_score_spec(binary_dataset([])), binary_dataset([1]))

    def test_each_point_reads_as_many_existing_sets(self):
        model, sources = BetaBernoulliModel(), [binary_dataset([1, 0])]
        variants = (0, [sources[0], binary_dataset([1])])
        pool, subsets = binary_dataset([1, 0, 1]), [[0], [1, 2]]
        for sets in ([[0]], [[0], [0, 1]], [[0], [2]]):  # a point short, ragged, no such set
            with pytest.raises(ConfigurationError, match="one list of subset indices per point"):
                CoalitionScorer(model, "log-score", sources, pool, subsets, variants, None, sets)
        with pytest.raises(ConfigurationError, match="no validation sets"):
            CoalitionScorer(model, "cardinality", sources, None, None, variants, None, [[], []])

    @pytest.mark.parametrize("family", ["gp", "bayes-linreg"])
    @pytest.mark.parametrize(
        "case",
        [
            "swept-index-past-the-sources", "negative-swept-index", "no-variants",
            "negative-subset-row", "subset-row-past-the-pool", "moments-for-one-of-two-points",
            "moments-sd-zero", "moments-sd-not-finite", "cross-game-swept-index-past-the-sources",
            "cross-game-negative-swept-index",
        ],
    )
    def test_per_point_arguments_are_refused_by_name(self, family, case):
        # Unchecked, a GP dropped the variant of a swept index past the
        # sources, row -1 scored the last pool row, and the rest raised bare
        # ValueError, IndexError or NaN errors. cross_game_scorer picks a
        # split seed by the swept index before the scorer sees it.
        model, rows = FAMILIES[family]
        rng = np.random.default_rng(69)
        sources, pool, d = [rows(rng, 4), rows(rng, 3)], rows(rng, 6), rows(rng, 5)
        kwargs, match = {
            "swept-index-past-the-sources": ({"variants": (2, [d])}, "variants"),
            "negative-swept-index": ({"variants": (-1, [d])}, "variants"),
            "no-variants": ({"variants": (0, [])}, "variants"),
            "negative-subset-row": ({"subsets": [[-1]]}, "subsets"),
            "subset-row-past-the-pool": ({"subsets": [[0, 6]]}, "subsets"),
            "moments-for-one-of-two-points": (
                {"variants": (1, [d, d]), "moments": [(0.0, 1.0)]}, "moments"
            ),
            "moments-sd-zero": ({"moments": [(0.0, 0.0)]}, "moments"),
            "moments-sd-not-finite": ({"moments": [(0.0, np.inf)]}, "moments"),
            "cross-game-swept-index-past-the-sources": ({"variants": (2, [d])}, "variants"),
            "cross-game-negative-swept-index": ({"variants": (-1, [d])}, "variants"),
        }[case]
        with pytest.raises(ConfigurationError, match=match):
            if case.startswith("cross-game"):
                cross_game_scorer(sources, 0.3, model, [1, 2], **kwargs)
            else:
                CoalitionScorer(model, "log-score", sources, pool, **kwargs)

    @pytest.mark.parametrize("family", ["gp", "bayes-linreg"])
    def test_moments_may_be_an_array(self, family):
        model, rows = FAMILIES[family]
        rng = np.random.default_rng(70)
        sources, pool = [rows(rng, 4), rows(rng, 3)], rows(rng, 6)
        variants, moments = (1, [sources[1], rows(rng, 5)]), [(0.5, 2.0), (-1.0, 0.5)]
        tables = [
            CoalitionScorer(model, "log-score", sources, pool, None, variants, m).table()
            for m in (moments, np.array(moments))
        ]
        np.testing.assert_array_equal(*tables)

    @pytest.mark.parametrize(
        "model", [GpHyper(), LinearRegressionModel(n_features=2), GaussianMeanModel()],
        ids=["gp", "bayes-linreg", "gaussian-known-var"],
    )
    def test_validation_free_kinds_check_the_data_kind(self, model):
        kind = "kl-from-prior" if isinstance(model, GaussianMeanModel) else "info-gain"
        match = f"data kind 'binary' does not match model family '{model.family}'"
        with pytest.raises(InputError, match=match):
            dvf_value(DvfSpec(kind, model=model), binary_dataset([1, 0, 1]))

    def test_validation_free_kinds_check_the_feature_count(self):
        data = Dataset(np.random.default_rng(3).uniform(size=(4, 3)), np.zeros(4))
        spec = DvfSpec("info-gain", model=LinearRegressionModel(n_features=2))
        with pytest.raises(InputError, match="data has 3 features, model expects 2"):
            dvf_value(spec, data)


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
        assert table[0] == 0.0
        assert table[1] == pytest.approx(math.log(3 / 4) - math.log(1 / 2), abs=1e-12)

    def test_identical_sources_symmetric(self):
        src = binary_dataset([1, 0, 1])
        table = build_char_table([src, src], log_score_spec(binary_dataset([1, 1])))
        assert table[0b01] == table[0b10]

    def test_anchor_exact_zero(self):
        rng = np.random.default_rng(15)
        sources = [
            binary_dataset((rng.random(3) < 0.5).astype(float)) for _ in range(3)
        ]
        table = build_char_table(sources, log_score_spec(binary_dataset([1, 0, 1])))
        assert table[0] == 0.0

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
        # A game of 2 sources is 4 values on the last axis.
        with pytest.raises(ConfigurationError, match="needs 4 values"):
            exact_semivalue(np.zeros(3), make_weights("shapley", 2))
        with pytest.raises(ConfigurationError, match="needs 4 values"):
            exact_semivalue(np.zeros((4, 3)), make_weights("shapley", 2))

    def test_table_beyond_exact_limit_rejected(self):
        # The limit is checked before the values are read: 3 values would
        # fail the shape check, with another message.
        with pytest.raises(UnsupportedConfigurationError, match="21 sources .* limit of 20"):
            exact_semivalue(np.zeros(3), make_weights("shapley", 21))


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
    "gp-jitter": (
        GpHyper(lengthscales=[0.5, 1.5], signal_var=0.9, noise_var=0.1, jitter=0.05),
        lambda rng, k: Dataset(rng.uniform(size=(k, 2)), rng.normal(size=k)),
    ),
    # Four distinct inputs, so rows repeat within a source and across sources.
    "gp-replicated": (
        GpHyper(lengthscales=[0.6, 0.9], signal_var=1.2, noise_var=0.15, jitter=0.03),
        lambda rng, k: Dataset(rng.integers(0, 2, (k, 2)) * 0.5, rng.normal(size=k)),
    ),
}


def reference_value(model, kind, validation):
    """v on one dataset by a reference outside the scorer: the closed forms
    of truthval.models on the dataset's posterior for a conjugate family
    (log scores as differences from the prior's), dense Gaussians on the raw
    rows for a GP, and dvf_value, the one-source scorer, for cardinality,
    volume and linear information gain. An empty dataset is worth zero."""
    if isinstance(model, GpHyper):
        if kind == "info-gain":
            return partial(gp_info_gain_raw_rows, model)
        return partial(gp_log_score_raw_rows, model, kind, validation)
    if kind not in ("log-score", "mean-log-score", "kl-from-prior"):
        return partial(dvf_value, DvfSpec(kind, model=model))
    score = log_predictive if kind == "log-score" else mean_log_predictive

    def value(data):
        if len(data) == 0:
            return 0.0
        if kind == "kl-from-prior":
            nu, sums = posterior_params(model, data)
            return kl_from_prior_batch(model, np.array([nu]), sums[None, :])[0]
        return score(model, data, validation) - score(model, empty_like(data), validation)

    return value


def assert_tables_match_references(model, kind, sources, pool=None, subsets=None, atol=1e-13):
    """The scorer's tables against :func:`reference_value` on each coalition's
    rows; a validation-set-free kind (``pool`` None) has one table."""
    tables = CoalitionScorer(model, kind, sources, pool, subsets).table()
    validations = [None] if pool is None else [take_rows(pool, idx) for idx in subsets]
    assert len(tables) == len(validations)
    for validation, table in zip(validations, tables):
        value = reference_value(model, kind, validation)
        want = [value(coalition_data(sources, m)) for m in range(2 ** len(sources))]
        assert table[0] == 0.0
        # The absolute floor only matters for values near zero, where
        # log p(T | D) - log p(T) loses digits to cancellation.
        np.testing.assert_allclose(table, want, rtol=1e-12, atol=atol)


class TestCoalitionScorer:
    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_table_matches_references(self, family, kind):
        rng = np.random.default_rng(50)
        model, rows = FAMILIES[family]
        sources = [rows(rng, k) for k in (5, 3, 6)]
        pool = rows(rng, 8)
        subsets = [np.array([0, 2, 5]), np.array([1, 3, 4, 6, 7])]
        assert_tables_match_references(model, kind, sources, pool, subsets)

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score", "kl-from-prior"])
    def test_beta_prior_enters_as_alpha_itself(self, kind):
        # (alpha + beta) * (alpha / (alpha + beta)) is not alpha for this prior.
        # The scorer's stacked sums and the one-row posterior of
        # truthval.models both start from alpha, so every coalition's
        # statistics and value agree exactly.
        model = BetaBernoulliModel(1.75, 4.5)
        assert (1.75 + 4.5) * (1.75 / (1.75 + 4.5)) != 1.75
        rng = np.random.default_rng(65)
        rows = FAMILIES["beta-bernoulli"][1]
        sources = [rows(rng, k) for k in (4, 0, 3, 5)]
        pool = rows(rng, 6) if kind != "kl-from-prior" else None
        table = CoalitionScorer(model, kind, sources, pool).table()[0]
        value = reference_value(model, kind, pool)
        want = [value(coalition_data(sources, m)) for m in range(16)]
        np.testing.assert_array_equal(table, want)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        kind=st.sampled_from(["log-score", "mean-log-score"]),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        pool_size=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_instances_match_references(self, family, kind, sizes, pool_size, seed):
        rng = np.random.default_rng(seed)
        model, rows = FAMILIES[family]
        sources = [rows(rng, k) for k in sizes]
        pool = rows(rng, pool_size)
        subsets = [np.arange(pool_size), np.sort(rng.permutation(pool_size)[: 1 + pool_size // 2])]
        assert_tables_match_references(model, kind, sources, pool, subsets)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        kind=st.sampled_from(["log-score", "mean-log-score"]),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_match_references_for_any_mask_array(self, family, kind, sizes, shape, seed):
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
            value = reference_value(model, kind, take_rows(pool, idx))
            want = np.vectorize(lambda m: value(coalition_data(sources, int(m))))(masks)
            assert values[0, 0] == 0.0
            np.testing.assert_allclose(values, want, rtol=1e-12, atol=1e-13)

    def test_values_match_table_for_any_mask_shape(self):
        rng = np.random.default_rng(51)
        model, rows = FAMILIES["bayes-linreg"]
        sources = [rows(rng, 4) for _ in range(3)]
        scorer = CoalitionScorer(model, "log-score", sources, rows(rng, 5))
        table = scorer.table()[0]
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

    def test_source_limits(self):
        model = FAMILIES["beta-bernoulli"][0]
        one, pool = binary_dataset([1, 0]), binary_dataset([1])
        with pytest.raises(UnsupportedConfigurationError, match="65 sources .* limit of 64"):
            CoalitionScorer(model, "log-score", [one] * 65, pool)
        scorer = CoalitionScorer(model, "log-score", [one] * 21, pool)
        assert scorer.values(np.array([0, 2**21 - 1])).shape == (1, 2)
        with pytest.raises(UnsupportedConfigurationError, match="21 sources .* limit of 20"):
            scorer.table()


# Each validation-set-free kind with a model and a factory for k random rows:
# every family it accepts, GP information gain also with jitter > 0 and rows
# repeated within and across sources.
BASELINES = {
    "cardinality": ("cardinality", None, FAMILIES["beta-bernoulli"][1]),
    "volume": ("volume", None, FAMILIES["bayes-linreg"][1]),
    "info-gain-linreg": ("info-gain", *FAMILIES["bayes-linreg"]),
    "info-gain-gp": ("info-gain", *FAMILIES["gp"]),
    "info-gain-gp-replicated": ("info-gain", *FAMILIES["gp-replicated"]),
    "kl-beta": ("kl-from-prior", *FAMILIES["beta-bernoulli"]),
    "kl-gaussian": ("kl-from-prior", *FAMILIES["gaussian-known-var"]),
}


class TestBaselineTables:
    @pytest.mark.filterwarnings("ignore::truthval.valuation.RankDeficientVolumeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(sorted(BASELINES)),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_instances_match_references(self, case, sizes, seed):
        # A table sums per-source statistics (Gram matrices, sufficient
        # statistics, lattice blocks), the references take them of the
        # concatenated rows (:func:`reference_value`): they agree to 1e-12
        # relative. The determinant of
        # a nearly singular Gram matrix loses digits, so volumes are compared
        # to 1e-12 of the Hadamard bound sqrt(prod diag G) of all rows' Gram
        # matrix G, which bounds every coalition's volume.
        kind, model, rows = BASELINES[case]
        rng = np.random.default_rng(seed)
        sources = [rows(rng, k) for k in sizes]
        atol = 1e-13
        if kind == "volume":
            x = concat_datasets(sources).inputs
            atol = 1e-12 * math.sqrt(np.prod((x**2).sum(axis=0)))
        assert_tables_match_references(model, kind, sources, atol=atol)

    def test_info_gain_matches_raw_row_references(self):
        # 1/2 log det(I_N + K / noise) on the raw rows for a GP, and
        # 1/2 log det(I_N + X X^T prior_var / noise_var) for linear regression.
        rng = np.random.default_rng(70)
        for family in ("gp-replicated", "gp-jitter", "bayes-linreg"):
            model, rows = FAMILIES[family]
            sources = [rows(rng, k) for k in (5, 0, 3, 6)]
            table = build_char_table(sources, DvfSpec("info-gain", model=model))
            for mask in range(16):
                data = coalition_data(sources, mask)
                if family == "bayes-linreg":
                    scaled = data.inputs @ data.inputs.T * (model.prior_var / model.noise_var)
                    want = 0.5 * np.linalg.slogdet(np.eye(len(data)) + scaled)[1]
                else:
                    want = gp_info_gain_raw_rows(model, data)
                assert table[mask] == pytest.approx(want, rel=1e-12, abs=1e-13), (family, mask)

    def test_kl_from_prior_matches_closed_forms(self):
        from scipy.special import betaln, digamma

        rng = np.random.default_rng(71)
        for family in ("beta-bernoulli", "gaussian-known-var"):
            model, rows = FAMILIES[family]
            sources = [rows(rng, k) for k in (4, 7, 2)]
            table = build_char_table(sources, DvfSpec("kl-from-prior", model=model))
            for mask in range(1, 8):
                y = coalition_data(sources, mask).outputs
                if family == "beta-bernoulli":
                    a0, b0 = model.alpha, model.beta
                    a1, b1 = a0 + y.sum(), b0 + len(y) - y.sum()
                    want = (
                        betaln(a0, b0) - betaln(a1, b1) + (a1 - a0) * digamma(a1)
                        + (b1 - b0) * digamma(b1) + (a0 + b0 - a1 - b1) * digamma(a1 + b1)
                    )
                else:
                    var0 = model.prior_var
                    var1 = 1.0 / (1.0 / var0 + len(y) / model.noise_var)
                    mean1 = var1 * (model.prior_mean / var0 + y.sum() / model.noise_var)
                    want = 0.5 * (
                        math.log(var0 / var1) + (var1 + (mean1 - model.prior_mean) ** 2) / var0 - 1
                    )
                assert table[mask] == pytest.approx(want, rel=1e-12, abs=1e-14), (family, mask)

    def test_rank_deficient_table_warns_once(self):
        # Ten one-row sources of three features: the 55 non-empty coalitions
        # of one or two sources have fewer rows than features. The 1,024
        # coalitions span two scoring blocks, and still warn once.
        rng = np.random.default_rng(72)
        sources = [Dataset(rng.uniform(size=(1, 3)), rng.normal(size=1)) for _ in range(10)]
        with pytest.warns(RankDeficientVolumeWarning) as caught:
            table = build_char_table(sources, DvfSpec("volume"))
        assert len(caught) == 1
        assert "55 coalitions" in str(caught[0].message)
        assert (table == 0).sum() == 56 and (table[[0b111, 2**10 - 1]] > 0).all()

    @pytest.mark.parametrize("moments", [None, [(0.0, 1.0), (1.0, 2.0), (-1.0, 0.5)]])
    def test_rank_deficient_grid_counts_each_coalition_once(self, moments):
        # Four one-row sources of three features, and source 4 swept over
        # variants of 1, 2 and 3 rows. The 10 coalitions of one or two of
        # sources 0-3 are deficient at every point and count once; with
        # source 4 they number 5, 1 and 0. Volume reads only inputs, so
        # moments that differ do not split the points.
        rng = np.random.default_rng(73)
        sources = [Dataset(rng.uniform(size=(1, 3)), rng.normal(size=1)) for _ in range(5)]
        variants = [Dataset(rng.uniform(size=(k, 3)), rng.normal(size=k)) for k in (1, 2, 3)]
        scorer = CoalitionScorer(
            None, "volume", sources, variants=(4, variants), moments=moments
        )
        with pytest.warns(RankDeficientVolumeWarning) as caught:
            tables = scorer.table()
        assert len(caught) == 1
        assert "16 coalitions" in str(caught[0].message)
        assert [int((t[1:] == 0).sum()) for t in tables] == [15, 11, 10]

    @pytest.mark.parametrize(
        "kind, family",
        [
            ("log-score", "gp"),
            ("mean-log-score", "bayes-linreg"),
            ("cardinality", "beta-bernoulli"),
            ("volume", "gp"),
            ("info-gain", "gp-replicated"),
            ("info-gain", "bayes-linreg"),
            ("kl-from-prior", "gaussian-known-var"),
        ],
    )
    def test_tables_are_built_without_dvf_value(self, kind, family, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_char_table called dvf_value")

        monkeypatch.setattr(valuation, "dvf_value", refuse)
        model, rows = FAMILIES[family]
        rng = np.random.default_rng(73)
        sources = [rows(rng, k) for k in (4, 3, 5)]
        validation = rows(rng, 4) if kind in ("log-score", "mean-log-score") else None
        if kind in ("cardinality", "volume"):
            model = None
        spec = DvfSpec(kind, model=model, validation=validation)
        assert np.isfinite(build_char_table(sources, spec)).all()

    @pytest.mark.parametrize("jitter", [0.0, 1e-6])
    def test_gp_info_gain_block_that_is_not_positive_definite_raises(self, jitter):
        # Information gain adds no jitter, so the singular block of the
        # shared-input instance raises at any model jitter, and the message
        # does not offer a larger one.
        sources, _ = shared_input_instance()
        model = GpHyper(lengthscales=0.05, noise_var=1e-17, jitter=jitter)
        with pytest.raises(NumericalError, match=r"noise_var 1e-17 with no jitter \(") as caught:
            CoalitionScorer(model, "info-gain", sources).table()
        assert "larger" not in str(caught.value)

    def test_gp_info_gain_dvf_value_merges_shared_inputs(self):
        # dvf_value scores {0, 1} as one source, whose 4 inputs occur twice
        # each and enter once with the noise halved, so it is finite where the
        # lattice, which keeps the two sources' rows apart, raises (above).
        # The inputs lie 20 lengthscales apart, so K is the identity to
        # 1e-87, and each input adds 1/2 log(1 + 2 / noise_var).
        sources, _ = shared_input_instance()
        spec = DvfSpec("info-gain", model=GpHyper(lengthscales=0.05, noise_var=1e-17))
        got = dvf_value(spec, coalition_data(sources, 0b011))
        assert got == pytest.approx(2.0 * math.log1p(2.0 / 1e-17), rel=1e-14)


def gp_dvf_values(model, kind, sources, pool):
    spec = DvfSpec(kind, model=model, validation=pool)
    return [dvf_value(spec, coalition_data(sources, m)) for m in range(2 ** len(sources))]


def shared_input_instance():
    """Sources 0 and 1 share their inputs 0..3, 20 lengthscales apart, and a
    third source lies between two of them. At noise_var 1e-17, below half an
    ulp of the kernel diagonal, appending source 1 after source 0 leaves an
    exactly singular block unless the model's jitter regularises it."""
    rng = np.random.default_rng(60)
    x = np.arange(4.0)[:, None]
    sources = [
        Dataset(x, rng.normal(size=4)),
        Dataset(x.copy(), rng.normal(size=4)),
        Dataset(x[:2] + 0.5, rng.normal(size=2)),
    ]
    return sources, Dataset(rng.uniform(0, 3, size=(5, 1)), rng.normal(size=5))


def permuted_table_masks(order, n):
    """For sources reordered as ``[sources[i] for i in order]``, the mask in
    the original table of each coalition of the reordered one."""
    masks = np.arange(2**n)
    return sum(((masks >> k) & 1) << i for k, i in enumerate(order))


class TestGpLattice:
    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    def test_featureless_gp_is_the_gaussian_mean_model(self, kind):
        # With no input features every kernel entry is signal_var: the latent
        # function is one constant with prior N(0, signal_var), which is the
        # Gaussian-mean model with prior_mean 0 and prior_var signal_var.
        rng = np.random.default_rng(66)
        sources = [outputs_dataset(rng.normal(0.4, 1.0, size=k)) for k in (4, 2, 5)]
        pool = outputs_dataset(rng.normal(0.4, 1.0, size=7))
        subsets = [np.array([0, 2, 3, 6]), np.array([1, 4, 5])]
        gp = GpHyper(signal_var=0.8, noise_var=0.3)
        mean = GaussianMeanModel(prior_mean=0.0, prior_var=0.8, noise_var=0.3)
        got = CoalitionScorer(gp, kind, sources, pool, subsets).table()
        want = CoalitionScorer(mean, kind, sources, pool, subsets).table()
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            # Observed: 3.1e-15 (log-score) and 1.1e-15 (mean-log-score).
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    def test_block_that_is_not_positive_definite_raises_without_jitter(self, kind):
        # dvf_value merges the inputs that sources 0 and 1 share into one row
        # each and scores {0, 1}; the lattice keeps them as two rows and
        # raises, so the message says why and that a jitter is needed.
        sources, pool = shared_input_instance()
        model = GpHyper(lengthscales=0.05, noise_var=1e-17)
        spec = DvfSpec(kind, model=model, validation=pool)
        assert np.isfinite(dvf_value(spec, coalition_data(sources, 0b011)))
        with pytest.raises(
            NumericalError, match="noise_var 1e-17 with jitter 0; a larger model 'jitter'"
        ) as caught:
            CoalitionScorer(model, kind, sources, pool).table()
        message = str(caught.value)
        assert "an input that two sources share as two rows" in message
        assert "dvf_value merges" in message and "needs a jitter" in message

    def test_block_singular_on_its_own_inputs_does_not_blame_shared_inputs(self):
        # Source 1's two inputs lie 1e-9 apart and share no input with source
        # 0, so the block appended after source 0 fails for its own rows.
        rng = np.random.default_rng(61)
        sources = [
            Dataset(np.array([[0.0]]), rng.normal(size=1)),
            Dataset(np.array([[2.0], [2.0 + 1e-9]]), rng.normal(size=2)),
        ]
        pool = Dataset(rng.uniform(0, 2, size=(3, 1)), rng.normal(size=3))
        model = GpHyper(lengthscales=0.05, noise_var=1e-17)
        with pytest.raises(NumericalError, match="with jitter 0; a larger model 'jitter'") as caught:
            CoalitionScorer(model, "log-score", sources, pool).table()
        assert "share" not in str(caught.value)

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    @pytest.mark.parametrize("jitter, rtol", [(1e-6, 1e-11), (1e-9, 1e-8)])
    def test_jitter_makes_the_lattice_match_dvf_value(self, kind, jitter, rtol):
        # The lattice puts the jitter on every row of sources 0 and 1;
        # dvf_value collapses their shared inputs to one row each with noise
        # and jitter halved, the same model. The appended block has condition
        # number about 1 / jitter, so agreement loses digits as jitter falls:
        # 2.9e-12 relative at 1e-6 and 1.7e-9 at 1e-9 on this instance.
        sources, pool = shared_input_instance()
        model = GpHyper(lengthscales=0.05, noise_var=1e-17, jitter=jitter)
        got = CoalitionScorer(model, kind, sources, pool).table()[0]
        want = gp_dvf_values(model, kind, sources, pool)
        np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-13)
        # Source 1's outputs, which differ from source 0's, move the value.
        assert abs(got[0b011] - got[0b001]) > 1e-4

    @pytest.mark.parametrize(
        "kind, subsets, shared",
        [
            ("log-score", [[0, 2, 3], [1, 4, 5]], False),
            ("mean-log-score", None, False),
            ("info-gain", None, False),
            ("log-score", None, True),
            ("mean-log-score", None, True),
        ],
        ids=["log-score-subsets", "mean-log-score", "info-gain", "log-score-shared",
             "mean-log-score-shared"],
    )
    def test_permuting_the_sources_permutes_the_table(self, kind, subsets, shared):
        # A coalition's value does not depend on the order in which the
        # lattice appends its members: 1e-12 relative on random inputs, and
        # 1e-10 on the shared-input instance at jitter 1e-6, whose appended
        # block has condition number about 1e6 (5.7e-12 observed).
        rng = np.random.default_rng(64)
        if shared:
            sources, pool = shared_input_instance()
            model, rtol = GpHyper(lengthscales=0.05, noise_var=1e-17, jitter=1e-6), 1e-10
        else:
            model, rows = FAMILIES["gp-replicated"]
            sources, pool, rtol = [rows(rng, k) for k in (4, 0, 3, 5)], rows(rng, 6), 1e-12
        pool = None if kind == "info-gain" else pool
        n = len(sources)
        scorer = CoalitionScorer(model, kind, sources, pool, subsets)
        tables = scorer.table()
        for order in [rng.permutation(n) for _ in range(4)] + [np.arange(n)[::-1]]:
            reordered = [sources[i] for i in order]
            got = CoalitionScorer(model, kind, reordered, pool, subsets).table()
            np.testing.assert_allclose(
                got, tables[:, permuted_table_masks(order, n)],
                rtol=rtol, atol=1e-13,
            )

    def test_permutation_prefixes_in_any_order_match_table(self):
        rng = np.random.default_rng(61)
        model, rows = FAMILIES["gp"]
        sources = [rows(rng, k) for k in (4, 0, 3, 5, 2)]
        pool = rows(rng, 6)
        scorer = CoalitionScorer(model, "log-score", sources, pool, [[0, 2, 3], [1, 4, 5]])
        tables = scorer.table()
        perms = np.array([rng.permutation(5) for _ in range(6)])
        prefixes = np.cumsum(np.uint64(1) << perms.astype(np.uint64), axis=1)
        masks = rng.permutation(np.concatenate([prefixes.ravel(), prefixes[:2].ravel()]))
        np.testing.assert_allclose(
            scorer.values(masks), tables[:, masks], rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    @pytest.mark.parametrize("copies", [2, 3, 7])
    def test_duplicated_source_scores_as_one_copy_with_noise_over_copies(self, kind, copies):
        rng = np.random.default_rng(63)
        model = GpHyper(lengthscales=0.6, signal_var=1.3, noise_var=0.25)
        data = Dataset(rng.uniform(size=(6, 2)), rng.normal(size=6))
        pool = Dataset(rng.uniform(size=(5, 2)), rng.normal(size=5))
        raw = concat_datasets([data] * copies)
        got = CoalitionScorer(model, kind, [raw], pool).values([1])
        # The reference scores the raw rows, every copy in its own row, by
        # dense solves: the library collapses repeated rows everywhere.
        want = gp_log_score_raw_rows(model, kind, pool, raw)
        np.testing.assert_allclose(got, [[want]], rtol=1e-12)

    def test_duplicated_source_needs_no_more_scratch(self, monkeypatch):
        sizes = []

        class RecordedPath(valuation.GpPath):
            def __init__(self, rows, *args):
                sizes.append(rows)
                super().__init__(rows, *args)

        monkeypatch.setattr(valuation, "GpPath", RecordedPath)
        rng = np.random.default_rng(64)
        model, rows = FAMILIES["gp"]
        data, other, pool = rows(rng, 9), rows(rng, 4), rows(rng, 6)
        for copies in (1, 10):
            sources = [concat_datasets([data] * copies), other]
            CoalitionScorer(model, "log-score", sources, pool).table()
        assert sizes == [13, 13]

    def test_refuses_scratch_beyond_physical_memory(self, monkeypatch):
        rng = np.random.default_rng(65)
        model, rows = FAMILIES["gp"]
        data, pool = rows(rng, 30), rows(rng, 5)
        # 8 bytes x (30 rows x (2 inputs + 30 factor + 5 pool + 2 white)
        # + 2 stack levels x (2 x 5 pool means + a 5 x 5 covariance)
        # + a 30-row append after 0 rows: 30 x (30 kernel + 2 x 5 pool)
        # + the 5 x 5 covariance's noisy copy and its factor) = 19,920,
        # for ten copies of the 30 rows as for one.
        sources = [concat_datasets([data] * 10)]
        monkeypatch.setattr(valuation, "_physical_memory", lambda: 19_920)
        CoalitionScorer(model, "log-score", sources, pool)
        monkeypatch.setattr(valuation, "_physical_memory", lambda: 19_919)
        with pytest.raises(ConfigurationError, match="30 distinct training rows and a 5-row"):
            CoalitionScorer(model, "log-score", sources, pool)

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    @pytest.mark.parametrize("grid", ["no-grid", "counts-sibling", "own-validation-sets"])
    def test_estimate_counts_the_pool_covariances_of_every_level(self, kind, grid, monkeypatch):
        # For log-score, each of the n + 1 stack levels keeps one pool
        # covariance per validation set: here 4 x 5 x 400^2 floats, 25.6 MB of
        # the peak. For mean-log-score the temporaries of the last 50-row
        # append (50 x 100 cross terms, 50 x 400 projections) weigh most. The
        # grids sweep source 2 over itself and its duplicate: a counts sibling
        # conditioned from the cross terms its first leaf holds, or, where each
        # point reads one set of its own besides a shared one, as under
        # cross-validation, a lattice per point after the shared one, whose
        # levels keep a covariance of every point's sets (3 x 300^2 floats).
        import scipy.linalg  # noqa: F401  (loaded first: its import is not the scorer's)

        sources = [friedman_generate(50, seed) for seed in range(3)]
        pool = friedman_generate(400, 3)
        subsets, variants, sets = [np.arange(400)] * 5, None, None
        if grid != "no-grid":
            variants = (2, [sources[2], concat_datasets([sources[2]] * 2)])
        if grid == "own-validation-sets":
            subsets = [np.arange(300), np.arange(100, 400), np.arange(50, 350)]
            sets = [[0, 1], [0, 2]]
        args = (GpHyper(noise_var=0.1), kind, sources, pool, subsets, variants, None, sets)
        tracemalloc.start()
        try:
            CoalitionScorer(*args).table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(valuation, "_physical_memory", lambda: 0)
        with pytest.raises(ConfigurationError) as refused:
            CoalitionScorer(*args)
        need = float(re.search(r"needs (\S+) GB", str(refused.value)).group(1)) * 1e9
        assert 0.8 * peak <= need <= 1.25 * peak

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score", "info-gain"])
    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("grid", ["three", "trie-rules"])
    def test_grid_matches_a_scorer_per_point(self, kind, standardize, grid, monkeypatch):
        # Variants of source 1 on one lattice, each point standardized by its
        # own moments, against a scorer per point on the point's standardized
        # rows: the same model, rows in another order. The trie-rules grid
        # holds a variant for each way a leaf shares another's work: d and d
        # with other outputs (whitened), d with extra rows (a tail), d twice
        # (a counts sibling) and with extra rows (a sibling's tail), d with
        # other outputs and extra rows (a tail whose prefix outputs differ),
        # the same with outputs above all others (visited last, it whitens two
        # segments), a subset of d and disjoint inputs (appended).
        rng = np.random.default_rng(66)
        model, rows = FAMILIES["gp"]

        def shifted(k):
            data = rows(rng, k)
            return Dataset(data.inputs, 4.0 + 3.0 * data.outputs)

        sources = [shifted(7), shifted(5), shifted(4)]
        if grid == "three":
            variants = [shifted(6), concat_datasets([sources[1]] * 2), shifted(2)]
        else:
            d, extra = sources[1], shifted(3)
            other = Dataset(d.inputs, d.outputs[::-1] - 1.0)
            highest = Dataset(d.inputs, np.maximum(d.outputs, other.outputs) + 1.0)
            variants = [
                d, other, concat_datasets([d, extra]), concat_datasets([d] * 2),
                concat_datasets([d, d, extra]), concat_datasets([other, extra]),
                concat_datasets([highest, extra]), take_rows(d, rng.permutation(5)[:3]),
                shifted(4),
            ]
        # A counts sibling is conditioned on cross terms another block was conditioned on first.
        calls = {"sibling": 0, "whiten_block": 0}
        condition_block, whiten_block = valuation.condition_block, valuation.whiten_block

        def conditioned(path, cross, *args, **kwargs):
            calls["sibling"] += cross.inner is None
            return condition_block(path, cross, *args, **kwargs)

        def whitened(*args, **kwargs):
            calls["whiten_block"] += 1
            return whiten_block(*args, **kwargs)

        monkeypatch.setattr(valuation, "condition_block", conditioned)
        monkeypatch.setattr(valuation, "whiten_block", whitened)
        pool, subsets = shifted(9), [[0, 2, 3, 5], [1, 4, 6, 7, 8]]
        if kind == "info-gain":  # validation-free: no pool to standardize
            pool, subsets = None, None
        points = [[sources[0], d, sources[2]] for d in variants]
        moments = [output_moments(point) for point in points] if standardize else None
        scorer = CoalitionScorer(model, kind, sources, pool, subsets, (1, variants), moments)
        got = scorer.table()
        want = []
        for g, point in enumerate(points):
            ref_pool = pool
            if standardize:
                point = [shift_scale_outputs(ds, *moments[g]) for ds in point]
                ref_pool = None if pool is None else shift_scale_outputs(pool, *moments[g])
            want += list(CoalitionScorer(model, kind, point, ref_pool, subsets).table())
        assert len(got) == len(want) == len(variants) * (1 if pool is None else 2)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        if grid == "trie-rules":
            assert calls["sibling"] > 0
            assert (calls["whiten_block"] > 0) == (kind != "info-gain")

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["log-score", "mean-log-score", "info-gain"]),
        swept=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        own_sets=st.booleans(),
    )
    def test_random_grids_of_shared_pieces_match_a_scorer_per_point(
        self, kind, swept, seed, own_sets
    ):
        # Each variant glues one to three pieces, one of them source 1's
        # rows, each piece maybe with other outputs or repeated, so that
        # variants begin with, equal or re-weight each other's rows in the
        # combinations the leaf plan shares, sometimes twice over. With
        # own_sets each point reads two of three validation sets, as under
        # cross-validation, and where they differ walks a lattice of its own.
        rng = np.random.default_rng(seed)
        model, rows = FAMILIES["gp"]
        sources = [rows(rng, 3), rows(rng, int(rng.integers(1, 5))), rows(rng, 2)]
        pieces = [sources[1], rows(rng, 2), rows(rng, 3)]
        variants = []
        for _ in range(int(rng.integers(2, 7))):
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                piece, change = pieces[rng.integers(3)], rng.integers(4)
                if change == 1:
                    piece = Dataset(piece.inputs, piece.outputs + rng.normal(size=len(piece)))
                elif change == 2:
                    piece = concat_datasets([piece] * int(rng.integers(2, 4)))
                parts.append(piece)
            variants.append(concat_datasets(parts))
        pool, subsets = (None, None) if kind == "info-gain" else (rows(rng, 6), [[0, 2, 3], [1, 4, 5]])
        sets = None
        if own_sets and pool is not None:
            subsets.append([2, 5])
            sets = [rng.choice(3, size=2, replace=False).tolist() for _ in variants]
        args = (subsets, (swept, variants), None, sets)
        grid = CoalitionScorer(model, kind, sources, pool, *args).table()
        want = []
        for g, d in enumerate(variants):
            point = [d if i == swept else ds for i, ds in enumerate(sources)]
            own = subsets if sets is None else [subsets[k] for k in sets[g]]
            want += list(CoalitionScorer(model, kind, point, pool, own).table())
        np.testing.assert_allclose(grid, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "pool_rows, subsets, sets, need, columns",
        [
            (5, None, None, 31_320, 5),
            (9, [[0, 1, 2, 3], [4, 5], [6, 7, 8]], [[0, 1], [0, 2], [1, 2]], 32_872, 7),
        ],
        ids=["shared-sets", "own-sets"],
    )
    def test_grid_scratch_is_sized_by_the_longest_coalition(
        self, pool_rows, subsets, sets, need, columns, monkeypatch
    ):
        # One fixed 10-row source and 30-row variants of the other: the
        # longest coalition has 40 rows, not the 100 rows of all sources.
        # Shared sets, one walk: 8 bytes x (40 rows x (2 inputs + 40 factor
        # + 5 pool + 2 white) + 3 stack levels x (2 x 5 pool means + a 5 x 5
        # covariance) + a 30-row append after 10 rows: 30 x (2 x 10 + 30
        # + 2 x 5) + the 5 x 5 covariance's noisy copy and its factor) = 31,320.
        # Own sets: point 1's walk, rooted at its variant, reads sets 0 and 2
        # on 7 of the 9 pool rows: 8 bytes x (40 x (2 + 40 + 7 + 2) + 3 x (2 x 7
        # + 4^2 + 3^2) + 30 x (2 x 10 + 30 + 2 x 7) + 2 x 4^2) = 32,872, more
        # than the first walk's 5,088 on the whole pool without source 1, and
        # points 0 and 2's 31,904 and 30,776 on 6 and 5 columns.
        rng = np.random.default_rng(67)
        model, rows = FAMILIES["gp"]
        fixed, pool = rows(rng, 10), rows(rng, pool_rows)
        variants = [rows(rng, 30) for _ in range(3)]

        def scorer(variants):
            args = (pool, subsets, (1, variants), None, sets)
            return CoalitionScorer(model, "log-score", [fixed, fixed], *args)

        monkeypatch.setattr(valuation, "_physical_memory", lambda: need)
        scorer(variants)
        longer = [variants[0], rows(rng, 31), variants[2]]
        with pytest.raises(ConfigurationError, match=f"41 distinct training rows and a {columns}-row"):
            scorer(longer)
        monkeypatch.setattr(valuation, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigurationError, match=f"40 distinct training rows and a {columns}-row"):
            scorer(variants)

    @pytest.mark.parametrize("sets", [None, [[0, 1], [0, 2], [1, 2]]], ids=["leaves", "own-sets"])
    def test_each_walk_frees_its_path_before_the_next(self, sets, monkeypatch):
        # The pre-flight counts one walk's memory at a time: every path built
        # before, in this call or an earlier one, is dead when a walk builds
        # its own. Masks that all hold the swept source skip the first walk.
        paths, alive = [], []

        class RecordedPath(valuation.GpPath):
            def __init__(self, *args):
                alive.append(sum(ref() is not None for ref in paths))
                super().__init__(*args)
                paths.append(weakref.ref(self))

        monkeypatch.setattr(valuation, "GpPath", RecordedPath)
        rng = np.random.default_rng(68)
        model, rows = FAMILIES["gp"]
        sources = [rows(rng, 4), rows(rng, 3), rows(rng, 5)]
        variants = [sources[1], concat_datasets([sources[1]] * 2), rows(rng, 2)]
        subsets = [[0, 1, 2, 3], [4, 5], [6, 7, 8]]
        args = (rows(rng, 9), subsets, (1, variants), None, sets)
        scorer = CoalitionScorer(model, "log-score", sources, *args)
        scorer.table()
        scorer.values([0b010, 0b111])
        assert alive == [0] * (2 if sets is None else 4 + 3)

    def test_cross_game_scorer_matches_per_game_tables(self):
        rng = np.random.default_rng(62)
        model, rows = FAMILIES["gp"]
        sources = [rows(rng, k) for k in (7, 5, 6)]
        weights = make_weights("shapley", 3)
        seeds = [11, 12, 13]
        cg = cross_validation_rewards(sources, 0.3, weights, model, seed=0, split_seeds=seeds)
        splits = [split_train_validation(src, 0.3, s) for src, s in zip(sources, seeds)]
        remaining = [rest for rest, _ in splits]
        for j, (_, validation) in enumerate(splits):
            spec = DvfSpec("log-score", model=model, validation=validation)
            phi = exact_semivalue(build_char_table(remaining, spec), weights)
            np.testing.assert_allclose(cg.per_game[:, j], phi, rtol=1e-9, atol=1e-12)
