"""Valuation functions and characteristic tables."""

import math
import re
import tracemalloc

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
    cross_validation_rewards,
    dvf_value,
    empty_like,
    exact_semivalue,
    friedman_generate,
    gp_log_predictive,
    gp_pointwise_log_predictive,
    make_weights,
    outputs_dataset,
    split_train_validation,
    take_rows,
)
from truthval import valuation
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

    def test_table_beyond_exact_limit_rejected(self):
        # The limit is checked before the 2^21 values are looked at.
        with pytest.raises(UnsupportedConfigurationError, match="21 sources .* limit of 20"):
            CharacteristicTable(21, np.zeros(3))


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


def assert_tables_match_dvf_value(model, kind, sources, pool=None, subsets=None, atol=1e-13):
    """The scorer's tables against dvf_value on each coalition's rows; a
    validation-set-free kind (``pool`` None) has one table."""
    tables = CoalitionScorer(model, kind, sources, pool, subsets).table()
    validations = [None] if pool is None else [take_rows(pool, idx) for idx in subsets]
    assert len(tables) == len(validations)
    for validation, table in zip(validations, tables):
        spec = DvfSpec(kind, model=model, validation=validation)
        want = [dvf_value(spec, coalition_data(sources, m)) for m in range(2 ** len(sources))]
        assert table.values[0] == 0.0
        # The absolute floor only matters for values near zero, where
        # log p(T | D) - log p(T) loses digits to cancellation.
        np.testing.assert_allclose(table.values, want, rtol=1e-12, atol=atol)


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


def se_kernel(x, model):
    """The SE-ARD kernel written out, independent of truthval.gp."""
    scaled = x / np.broadcast_to(model.lengthscales, (x.shape[1],))
    sq = ((scaled[:, None, :] - scaled[None, :, :]) ** 2).sum(axis=-1)
    return model.signal_var * np.exp(-0.5 * sq)


class TestBaselineTables:
    @pytest.mark.filterwarnings("ignore::truthval.valuation.RankDeficientVolumeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(sorted(BASELINES)),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_instances_match_dvf_value(self, case, sizes, seed):
        # A table sums per-source statistics (Gram matrices, sufficient
        # statistics, lattice blocks), dvf_value takes them of the
        # concatenated rows: they agree to 1e-12 relative. The determinant of
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
        assert_tables_match_dvf_value(model, kind, sources, atol=atol)

    def test_info_gain_matches_raw_row_references(self):
        # 1/2 log det(I_N + K / noise) on the raw rows for a GP, and
        # 1/2 log det(I_N + X X^T prior_var / noise_var) for linear regression.
        rng = np.random.default_rng(70)
        for family in ("gp-replicated", "gp-jitter", "bayes-linreg"):
            model, rows = FAMILIES[family]
            sources = [rows(rng, k) for k in (5, 0, 3, 6)]
            table = build_char_table(sources, DvfSpec("info-gain", model=model)).values
            for mask in range(16):
                x = coalition_data(sources, mask).inputs
                if family == "bayes-linreg":
                    scaled = x @ x.T * (model.prior_var / model.noise_var)
                else:
                    scaled = se_kernel(x, model) / model.noise_var
                want = 0.5 * np.linalg.slogdet(np.eye(len(x)) + scaled)[1]
                assert table[mask] == pytest.approx(want, rel=1e-12, abs=1e-13), (family, mask)

    def test_kl_from_prior_matches_closed_forms(self):
        from scipy.special import betaln, digamma

        rng = np.random.default_rng(71)
        for family in ("beta-bernoulli", "gaussian-known-var"):
            model, rows = FAMILIES[family]
            sources = [rows(rng, k) for k in (4, 7, 2)]
            table = build_char_table(sources, DvfSpec("kl-from-prior", model=model)).values
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
            table = build_char_table(sources, DvfSpec("volume")).values
        assert len(caught) == 1
        assert "55 coalitions" in str(caught[0].message)
        assert (table == 0).sum() == 56 and (table[[0b111, 2**10 - 1]] > 0).all()

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
        assert np.isfinite(build_char_table(sources, spec).values).all()

    def test_gp_info_gain_block_that_is_not_positive_definite_falls_back(self, monkeypatch):
        # Source 1's block (the only 3 x 3 one) is made to fail its Cholesky
        # factorization, so every coalition holding it is scored on its raw rows.
        fallbacks = []
        original_factor, original_logdet = np.linalg.cholesky, valuation._gp_logdet

        def failing(a):
            if a.shape == (3, 3):
                raise np.linalg.LinAlgError("not positive definite")
            return original_factor(a)

        def counted(model, data):
            fallbacks.append(len(data))
            return original_logdet(model, data)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(valuation, "_gp_logdet", counted)
        model, rows = FAMILIES["gp-jitter"]
        rng = np.random.default_rng(74)
        sources = [rows(rng, k) for k in (4, 3, 2)]
        got = CoalitionScorer(model, "info-gain", sources).table()[0].values
        assert sorted(fallbacks) == [3, 5, 7, 9]  # {1}, {1, 2}, {0, 1}, {0, 1, 2}
        monkeypatch.undo()
        spec = DvfSpec("info-gain", model=model)
        want = [dvf_value(spec, coalition_data(sources, m)) for m in range(8)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def gp_dvf_values(model, kind, sources, pool):
    spec = DvfSpec(kind, model=model, validation=pool)
    return [dvf_value(spec, coalition_data(sources, m)) for m in range(2 ** len(sources))]


class TestGpLattice:
    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    def test_block_that_is_not_positive_definite_falls_back(self, kind, monkeypatch):
        # Sources 0 and 1 share their inputs and the noise is below half an
        # ulp of the kernel diagonal, so appending source 1 to source 0 leaves
        # an exactly singular block. Those coalitions go to gp_posterior,
        # which escalates jitter as dvf_value does.
        fallbacks = []
        original = valuation.gp_posterior

        def counted(train, *args, **kwargs):
            fallbacks.append(len(train))
            return original(train, *args, **kwargs)

        monkeypatch.setattr(valuation, "gp_posterior", counted)
        rng = np.random.default_rng(60)
        x = np.arange(4.0)[:, None]
        sources = [
            Dataset(x, rng.normal(size=4)),
            Dataset(x.copy(), rng.normal(size=4)),
            Dataset(x[:2] + 0.5, rng.normal(size=2)),
        ]
        pool = Dataset(rng.uniform(0, 3, size=(5, 1)), rng.normal(size=5))
        model = GpHyper(lengthscales=0.05, noise_var=1e-17)
        got = CoalitionScorer(model, kind, sources, pool).table()[0].values
        assert sorted(fallbacks) == [8, 10]  # {0, 1} and {0, 1, 2}
        assert np.isfinite(got).all()
        np.testing.assert_allclose(
            got, gp_dvf_values(model, kind, sources, pool), rtol=1e-12, atol=1e-13
        )

    def test_permutation_prefixes_in_any_order_match_table(self):
        rng = np.random.default_rng(61)
        model, rows = FAMILIES["gp"]
        sources = [rows(rng, k) for k in (4, 0, 3, 5, 2)]
        pool = rows(rng, 6)
        scorer = CoalitionScorer(model, "log-score", sources, pool, [[0, 2, 3], [1, 4, 5]])
        tables = np.array([table.values for table in scorer.table()])
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
        got = CoalitionScorer(model, kind, [concat_datasets([data] * copies)], pool).values([1])
        noise = model.noise_var / copies
        if kind == "log-score":
            prior = gp_log_predictive(empty_like(data), pool, model)
            want = gp_log_predictive(data, pool, model, train_noise_var=noise) - prior
        else:
            want = np.mean(
                gp_pointwise_log_predictive(data, pool, model, train_noise_var=noise)
                - gp_pointwise_log_predictive(empty_like(data), pool, model)
            )
        np.testing.assert_allclose(got, [[want]], rtol=1e-12)

    def test_duplicated_source_needs_no_more_scratch(self, monkeypatch):
        sizes = []

        class RecordedPath(valuation._GpPath):
            def __init__(self, rows, pool):
                sizes.append(rows)
                super().__init__(rows, pool)

        monkeypatch.setattr(valuation, "_GpPath", RecordedPath)
        rng = np.random.default_rng(64)
        model, rows = FAMILIES["gp"]
        data, other, pool = rows(rng, 9), rows(rng, 4), rows(rng, 6)
        for copies in (1, 10):
            sources = [concat_datasets([data] * copies), other]
            CoalitionScorer(model, "log-score", sources, pool).table()
        assert sizes == [13, 13]

    def test_refuses_scratch_beyond_physical_memory(self, monkeypatch):
        monkeypatch.setattr(valuation, "_physical_memory", lambda: 20_400)
        rng = np.random.default_rng(65)
        model, rows = FAMILIES["gp"]
        data, pool = rows(rng, 30), rows(rng, 5)
        # 8 bytes x (30 rows x (2 inputs + 30 factor + 5 pool + 1 white)
        # + 2 stack levels x (5 pool means + a 5 x 5 covariance)
        # + a 30-row append after 0 rows: 30 x (30 kernel + 3 x 5 pool)) = 20,400.
        CoalitionScorer(model, "log-score", [concat_datasets([data] * 10)], pool)
        with pytest.raises(ConfigurationError, match="33 distinct training rows"):
            CoalitionScorer(model, "log-score", [data, rows(rng, 3)], pool)

    @pytest.mark.parametrize("kind", ["log-score", "mean-log-score"])
    def test_estimate_counts_the_pool_covariances_of_every_level(self, kind, monkeypatch):
        # For log-score, each of the n + 1 stack levels keeps one pool
        # covariance per validation set: here 4 x 5 x 400^2 floats, 25.6 MB of
        # the peak. For mean-log-score the temporaries of the last 50-row
        # append (50 x 100 cross terms, 50 x 400 projections) weigh most.
        import scipy.linalg  # noqa: F401  (loaded first: its import is not the scorer's)

        sources = [friedman_generate(50, seed) for seed in range(3)]
        pool = friedman_generate(400, 3)
        args = (GpHyper(noise_var=0.1), kind, sources, pool, [np.arange(400)] * 5)
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
