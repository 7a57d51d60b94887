"""Exact enumeration oracle for the truthfulness guarantees."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthval import (
    BetaBernoulliModel,
    DvfSpec,
    GaussianMeanModel,
    binary_dataset,
    build_char_table,
    coalition_data,
    concat_datasets,
    exact_semivalue,
    log_predictive,
    make_weights,
    oracle_dvf_truthfulness,
    oracle_rank_gap,
    oracle_semivalue_truthfulness,
)
from truthval.errors import InputError, UnsupportedConfigurationError

MODEL = BetaBernoulliModel(1, 1)


class TestDvfOracle:
    def test_submitting_truth_has_zero_gap(self):
        truth = binary_dataset([1, 0, 1])
        verdict = oracle_dvf_truthfulness(MODEL, truth, truth, validation_size=2)
        assert verdict.gap == pytest.approx(0.0, abs=1e-12)
        assert not verdict.strict

    def test_worked_two_point_instance(self):
        # truth {1,0} -> posterior predictive 1/2; alt {1,1} -> 3/4.
        # Expected truthful value is 0; the alternative loses the
        # Bernoulli(1/2)-vs-Bernoulli(3/4) KL divergence.
        verdict = oracle_dvf_truthfulness(
            MODEL, binary_dataset([1, 0]), binary_dataset([1, 1]), validation_size=1
        )
        kl = 0.5 * math.log((1 / 2) / (3 / 4)) + 0.5 * math.log((1 / 2) / (1 / 4))
        assert verdict.expected_truthful == pytest.approx(0.0, abs=1e-12)
        assert verdict.expected_alt == pytest.approx(-kl, abs=1e-12)
        assert verdict.gap == pytest.approx(kl, abs=1e-12)
        assert verdict.kl_total == pytest.approx(kl, abs=1e-12)
        assert verdict.strict

    def test_row_permutation_is_not_a_deviation(self):
        # Same sufficient statistics, same posterior: zero gap, not strict.
        truth = binary_dataset([1, 0, 0, 1])
        permuted = binary_dataset([0, 1, 1, 0])
        verdict = oracle_dvf_truthfulness(MODEL, truth, permuted, validation_size=3)
        assert verdict.gap == pytest.approx(0.0, abs=1e-12)
        assert not verdict.strict

    def test_gap_matches_kl_on_random_instances(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            truth = binary_dataset((rng.random(rng.integers(1, 7)) < 0.5).astype(float))
            alt = binary_dataset((rng.random(rng.integers(0, 7)) < 0.7).astype(float))
            m = int(rng.integers(1, 5))
            verdict = oracle_dvf_truthfulness(MODEL, truth, alt, validation_size=m)
            assert verdict.gap == pytest.approx(verdict.kl_total, abs=1e-10)
            assert verdict.gap >= -1e-12
            if verdict.strict:
                assert verdict.gap > 0.0
            else:
                assert verdict.gap == pytest.approx(0.0, abs=1e-12)

    def test_non_enumerable_model_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            oracle_dvf_truthfulness(
                GaussianMeanModel(), binary_dataset([1]), binary_dataset([0]), 1
            )


class TestSemivalueOracle:
    def test_truth_vs_truth_gap_zero(self):
        sources = [binary_dataset([1, 0]), binary_dataset([1])]
        verdict = oracle_semivalue_truthfulness(
            MODEL, sources, sources[0], target=0,
            weights=make_weights("shapley", 2), validation_size=1,
        )
        assert verdict.gap == pytest.approx(0.0, abs=1e-12)
        assert not verdict.strict

    def test_individual_weights_reduce_to_dvf_oracle(self):
        # With all weight on the empty coalition the semivalue IS the
        # stand-alone value, so both oracles must agree exactly.
        truth = binary_dataset([1, 0])
        alt = binary_dataset([1, 1])
        sources = [truth, binary_dataset([1])]
        semi = oracle_semivalue_truthfulness(
            MODEL, sources, alt, target=0,
            weights=make_weights("individual", 2), validation_size=1,
        )
        dvf = oracle_dvf_truthfulness(MODEL, truth, alt, validation_size=1)
        assert semi.gap == pytest.approx(dvf.gap, abs=1e-12)

    def test_posterior_change_with_unchanged_predictive_is_not_strict(self):
        # Duplicating the balanced [1, 0] moves the Beta posterior but leaves
        # the one-label predictive at 1/2; with all weight on the target alone
        # no scored sequence changes probability, so the gap is zero.
        sources = [binary_dataset([1, 0]), binary_dataset([1])]
        verdict = oracle_semivalue_truthfulness(
            MODEL, sources, binary_dataset([1, 0, 1, 0]), target=0,
            weights=make_weights("individual", 2), validation_size=1,
        )
        assert verdict.gap == pytest.approx(0.0, abs=1e-12)
        assert not verdict.strict

    def test_shapley_gap_nonnegative_two_sources(self):
        truth = binary_dataset([1, 0])
        alt = binary_dataset([1, 1])
        sources = [truth, binary_dataset([1])]
        verdict = oracle_semivalue_truthfulness(
            MODEL, sources, alt, target=0,
            weights=make_weights("shapley", 2), validation_size=1,
        )
        assert verdict.gap >= -1e-10
        assert verdict.gap == pytest.approx(verdict.kl_total, abs=1e-10)
        assert verdict.strict

    def test_gap_nonnegative_across_weights_and_alternatives(self):
        rng = np.random.default_rng(41)
        truth = binary_dataset([1, 1, 0])
        sources = [truth, binary_dataset([1, 0]), binary_dataset([0])]
        alternatives = [
            binary_dataset([1, 1]),           # subset
            concat_datasets([truth, truth]),  # duplication
            binary_dataset([0, 0, 1]),        # flips
            binary_dataset([1]),
        ]
        weight_sets = [
            make_weights("shapley", 3),
            make_weights("banzhaf", 3),
            make_weights("beta", 3, alpha=4.0, beta=1.0),
            make_weights("individual", 3),
        ]
        for alt in alternatives:
            for weights in weight_sets:
                verdict = oracle_semivalue_truthfulness(
                    MODEL, sources, alt, target=0, weights=weights, validation_size=2
                )
                assert verdict.gap >= -1e-10
                assert verdict.gap == pytest.approx(verdict.kl_total, abs=1e-9)


class TestRankOracle:
    def test_truth_vs_truth_both_zero(self):
        sources = [binary_dataset([1, 0]), binary_dataset([1])]
        gap_i, gap_k = oracle_rank_gap(
            MODEL, sources, sources[0], target=0, other=1,
            weights=make_weights("shapley", 2), validation_size=1,
        )
        assert gap_i == pytest.approx(0.0, abs=1e-12)
        assert gap_k == pytest.approx(0.0, abs=1e-12)

    def test_duplication_never_improves_ranking(self):
        truth = binary_dataset([1, 0])
        sources = [truth, binary_dataset([1])]
        gap_i, gap_k = oracle_rank_gap(
            MODEL, sources, concat_datasets([truth, truth]), target=0, other=1,
            weights=make_weights("shapley", 2), validation_size=1,
        )
        assert gap_i >= gap_k - 1e-12

    def test_individual_weights_leave_others_untouched(self):
        truth = binary_dataset([1, 0])
        sources = [truth, binary_dataset([1]), binary_dataset([0])]
        gap_i, gap_k = oracle_rank_gap(
            MODEL, sources, binary_dataset([1, 1]), target=0, other=2,
            weights=make_weights("individual", 3), validation_size=1,
        )
        assert gap_k == pytest.approx(0.0, abs=1e-12)
        assert gap_i >= -1e-12

    def test_other_must_differ(self):
        sources = [binary_dataset([1, 0]), binary_dataset([1])]
        with pytest.raises(InputError):
            oracle_rank_gap(
                MODEL, sources, sources[0], target=0, other=0,
                weights=make_weights("shapley", 2), validation_size=1,
            )


def brute_force(model, true_datasets, alt, target, weights, k):
    """Reference oracle: enumerate every binary outcome of the other sources'
    rows and the k validation labels, 2^(k + their rows) of them, and build
    two games per outcome.

    Returns the expected semivalue vectors under truthful and alternative
    submission by ``target``, the weighted predictive-KL total, and whether
    some coalition of positive weight that holds ``target`` gives some
    validation sequence a different probability under the two submissions.
    """
    n = len(true_datasets)
    others = [j for j in range(n) if j != target]
    cuts = np.cumsum([0] + [len(true_datasets[j]) for j in others])
    phi_true, phi_alt, kl, total, differs = np.zeros(n), np.zeros(n), 0.0, 0.0, False
    for bits in product((0.0, 1.0), repeat=int(cuts[-1]) + k):
        t = binary_dataset(bits[cuts[-1]:])
        sources = [binary_dataset(ds.outputs) for ds in true_datasets]
        for j, lo, hi in zip(others, cuts[:-1], cuts[1:]):
            sources[j] = binary_dataset(bits[lo:hi])
        alt_sources = list(sources)
        alt_sources[target] = binary_dataset(alt.outputs)
        # One exchangeable sequence under the target's true posterior.
        weight = math.exp(log_predictive(model, sources[target], binary_dataset(bits)))
        total += weight
        spec = DvfSpec("log-score", model=model, validation=t)
        phi_true += weight * exact_semivalue(build_char_table(sources, spec), weights)
        phi_alt += weight * exact_semivalue(build_char_table(alt_sources, spec), weights)
        for mask in range(2**n):
            if mask >> target & 1:
                w = weights.w[bin(mask).count("1") - 1]
                scores = [
                    log_predictive(model, coalition_data(s, mask), t) for s in (sources, alt_sources)
                ]
                kl += weight * w * (scores[0] - scores[1])
                differs |= w > 0 and abs(math.exp(scores[0]) - math.exp(scores[1])) > 1e-12
    assert total == pytest.approx(1.0, abs=1e-9)
    return phi_true, phi_alt, kl, differs


def sequence_probabilities(model, data, k):
    """Probability of one k-label sequence per success count."""
    return np.array([
        math.exp(log_predictive(model, data, binary_dataset([1.0] * t + [0.0] * (k - t))))
        for t in range(k + 1)
    ])


FAMILIES = ("shapley", "banzhaf", "beta", "individual")


def family_weights(family, n):
    if family == "beta":
        return make_weights(family, n, alpha=4.0, beta=1.0)
    return make_weights(family, n)


@st.composite
def instances(draw):
    """1-3 sources, a target, an alternative and k, with at most 8 bits in all."""
    n = draw(st.integers(1, 3))
    target = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, 4))
    labels = st.lists(st.sampled_from([0.0, 1.0]), max_size=3)
    datasets = [draw(labels) for _ in range(n)]
    while k + sum(len(d) for j, d in enumerate(datasets) if j != target) > 8:
        datasets[(target + 1) % n].pop()
    alt = draw(st.lists(st.sampled_from([0.0, 1.0]), max_size=5))
    family = draw(st.sampled_from(FAMILIES))
    return [binary_dataset(d) for d in datasets], target, binary_dataset(alt), k, family


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_all_entry_points_match_outcome_enumeration(self, instance):
        sources, target, alt, k, family = instance
        n = len(sources)
        weights = family_weights(family, n)
        phi_true, phi_alt, kl, differs = brute_force(MODEL, sources, alt, target, weights, k)

        semi = oracle_semivalue_truthfulness(MODEL, sources, alt, target, weights, k)
        want = (phi_true[target], phi_alt[target], phi_true[target] - phi_alt[target], kl)
        got = (semi.expected_truthful, semi.expected_alt, semi.gap, semi.kl_total)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert semi.strict == differs

        truth = sources[target]
        dvf = oracle_dvf_truthfulness(MODEL, truth, alt, k)
        one = make_weights("individual", 1)
        d_true, d_alt, d_kl, _ = brute_force(MODEL, [truth], alt, 0, one, k)
        got = (dvf.expected_truthful, dvf.expected_alt, dvf.gap, dvf.kl_total)
        want = (d_true[0], d_alt[0], d_true[0] - d_alt[0], d_kl)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        differ = sequence_probabilities(MODEL, truth, k) - sequence_probabilities(MODEL, alt, k)
        assert dvf.strict == bool((np.abs(differ) > 1e-12).any())

        for other in range(n):
            if other != target:
                own, theirs = oracle_rank_gap(MODEL, sources, alt, target, other, weights, k)
                want = (phi_true[target] - phi_alt[target], phi_true[other] - phi_alt[other])
                np.testing.assert_allclose((own, theirs), want, rtol=0, atol=1e-12)


def large_instance(n_sources, rows, seed):
    rng = np.random.default_rng(seed)
    return [binary_dataset((rng.random(rows) < 0.6).astype(float)) for _ in range(n_sources)]


class TestBeyondOutcomeEnumeration:
    """Sizes whose binary outcome space (2^350 outcomes or more) no enumeration reaches."""

    VALIDATION = 200

    @pytest.mark.parametrize("alt_kind", ["duplicate", "subset", "flip"])
    def test_gap_is_nonnegative_weighted_kl(self, alt_kind):
        sources = large_instance(6, 30, seed=1)
        truth = sources[0]
        alt = {
            "duplicate": concat_datasets([truth, truth]),
            "subset": binary_dataset(truth.outputs[:10]),
            "flip": binary_dataset(1.0 - truth.outputs),
        }[alt_kind]
        for family in FAMILIES:
            verdict = oracle_semivalue_truthfulness(
                MODEL, sources, alt, 0, family_weights(family, 6), self.VALIDATION
            )
            assert verdict.strict
            assert verdict.gap > 0.0
            assert verdict.gap == pytest.approx(verdict.kl_total, abs=1e-10)

    @pytest.mark.parametrize("family", ["shapley", "banzhaf"])
    def test_rank_property(self, family):
        sources = large_instance(7, 25, seed=2)
        alt = concat_datasets([sources[3], sources[3]])
        weights = make_weights(family, 7)
        for other in (0, 6):
            own, theirs = oracle_rank_gap(MODEL, sources, alt, 3, other, weights, self.VALIDATION)
            assert own >= theirs - 1e-10
            assert own > 0.0

    def test_individual_weights_reproduce_dvf_gap(self):
        sources = large_instance(6, 40, seed=3)
        alt = binary_dataset(sources[2].outputs[::2])
        semi = oracle_semivalue_truthfulness(
            MODEL, sources, alt, 2, make_weights("individual", 6), self.VALIDATION
        )
        dvf = oracle_dvf_truthfulness(MODEL, sources[2], alt, self.VALIDATION)
        assert semi.gap == pytest.approx(dvf.gap, rel=1e-12, abs=1e-13)
        assert semi.kl_total == pytest.approx(dvf.kl_total, rel=1e-12, abs=1e-13)

    def test_more_than_twenty_sources_rejected(self):
        sources = [binary_dataset([1.0])] * 21
        with pytest.raises(UnsupportedConfigurationError, match="20 sources"):
            oracle_semivalue_truthfulness(
                MODEL, sources, sources[0], 0, make_weights("shapley", 21), 1
            )
        with pytest.raises(UnsupportedConfigurationError, match="20 sources"):
            oracle_rank_gap(MODEL, sources, sources[0], 0, 1, make_weights("shapley", 21), 1)


def test_verdicts_are_plain_python_scalars():
    sources = [binary_dataset([1, 0]), binary_dataset([1])]
    alt = binary_dataset([1, 1])
    verdicts = [
        oracle_dvf_truthfulness(MODEL, sources[0], alt, validation_size=2),
        oracle_semivalue_truthfulness(
            MODEL, sources, alt, 0, make_weights("shapley", 2), validation_size=2
        ),
    ]
    for verdict in verdicts:
        for field in ("expected_truthful", "expected_alt", "gap", "kl_total"):
            assert type(getattr(verdict, field)) is float
        assert type(verdict.strict) is bool
        assert "np." not in repr(verdict)
    gaps = oracle_rank_gap(MODEL, sources, alt, 0, 1, make_weights("shapley", 2), 2)
    assert type(gaps) is tuple and [type(g) for g in gaps] == [float, float]
