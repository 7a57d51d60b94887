"""Checking the truthfulness guarantee exactly, by counting successes.

A source holding {1, 0} wonders whether to submit something else. It does
not know the validation set, so it weighs each possible outcome by its own
posterior predictive. Outcomes with the same number of successes are equally
likely and score the same, so the oracle sums over success counts (a
beta-binomial law) instead of over every binary sequence; that keeps it exact
at hundreds of rows and validation labels. It confirms three facts:

  1. the expected value lost by lying equals the KL divergence between the
     truthful and untruthful predictive distributions, so it is never
     negative;
  2. the same holds for Shapley-style rewards once the other sources' data
     is averaged out too;
  3. lying drags the liar down at least as far as it drags anyone else, so
     it can never improve the liar's ranking.

What no test checks, the rank lines show: a lie can raise the other source's
expected reward (a negative drop), not only lower it less than the liar's.
"""

from truthval import (
    BetaBernoulliModel,
    binary_dataset,
    concat_datasets,
    make_weights,
    oracle_dvf_truthfulness,
    oracle_rank_gap,
    oracle_semivalue_truthfulness,
)

model = BetaBernoulliModel(1.0, 1.0)
truth = binary_dataset([1, 0])

candidates = {
    "the truth {1,0}": truth,
    "all successes {1,1}": binary_dataset([1, 1]),
    "one row dropped {1}": binary_dataset([1]),
    "three copies of itself": concat_datasets([truth] * 3),
    "rows reordered {0,1}": binary_dataset([0, 1]),
}

print("Stand-alone value, expectation over a 2-point validation set:")
for name, alt in candidates.items():
    v = oracle_dvf_truthfulness(model, truth, alt, validation_size=2)
    print(
        f"  submit {name:24s} expected value {v.expected_alt:+.5f}"
        f"   loss vs truth {v.gap:.5f} (= KL {v.kl_total:.5f})"
        f"   {'<- strictly worse' if v.strict and v.gap > 0 else ''}"
    )

print("\nReordering rows has the same sufficient statistics, so it is not a lie.")

print("\nShapley value of source 0 in a 2-source game (other source has 2 points):")
sources = [truth, binary_dataset([1, 0])]
weights = make_weights("shapley", 2)
for name, alt in candidates.items():
    v = oracle_semivalue_truthfulness(model, sources, alt, 0, weights, validation_size=2)
    print(f"  submit {name:24s} expected Shapley {v.expected_alt:+.5f}   gap {v.gap:.5f}")

print("\nRanking safety: the liar's own loss vs the damage to the other source:")
for name, alt in candidates.items():
    own, other = oracle_rank_gap(model, sources, alt, 0, 1, weights, validation_size=2)
    print(f"  submit {name:24s} own drop {own:+.5f}   other's drop {other:+.5f}")
print("\nOwn drop >= other's drop in every line: lying never improves a ranking.")
