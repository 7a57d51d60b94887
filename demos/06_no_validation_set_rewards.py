"""Rewarding sources when the mediator has no validation set of its own.

Each submission is split 75/25; the held-out quarter of source j becomes the
validation set of game j, and coalitions of the remaining parts are scored
in every game. Summing source i's semivalues over the games of the others
(the "safe" sum) keeps truth optimal. Including its own game (the "unsafe"
sum) invites manipulation: a source can inject a self-consistent synthetic
cluster that its own remaining rows predict perfectly, inflating its reward.
What no test checks, the table shows: which play gains most under the unsafe
sum, here duplicating its rows three times, ahead of the injected cluster.
"""

import numpy as np

from truthval import (
    GpHyper,
    Strategy,
    apply_strategy,
    cross_validation_rewards,
    friedman_generate,
    make_weights,
    output_moments,
    shift_scale_outputs,
)

hyper = GpHyper(
    lengthscales=np.array([0.48, 0.54, 0.69, 1.15, 1.8, 400.0]),
    signal_var=1.0,
    noise_var=0.03,
)
weights = make_weights("shapley", 3)
truthful_sources = [friedman_generate(n, seed=s) for s, n in enumerate((150, 120, 120))]


def rewards_when_source0_plays(strategy: Strategy):
    submissions = [apply_strategy(truthful_sources[0], strategy)] + truthful_sources[1:]
    mean, sd = output_moments(submissions)
    submissions = [shift_scale_outputs(ds, mean, sd) for ds in submissions]
    breve = np.zeros(3)
    grave = np.zeros(3)
    n_splits = 5
    for r in range(n_splits):
        cg = cross_validation_rewards(
            submissions, 0.25, weights, hyper, seed=r,
            split_seeds=[1000 * r + j for j in range(3)],
        )
        breve += cg.breve / n_splits
        grave += cg.grave / n_splits
    return breve, grave


plays = {
    "truthful": Strategy("truthful"),
    "subset 50%": Strategy("subset", frac=0.5, seed=1),
    "inject cluster": Strategy("inject", frac=0.5, offset=0.1, seed=2),
    "duplicate x3": Strategy("duplicate", copies=3),
}

print("Source 0's reward, averaged over 5 split seeds:\n")
print(f"{'source 0 plays':>16s}  {'safe sum (own game excluded)':>30s}  {'unsafe sum':>12s}")
results = {}
for name, strategy in plays.items():
    breve, grave = rewards_when_source0_plays(strategy)
    results[name] = (breve[0], grave[0])
    print(f"{name:>16s}  {breve[0]:30.2f}  {grave[0]:12.2f}")

safe_best = max(results, key=lambda k: results[k][0])
unsafe_best = max(results, key=lambda k: results[k][1])
print(f"\nBest play under the safe sum:   {safe_best}")
print(f"Best play under the unsafe sum: {unsafe_best}")
print("\nScoring yourself on your own split validation set is an open door;")
print("excluding the own game closes it.")
