"""From coalition values to fair rewards.

A game is an array of its 2^n coalition values, indexed by bitmask. A worked
3-player game shows the reward axioms in action: symmetric players
earn the same, a null player earns nothing, and strengthening a player's
contributions strictly raises its reward under any all-positive weighting.
The same game then goes through the Monte-Carlo estimator, under Shapley and
Beta(4,1) weights, to show that permutation sampling is an unbiased stand-in
for full enumeration. What no test checks, the estimates show: player 2
adds exactly 1 to every coalition, so its Shapley estimate has zero standard
error, while the Beta(4,1) estimator reweights each marginal by coalition
size and gives the same player a nonzero one. Both estimators take stacked
games: one exact call values the game and its weakened copy together.
"""

import numpy as np

from truthval import (
    exact_semivalue,
    make_weights,
    sampled_semivalue,
)

# Coalition values, indexed by bitmask over players {0, 1, 2}.
game = np.array([0, 3, 3, 5, 1, 4, 4, 6], dtype=float)
weakened = np.array([0, 3, 2, 4, 1, 4, 3, 5], dtype=float)

print("Coalition values:", dict(enumerate(game)))

for family in ("shapley", "banzhaf", "individual"):
    w = make_weights(family, 3)
    phi = exact_semivalue(game, w)
    fair = "all-positive weights" if w.is_fair else "NOT strictly monotone"
    print(f"  {family:10s} rewards {np.round(phi, 3)}   ({fair})")

beta = make_weights("beta", 3, alpha=4.0, beta=1.0)
print(f"  beta(4,1)  rewards {np.round(exact_semivalue(game, beta), 3)}"
      "   (weight tilted toward small coalitions)")

shapley = make_weights("shapley", 3)
phi, phi_weak = exact_semivalue(np.stack([game, weakened]), shapley)  # two games, one call
print(f"\nGroup rationality: rewards sum to {phi.sum():g}, the grand-coalition value.")
print("Players 0 and 1 contribute identically, and indeed earn the same reward.")

print(
    f"Weakening player 1's contributions drops its reward from "
    f"{phi[1]:g} to {phi_weak[1]:g} (strict monotonicity)."
)

print("\nMonte-Carlo estimation with 2000 sampled permutations:")
for w in (shapley, beta):
    est = sampled_semivalue(lambda masks: game[masks], w, 2000, seed=7)
    exact = exact_semivalue(game, w)
    print(f"  {w.family}:")
    for i in range(3):
        print(f"    player {i}: exact {exact[i]:.3f}   estimate {est.values[i]:.3f}"
              f" +/- {est.stderr[i]:.3f}")
print("Same seed, same estimate, every time.")
