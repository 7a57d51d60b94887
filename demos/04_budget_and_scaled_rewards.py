"""Paying rewards under a hard budget.

Raw semivalues are unbounded, so a mediator with budget B per source must
post-process. Capping at B keeps truth optimal but stops distinguishing
submissions whose value clears the cap (any of them collects exactly B).
Scaling by the maximum semivalue plus a margin keeps every reward under B
while preserving relative sizes. What no test checks, the printout shows
side by side on one game: the cap narrows the raw 2.5 : 2.5 : 1 rewards to
2 : 2 : 1, while every scaling keeps their ratios.
"""

import numpy as np

from truthval import (
    CharacteristicTable,
    budget_cap,
    exact_semivalue,
    make_weights,
    scaled_reward,
)

game = CharacteristicTable(3, np.array([0, 3, 3, 5, 1, 4, 4, 6], dtype=float))
weights = make_weights("shapley", 3)
phi = exact_semivalue(game, weights)
print("Raw Shapley rewards:", phi)

budget = 2.0
capped = budget_cap(phi, a=1.0, budget=budget)
print(f"\nCapped at B={budget:g}:   {capped}")
print("Players 0 and 1 both hit the cap: beyond the cap the mechanism no")
print("longer rewards extra value, so it is only weakly truthful up there.")

for gamma in (0.0, 0.5, 2.0):
    scaled = scaled_reward(phi, budget=budget, gamma=gamma)
    print(f"Scaled, gamma={gamma:3.1f}: {np.round(scaled, 4)}   (max <= {budget:g})")
