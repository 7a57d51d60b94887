"""Validation-set-free rewards built from cross-game semivalues.

When the mediator has no held-out validation set, each source's submission is
split into a validation part and a remaining part. Game j scores coalitions
of the remaining datasets against source j's validation split; source i's
safe reward sums its semivalues over every game except its own. Including the
own game (the "unsafe" variant) re-opens a manipulation channel: a source can
shape its submission so that its remaining rows predict its own split well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .datagen import derive_seed, split_train_validation
from .errors import ConfigurationError
from .semivalues import SemivalueWeights, exact_semivalue
from .valuation import LOG_SCORE, DvfSpec, build_char_table


@dataclass(frozen=True)
class CrossGameRewards:
    """Semivalues of every source in every game, plus the two reward sums.

    ``per_game[i, j]`` is source i's semivalue in the game whose validation
    set came from source j. ``breve`` excludes each source's own game (safe);
    ``grave`` includes it (unsafe, kept to demonstrate the failure mode).
    """

    per_game: np.ndarray
    breve: np.ndarray
    grave: np.ndarray

    def __post_init__(self) -> None:
        for name in ("per_game", "breve", "grave"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def cross_validation_rewards(
    sources: Sequence[Dataset],
    validation_frac: float,
    weights: SemivalueWeights,
    model,
    seed: int,
    split_seeds: Sequence[int] | None = None,
    exact_limit: int = 20,
) -> CrossGameRewards:
    """Split each source, build one game per split, and sum the semivalues.

    By default the split seed of source j is derived from (seed, j); passing
    explicit ``split_seeds`` lets identical datasets be split identically,
    which is what the modified-symmetry condition requires. Every game is
    enumerated exactly, so more than ``exact_limit`` sources are rejected.
    """
    n = len(sources)
    if n < 2:
        raise ConfigurationError("cross-validation rewards need at least 2 sources")
    if weights.n != n:
        raise ConfigurationError(f"weights are for n={weights.n}, have {n} sources")
    if n > exact_limit:
        raise ConfigurationError(
            f"cross-validation rewards enumerate all 2^{n} coalitions of every game; "
            f"{n} sources exceed the exact limit ({exact_limit})"
        )
    if split_seeds is None:
        split_seeds = [derive_seed(seed, "split", j) for j in range(n)]
    elif len(split_seeds) != n:
        raise ConfigurationError(f"need {n} split seeds, got {len(split_seeds)}")
    for j, src in enumerate(sources):
        if len(src) < 2:
            raise ConfigurationError(
                f"source {j} has {len(src)} points, too few to split into a "
                "validation part and a non-empty remainder"
            )
    remaining = []
    validations = []
    for j, src in enumerate(sources):
        rest, val = split_train_validation(src, validation_frac, split_seeds[j])
        remaining.append(rest)
        validations.append(val)
    per_game = np.empty((n, n))
    for j in range(n):
        spec = DvfSpec(LOG_SCORE, model=model, validation=validations[j])
        table = build_char_table(remaining, spec, exact_limit)
        per_game[:, j] = exact_semivalue(table, weights)
    totals = per_game.sum(axis=1)
    diagonal = np.diag(per_game)
    return CrossGameRewards(per_game, totals - diagonal, totals)
