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

from .data import Dataset, concat_datasets
from .datagen import derive_seed, split_train_validation
from .errors import ConfigurationError
from .semivalues import SemivalueWeights, exact_semivalue
from .valuation import LOG_SCORE, CoalitionScorer


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


def cross_game_scorer(sources: Sequence[Dataset], validation_frac: float, model, split_seeds):
    """The n games of the sources split by ``split_seeds``: one scorer of the
    remaining parts whose validation set j is source j's split, as the games
    differ only in their validation set."""
    n = len(sources)
    if n < 2:
        raise ConfigurationError("cross-validation rewards need at least 2 sources")
    if len(split_seeds) != n:
        raise ConfigurationError(f"need {n} split seeds, got {len(split_seeds)}")
    remaining, validations = zip(
        *(split_train_validation(src, validation_frac, s) for src, s in zip(sources, split_seeds))
    )
    for j, (src, rest) in enumerate(zip(sources, remaining)):
        if len(rest) == 0:
            raise ConfigurationError(
                f"source {j} has {len(src)} points, too few to split into a validation part "
                f"and a non-empty remainder: validation_frac {validation_frac} puts "
                f"ceil({validation_frac} * {len(src)}) = {len(src)} of them in the validation part"
            )
    ends = np.cumsum([len(val) for val in validations])
    subsets = [np.arange(end - len(val), end) for end, val in zip(ends, validations)]
    return CoalitionScorer(model, LOG_SCORE, list(remaining), concat_datasets(validations), subsets)


def cross_game_rewards(phis: np.ndarray) -> CrossGameRewards:
    """The rewards from the semivalues ``phis[j, i]`` of source i in game j of
    :func:`cross_game_scorer`, by either semivalue estimator."""
    per_game = np.asarray(phis).T
    totals = per_game.sum(axis=1)
    return CrossGameRewards(per_game, totals - np.diag(per_game), totals)


def cross_validation_rewards(
    sources: Sequence[Dataset],
    validation_frac: float,
    weights: SemivalueWeights,
    model,
    seed: int,
    split_seeds: Sequence[int] | None = None,
) -> CrossGameRewards:
    """The games of :func:`cross_game_scorer` valued exactly, summed by :func:`cross_game_rewards`.

    By default the split seed of source j is derived from (seed, j); passing
    explicit ``split_seeds`` lets identical datasets be split identically,
    which is what the modified-symmetry condition requires. Every game is
    enumerated exactly, so more than ``EXACT_LIMIT`` sources are rejected.
    """
    n = len(sources)
    if weights.n != n:
        raise ConfigurationError(f"weights are for n={weights.n}, have {n} sources")
    if split_seeds is None:
        split_seeds = [derive_seed(seed, "split", j) for j in range(n)]
    games = cross_game_scorer(sources, validation_frac, model, split_seeds).table()
    return cross_game_rewards(exact_semivalue(games, weights))
