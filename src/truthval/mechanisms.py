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
from .valuation import LOG_SCORE, CoalitionScorer, swept_variants


@dataclass(frozen=True)
class CrossGameRewards:
    """Semivalues of every source in every game, plus the two reward sums.

    ``per_game[..., i, j]`` is source i's semivalue in the game whose validation set
    came from source j. ``breve`` excludes each source's own game (safe);
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


def cross_game_scorer(
    sources: Sequence[Dataset], validation_frac: float, model, split_seeds,
    variants=None, moments=None,
):
    """The n games of the sources split by ``split_seeds``: one scorer of the
    remaining parts whose validation set j is source j's split, as the games
    differ only in their validation set.

    ``variants`` ``(i, [d_0, ..., d_{G-1}])`` and ``moments`` make G points, as in
    :class:`~truthval.valuation.CoalitionScorer`: point g's game i is scored on
    d_g's split by source i's seed, its other games on the other sources'
    splits, which every point shares. The splits are of the raw rows, and the
    scorer standardizes each point by its ``moments``."""
    n = len(sources)
    if n < 2:
        raise ConfigurationError("cross-validation rewards need at least 2 sources")
    if len(split_seeds) != n:
        raise ConfigurationError(f"need {n} split seeds, got {len(split_seeds)}")
    i, alternatives = swept_variants(variants, sources)
    order = [*enumerate([*sources[:i], alternatives[0], *sources[i + 1 :]])]
    pieces = []  # (remaining, validation) of every source, then of source i's other variants
    for j, src in order + [(i, d) for d in alternatives[1:]]:
        rest, validation = split_train_validation(src, validation_frac, split_seeds[j])
        if len(rest) == 0:
            raise ConfigurationError(
                f"source {j} has {len(src)} points, too few to split into a validation part "
                f"and a non-empty remainder: validation_frac {validation_frac} puts "
                f"ceil({validation_frac} * {len(src)}) = {len(src)} of them in the validation part"
            )
        pieces.append((rest, validation))
    ends = np.cumsum([len(val) for _, val in pieces])
    subsets = [np.arange(end - len(val), end) for end, (_, val) in zip(ends, pieces)]
    sets = [[n + g - 1 if j == i and g else j for j in range(n)] for g in range(len(alternatives))]
    remaining = [rest for rest, _ in pieces]
    pool = concat_datasets(val for _, val in pieces)
    variants = (i, [remaining[i], *remaining[n:]])
    return CoalitionScorer(model, LOG_SCORE, remaining[:n], pool, subsets, variants, moments, sets)


def cross_game_rewards(phis: np.ndarray) -> CrossGameRewards:
    """The rewards from the semivalues ``phis[..., j, i]`` of source i in game j
    of :func:`cross_game_scorer`, by either semivalue estimator; leading axes
    stack the games of several points."""
    per_game = np.swapaxes(phis, -1, -2)
    totals = per_game.sum(axis=-1)
    return CrossGameRewards(per_game, totals - np.diagonal(per_game, axis1=-2, axis2=-1), totals)


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
