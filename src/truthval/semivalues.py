"""Semivalue weight families, exact and sampled computation, reward post-processing.

A semivalue assigns source i the weighted sum of its marginal contributions,

    phi_i = sum_{C subset of N\\{i}} w_{|C|} [v(C + i) - v(C)],

with nonnegative coalition-size weights normalized so that
sum_c w_c * binom(n-1, c) = 1. The Shapley value (w_c * binom(n-1, c) = 1/n)
additionally satisfies group rationality: the values sum to v(N) - v(empty).

A game v is an array of its coalition values indexed by bitmask. Both
estimators take stacked games, one per leading index of the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .valuation import EXACT_LIMIT, MASK_BITS, check_source_count

SHAPLEY = "shapley"
BANZHAF = "banzhaf"
INDIVIDUAL = "individual"
BETA = "beta"

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class SemivalueWeights:
    """Coalition-size weights (w_0, ..., w_{n-1}) defining a semivalue."""

    n: int
    w: np.ndarray
    family: str = "custom"

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        if w.shape != (self.n,):
            raise ConfigurationError(f"need {self.n} weights, got shape {w.shape}")
        if (w < 0).any():
            raise ConfigurationError("semivalue weights must be nonnegative")
        total = sum(w[c] * math.comb(self.n - 1, c) for c in range(self.n))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ConfigurationError(
                f"weights violate the normalization constraint: sum = {total!r}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def is_fair(self) -> bool:
        """True when every coalition size has positive weight (strict monotonicity)."""
        return bool((self.w > 0).all())


def make_weights(
    family: str, n: int, alpha: float | None = None, beta: float | None = None
) -> SemivalueWeights:
    """Construct a standard weight family for an n-source game.

    ``beta`` weights follow w_c proportional to B(c + beta, n - c - 1 + alpha),
    renormalized to meet the semivalue constraint; (alpha, beta) = (1, 1)
    reproduces the Shapley value exactly, and larger ``alpha`` shifts weight
    toward smaller coalitions.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    if family == SHAPLEY:
        w = np.array([1.0 / (n * math.comb(n - 1, c)) for c in range(n)])
    elif family == BANZHAF:
        w = np.full(n, 0.5 ** (n - 1))
    elif family == INDIVIDUAL:
        w = np.zeros(n)
        w[0] = 1.0
    elif family == BETA:
        if alpha is None or beta is None or alpha < 1 or beta < 1:
            raise ConfigurationError("beta weights require alpha >= 1 and beta >= 1")
        from scipy.special import betaln

        raw = np.exp(
            np.array([betaln(c + beta, n - c - 1 + alpha) for c in range(n)])
            - betaln(alpha, beta)
        )
        norm = sum(raw[c] * math.comb(n - 1, c) for c in range(n))
        w = raw / norm
        family = f"beta({alpha:g},{beta:g})"
    else:
        raise ConfigurationError(f"unknown weight family {family!r}")
    return SemivalueWeights(n, w, family)


def _popcounts(size: int) -> np.ndarray:
    masks = np.arange(size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    while masks.any():
        counts += masks & 1
        masks >>= 1
    return counts


def exact_semivalue(values, weights: SemivalueWeights) -> np.ndarray:
    """Semivalue of every source by full enumeration of coalitions. A game is
    the 2^n coalition values on the last axis of ``values``, indexed by
    bitmask (bit i = source i); values of shape (..., 2^n) are stacked games
    and give semivalues of shape (..., n)."""
    n = weights.n
    check_source_count(n, EXACT_LIMIT)  # before the 2^n values are read
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (2**n,):
        raise ConfigurationError(
            f"a game of {n} sources needs {2**n} values on its last axis, got shape {values.shape}"
        )
    masks = np.arange(2**n, dtype=np.int64)
    sizes = _popcounts(2**n)
    phi = np.empty(values.shape[:-1] + (n,))
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        gains = np.take(values, without | (1 << i), axis=-1) - np.take(values, without, axis=-1)
        # One (1, m) @ (m, 1) dot product per game, whatever is stacked with it.
        phi[..., i] = (gains[..., None, :] @ weights.w[sizes[without], None])[..., 0, 0]
    return phi


@dataclass(frozen=True)
class SemivalueEstimate:
    """Monte-Carlo semivalue estimate with per-source standard errors."""

    values: np.ndarray
    stderr: np.ndarray
    n_permutations: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("values", "stderr"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def sampled_semivalue(
    evaluator: Callable[[np.ndarray], np.ndarray],
    weights: SemivalueWeights,
    n_permutations: int,
    seed: int,
) -> SemivalueEstimate:
    """Unbiased permutation-sampling semivalue estimator.

    For each uniformly random permutation, the coalition is grown one source
    at a time and each source is credited its marginal contribution, scaled
    by n * w_c * binom(n-1, c) when c sources precede it: a uniform
    permutation puts a given size-c coalition before the source with
    probability 1 / (n * binom(n-1, c)), so the scaled marginal is unbiased
    for every semivalue, and the factor is 1 for the Shapley value (Castro,
    Gomez and Tejada, 2009). The estimate is the per-source mean across
    permutations. ``evaluator`` maps the (P, n + 1) unsigned integer array of
    every prefix of every permutation to their values, in one call; values of
    shape (..., P, n + 1) are stacked games that share the permutations, and
    give ``values`` and ``stderr`` of shape (..., n).
    """
    n = weights.n
    check_source_count(n, MASK_BITS)
    if n_permutations < 1:
        raise ConfigurationError("need at least one permutation")
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(n) for _ in range(n_permutations)])
    prefixes = np.zeros((n_permutations, n + 1), dtype=np.uint64)
    np.cumsum(np.uint64(1) << perms.astype(np.uint64), axis=1, out=prefixes[:, 1:])
    gains = np.diff(np.asarray(evaluator(prefixes), dtype=float), axis=-1)
    scale = n * weights.w * np.array([math.comb(n - 1, c) for c in range(n)], dtype=float)
    marginals = np.empty(gains.shape)
    np.put_along_axis(marginals, np.broadcast_to(perms, gains.shape), gains * scale, axis=-1)
    values = marginals.mean(axis=-2)
    if n_permutations >= 2:
        stderr = marginals.std(axis=-2, ddof=1) / math.sqrt(n_permutations)
    else:
        stderr = np.zeros(values.shape)
    return SemivalueEstimate(values, stderr, n_permutations, seed)


def budget_cap(phi: np.ndarray, a: float, budget: float) -> np.ndarray:
    """Feasible rewards min(phi / a, budget); ``a`` must be fixed in advance.

    Capping trades strict truthfulness for plain truthfulness: any submission
    whose semivalue clears a * budget receives the same reward.
    """
    if a <= 0 or budget <= 0:
        raise ConfigurationError("budget_cap requires a > 0 and budget > 0")
    return np.minimum(np.asarray(phi, dtype=float) / a, budget)


def scaled_reward(phi: np.ndarray, budget: float, gamma: float) -> np.ndarray:
    """Rewards budget * phi / (max phi + gamma) for gamma >= 0, which keeps
    every reward <= budget; a negative gamma could raise one above it.

    The denominator depends on the submissions, so only the ratio of
    expectations is known to favor truthful submission. That guarantee is
    about expectations, so it does not hold per realization, and no check in
    this package exercises it yet.
    """
    phi = np.asarray(phi, dtype=float)
    if budget <= 0 or gamma < 0:
        raise ConfigurationError("scaled_reward requires budget > 0 and gamma >= 0")
    denom = float(phi.max()) + gamma
    if denom <= 0:
        raise ConfigurationError(
            f"max semivalue + gamma must be positive, got {denom!r}"
        )
    return budget * phi / denom
