"""Exact truthfulness oracle for discrete (Beta-Bernoulli) instances.

The claims under test are statements about expectations over everything a
source does not know: the validation set, and (for semivalues) the other
sources' data. For the Beta-Bernoulli family these expectations are exact
finite sums, so the claims can be checked as arithmetic identities:

* submitting anything that changes the posterior lowers the expected
  log-score value, and the drop equals the KL divergence between the two
  posterior predictive distributions over the validation space;
* the same holds for semivalues once the others' data is marginalized
  against the posterior given the source's true dataset;
* a source's own expected semivalue drop from lying is at least as large as
  the drop it inflicts on any other source.

Other sources' datasets enter only through their sizes: their contents are
the random variables, exchangeable Bernoulli rows of the given lengths. Under
the target's true posterior (a, b), the M rows of a coalition's other members
and the k validation labels form one exchangeable sequence. With s successes
among the rows and t among the labels, a submission of h successes in m rows
scores the labels log B(alpha + h + s + t, beta + m - h + M - s + k - t) -
log B(alpha + h + s, beta + m - h + M - s). Each term reads one count: by
Vandermonde's identity s + t follows BetaBin(M + k; a, b), and s follows
BetaBin(M; a, b). So every expectation is a difference of two
one-dimensional sums, at the totals M + k and M, and special functions run
on O(M + k) points per distinct M rather than on 2^(M + k) outcomes.
Semivalues are linear in the game, so the exact semivalue of the expected
game, its 2^n expected coalition values, is the expected semivalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import InputError, NumericalError, UnsupportedConfigurationError
from .models import BetaBernoulliModel
from .semivalues import SemivalueWeights, exact_semivalue, make_weights
from .valuation import EXACT_LIMIT, check_source_count

_IDENTITY_TOL = 1e-9
_RANK_TOL = 1e-10
_MEAN_RTOL = 1e-12  # one label's two predictive means differ beyond this relative distance
_BLOCK_CELLS = 2**14  # padded cells of one block of totals in _sums


@dataclass(frozen=True)
class OracleVerdict:
    """Exact expectations under truthful belief, their gap, and the matching KL.

    ``strict`` reports whether the two posterior predictive distributions over
    the scored validation space differ, in some coalition of positive weight
    that holds the source. That is the condition under which the
    gap is strictly positive; a posterior change alone is not always enough
    (e.g. duplicating a balanced dataset moves the Beta posterior but leaves a
    single-point Bernoulli predictive untouched).
    """

    expected_truthful: float
    expected_alt: float
    gap: float
    kl_total: float
    strict: bool


def _require_enumerable(model) -> None:
    if not isinstance(model, BetaBernoulliModel):
        raise UnsupportedConfigurationError(
            "exhaustive enumeration needs a discrete-outcome model "
            "(Beta-Bernoulli); got " + type(model).__name__
        )


def _counts(dataset: Dataset) -> tuple[float, int]:
    # The Bernoulli likelihood ignores inputs: only (successes, rows) matter.
    y = dataset.outputs
    if not ((y == 0.0) | (y == 1.0)).all():
        raise InputError("binary outputs must be encoded as 0/1")
    return float(y.sum()), len(y)


def _sums(model, submissions, totals: np.ndarray) -> np.ndarray:
    """Per total N of ``totals`` and submission (h, m), the mean of
    log B(alpha + h + j, beta + m - h + N - j) under j ~ BetaBin(N; a, b), the
    posterior given the first submission; a last row holds the mean difference
    of the first two. The totals sit on padded rows, in blocks of at most
    _BLOCK_CELLS cells (or one row), so memory stays bounded."""
    from scipy.special import betaln, gammaln

    h, m = np.array(submissions, dtype=float).T[:, :, None, None]
    log_b = betaln(model.alpha + h[0], model.beta + m[0] - h[0])
    out = np.empty((len(submissions) + 1, len(totals)))
    step = max(1, _BLOCK_CELLS // (int(totals.max()) + 1))
    for lo in range(0, len(totals), step):
        n = totals[lo : lo + step, None]
        cols = np.arange(n.max() + 1)
        j = np.minimum(cols, n)  # a padded cell repeats its row's last count
        log_fact = gammaln(cols + 1.0)
        scores = betaln(model.alpha + h + j, model.beta + m - h + n - j)
        log_law = log_fact[n] - log_fact[j] - log_fact[n - j] + scores[0] - log_b
        law = np.where(cols <= n, np.exp(log_law), 0.0)
        # Each law must sum to one; anything else means the table itself is broken.
        total = law.sum(axis=1)
        if np.abs(total - 1.0).max() > 1e-9:
            raise NumericalError(f"outcome probabilities sum to {total!r}, not 1")
        law /= total[:, None]
        out[:-1, lo : lo + step] = (law * scores).sum(axis=-1)
        out[-1, lo : lo + step] = (law * (scores[0] - scores[1])).sum(axis=-1)
    return out


def _expectations(model, true_datasets, alt_data, target, weights, k):
    """Exact expected semivalue vectors under truthful and alternative
    submission by the target (one :func:`exact_semivalue` call on both
    expected games), the weighted predictive-KL total, and whether the gap is
    strict.

    The KL total is summed per coalition from the differences of the two
    submissions' sums, not from the expected games, so the gap identity
    compares two computations. The gap is strict when some coalition of
    positive weight that holds the target gives the k labels a different
    predictive under the two submissions. From k = 2 on the predictive pins
    both posterior parameters, so it differs exactly when the counts do. One
    label's mean, (alpha + h + s) / (alpha + beta + m + M), is linear in s, so
    it differs for some s in [0, M] exactly when it does at s = 0 or s = M.
    """
    n = len(true_datasets)
    _validate(model, n, target, weights, k)
    counts = [_counts(ds) for ds in true_datasets]
    truth, alt = counts[target], _counts(alt_data)
    masks = np.arange(2**n, dtype=np.int64)
    sizes = np.zeros(2**n, dtype=np.int64)
    rows = np.zeros(2**n, dtype=np.int64)  # the other members' total rows M
    for j, (_, m) in enumerate(counts):
        member = (masks >> j) & 1
        sizes += member
        if j != target:
            rows += member * m
    distinct, which = np.unique(rows, return_inverse=True)  # distinct[0] is 0
    sums = _sums(model, [truth, alt, (0.0, 0)], np.concatenate([distinct, distinct + k]))
    # Expected scores with the true data, the alternative and neither, and the KL.
    scores = sums[:, len(distinct) :] - sums[:, : len(distinct)]
    values = scores[:3] - scores[2, 0]  # less the empty coalition's score
    ends = np.stack([0 * distinct, distinct])  # s = 0 and s = M
    p, q = (
        (model.alpha + h + ends) / (model.alpha + model.beta + m + distinct) for h, m in (truth, alt)
    )
    differs = (np.abs(p - q) > _MEAN_RTOL * p).any(axis=0) | (k > 1 and truth != alt)
    holds = (masks >> target) & 1 == 1
    coalition_weight = np.bincount(
        which[holds], weights=weights.w[sizes[holds] - 1], minlength=len(distinct)
    )
    games = np.where(holds, values[:2, which], values[2, which])
    phi_true, phi_alt = exact_semivalue(games, weights)
    strict = bool(np.any(differs & (coalition_weight > 0)))
    return phi_true, phi_alt, float(coalition_weight @ scores[3]), strict


def _validate(model, n: int, target: int, weights: SemivalueWeights, k: int) -> None:
    _require_enumerable(model)
    check_source_count(n, EXACT_LIMIT)  # the expected games hold 2^n values
    if not 0 <= target < n:
        raise InputError(f"target index {target} out of range for {n} sources")
    if weights.n != n:
        raise InputError(f"weights are for n={weights.n}, have {n} sources")
    if k < 1:
        raise InputError("validation_size must be >= 1")


def _verdict(expected_truthful, expected_alt, kl_total: float, strict: bool) -> OracleVerdict:
    gap = float(expected_truthful - expected_alt)
    if abs(gap - kl_total) > _IDENTITY_TOL:
        raise NumericalError(
            f"expected gap {gap!r} does not match the weighted predictive KL {kl_total!r}"
        )
    return OracleVerdict(
        float(expected_truthful), float(expected_alt), gap, float(kl_total), bool(strict)
    )


def oracle_dvf_truthfulness(
    model: BetaBernoulliModel,
    true_data: Dataset,
    alt_data: Dataset,
    validation_size: int,
) -> OracleVerdict:
    """Exact expected log-score values of the true and the alternative data.

    The expectation is over validation sets drawn from the posterior
    predictive given ``true_data``; it is the one-source case of the
    semivalue oracle. The returned ``kl_total`` is computed directly from the
    two posteriors and must equal the gap; a mismatch raises
    :class:`NumericalError`.
    """
    phi_true, phi_alt, kl_total, strict = _expectations(
        model, [true_data], alt_data, 0, make_weights("individual", 1), validation_size
    )
    return _verdict(phi_true[0], phi_alt[0], kl_total, strict)


def oracle_semivalue_truthfulness(
    model: BetaBernoulliModel,
    true_datasets: Sequence[Dataset],
    alt_data: Dataset,
    target: int,
    weights: SemivalueWeights,
    validation_size: int,
) -> OracleVerdict:
    """Exact expected semivalue of ``target`` under truthful vs alternative data."""
    phi_true, phi_alt, kl_total, strict = _expectations(
        model, true_datasets, alt_data, target, weights, validation_size
    )
    return _verdict(phi_true[target], phi_alt[target], kl_total, strict)


def oracle_rank_gap(
    model: BetaBernoulliModel,
    true_datasets: Sequence[Dataset],
    alt_data: Dataset,
    target: int,
    other: int,
    weights: SemivalueWeights,
    validation_size: int,
) -> tuple[float, float]:
    """Expected semivalue drop of the deviating source vs any other source.

    Returns (own drop, other's drop); the own drop can never be the smaller
    one, so lying never improves the deviator's ranking against anyone.
    """
    if other == target:
        raise InputError("other must differ from target")
    if not 0 <= other < len(true_datasets):
        raise InputError(f"other index {other} out of range")
    phi_true, phi_alt, _, _ = _expectations(
        model, true_datasets, alt_data, target, weights, validation_size
    )
    gap_target = float(phi_true[target] - phi_alt[target])
    gap_other = float(phi_true[other] - phi_alt[other])
    if gap_target < gap_other - _RANK_TOL:
        raise NumericalError(
            f"rank property violated: own drop {gap_target!r} < other's drop "
            f"{gap_other!r}"
        )
    return gap_target, gap_other
