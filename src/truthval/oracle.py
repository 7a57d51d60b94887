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
and the k validation labels form one exchangeable sequence, so the joint law
of their success counts is the beta-binomial

    P(s, t) = C(M, s) C(k, t) B(a + s + t, b + M - s + k - t) / B(a, b).

A coalition's expected value therefore depends only on whether it holds the
target and on M, and costs one (M + 1) x (k + 1) grid rather than 2^(M + k)
outcomes. Semivalues are linear in the characteristic table, so the exact
semivalue of the expected table is the expected semivalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, binary_dataset
from .errors import InputError, NumericalError, UnsupportedConfigurationError
from .models import BetaBernoulliModel
from .semivalues import SemivalueWeights, exact_semivalue, make_weights
from .valuation import EXACT_LIMIT, CharacteristicTable, check_source_count

_IDENTITY_TOL = 1e-9
_RANK_TOL = 1e-10


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
    y = binary_dataset(dataset.outputs).outputs
    return float(y.sum()), len(y)


def _log_predictive(a, b, k: int, t):
    """Log probability of one k-label sequence with t successes under Beta(a, b)."""
    from scipy.special import betaln

    return betaln(a + t, b + k - t) - betaln(a, b)


def _joint_law(model, h: float, m: int, rows: int, k: int) -> np.ndarray:
    """P(s, t) on the (rows + 1) x (k + 1) grid of success counts, given h
    successes in m rows."""
    from scipy.special import gammaln

    s = np.arange(rows + 1)[:, None]
    t = np.arange(k + 1)[None, :]
    log_comb = gammaln(rows + 1) - gammaln(s + 1) - gammaln(rows - s + 1)
    log_comb = log_comb + gammaln(k + 1) - gammaln(t + 1) - gammaln(k - t + 1)
    a, b = model.alpha + h, model.beta + m - h
    law = np.exp(log_comb + _log_predictive(a, b, rows + k, s + t))
    # The probabilities must sum to one; anything else means the grid itself
    # is broken.
    total = float(law.sum())
    if abs(total - 1.0) > 1e-9:
        raise NumericalError(f"outcome probabilities sum to {total!r}, not 1")
    return law


def _scores(model, h: float, m: int, extra: int, k: int) -> np.ndarray:
    """Log probability of a k-label sequence with t successes given h + s
    successes in m + extra rows, on the (extra + 1) x (k + 1) grid of (s, t)."""
    s = np.arange(extra + 1)[:, None]
    t = np.arange(k + 1)[None, :]
    return _log_predictive(model.alpha + h + s, model.beta + m - h + extra - s, k, t)


def _expectations(model, true_datasets, alt_data, target, weights, k):
    """Exact expected semivalue vectors under truthful and alternative
    submission by the target, the weighted predictive-KL total, and whether
    the gap is strict.

    The KL total is summed per coalition from the two posteriors directly, not
    from the expected tables, so the gap identity compares two computations.
    The gap is strict when some coalition of positive weight that holds the
    target gives some validation sequence a different probability under the
    two submissions; by exchangeability one sequence per success count covers
    them all.
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
    distinct, which = np.unique(rows, return_inverse=True)
    with_true, with_alt, without, kl = (np.empty(len(distinct)) for _ in range(4))
    differs = np.zeros(len(distinct), dtype=bool)
    prior = _scores(model, 0.0, 0, 0, k)
    for r, extra in enumerate(distinct.tolist()):
        law = _joint_law(model, *truth, extra, k)
        base = np.sum(law * prior)
        score_true = _scores(model, *truth, extra, k)
        score_alt = _scores(model, *alt, extra, k)
        with_true[r] = np.sum(law * score_true) - base
        with_alt[r] = np.sum(law * score_alt) - base
        without[r] = np.sum(law * _scores(model, 0.0, 0, extra, k)) - base
        kl[r] = np.sum(law * (score_true - score_alt))
        differs[r] = np.any(np.abs(np.exp(score_true) - np.exp(score_alt)) > 1e-12)
    holds = (masks >> target) & 1 == 1
    coalition_weight = np.bincount(
        which[holds], weights=weights.w[sizes[holds] - 1], minlength=len(distinct)
    )
    phi_true, phi_alt = (
        exact_semivalue(CharacteristicTable(n, np.where(holds, v[which], without[which])), weights)
        for v in (with_true, with_alt)
    )
    strict = bool(np.any(differs & (coalition_weight > 0)))
    return phi_true, phi_alt, float(coalition_weight @ kl), strict


def _validate(model, n: int, target: int, weights: SemivalueWeights, k: int) -> None:
    _require_enumerable(model)
    check_source_count(n, EXACT_LIMIT)  # the expected tables hold 2^n values
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
