"""Data valuation functions and characteristic-table construction.

The headline valuation is the log-score

    v(D) = log p(T | D) - log p(T)

for an agreed Bayesian model and a held-out validation set T, plus a
per-point (mean) variant. Four classic validation-set-free valuations are
included as baselines precisely because they are gameable: cardinality,
input-volume, information gain, and posterior divergence from the prior.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, digamma

from .data import Dataset, concat_datasets, empty_like, take_rows
from .errors import ConfigurationError, InputError, UnsupportedConfigurationError
from .gp import GpHyper, gaussian_logpdf, gp_posterior, se_ard_kernel
from .models import (
    BetaBernoulliModel,
    GaussianMeanModel,
    LinearRegressionModel,
    NaturalParams,
    _beta_ab,
    _check_kind,
    _gaussian_mean_nu,
    linreg_log_predictive_from_summary,
    linreg_validation_summary,
    log_predictive,
    log_predictive_from_params,
    mean_log_predictive,
    pointwise_log_predictive_from_params,
    posterior_params,
    prior_params,
    suff_stats,
)

LOG_SCORE = "log-score"
MEAN_LOG_SCORE = "mean-log-score"
CARDINALITY = "cardinality"
VOLUME = "volume"
INFO_GAIN = "info-gain"
KL_FROM_PRIOR = "kl-from-prior"

DVF_KINDS = (LOG_SCORE, MEAN_LOG_SCORE, CARDINALITY, VOLUME, INFO_GAIN, KL_FROM_PRIOR)
LOG_SCORE_KINDS = (LOG_SCORE, MEAN_LOG_SCORE)


class RankDeficientVolumeWarning(UserWarning):
    """Volume of a rank-deficient Gram matrix; the value is reported as 0."""


@dataclass(frozen=True)
class DvfSpec:
    """A data valuation function: which score, which model, which validation set.

    Log-score kinds require both a model and a non-empty validation set.
    Baseline kinds must not be given one; they never see held-out data,
    which is exactly why they are manipulable.
    """

    kind: str
    model: object | None = None
    validation: Dataset | None = None

    def __post_init__(self) -> None:
        if self.kind not in DVF_KINDS:
            raise ConfigurationError(f"unknown valuation kind {self.kind!r}")
        if self.kind in LOG_SCORE_KINDS:
            if self.model is None:
                raise ConfigurationError(f"{self.kind} requires a model")
            if self.validation is None or len(self.validation) == 0:
                raise ConfigurationError(f"{self.kind} requires a non-empty validation set")
        else:
            if self.validation is not None:
                raise ConfigurationError(
                    f"{self.kind} is validation-set-free; do not supply one"
                )
            if self.kind == INFO_GAIN and not isinstance(
                self.model, (GpHyper, LinearRegressionModel)
            ):
                raise UnsupportedConfigurationError(
                    "info-gain needs a model with an input-space kernel "
                    "(GP or linear regression)"
                )
            if self.kind == KL_FROM_PRIOR and not isinstance(
                self.model, (BetaBernoulliModel, GaussianMeanModel)
            ):
                raise UnsupportedConfigurationError(
                    "kl-from-prior has closed form only for the Beta-Bernoulli "
                    "and Gaussian-mean families"
                )


def _volume(data: Dataset) -> float:
    if len(data) == 0 or data.n_features == 0:
        return 0.0
    gram = data.inputs.T @ data.inputs
    det = float(np.linalg.det(gram))
    if len(data) < data.n_features or det <= 0.0:
        warnings.warn(
            f"Gram matrix of {len(data)} x {data.n_features} inputs is rank "
            "deficient; volume is 0",
            RankDeficientVolumeWarning,
            stacklevel=3,
        )
        return 0.0
    return float(np.sqrt(det))


def _info_gain(model, data: Dataset) -> float:
    if len(data) == 0:
        return 0.0
    if isinstance(model, GpHyper):
        kernel = se_ard_kernel(data.inputs, data.inputs, model)
        noise_var = model.noise_var
    else:  # LinearRegressionModel, linear kernel with the prior weight variance
        kernel = model.prior_var * (data.inputs @ data.inputs.T)
        noise_var = model.noise_var
    m = np.eye(len(data)) + kernel / noise_var
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise ConfigurationError("information-gain matrix is not positive definite")
    return 0.5 * float(logdet)


def _kl_from_prior(model, data: Dataset) -> float:
    post = posterior_params(model, data)
    if isinstance(model, BetaBernoulliModel):
        a1, b1 = _beta_ab(post)
        a0, b0 = model.alpha, model.beta
        return float(
            betaln(a0, b0)
            - betaln(a1, b1)
            + (a1 - a0) * digamma(a1)
            + (b1 - b0) * digamma(b1)
            + (a0 + b0 - a1 - b1) * digamma(a1 + b1)
        )
    mean1, nu1 = _gaussian_mean_nu(post)
    var1 = model.noise_var / nu1
    mean0, var0 = model.prior_mean, model.prior_var
    return float(
        0.5 * (np.log(var0 / var1) + (var1 + (mean1 - mean0) ** 2) / var0 - 1.0)
    )


def dvf_value(spec: DvfSpec, data: Dataset) -> float:
    """Evaluate the valuation function on one dataset."""
    if spec.kind == CARDINALITY:
        return float(len(data))
    if spec.kind == VOLUME:
        return _volume(data)
    if spec.kind == INFO_GAIN:
        return _info_gain(spec.model, data)
    if spec.kind == KL_FROM_PRIOR:
        return _kl_from_prior(spec.model, data)
    # Log-score kinds. An empty dataset carries no information about the
    # validation set, so its value is exactly zero.
    if len(data) == 0:
        return 0.0
    if spec.kind == LOG_SCORE:
        return log_predictive(spec.model, data, spec.validation) - log_predictive(
            spec.model, empty_like(data), spec.validation
        )
    return mean_log_predictive(spec.model, data, spec.validation) - mean_log_predictive(
        spec.model, empty_like(data), spec.validation
    )


@dataclass(frozen=True)
class CharacteristicTable:
    """Cooperative-game values indexed by coalition bitmask (bit i = source i)."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 64:
            raise ConfigurationError(f"source count must be in [1, 64], got {self.n}")
        values = np.array(self.values, dtype=float)
        if values.shape != (2**self.n,):
            raise ConfigurationError(
                f"table for n={self.n} needs {2**self.n} values, got {values.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def coalition_members(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def coalition_data(sources: list[Dataset], mask: int) -> Dataset:
    """Multiset union (row concatenation) of the member datasets."""
    members = [sources[i] for i in coalition_members(mask, len(sources))]
    return concat_datasets(
        members, n_features=sources[0].n_features, kind=sources[0].kind
    )


class CoalitionScorer:
    """Log-score value of every coalition of ``sources`` on validation sets drawn
    from one ``pool``.

    Each entry of ``subsets`` holds the pool rows of one validation set; without
    ``subsets`` the whole pool is the one validation set. The value of the
    coalition with bitmask ``mask`` is ``log p(T | D_C) - log p(T)`` for kind
    ``log-score`` and its per-point mean for ``mean-log-score``, the same
    quantity as :func:`dvf_value` on :func:`coalition_data`. A coalition with no
    rows is worth exactly zero. The empty coalition is scored once per
    validation set, and values are memoized as scalars, never as posteriors.

    Conjugate families score a coalition from the summed per-source sufficient
    statistics. A GP factorizes each coalition's training set once against the
    whole pool and scores every validation set from the marginal of that
    posterior.
    """

    def __init__(self, model, kind: str, sources: list[Dataset], pool: Dataset, subsets=None):
        if kind not in LOG_SCORE_KINDS:
            raise ConfigurationError(f"{kind!r} is not a log-score valuation")
        if not sources:
            raise ConfigurationError("need at least one source")
        _check_kind(model, pool, "validation")
        if subsets is None:
            subsets = [np.arange(len(pool))]
        subsets = [np.asarray(idx, dtype=int) for idx in subsets]
        if any(idx.size == 0 for idx in subsets):
            raise InputError("validation set must be non-empty")
        self.n = len(sources)
        self._model = model
        self._pool = pool
        self._counts = np.array([len(ds) for ds in sources])
        if isinstance(model, GpHyper):
            self._sources = list(sources)
            prior = self._coalition([], 0)
        else:
            stats = [suff_stats(ds, model) for ds in sources]
            self._vectors = np.vstack([s.vector for s in stats])
            self._prior = prior = prior_params(model)
        self._subset_scores = [self._subset_score(idx, kind) for idx in subsets]
        self._prior_scores = self._log_scores(prior)
        self._memo: dict[int, tuple[float, ...]] = {}

    def value(self, mask: int) -> float:
        """Value of coalition ``mask`` on the first (or only) validation set."""
        return self._row(mask)[0]

    def table(self) -> list[CharacteristicTable]:
        """One characteristic table per validation set, over all 2^n coalitions."""
        rows = np.array([self._row(mask) for mask in range(2**self.n)])
        return [CharacteristicTable(self.n, column) for column in rows.T]

    def _row(self, mask: int) -> tuple[float, ...]:
        row = self._memo.get(mask)
        if row is None:
            members = coalition_members(mask, self.n)
            count = self._counts[members].sum()
            if count == 0:
                row = (0.0,) * len(self._prior_scores)
            else:
                scores = self._log_scores(self._coalition(members, count))
                row = tuple(s - p for s, p in zip(scores, self._prior_scores))
            self._memo[mask] = row
        return row

    def _coalition(self, members: list[int], count):
        """What the model conditions on: the members' rows for a GP, otherwise
        the conjugate posterior from their summed statistics."""
        if isinstance(self._model, GpHyper):
            first = self._sources[0]
            return concat_datasets(
                [self._sources[i] for i in members], n_features=first.n_features, kind=first.kind
            )
        prior = self._prior
        nu = prior.nu0 + count
        sigma = (prior.nu0 * prior.sigma0 + self._vectors[members].sum(axis=0)) / nu
        return NaturalParams(prior.family, nu, sigma)

    def _log_scores(self, coalition) -> list[float]:
        if isinstance(self._model, GpHyper):
            coalition = gp_posterior(coalition, self._pool.inputs, self._model)
        return [score(coalition) for score in self._subset_scores]

    def _subset_score(self, idx: np.ndarray, kind: str):
        """Log score of pool rows ``idx`` as a function of the coalition's
        posterior parameters (conjugate) or pool posterior (GP)."""
        model = self._model
        mean_kind = kind == MEAN_LOG_SCORE
        if isinstance(model, GpHyper):
            y = self._pool.outputs[idx]
            if mean_kind:

                def gp_mean_score(post) -> float:
                    var = np.diag(post.cov)[idx] + model.noise_var
                    r = y - post.mean[idx]
                    return float(np.mean(-0.5 * (np.log(2.0 * np.pi * var) + r**2 / var)))

                return gp_mean_score

            def gp_score(post) -> float:
                cov = post.cov[np.ix_(idx, idx)] + model.noise_var * np.eye(idx.size)
                return gaussian_logpdf(y, post.mean[idx], cov)

            return gp_score
        validation = take_rows(self._pool, idx)
        if mean_kind:
            return lambda params: float(
                np.mean(pointwise_log_predictive_from_params(model, params, validation))
            )
        if isinstance(model, LinearRegressionModel):
            # The joint predictive depends on the validation set only through
            # its moments, so they are computed once per validation set.
            summary = linreg_validation_summary(model, validation)
            return lambda params: linreg_log_predictive_from_summary(model, params, summary)
        return lambda params: log_predictive_from_params(model, params, validation)


def build_char_table(
    sources: list[Dataset], spec: DvfSpec, exact_limit: int = 20
) -> CharacteristicTable:
    """Evaluate the valuation on every coalition of sources.

    This is exhaustive (2^n evaluations); beyond ``exact_limit`` sources the
    caller should switch to :func:`truthval.semivalues.sampled_shapley` with
    :meth:`CoalitionScorer.value` as the evaluator instead. Log-score kinds are
    scored by :class:`CoalitionScorer`, baselines by :func:`dvf_value`.
    """
    n = len(sources)
    if n < 1:
        raise ConfigurationError("need at least one source")
    if n > exact_limit:
        raise ConfigurationError(
            f"{n} sources means 2^{n} coalition evaluations; beyond the exact "
            f"limit ({exact_limit}), use the sampled estimator"
        )
    first = sources[0]
    for i, src in enumerate(sources):
        if src.n_features != first.n_features or src.kind != first.kind:
            raise InputError(f"source {i} is inconsistent with source 0")
    if spec.kind in LOG_SCORE_KINDS:
        return CoalitionScorer(spec.model, spec.kind, sources, spec.validation).table()[0]
    values = np.empty(2**n)
    for mask in range(2**n):
        values[mask] = dvf_value(spec, coalition_data(sources, mask))
    return CharacteristicTable(n, values)
