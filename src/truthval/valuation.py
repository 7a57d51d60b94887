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
    _beta_ab,
    _check_kind,
    _gaussian_mean_nu,
    log_predictive,
    log_predictive_batch,
    mean_log_predictive,
    pointwise_log_predictive_batch,
    posterior_params,
    prior_params,
    suff_stats,
    validation_summary,
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


# Coalitions scored per stacked evaluation; bounds the temporaries of a
# large batch (membership matrix, stacked d x d factors).
_BLOCK = 512


class CoalitionScorer:
    """Log-score value of every coalition of ``sources`` on validation sets drawn
    from one ``pool``.

    Each entry of ``subsets`` holds the pool rows of one validation set; without
    ``subsets`` the whole pool is the one validation set. The value of the
    coalition with bitmask ``mask`` is ``log p(T | D_C) - log p(T)`` for kind
    ``log-score`` and its per-point mean for ``mean-log-score``, the same
    quantity as :func:`dvf_value` on :func:`coalition_data`. A coalition with no
    rows is worth exactly zero, and the empty coalition is scored once per
    validation set.

    Conjugate families score blocks of coalitions at once: a membership
    matrix times the stacked per-source sufficient statistics gives every
    coalition's posterior, and the predictive formulas run over the stack. A
    GP factorizes each distinct coalition's training set once against the
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
        self._counts = np.array([len(ds) for ds in sources], dtype=float)
        if isinstance(model, GpHyper):
            self._sources = list(sources)
            prior = self._gp_posterior([])
        else:
            self._vectors = np.vstack([suff_stats(ds, model).vector for ds in sources])
            params = prior_params(model)
            self._nu0, self._sums0 = params.nu0, params.nu0 * params.sigma0
            prior = (np.array([self._nu0]), self._sums0[None, :])
        self._subset_scores = [self._subset_score(idx, kind) for idx in subsets]
        self._prior_scores = np.ravel([score(prior) for score in self._subset_scores])

    def values(self, masks) -> np.ndarray:
        """Values of the coalitions in the integer array ``masks`` (any shape)
        on every validation set, shape ``(len(subsets),) + masks.shape``."""
        masks = np.asarray(masks)
        if not np.issubdtype(masks.dtype, np.integer):
            raise ConfigurationError(f"coalition masks must be integers, got {masks.dtype}")
        if masks.size and (masks.min() < 0 or int(masks.max()) >> self.n):
            raise ConfigurationError(f"coalition masks must lie in [0, 2^{self.n})")
        unique, inverse = np.unique(masks.astype(np.uint64).ravel(), return_inverse=True)
        scored = np.empty((len(self._subset_scores), unique.size))
        score = self._score_gp if isinstance(self._model, GpHyper) else self._score_conjugate
        for start in range(0, unique.size, _BLOCK):
            scored[:, start : start + _BLOCK] = score(unique[start : start + _BLOCK])
        return scored[:, inverse.reshape(masks.shape)]

    def table(self) -> list[CharacteristicTable]:
        """One characteristic table per validation set, over all 2^n coalitions."""
        return [CharacteristicTable(self.n, row) for row in self.values(np.arange(2**self.n))]

    def _score_conjugate(self, masks: np.ndarray) -> np.ndarray:
        members = (masks[:, None] >> np.arange(self.n, dtype=np.uint64)) & np.uint64(1)
        members = members.astype(float)
        counts = members @ self._counts
        batch = (self._nu0 + counts, self._sums0 + members @ self._vectors)
        scores = np.array([score(batch) for score in self._subset_scores])
        return np.where(counts == 0, 0.0, scores - self._prior_scores[:, None])

    def _score_gp(self, masks: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self._subset_scores), masks.size))
        for j, mask in enumerate(masks):
            members = coalition_members(int(mask), self.n)
            if self._counts[members].sum() > 0:
                post = self._gp_posterior(members)
                out[:, j] = [score(post) for score in self._subset_scores]
                out[:, j] -= self._prior_scores
        return out

    def _gp_posterior(self, members: list[int]):
        first = self._sources[0]
        train = concat_datasets(
            [self._sources[i] for i in members], n_features=first.n_features, kind=first.kind
        )
        return gp_posterior(train, self._pool.inputs, self._model)

    def _subset_score(self, idx: np.ndarray, kind: str):
        """Log score of pool rows ``idx`` as a function of the coalition's pool
        posterior (GP) or of a stacked ``(nu, sums)`` batch of posterior
        parameters (conjugate), one score per coalition."""
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
            return lambda batch: pointwise_log_predictive_batch(model, *batch, validation).mean(
                axis=1
            )
        # The joint predictive depends on the validation set only through its
        # summary statistics, so they are computed once per validation set.
        summary = validation_summary(model, validation)
        return lambda batch: log_predictive_batch(model, *batch, summary)


def build_char_table(
    sources: list[Dataset], spec: DvfSpec, exact_limit: int = 20
) -> CharacteristicTable:
    """Evaluate the valuation on every coalition of sources.

    This is exhaustive (2^n evaluations); beyond ``exact_limit`` sources the
    caller should switch to :func:`truthval.semivalues.sampled_semivalue` with
    :meth:`CoalitionScorer.values` as the evaluator instead. Log-score kinds are
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
