"""Closed-form Bayesian models: conjugate updates and exact predictive densities.

Three conjugate families are implemented with family-specific closed forms:

* Beta-Bernoulli (binary outputs, inputs ignored),
* Gaussian observations with known variance and an unknown mean
  (real outputs, inputs ignored),
* Bayesian linear regression with known noise variance and a zero-mean
  isotropic Gaussian prior on the weights.

Every family exposes additive sufficient statistics, the standard conjugate
posterior update in the (pseudo-count, mean-sufficient-statistic)
parametrization, and the exact log density of a validation set under the
posterior predictive, both jointly (chain-rule consistent) and per point.
The Beta-Bernoulli and Gaussian-mean families also give the divergence of
the posterior from the prior in closed form. Gaussian-process regression
lives in :mod:`truthval.gp`; the dispatch functions here accept its
hyperparameter object and delegate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from . import gp as _gp
from .data import BINARY, REGRESSION, Dataset
from .errors import ConfigurationError, InputError

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SuffStats:
    """Additive sufficient statistics of a dataset.

    ``vector`` holds family-specific sums; statistics of disjoint datasets
    add elementwise, and an empty dataset has all-zero statistics.
    """

    family: str
    count: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=float)
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)


@dataclass(frozen=True)
class NaturalParams:
    """Conjugate prior/posterior parameters.

    ``nu0`` is the pseudo-count and ``sigma0`` the mean sufficient-statistic
    vector, so the conjugate update is a weighted average of ``sigma0`` and
    the observed statistics.
    """

    family: str
    nu0: float
    sigma0: np.ndarray

    def __post_init__(self) -> None:
        if self.nu0 < 0:
            raise ConfigurationError(f"pseudo-count must be >= 0, got {self.nu0}")
        sigma0 = np.array(self.sigma0, dtype=float)
        sigma0.setflags(write=False)
        object.__setattr__(self, "sigma0", sigma0)


@dataclass(frozen=True)
class BetaBernoulliModel:
    """Bernoulli likelihood with a Beta(alpha, beta) prior on the success rate."""

    alpha: float = 1.0
    beta: float = 1.0

    family: ClassVar[str] = "beta-bernoulli"
    data_kind: ClassVar[str] = BINARY

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigurationError("Beta prior requires alpha > 0 and beta > 0")


@dataclass(frozen=True)
class GaussianMeanModel:
    """Gaussian observations with known variance and an unknown mean.

    Prior: mean ~ N(prior_mean, prior_var). Observation y ~ N(mean, noise_var).
    Inputs are ignored, only outputs enter the likelihood.
    """

    prior_mean: float = 0.0
    prior_var: float = 1.0
    noise_var: float = 1.0

    family: ClassVar[str] = "gaussian-known-var"
    data_kind: ClassVar[str] = REGRESSION

    def __post_init__(self) -> None:
        if self.prior_var <= 0 or self.noise_var <= 0:
            raise ConfigurationError("prior_var and noise_var must be positive")


@dataclass(frozen=True)
class LinearRegressionModel:
    """Bayesian linear regression with known noise variance.

    Weights w ~ N(0, prior_var * I); outputs y = X w + N(0, noise_var).
    The marginal likelihood of any output vector is an exact Gaussian.
    """

    n_features: int
    prior_var: float = 1.0
    noise_var: float = 1.0

    family: ClassVar[str] = "bayes-linreg"
    data_kind: ClassVar[str] = REGRESSION

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ConfigurationError("linear regression needs n_features >= 1")
        if self.prior_var <= 0 or self.noise_var <= 0:
            raise ConfigurationError("prior_var and noise_var must be positive")


ConjugateModel = Union[BetaBernoulliModel, GaussianMeanModel, LinearRegressionModel]
BayesianModel = Union[ConjugateModel, _gp.GpHyper]


def _check_kind(model, data: Dataset, what: str) -> None:
    if data.kind != model.data_kind:
        raise InputError(
            f"{what} kind {data.kind!r} does not match model family "
            f"{model.family!r} (expects {model.data_kind!r})"
        )


def suff_stats(data: Dataset, model: ConjugateModel) -> SuffStats:
    """Family-specific additive sufficient statistics of ``data``."""
    _check_kind(model, data, "data")
    n = len(data)
    if isinstance(model, BetaBernoulliModel):
        return SuffStats(model.family, n, np.array([data.outputs.sum()]))
    if isinstance(model, GaussianMeanModel):
        return SuffStats(model.family, n, np.array([data.outputs.sum()]))
    if isinstance(model, LinearRegressionModel):
        d = model.n_features
        if n and data.n_features != d:
            raise InputError(
                f"data has {data.n_features} features, model expects {d}"
            )
        x, y = data.inputs, data.outputs
        if n == 0:
            return SuffStats(model.family, 0, np.zeros(1 + d + d * d))
        vec = np.concatenate([[y @ y], x.T @ y, (x.T @ x).ravel()])
        return SuffStats(model.family, n, vec)
    raise ConfigurationError(f"no sufficient statistics for model {model!r}")


def combine_stats(*stats: SuffStats) -> SuffStats:
    """Sum statistics of disjoint datasets (multiset-union semantics)."""
    if not stats:
        raise InputError("combine_stats requires at least one argument")
    family = stats[0].family
    for s in stats[1:]:
        if s.family != family:
            raise ConfigurationError(f"family mismatch: {s.family} vs {family}")
    count = sum(s.count for s in stats)
    vector = np.sum([s.vector for s in stats], axis=0)
    return SuffStats(family, count, vector)


def prior_params(model: ConjugateModel) -> NaturalParams:
    """Prior in the (pseudo-count, mean sufficient statistics) parametrization."""
    if isinstance(model, BetaBernoulliModel):
        nu0 = model.alpha + model.beta
        return NaturalParams(model.family, nu0, np.array([model.alpha / nu0]))
    if isinstance(model, GaussianMeanModel):
        nu0 = model.noise_var / model.prior_var
        return NaturalParams(model.family, nu0, np.array([model.prior_mean]))
    if isinstance(model, LinearRegressionModel):
        d = model.n_features
        nu0 = model.noise_var / model.prior_var
        # Pseudo-data worth nu0 points whose Gram matrix is the ridge term
        # (noise_var / prior_var) * I and whose output moments are zero.
        sums = np.concatenate([[0.0], np.zeros(d), (nu0 * np.eye(d)).ravel()])
        return NaturalParams(model.family, nu0, sums / nu0)
    raise ConfigurationError(f"no conjugate prior for model {model!r}")


def posterior_update(prior: NaturalParams, stats: SuffStats) -> NaturalParams:
    """Conjugate update: add counts, average the mean sufficient statistics.

    Composes: updating with stats(A) then stats(B) equals one update with
    stats(A) + stats(B). Updating with empty statistics returns ``prior``
    unchanged (bit-identical).
    """
    if prior.family != stats.family:
        raise ConfigurationError(
            f"family mismatch: prior {prior.family!r} vs stats {stats.family!r}"
        )
    if stats.count == 0:
        return prior
    nu = prior.nu0 + stats.count
    sigma = (prior.nu0 * prior.sigma0 + stats.vector) / nu
    return NaturalParams(prior.family, nu, sigma)


def posterior_params(model: ConjugateModel, data: Dataset) -> NaturalParams:
    return posterior_update(prior_params(model), suff_stats(data, model))


# -- family-specific parameter decoding --------------------------------------


def _one_row(params: NaturalParams) -> tuple[np.ndarray, np.ndarray]:
    """``params`` as a batch of one: pseudo-counts ``nu`` (k,) and summed
    statistics ``sums = nu * sigma`` (k, m)."""
    return np.array([params.nu0]), (params.nu0 * params.sigma0)[None, :]


def _linreg_design(model: LinearRegressionModel, sums: np.ndarray):
    """Stacked (A, b): A = ridge + sum x x^T (k, d, d), b = sum x y (k, d)."""
    d = model.n_features
    return sums[:, 1 + d :].reshape(-1, d, d), sums[:, 1 : 1 + d]


def _chol_logdet(lower: np.ndarray) -> np.ndarray:
    return 2.0 * np.log(np.diagonal(lower, axis1=-2, axis2=-1)).sum(axis=-1)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked solve of a (k, d, d) x = b for vectors b (k, d)."""
    return np.linalg.solve(a, b[..., None])[..., 0]


# -- log predictive densities -------------------------------------------------
#
# Each family has one formula, written over a batch of k parameter sets given
# as stacked (nu, sums) arrays; the single-parameter functions below are
# one-row calls into it.


def _check_validation(model, validation: Dataset) -> None:
    if len(validation) == 0:
        raise InputError("validation set must be non-empty")
    _check_kind(model, validation, "validation")


def validation_summary(model: ConjugateModel, validation: Dataset):
    """The statistics of ``validation`` that its joint predictive density
    depends on, computed once for scoring many parameter sets."""
    _check_validation(model, validation)
    y = validation.outputs
    if isinstance(model, BetaBernoulliModel):
        return len(y), float(y.sum())
    if isinstance(model, GaussianMeanModel):
        mean = float(y.mean())
        return len(y), mean, float(np.sum((y - mean) ** 2))
    if isinstance(model, LinearRegressionModel):
        if validation.n_features != model.n_features:
            raise InputError(
                f"validation has {validation.n_features} features, model expects "
                f"{model.n_features}"
            )
        xs = validation.inputs
        return len(y), float(y @ y), xs.T @ y, xs.T @ xs
    raise ConfigurationError(f"no closed-form predictive for model {model!r}")


def log_predictive_batch(
    model: ConjugateModel, nu: np.ndarray, sums: np.ndarray, summary
) -> np.ndarray:
    """Joint log density of one validation set, given by its
    :func:`validation_summary`, at each of k stacked parameter sets.

    The joint is chain-rule consistent: scoring points sequentially while
    updating the posterior after each one gives the same total.
    """
    if isinstance(model, BetaBernoulliModel):
        from scipy.special import betaln

        m, s = summary
        a = sums[:, 0]
        b = nu - a
        return betaln(a + s, b + (m - s)) - betaln(a, b)
    if isinstance(model, GaussianMeanModel):
        # y ~ N(mu 1, s2 (I + 1 1^T / nu)); Sherman-Morrison gives the inverse
        # and determinant of the compound-symmetric covariance, and with the
        # centered sum of squares ss the quadratic form needs no per-point pass.
        m, mean, ss = summary
        s2 = model.noise_var
        mu = sums[:, 0] / nu
        quad = (ss + m * nu / (nu + m) * (mean - mu) ** 2) / s2
        logdet = m * math.log(s2) + np.log1p(m / nu)
        return -0.5 * (m * LOG_2PI + logdet + quad)
    if isinstance(model, LinearRegressionModel):
        # The predictive covariance is noise_var * (I + Xs A^{-1} Xs^T); both
        # the log-determinant and the quadratic form reduce to d x d solves.
        m, yty, xty, xtx = summary
        s2 = model.noise_var
        a, b = _linreg_design(model, sums)
        w_mean = _solve(a, b)
        full = np.linalg.cholesky(a + xtx)
        # r'r and Xs'r for the residual r = ys - Xs w, via the moments alone
        xtx_w = w_mean @ xtx
        rtr = yty - 2.0 * (w_mean @ xty) + np.einsum("kd,kd->k", w_mean, xtx_w)
        z = _solve(full, xty - xtx_w)
        quad = (rtr - np.einsum("kd,kd->k", z, z)) / s2
        logdet = m * math.log(s2) + _chol_logdet(full) - _chol_logdet(np.linalg.cholesky(a))
        return -0.5 * (m * LOG_2PI + logdet + quad)
    raise ConfigurationError(f"no closed-form predictive for model {model!r}")


def pointwise_log_predictive_batch(
    model: ConjugateModel, nu: np.ndarray, sums: np.ndarray, validation: Dataset
) -> np.ndarray:
    """Per-point log predictive densities (k, m) of ``validation``, every point
    scored at the same parameter set, for each of k stacked parameter sets."""
    y = validation.outputs
    if isinstance(model, BetaBernoulliModel):
        a = sums[:, 0]
        b = nu - a
        p1 = (a / (a + b))[:, None]
        return np.where(y == 1.0, np.log(p1), np.log(1.0 - p1))
    if isinstance(model, GaussianMeanModel):
        mu = (sums[:, 0] / nu)[:, None]
        var = (model.noise_var * (1.0 + 1.0 / nu))[:, None]
    elif isinstance(model, LinearRegressionModel):
        a, b = _linreg_design(model, sums)
        xs = validation.inputs
        mu = _solve(a, b) @ xs.T
        # x' A^{-1} x per point, without a (k, d, m) temporary
        var = model.noise_var * (1.0 + np.einsum("md,kde,me->km", xs, np.linalg.inv(a), xs))
    else:
        raise ConfigurationError(f"no closed-form predictive for model {model!r}")
    return -0.5 * (np.log(2.0 * np.pi * var) + (y - mu) ** 2 / var)


def kl_from_prior_batch(model: ConjugateModel, nu: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """KL(posterior || prior) at each of k stacked posterior parameter sets,
    for the families whose divergence has a closed form."""
    if isinstance(model, BetaBernoulliModel):
        from scipy.special import betaln, digamma

        a1 = sums[:, 0]
        b1 = nu - a1
        a0, b0 = model.alpha, model.beta
        return (
            betaln(a0, b0)
            - betaln(a1, b1)
            + (a1 - a0) * digamma(a1)
            + (b1 - b0) * digamma(b1)
            + (a0 + b0 - a1 - b1) * digamma(nu)
        )
    if isinstance(model, GaussianMeanModel):
        var1 = model.noise_var / nu
        mean0, var0 = model.prior_mean, model.prior_var
        return 0.5 * (np.log(var0 / var1) + (var1 + (sums[:, 0] / nu - mean0) ** 2) / var0 - 1.0)
    raise ConfigurationError(f"no closed-form divergence from the prior for model {model!r}")


def log_predictive_from_params(
    model: ConjugateModel, params: NaturalParams, validation: Dataset
) -> float:
    """Joint log density of ``validation`` under the predictive at ``params``."""
    summary = validation_summary(model, validation)
    if params.family != model.family:
        raise ConfigurationError(
            f"params family {params.family!r} does not match model {model.family!r}"
        )
    return float(log_predictive_batch(model, *_one_row(params), summary)[0])


def pointwise_log_predictive_from_params(
    model: ConjugateModel, params: NaturalParams, validation: Dataset
) -> np.ndarray:
    """Per-point log predictive density, every point scored at the same params."""
    _check_validation(model, validation)
    return pointwise_log_predictive_batch(model, *_one_row(params), validation)[0]


def log_predictive(model: BayesianModel, data: Dataset, validation: Dataset) -> float:
    """Exact joint log density of the validation set given ``data``.

    With empty ``data`` this is the log marginal density under the prior.
    """
    if isinstance(model, _gp.GpHyper):
        _check_validation(model, validation)
        _check_kind(model, data, "data")
        return _gp.gp_log_predictive(data, validation, model)
    return log_predictive_from_params(model, posterior_params(model, data), validation)


def mean_log_predictive(model: BayesianModel, data: Dataset, validation: Dataset) -> float:
    """Average per-point log predictive density (no posterior chaining)."""
    if isinstance(model, _gp.GpHyper):
        _check_validation(model, validation)
        _check_kind(model, data, "data")
        return float(np.mean(_gp.gp_pointwise_log_predictive(data, validation, model)))
    params = posterior_params(model, data)
    return float(np.mean(pointwise_log_predictive_from_params(model, params, validation)))
