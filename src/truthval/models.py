"""Closed-form Bayesian models: conjugate updates and exact predictive densities.

Three conjugate families are implemented with family-specific closed forms:

* Beta-Bernoulli (binary outputs, inputs ignored),
* Gaussian observations with known variance and an unknown mean
  (real outputs, inputs ignored),
* Bayesian linear regression with known noise variance and a zero-mean
  isotropic Gaussian prior on the weights.

A prior or posterior has one form, ``(nu, sums)``: a pseudo-count and the
summed sufficient statistics of the data plus the prior's pseudo-data. The
statistics of disjoint datasets add, so the conjugate update is one sum.
Every family gives the exact log density of a validation set under the
posterior predictive, both jointly (chain-rule consistent) and per point.
The Beta-Bernoulli and Gaussian-mean families also give the divergence of
the posterior from the prior in closed form. Gaussian-process regression
lives in :mod:`truthval.gp` and is scored only by
:class:`~truthval.valuation.CoalitionScorer`, which
:func:`~truthval.valuation.dvf_value` calls on one dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .data import BINARY, REGRESSION, Dataset
from .errors import ConfigurationError, InputError

LOG_2PI = math.log(2.0 * math.pi)


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


def _check_kind(model, data: Dataset, what: str) -> None:
    if data.kind != model.data_kind:
        raise InputError(
            f"{what} kind {data.kind!r} does not match model family "
            f"{model.family!r} (expects {model.data_kind!r})"
        )


def suff_stats(data: Dataset, model: ConjugateModel) -> np.ndarray:
    """Family-specific sufficient statistics of ``data``: a vector whose
    entries add over disjoint datasets and are all zero for an empty one."""
    _check_kind(model, data, "data")
    n = len(data)
    if isinstance(model, (BetaBernoulliModel, GaussianMeanModel)):
        return np.array([data.outputs.sum()])
    if isinstance(model, LinearRegressionModel):
        d = model.n_features
        if n and data.n_features != d:
            raise InputError(
                f"data has {data.n_features} features, model expects {d}"
            )
        x, y = data.inputs, data.outputs
        if n == 0:
            return np.zeros(1 + d + d * d)
        return np.concatenate([[y @ y], x.T @ y, (x.T @ x).ravel()])
    raise ConfigurationError(f"no sufficient statistics for model {model!r}")


def prior_params(model: ConjugateModel) -> tuple[float, np.ndarray]:
    """The prior as ``(nu0, sums0)``: a pseudo-count and the summed statistics
    of that many pseudo-observations, e.g. ``(alpha + beta, [alpha])`` for
    Beta-Bernoulli."""
    if isinstance(model, BetaBernoulliModel):
        return model.alpha + model.beta, np.array([model.alpha])
    if isinstance(model, GaussianMeanModel):
        nu0 = model.noise_var / model.prior_var
        return nu0, np.array([nu0 * model.prior_mean])
    if isinstance(model, LinearRegressionModel):
        d = model.n_features
        nu0 = model.noise_var / model.prior_var
        # Pseudo-data worth nu0 points whose Gram matrix is the ridge term
        # (noise_var / prior_var) * I and whose output moments are zero.
        return nu0, np.concatenate([[0.0], np.zeros(d), (nu0 * np.eye(d)).ravel()])
    raise ConfigurationError(
        f"no conjugate prior for model {model!r}; score a GP with dvf_value or CoalitionScorer"
    )


def posterior_params(model: ConjugateModel, data: Dataset) -> tuple[float, np.ndarray]:
    """The conjugate posterior ``(nu, sums)`` given ``data``: the observations
    add to the pseudo-count and their statistics to the prior's. Empty
    ``data`` gives the prior, and updating in steps gives the same sums."""
    nu0, sums0 = prior_params(model)
    return nu0 + len(data), sums0 + suff_stats(data, model)


# -- family-specific parameter decoding --------------------------------------


def _linreg_design(model: LinearRegressionModel, sums: np.ndarray):
    """Stacked (A, b): A = ridge + sum x x^T (k, d, d), b = sum x y (k, d)."""
    d = model.n_features
    return sums[:, 1 + d :].reshape(-1, d, d), sums[:, 1 : 1 + d]


def _augmented_gram(d: int, sums: np.ndarray, noise_var: float) -> np.ndarray:
    """Stacked augmented Gram [[A, b], [b^T, 2 y^T y + noise_var]] (k, d + 1, d + 1)
    of the linear-regression rows ``sums``, gathered with one index map. The
    last pivot squared of its Cholesky factor is y^T y - b^T A^{-1} b plus
    y^T y + noise_var: positive for any rounding of the first term, which
    rounds by about eps * y^T y, also where it is 0 (outputs all zero or none)."""
    index = np.empty((d + 1, d + 1), dtype=int)
    index[:d, :d] = np.arange(1 + d, 1 + d + d * d).reshape(d, d)
    index[:d, d] = index[d, :d] = np.arange(1, 1 + d)
    index[d, d] = 0
    gram = sums[:, index]
    gram[:, d, d] += sums[:, 0] + noise_var
    return gram


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked solve of a (k, d, d) x = b for vectors b (k, d)."""
    return np.linalg.solve(a, b[..., None])[..., 0]


# -- log predictive densities -------------------------------------------------
#
# Each family has one formula, written over a batch of k parameter sets given
# as stacked (nu, sums) arrays: nu (k,) and sums (k, m). log_predictive and
# mean_log_predictive at the end call it on the one row of a posterior.


def _check_validation(model, validation: Dataset) -> None:
    if len(validation) == 0:
        raise InputError("validation set must be non-empty")
    _check_kind(model, validation, "validation")
    if isinstance(model, LinearRegressionModel) and validation.n_features != model.n_features:
        raise InputError(
            f"validation has {validation.n_features} features, model expects {model.n_features}"
        )


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
        return len(y), suff_stats(validation, model)
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
        # log p(T | D) = log p(D + T) - log p(D), and each evidence needs only
        # log|A| and y^T y - b^T A^{-1} b (Bishop 2006, PRML 3.5.1). One
        # Cholesky factor of the augmented Gram gives both: log|A| from its
        # first d pivots, and the other from its last (see _augmented_gram).
        m, stats = summary
        s2 = model.noise_var
        rows = np.concatenate([sums, sums + stats])  # D, then D + T
        lower = np.linalg.cholesky(_augmented_gram(model.n_features, rows, s2))
        pivots = np.diagonal(lower, axis1=-2, axis2=-1).reshape(2, nu.size, model.n_features + 1)
        resid = pivots[..., -1] ** 2 - rows[:, 0].reshape(2, -1)  # each plus noise_var
        logdet = 2.0 * np.log(pivots[1, :, :-1] / pivots[0, :, :-1]).sum(axis=-1)
        quad = (resid[1] - resid[0]) / s2
        return -0.5 * (m * (LOG_2PI + math.log(s2)) + logdet + quad)
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


def log_predictive(model: ConjugateModel, data: Dataset, validation: Dataset) -> float:
    """Exact joint log density of the validation set given ``data``.

    With empty ``data`` this is the log marginal density under the prior.
    """
    nu, sums = posterior_params(model, data)
    summary = validation_summary(model, validation)
    return float(log_predictive_batch(model, np.array([nu]), sums[None, :], summary)[0])


def mean_log_predictive(model: ConjugateModel, data: Dataset, validation: Dataset) -> float:
    """Average per-point log predictive density (no posterior chaining)."""
    nu, sums = posterior_params(model, data)
    _check_validation(model, validation)
    pointwise = pointwise_log_predictive_batch(model, np.array([nu]), sums[None, :], validation)
    return float(np.mean(pointwise))
