"""Exact Gaussian-process regression with a squared-exponential ARD kernel.

The posterior over test inputs X* given training data (X, y) is

    mean = K_dx^T (K_d + S)^{-1} y
    cov  = K_xx - K_dx^T (K_d + S)^{-1} K_dx

where S is the observation-noise diagonal. Scoring a validation set uses the
observed-output predictive, i.e. noise_var is added back onto the covariance
diagonal. All factorizations are Cholesky on the jittered training kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import REGRESSION, Dataset
from .errors import ConfigurationError, InputError, NumericalError

# Jitter escalation: each rung is a multiple of signal_var, tried in order
# after the user-supplied base jitter, before giving up.
_JITTER_RUNGS = tuple(10.0**e for e in range(-9, -2))


@dataclass(frozen=True)
class GpHyper:
    """Fixed GP hyperparameters (no marginal-likelihood optimization).

    ``lengthscales`` may be a scalar (shared by all features) or a
    per-feature vector; it is resolved against the data dimension at use.
    ``jitter`` is always added to the training-kernel diagonal before
    factorization.
    """

    lengthscales: float | np.ndarray = 1.0
    signal_var: float = 1.0
    noise_var: float = 1.0
    jitter: float = 0.0

    family: ClassVar[str] = "gp"
    data_kind: ClassVar[str] = REGRESSION

    def __post_init__(self) -> None:
        ls = np.atleast_1d(np.array(self.lengthscales, dtype=float))
        if (ls <= 0).any():
            raise ConfigurationError("all lengthscales must be strictly positive")
        if self.signal_var <= 0 or self.noise_var <= 0:
            raise ConfigurationError("signal_var and noise_var must be positive")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)

    def resolved_lengthscales(self, n_features: int) -> np.ndarray:
        if self.lengthscales.size == 1:
            return np.full(max(n_features, 1), float(self.lengthscales[0]))
        if self.lengthscales.size != n_features:
            raise ConfigurationError(
                f"{self.lengthscales.size} lengthscales for {n_features} features"
            )
        return self.lengthscales


@dataclass(frozen=True)
class GpPosterior:
    """Latent posterior at a set of test inputs (no observation noise)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def se_ard_kernel(xa: np.ndarray, xb: np.ndarray, hyper: GpHyper) -> np.ndarray:
    """signal_var * exp(-0.5 * sum_d (xa_d - xb_d)^2 / lengthscale_d^2)."""
    d = xa.shape[1]
    ls = hyper.resolved_lengthscales(d)
    if d == 0:
        # No features: every pair is maximally similar.
        return np.full((xa.shape[0], xb.shape[0]), hyper.signal_var)
    sa = xa / ls
    sb = xb / ls
    # In place, in the order of the plain expression (a + b) - 2 sa sb^T, so
    # at most two result-sized arrays are alive; scaling by 2 is exact.
    sq = np.sum(sa**2, axis=1)[:, None] + np.sum(sb**2, axis=1)[None, :]
    cross = sa @ sb.T
    cross *= 2.0
    sq -= cross
    del cross
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= hyper.signal_var
    return sq


def _factor_train_kernel(k_train: np.ndarray, hyper: GpHyper):
    """Cholesky of the noisy training kernel, escalating jitter on failure.

    Each rung's jitter is written onto the diagonal of ``k_train`` in place, so
    the caller's matrix holds the last rung tried when this returns.
    """
    from scipy.linalg import cho_factor

    diag = np.diag_indices_from(k_train)
    noisy = k_train[diag].copy()
    for extra in (0.0,) + tuple(r * hyper.signal_var for r in _JITTER_RUNGS):
        k_train[diag] = noisy + (hyper.jitter + extra)
        try:
            return cho_factor(k_train, lower=True)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        "training kernel is not positive definite even after jitter escalation "
        f"up to {_JITTER_RUNGS[-1] * hyper.signal_var:g}"
    )


def _check_train(train: Dataset) -> None:
    if train.kind != REGRESSION:
        raise InputError("GP regression requires regression outputs")


def gp_posterior(
    train: Dataset,
    test_inputs: np.ndarray,
    hyper: GpHyper,
) -> GpPosterior:
    """Exact latent posterior at ``test_inputs`` given ``train``."""
    from scipy.linalg import cho_solve

    _check_train(train)
    test_inputs = np.asarray(test_inputs, dtype=float)
    if test_inputs.ndim != 2:
        raise InputError("test_inputs must be a 2-d matrix")
    k_star = se_ard_kernel(test_inputs, test_inputs, hyper)
    if len(train) == 0:
        return GpPosterior(np.zeros(test_inputs.shape[0]), k_star)
    if train.n_features != test_inputs.shape[1]:
        raise InputError(
            f"train has {train.n_features} features, test inputs have "
            f"{test_inputs.shape[1]}"
        )
    k_train = se_ard_kernel(train.inputs, train.inputs, hyper)
    k_train[np.diag_indices_from(k_train)] += hyper.noise_var
    factor = _factor_train_kernel(k_train, hyper)
    k_cross = se_ard_kernel(train.inputs, test_inputs, hyper)
    solved = cho_solve(factor, k_cross)
    mean = solved.T @ train.outputs
    cov = k_star - k_cross.T @ solved
    cov = 0.5 * (cov + cov.T)
    diag = np.diag_indices_from(cov)
    cov[diag] = np.maximum(cov[diag], 0.0)
    return GpPosterior(mean, cov)


def gaussian_logpdf(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Multivariate normal log density; raises NumericalError if cov is not PD."""
    from scipy.linalg import cho_factor, cho_solve

    try:
        factor = cho_factor(cov, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("predictive covariance is not positive definite") from exc
    r = y - mean
    alpha = cho_solve(factor, r)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return float(-0.5 * (len(y) * math.log(2.0 * math.pi) + logdet + r @ alpha))


def gp_log_predictive(
    train: Dataset,
    validation: Dataset,
    hyper: GpHyper,
) -> float:
    """Joint log density of the validation outputs under the noisy predictive."""
    if len(validation) == 0:
        raise InputError("validation set must be non-empty")
    _check_train(validation)
    post = gp_posterior(train, validation.inputs, hyper)
    cov = post.cov + hyper.noise_var * np.eye(len(validation))
    return gaussian_logpdf(validation.outputs, post.mean, cov)


def gp_pointwise_log_predictive(
    train: Dataset,
    validation: Dataset,
    hyper: GpHyper,
) -> np.ndarray:
    """Per-point log predictive density, each point scored independently."""
    if len(validation) == 0:
        raise InputError("validation set must be non-empty")
    _check_train(validation)
    post = gp_posterior(train, validation.inputs, hyper)
    var = np.diag(post.cov) + hyper.noise_var
    r = validation.outputs - post.mean
    return -0.5 * (np.log(2.0 * np.pi * var) + r**2 / var)
