"""Exact Gaussian-process regression with a squared-exponential ARD kernel.

The posterior over test inputs X* given training data (X, y) is

    mean = K_dx^T (K_d + S)^{-1} y
    cov  = K_xx - K_dx^T (K_d + S)^{-1} K_dx

where S is the observation-noise diagonal. Scoring a validation set uses the
observed-output predictive, i.e. noise_var is added back onto the covariance
diagonal. Every training kernel is factorized by :func:`append_block`, which
extends the Cholesky factor of a training set by one block of rows (or by
its counts and outputs half, :func:`condition_block`, for a block whose
inputs another block already crossed with the same rows), and the
configured ``jitter`` is the only regulariser of either. Every posterior,
one training set's included, is scored on such a path by
:class:`~truthval.valuation.CoalitionScorer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .data import REGRESSION, Dataset
from .errors import ConfigurationError, NumericalError


@dataclass(frozen=True)
class GpHyper:
    """Fixed GP hyperparameters (no marginal-likelihood optimization).

    ``lengthscales`` may be a scalar (shared by all features) or a
    per-feature vector; it is resolved against the data dimension at use.
    ``jitter`` is added to the noise of every training row before every
    factorization except that of information gain; a training kernel that is
    not positive definite with it raises NumericalError.
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


def se_ard_kernel(xa: np.ndarray, xb: np.ndarray, hyper: GpHyper) -> np.ndarray:
    """signal_var * exp(-0.5 * sum_d (xa_d - xb_d)^2 / lengthscale_d^2)."""
    d = xa.shape[1]
    ls = hyper.resolved_lengthscales(d)
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


class GpBlock(NamedTuple):
    """A block of training rows as :func:`append_block` takes it: the distinct
    input rows in order of first appearance, the mean output of each and how
    often each occurs. c outputs observed at one input x constrain f(x) exactly
    as their mean with noise variance noise_var / c does, since
    prod_c N(y_c | f(x), s^2) is proportional in f to N(mean y | f(x), s^2 / c);
    so the posterior, and every log score, is that of the raw rows."""

    inputs: np.ndarray
    outputs: np.ndarray
    counts: np.ndarray


def gp_block(data: Dataset) -> GpBlock:
    """The rows of ``data`` as one :class:`GpBlock`."""
    _, first, inverse, counts = np.unique(
        data.inputs, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.argsort(order)  # a row's position in order of first appearance
    counts = counts[order].astype(float)
    sums = np.bincount(rank[inverse.ravel()], weights=data.outputs, minlength=order.size)
    return GpBlock(data.inputs[first[order]], sums / counts, counts)


class GpPath:
    """Scratch of a training set grown block by block, one row per distinct
    input row of each block: the inputs, the Cholesky factor L of the noisy
    training kernel, V = L^-1 K(train, test), w = L^-1 y and w_1 = L^-1 1:
    outputs (y - m) / s whiten to (w - m w_1) / s. An append at row ``start``
    overwrites the rows past it, so one factor's worth of memory serves every
    training set that extends the rows before it."""

    def __init__(self, rows: int, test_inputs: np.ndarray):
        self.inputs = np.empty((rows, test_inputs.shape[1]))
        self.factor = np.empty((rows, rows))
        self.proj = np.empty((rows, len(test_inputs)))
        self.white = np.empty((2, rows))

    @staticmethod
    def nbytes(rows: int, test_inputs: np.ndarray) -> int:
        return 8 * rows * (test_inputs.shape[1] + rows + len(test_inputs) + 2)


class GpCross:
    """The cross terms of a block of inputs S appended after the rows
    C = ``[0, start)`` of a path, which every block with S's inputs shares,
    whatever its counts and outputs: L21 = K(S, C) L_C^-T; K(S, S) as
    ``inner`` and L21 L21^T as ``schur`` until a block is conditioned on them,
    then that block's Schur complement as ``schur``, with its ``noise``
    diagonal; and K(S, test) - L21 V_C as ``test``. :func:`condition_block`
    consumes them unless asked to keep them."""

    __slots__ = ("start", "l21", "inner", "schur", "noise", "test")

    def __init__(self, start: int, l21: np.ndarray, inner: np.ndarray, schur: np.ndarray):
        self.start, self.l21, self.inner, self.schur = start, l21, inner, schur
        self.noise = self.test = None


def block_cross(path: GpPath, start: int, inputs: np.ndarray, hyper: GpHyper) -> GpCross:
    """The :class:`GpCross` of ``inputs`` appended after rows ``[0, start)`` of
    ``path``, whose input rows it fills; one kernel call for the block."""
    from scipy.linalg.lapack import dtrtrs

    end = start + len(inputs)
    path.inputs[start:end] = inputs
    kernel = se_ard_kernel(inputs, path.inputs[:end], hyper)  # K(S, C) and K(S, S)
    cross, inner = kernel[:, :start], kernel[:, start:]
    # L_C^T leads the rows [0, start) read column-major: no copy of L_C to solve.
    l21 = dtrtrs(path.factor[:start].T, cross.T, trans=1)[0].T if start else cross
    return GpCross(start, l21, inner, l21 @ l21.T)


def condition_block(
    path: GpPath,
    cross: GpCross,
    block: GpBlock,
    hyper: GpHyper,
    jitter: float | None,
    test_inputs: np.ndarray,
    keep: bool = False,
) -> np.ndarray:
    """Fill ``block``'s rows of ``path`` from the cross terms of its inputs:
    L22 = chol(K(S, S) + diag((noise + jitter) / counts) - L21 L21^T), then
    V_S = L22^-1 (K(S, test) - L21 V_C) and w_S, w_1 as in :func:`append_block`.
    A block after another with its inputs takes the other's Schur complement
    with the noise diagonal swapped. With ``keep`` the cross terms stay for a
    further block with these inputs. Returns L22."""
    from scipy.linalg import solve_triangular

    start, l21, schur = cross.start, cross.l21, cross.schur
    end = start + block.counts.size
    rows = slice(start, end)
    diag = np.diag_indices(end - start)
    noise = (hyper.noise_var + (jitter or 0.0)) / block.counts
    if cross.inner is None:
        schur[diag] += noise - cross.noise
    else:
        inner = cross.inner
        inner[diag] += noise
        np.subtract(inner, schur, out=schur)  # K(S, S) + noise - L21 L21^T
        del inner  # only l21 and the Schur complement are read from here
    cross.inner, cross.noise = None, noise
    if not keep:
        cross.l21 = cross.schur = None
    try:
        l22 = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError as exc:
        why = "no jitter (information gain adds none)" if jitter is None else f"jitter {jitter:g}"
        hint = "" if jitter is None else "; a larger model 'jitter' regularises it"
        earlier = {row.tobytes() for row in path.inputs[:start]}
        if jitter is not None and any(row.tobytes() in earlier for row in block.inputs):
            hint += (
                ". This block repeats an input of an earlier source: coalition "
                "scoring keeps an input that two sources share as two rows, "
                "while dvf_value merges a coalition's repeated inputs into one row, so "
                "it needs a jitter where dvf_value does not"
            )
        raise NumericalError(
            f"GP training kernel is not positive definite at noise_var {hyper.noise_var:g} "
            f"with {why}{hint}"
        ) from exc
    del schur
    path.factor[rows, :start] = l21
    path.factor[rows, rows] = l22
    if len(test_inputs) == 0:
        return l22
    k_test = cross.test
    if k_test is None:
        k_test = se_ard_kernel(block.inputs, test_inputs, hyper)
        k_test -= l21 @ path.proj[:start]
    cross.test = k_test if keep else None
    path.proj[rows] = solve_triangular(l22, k_test, lower=True, check_finite=False)
    for white, outputs in zip(path.white, (block.outputs, 1.0)):
        white[rows] = solve_triangular(
            l22, outputs - l21 @ white[:start], lower=True, check_finite=False
        )
    return l22


def append_block(
    path: GpPath,
    start: int,
    block: GpBlock,
    hyper: GpHyper,
    jitter: float | None,
    test_inputs: np.ndarray,
    keep: bool = False,
) -> tuple[np.ndarray, GpCross]:
    """Extend the training set C in rows ``[0, start)`` of ``path`` by
    ``block`` S with the block-Cholesky append of the partitioned inverse
    (Rasmussen and Williams, GPML, 2006, App. A.3):

        L21 = K(S, C) L_C^-T,  L22 = chol(K(S, S) + diag((noise + jitter) / counts) - L21 L21^T),
        V_S = L22^-1 (K(S, test) - L21 V_C),  w_S = L22^-1 (y_S - L21 w_C),

    and w_1 as w for outputs 1. They fill S's rows of ``path``, and the latent
    posterior of C and S at the test inputs is C's with mean += V_S^T w_S and
    cov -= V_S^T V_S. The input half is :func:`block_cross`, the counts and
    outputs half :func:`condition_block`. Returns L22 and the block's
    :class:`GpCross`, kept intact with ``keep`` for blocks with S's inputs;
    without test inputs it returns before V_S and w_S. ``jitter`` is None
    for information gain, which adds none. A block that is not positive
    definite raises :class:`~truthval.errors.NumericalError`.
    """
    cross = block_cross(path, start, block.inputs, hyper)
    return condition_block(path, cross, block, hyper, jitter, test_inputs, keep), cross


def whiten_block(path: GpPath, start: int, end: int, outputs: np.ndarray) -> None:
    """Rewrite w in rows ``[start, end)`` of ``path`` for other ``outputs`` of
    the same rows: w_S = L22^-1 (y_S - L21 w_C), read from the factor already
    on the path, which the outputs do not change."""
    from scipy.linalg import solve_triangular

    rows, white = slice(start, end), path.white[0]
    white[rows] = solve_triangular(
        path.factor[rows, rows],
        outputs - path.factor[rows, :start] @ white[:start],
        lower=True,
        check_finite=False,
    )


def gaussian_logpdf(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Multivariate normal log density per column of (k, p) ``y`` and ``mean``;
    raises NumericalError if cov is not PD."""
    from scipy.linalg import cho_factor, cho_solve

    try:
        factor = cho_factor(cov, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("predictive covariance is not positive definite") from exc
    r = y - mean
    alpha = cho_solve(factor, r)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    quad = np.array([column @ solved for column, solved in zip(r.T, alpha.T)])
    return -0.5 * (len(y) * math.log(2.0 * math.pi) + logdet + quad)


def predictive_log_density(y: np.ndarray, mean: np.ndarray, latent: np.ndarray, noise_var: float):
    """Log density of each column of the (k, p) outputs ``y`` under a latent
    posterior with mean ``mean`` and observation noise ``noise_var`` added:
    joint, shape (p,), when ``latent`` is the latent covariance, and per
    point, (k, p), when it is the vector of latent variances. Negative latent
    variances, left by rounding, count as 0."""
    if latent.ndim == 1:
        var = np.maximum(latent, 0.0)[:, None] + noise_var
        return -0.5 * (np.log(2.0 * np.pi * var) + (y - mean) ** 2 / var)
    cov = latent.copy()
    diag = np.diag_indices_from(cov)
    cov[diag] = np.maximum(cov[diag], 0.0) + noise_var
    return gaussian_logpdf(y, mean, cov)
