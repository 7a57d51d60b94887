"""Data valuation functions and characteristic-table construction.

The headline valuation is the log-score

    v(D) = log p(T | D) - log p(T)

for an agreed Bayesian model and a held-out validation set T, plus a
per-point (mean) variant. Four classic validation-set-free valuations are
included as baselines precisely because they are gameable: cardinality,
input-volume, information gain, and posterior divergence from the prior.

Every kind scores its coalitions through :class:`CoalitionScorer`, and
:func:`dvf_value` on :func:`coalition_data` is the scalar reference.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, check_consistent, concat_datasets, empty_like, take_rows
from .errors import ConfigurationError, InputError, UnsupportedConfigurationError
from .gp import GpHyper, gaussian_logpdf, gp_posterior, se_ard_kernel
from .models import (
    BetaBernoulliModel,
    GaussianMeanModel,
    LinearRegressionModel,
    _check_kind,
    kl_from_prior_batch,
    log_predictive,
    log_predictive_batch,
    mean_log_predictive,
    pointwise_log_predictive_batch,
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

# The two source limits. Anything that holds all 2^n coalition values (a
# characteristic table, exact semivalues, the oracle's expected tables)
# stops at EXACT_LIMIT sources; coalition bitmasks are uint64, so the
# sampled estimator stops at MASK_BITS.
EXACT_LIMIT = 20
MASK_BITS = 64


def check_source_count(n: int, limit: int) -> None:
    """Refuse more than ``limit`` sources, ``EXACT_LIMIT`` or ``MASK_BITS``."""
    if n > limit:
        raise UnsupportedConfigurationError(
            f"{n} sources exceed the limit of {limit}: exact enumeration holds 2^n "
            f"coalition values and covers at most {EXACT_LIMIT} sources, the sampled "
            f"estimator's coalition bitmasks at most {MASK_BITS}"
        )


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


def _gp_logdet(model: GpHyper, data: Dataset) -> float:
    """log det(I + K / noise_var) of the raw rows of ``data``, without jitter."""
    kernel = se_ard_kernel(data.inputs, data.inputs, model)
    sign, logdet = np.linalg.slogdet(np.eye(len(data)) + kernel / model.noise_var)
    if sign <= 0:
        raise ConfigurationError("information-gain matrix is not positive definite")
    return float(logdet)


def dvf_value(spec: DvfSpec, data: Dataset) -> float:
    """Evaluate the valuation function on one dataset; an empty one is worth
    exactly zero. Baselines other than GP information gain are the stacked
    formulas of :class:`CoalitionScorer`, run on one row."""
    if len(data) == 0:
        return 0.0
    if spec.kind == INFO_GAIN and isinstance(spec.model, GpHyper):
        return 0.5 * _gp_logdet(spec.model, data)
    if spec.kind not in LOG_SCORE_KINDS:
        return float(CoalitionScorer(spec.model, spec.kind, [data]).values(1)[0])
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
        if self.n < 1:
            raise ConfigurationError(f"a table needs at least one source, got {self.n}")
        check_source_count(self.n, EXACT_LIMIT)
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


# Conjugate coalitions scored per stacked evaluation; bounds the temporaries
# of a large batch (membership matrix, stacked d x d factors).
_BLOCK = 512


class _GpLevel(NamedTuple):
    """A coalition on the GP lattice path.

    Its training rows are rows ``[0, end)`` of the path's scratch (see
    :class:`_GpPath`). Its latent posterior on the pool is ``mean`` plus
    ``spread``: one covariance block per validation set for ``log-score``,
    the pool variances for ``mean-log-score``. For ``info-gain`` the pool has
    no rows and ``logdet`` is log det(I + K / noise_var) of the raw training
    rows. ``mean`` is None when an appended block was not positive definite;
    that coalition and its extensions are scored from their raw rows instead.
    """

    end: int
    mean: np.ndarray | None = None
    spread: object = None
    logdet: float = 0.0


class _GpBlock(NamedTuple):
    """One source as the GP lattice appends it: its distinct input rows in
    order of first appearance, the mean output of each and how often each
    occurs. c outputs observed at one input x constrain f(x) exactly as their
    mean with noise variance noise_var / c does, since
    prod_c N(y_c | f(x), s^2) is proportional in f to N(mean y | f(x), s^2 / c);
    so the posterior, and every log score, is that of the raw rows."""

    inputs: np.ndarray
    outputs: np.ndarray
    counts: np.ndarray


def _gp_block(data: Dataset) -> _GpBlock:
    _, first, inverse, counts = np.unique(
        data.inputs, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    if counts.size == len(data):  # no repeated row: the rows as given
        return _GpBlock(data.inputs, data.outputs, np.ones(len(data)))
    order = np.argsort(first)
    rank = np.argsort(order)  # a row's position in order of first appearance
    counts = counts[order].astype(float)
    sums = np.bincount(rank[inverse.ravel()], weights=data.outputs, minlength=order.size)
    return _GpBlock(data.inputs[first[order]], sums / counts, counts)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class _GpPath:
    """Scratch of the coalitions on the lattice path, one row per distinct
    input row of each member source: the inputs, the Cholesky factor L of the
    noisy training kernel, V = L^-1 K(train, pool) and w = L^-1 y. A level's
    rows are overwritten when the path turns, so one factor's worth of memory
    serves every coalition."""

    def __init__(self, rows: int, pool: Dataset):
        self.inputs = np.empty((rows, pool.n_features))
        self.factor = np.empty((rows, rows))
        self.proj = np.empty((rows, len(pool)))
        self.white = np.empty(rows)

    @staticmethod
    def nbytes(rows: int, pool: Dataset) -> int:
        return 8 * rows * (pool.n_features + rows + len(pool) + 1)


class CoalitionScorer:
    """Value of every coalition of ``sources`` under valuation ``kind``: on
    validation sets drawn from one ``pool`` for the log-score kinds, and with
    ``pool`` None for the validation-set-free kinds.

    Each entry of ``subsets`` holds the pool rows of one validation set; without
    ``subsets`` the whole pool is the one validation set. The value of the
    coalition with bitmask ``mask`` is ``log p(T | D_C) - log p(T)`` for kind
    ``log-score``, its per-point mean for ``mean-log-score``, and the baseline
    of its rows otherwise: the same quantity as :func:`dvf_value` on
    :func:`coalition_data`. A coalition with no rows is worth exactly zero, and
    the empty coalition is scored once per validation set. Every source and
    the pool must share one feature count and kind.

    Conjugate families and the baselines score blocks of coalitions at once:
    a membership matrix times stacked per-source sums (sufficient statistics,
    or input Gram matrices for volume and linear information gain) gives
    every coalition's statistics, and one formula runs over the stack. A GP
    walks the requested coalitions as a lattice: each coalition extends a
    smaller one by the rows of one source, so its Cholesky factor and its
    posterior on the pool are the parent's plus one appended block, and no
    coalition is factorized from scratch. A source's repeated input rows enter
    its block once, with their mean output and noise divided by their count
    (:class:`_GpBlock`), and a lattice whose scratch and kept posteriors would
    not fit in physical memory is refused before anything is allocated. The
    posterior is kept only where the scores read it: a covariance block per
    validation set, the variances alone for ``mean-log-score``, and only the
    log determinant of the factor for information gain.
    """

    def __init__(self, model, kind: str, sources: list[Dataset], pool=None, subsets=None):
        if kind not in LOG_SCORE_KINDS or pool is None:
            DvfSpec(kind, model, pool)  # a known kind, with the model and pool it needs
        if not sources:
            raise ConfigurationError("need at least one source")
        check_source_count(len(sources), MASK_BITS)
        if pool is None:
            if subsets is not None:
                raise ConfigurationError(f"{kind} has no validation sets to take subsets of")
            check_consistent(sources)
            pool, subsets = empty_like(sources[0]), []  # no pool rows to score
        else:
            _check_kind(model, pool, "validation")
            check_consistent([*sources, pool])
            if subsets is None:
                subsets = [np.arange(len(pool))]
            subsets = [np.asarray(idx, dtype=int) for idx in subsets]
            if any(idx.size == 0 for idx in subsets):
                raise InputError("validation set must be non-empty")
        self.n = len(sources)
        self._model = model
        self._kind = kind
        self._pool = pool
        self._subsets = subsets
        self._rank_deficient = 0  # coalitions given volume 0, warned of once per call
        self._lattice = isinstance(model, GpHyper) and kind in (*LOG_SCORE_KINDS, INFO_GAIN)
        if self._lattice:
            self._sources = list(sources)
            self._blocks = [_gp_block(ds) for ds in sources]
            self._rows = sum(block.counts.size for block in self._blocks)
            self._mean_kind = kind == MEAN_LOG_SCORE
            # The path scratch, the pool mean and the spread (pool variances,
            # or a covariance block per validation set) that each of up to
            # n + 1 stack levels keeps, and the temporaries of appending the
            # largest block b after the other rows: two b x start cross
            # terms, a b x b kernel and three b x pool projections.
            floats = len(pool) if self._mean_kind else sum(idx.size**2 for idx in subsets)
            b = max(block.counts.size for block in self._blocks)
            append = b * (2 * (self._rows - b) + b + 3 * len(pool))
            need = _GpPath.nbytes(self._rows, pool) + 8 * (
                (self.n + 1) * (len(pool) + floats) + append
            )
            have = _physical_memory()
            if need > have:
                raise ConfigurationError(
                    f"GP coalition scoring needs {need / 1e9:.3g} GB for "
                    f"{self._rows} distinct training rows and a {len(pool)}-row "
                    f"validation pool, more than the {have / 1e9:.3g} GB of "
                    "physical memory"
                )
            if self._mean_kind:
                spread = np.full(len(pool), model.signal_var)
            else:
                spread = [se_ard_kernel(pool.inputs[i], pool.inputs[i], model) for i in subsets]
            self._gp_root = _GpLevel(0, np.zeros(len(pool)), spread)
            self._prior_scores = self._gp_scores(self._gp_root)
            return
        self._counts = np.array([len(ds) for ds in sources], dtype=float)
        if kind in (*LOG_SCORE_KINDS, KL_FROM_PRIOR):
            self._vectors = np.vstack([suff_stats(ds, model).vector for ds in sources])
            params = prior_params(model)
            self._nu0, self._sums0 = params.nu0, params.nu0 * params.sigma0
        else:  # the input Gram matrices, which cardinality ignores
            self._vectors = np.vstack([(ds.inputs.T @ ds.inputs).ravel() for ds in sources])
            self._nu0, self._sums0 = 0.0, np.zeros(self._vectors.shape[1])
        if kind in LOG_SCORE_KINDS:
            self._subset_scores = [self._subset_score(idx, kind) for idx in subsets]
        else:
            self._subset_scores = [lambda batch: self._baseline(kind, pool.n_features, *batch)]
        prior = (np.array([self._nu0]), self._sums0[None, :])
        self._prior_scores = np.ravel([score(prior) for score in self._subset_scores])

    def values(self, masks) -> np.ndarray:
        """Values of the coalitions in the integer array ``masks`` (any shape)
        on every validation set, shape ``(len(subsets),) + masks.shape``, or
        ``(1,) + masks.shape`` for a validation-set-free kind."""
        masks = np.asarray(masks)
        if not np.issubdtype(masks.dtype, np.integer):
            raise ConfigurationError(f"coalition masks must be integers, got {masks.dtype}")
        if masks.size and (masks.min() < 0 or int(masks.max()) >> self.n):
            raise ConfigurationError(f"coalition masks must lie in [0, 2^{self.n})")
        unique, inverse = np.unique(masks.astype(np.uint64).ravel(), return_inverse=True)
        if self._lattice:
            scored = self._score_gp(unique)
        else:
            scored = np.empty((len(self._prior_scores), unique.size))
            for start in range(0, unique.size, _BLOCK):
                scored[:, start : start + _BLOCK] = self._score_conjugate(
                    unique[start : start + _BLOCK]
                )
        if self._rank_deficient:
            count, self._rank_deficient = self._rank_deficient, 0
            message = f"{count} coalitions have a rank-deficient Gram matrix; their volume is 0"
            warnings.warn(message, RankDeficientVolumeWarning, stacklevel=2)
        return scored[:, inverse.reshape(masks.shape)]

    def table(self) -> list[CharacteristicTable]:
        """One characteristic table per validation set (one for a
        validation-set-free kind), over all 2^n coalitions."""
        check_source_count(self.n, EXACT_LIMIT)
        return [CharacteristicTable(self.n, row) for row in self.values(np.arange(2**self.n))]

    def _score_conjugate(self, masks: np.ndarray) -> np.ndarray:
        members = (masks[:, None] >> np.arange(self.n, dtype=np.uint64)) & np.uint64(1)
        members = members.astype(float)
        counts = members @ self._counts
        batch = (self._nu0 + counts, self._sums0 + members @ self._vectors)
        scores = np.array([score(batch) for score in self._subset_scores])
        return np.where(counts == 0, 0.0, scores - self._prior_scores[:, None])

    def _score_gp(self, masks: np.ndarray) -> np.ndarray:
        """Visit the coalitions in the order of their sorted member lists. The
        stack then holds the path from the empty coalition: its level k is the
        coalition of the first k members of the current one, and the next
        coalition pops the levels past their common prefix and appends its
        remaining members one source at a time."""
        out = np.zeros((len(self._prior_scores), masks.size))
        members = [coalition_members(int(mask), self.n) for mask in masks]
        path = _GpPath(self._rows, self._pool)
        on_path: list[int] = []
        stack = [self._gp_root]
        for j in sorted(range(masks.size), key=members.__getitem__):
            want = members[j]
            depth = 0
            while depth < min(len(want), len(on_path)) and want[depth] == on_path[depth]:
                depth += 1
            del on_path[depth:], stack[depth + 1 :]
            for i in want[depth:]:
                stack.append(self._gp_append(stack[-1], i, path))
                on_path.append(i)
            level = stack[-1]
            if level.end == 0:
                continue  # no training rows: worth exactly zero
            if level.mean is None:
                train = coalition_data(self._sources, int(masks[j]))
                if self._kind == INFO_GAIN:
                    level = _GpLevel(level.end, logdet=_gp_logdet(self._model, train))
                else:
                    post = gp_posterior(train, self._pool.inputs, self._model)
                    spread = (
                        np.diag(post.cov)
                        if self._mean_kind
                        else [post.cov[np.ix_(idx, idx)] for idx in self._subsets]
                    )
                    level = _GpLevel(level.end, post.mean, spread)
            out[:, j] = self._gp_scores(level) - self._prior_scores
        return out

    def _gp_append(self, parent: _GpLevel, source: int, path: _GpPath) -> _GpLevel:
        """Extend ``parent`` by the block S of ``source``, which follows every
        member of ``parent``, with the block-Cholesky append of the partitioned
        inverse (Rasmussen and Williams, GPML, 2006, App. A.3):

            L21 = K(S, C) L_C^-T,  L22 = chol(K(S, S) + diag(noise / counts) - L21 L21^T),
            V_S = L22^-1 (K(S, pool) - L21 V_C),  w_S = L22^-1 (y_S - L21 w_C),
            mean += V_S^T w_S,  cov -= V_S^T V_S.

        Information gain keeps only log det(I + K / noise) of the raw rows: no
        jitter, no projections. By the determinant lemma, a block whose distinct
        rows occur c times adds 2 sum log diag(L22) + sum log(c / noise).
        """
        from scipy.linalg import solve_triangular

        data, model = self._blocks[source], self._model
        start, end = parent.end, parent.end + data.counts.size
        if parent.mean is None or start == end:
            return parent._replace(end=end)
        x, rows = data.inputs, slice(start, end)
        path.inputs[rows] = x
        if self._kind == INFO_GAIN:  # K(S, C) and K(S, S) from one kernel call
            kernel = se_ard_kernel(x, path.inputs[:end], model)
            cross, block = kernel[:, :start], kernel[:, start:]
        else:
            cross, block = se_ard_kernel(x, path.inputs[:start], model), se_ard_kernel(x, x, model)
        l21 = solve_triangular(
            path.factor[:start, :start], cross.T, lower=True, check_finite=False
        ).T
        diag = np.diag_indices(end - start)
        block[diag] += model.noise_var / data.counts
        if self._kind != INFO_GAIN:
            block[diag] += model.jitter / data.counts
        block -= l21 @ l21.T
        try:
            l22 = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return _GpLevel(end)
        path.factor[rows, :start] = l21
        path.factor[rows, rows] = l22
        if self._kind == INFO_GAIN:
            logdet = 2.0 * np.log(np.diag(l22)).sum() + np.log(data.counts / model.noise_var).sum()
            return parent._replace(end=end, logdet=parent.logdet + logdet)
        k_pool = se_ard_kernel(x, self._pool.inputs, model)
        proj = solve_triangular(
            l22, k_pool - l21 @ path.proj[:start], lower=True, check_finite=False
        )
        white = solve_triangular(
            l22, data.outputs - l21 @ path.white[:start], lower=True, check_finite=False
        )
        path.proj[rows], path.white[rows] = proj, white
        mean = parent.mean + proj.T @ white
        if self._mean_kind:
            return _GpLevel(end, mean, parent.spread - np.einsum("ij,ij->j", proj, proj))
        spread = []
        for cov, idx in zip(parent.spread, self._subsets):
            part = proj[:, idx]
            spread.append(cov - part.T @ part)
        return _GpLevel(end, mean, spread)

    def _gp_scores(self, level: _GpLevel) -> np.ndarray:
        """Log score of every validation set under the noisy predictive of
        ``level``'s posterior, or its information gain."""
        if self._kind == INFO_GAIN:
            return np.array([0.5 * level.logdet])
        noise = self._model.noise_var
        scores = np.empty(len(self._subsets))
        for s, idx in enumerate(self._subsets):
            y, mean = self._pool.outputs[idx], level.mean[idx]
            if self._mean_kind:
                var = np.maximum(level.spread[idx], 0.0) + noise
                scores[s] = np.mean(-0.5 * (np.log(2.0 * np.pi * var) + (y - mean) ** 2 / var))
            else:
                cov = level.spread[s].copy()
                diag = np.diag_indices_from(cov)
                cov[diag] = np.maximum(cov[diag], 0.0) + noise
                scores[s] = gaussian_logpdf(y, mean, cov)
        return scores

    def _baseline(self, kind: str, d: int, nu: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """A validation-set-free kind at a stacked batch of row counts ``nu`` and
        flattened d x d Gram matrices ``sums`` (posteriors for kl-from-prior)."""
        if kind == CARDINALITY:
            return nu
        if kind == KL_FROM_PRIOR:
            return kl_from_prior_batch(self._model, nu, sums)
        grams = sums.reshape(-1, d, d)
        if kind == INFO_GAIN:
            # 1/2 log det(I + X X^T s) is the d x d 1/2 log det(I + X^T X s) (Sylvester).
            scale = self._model.prior_var / self._model.noise_var
            return 0.5 * np.linalg.slogdet(np.eye(d) + grams * scale)[1]
        # Volume sqrt(det G): 0 without rows or features, and 0, counted for one
        # warning, where G is rank deficient (fewer rows than features, det G <= 0).
        det = np.linalg.det(grams) if d else np.zeros(nu.size)
        deficient = (nu > 0) & (d > 0) & ((nu < d) | (det <= 0.0))
        self._rank_deficient += int(deficient.sum())
        return np.where(deficient, 0.0, np.sqrt(np.maximum(det, 0.0)))

    def _subset_score(self, idx: np.ndarray, kind: str):
        """Log score of the conjugate family on pool rows ``idx`` as a function
        of a stacked ``(nu, sums)`` batch of posterior parameters, one score
        per coalition."""
        model = self._model
        validation = take_rows(self._pool, idx)
        if kind == MEAN_LOG_SCORE:
            return lambda batch: pointwise_log_predictive_batch(model, *batch, validation).mean(
                axis=1
            )
        # The joint predictive depends on the validation set only through its
        # summary statistics, so they are computed once per validation set.
        summary = validation_summary(model, validation)
        return lambda batch: log_predictive_batch(model, *batch, summary)


def build_char_table(sources: list[Dataset], spec: DvfSpec) -> CharacteristicTable:
    """The :class:`CoalitionScorer` table of ``spec`` on every coalition of
    ``sources``. It holds 2^n values, so more than ``EXACT_LIMIT`` sources are
    refused before it is built; beyond that, log-score kinds go through
    :func:`truthval.semivalues.sampled_semivalue` with
    :meth:`CoalitionScorer.values` as the evaluator."""
    return CoalitionScorer(spec.model, spec.kind, sources, spec.validation).table()[0]
