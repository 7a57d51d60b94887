"""Data valuation functions and the games they define.

The headline valuation is the log-score

    v(D) = log p(T | D) - log p(T)

for an agreed Bayesian model and a held-out validation set T, plus a
per-point (mean) variant. Four classic validation-set-free valuations are
included as baselines precisely because they are gameable: cardinality,
input-volume, information gain, and posterior divergence from the prior.

Every kind scores its coalitions through :class:`CoalitionScorer`, and
:func:`dvf_value` is that scorer on one dataset: one way to compute v. A game
is the array of 2^n coalition values by bitmask (bit i = source i), and
:meth:`CoalitionScorer.table` stacks them as both semivalue estimators take them.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, check_consistent, concat_datasets, empty_like, take_rows
from .datagen import shift_scale_outputs
from .errors import ConfigurationError, InputError, UnsupportedConfigurationError
from .gp import (
    GpBlock,
    GpHyper,
    GpPath,
    append_block,
    condition_block,
    gp_block,
    predictive_log_density,
    se_ard_kernel,
    whiten_block,
)
from .models import (
    BetaBernoulliModel,
    GaussianMeanModel,
    LinearRegressionModel,
    _check_kind,
    kl_from_prior_batch,
    log_predictive_batch,
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
# game, exact semivalues, the oracle's expected games)
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

    Log-score kinds require both a model and a validation set, whose rows
    :class:`CoalitionScorer` checks. Baseline kinds must not be given one;
    they never see held-out data, which is exactly why they are manipulable.
    """

    kind: str
    model: object | None = None
    validation: Dataset | None = None

    def __post_init__(self) -> None:
        if self.kind not in DVF_KINDS:
            raise ConfigurationError(f"unknown valuation kind {self.kind!r}")
        models = (BetaBernoulliModel, GaussianMeanModel, LinearRegressionModel, GpHyper)
        if self.model is not None and not isinstance(self.model, models):
            raise ConfigurationError(f"unknown model {self.model!r}")
        if self.kind in LOG_SCORE_KINDS:
            if self.model is None:
                raise ConfigurationError(f"{self.kind} requires a model")
            if self.validation is None:
                raise ConfigurationError(f"{self.kind} requires a validation set")
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


def dvf_value(spec: DvfSpec, data: Dataset) -> float:
    """Evaluate the valuation function on one dataset: :class:`CoalitionScorer`
    with ``data`` as its one source, so a GP enters each repeated input row
    once with noise over its count. An empty dataset is worth exactly zero."""
    if len(data) == 0:
        return 0.0
    return float(CoalitionScorer(spec.model, spec.kind, [data], spec.validation).values(1)[0])


def coalition_members(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def coalition_data(sources: list[Dataset], mask: int) -> Dataset:
    """Multiset union (row concatenation) of the member datasets."""
    members = [sources[i] for i in coalition_members(mask, len(sources))]
    return concat_datasets(
        members, n_features=sources[0].n_features, kind=sources[0].kind
    )


# A stacked evaluation of conjugate coalitions takes _BLOCK_FLOATS // (n + w)
# of them, each n membership entries and w summed statistics. That bounds the
# batch's temporaries, for linear regression also two stacked (d + 1) x (d + 1)
# augmented Grams and their factors per coalition, which grow with
# w = 1 + d + d^2. Small enough that the allocator reuses them: with 20
# sources and 6 features a block holds 260 coalitions; at 512 its Grams went
# back to the OS and were faulted in again on every call (1,800 minor page
# faults per round of 6 strategies, 0 at 260). The baselines' narrower
# statistics give 20 sources blocks of 564 to 780 coalitions.
_BLOCK_FLOATS = 2**14


class _GpLevel(NamedTuple):
    """A coalition on the GP lattice path.

    Its training rows are rows ``[0, end)`` of the path's :class:`~truthval.gp.GpPath`.
    Its latent posterior on the pool is ``mean``, the rows V^T w and V^T w_1,
    plus ``spread``: one covariance block per validation set for ``log-score``,
    the pool variances for ``mean-log-score``. For ``info-gain`` the pool has no
    rows and ``logdet`` is log det(I + K / noise_var) of the raw training rows.
    """

    end: int
    mean: np.ndarray
    spread: object
    logdet: float = 0.0


@dataclass
class _LeafStep:
    """One step of building a variant's leaf: ``append`` rows ``[lo, hi)`` of its
    block, condition them as a counts ``sibling`` of the segment they replace,
    whose inputs are the same, or ``whiten`` the segments from row ``lo`` on
    for its outputs. ``keep`` holds the cross terms for a later sibling."""

    kind: str
    lo: int
    hi: int
    keep: bool = False


@dataclass
class _Segment:
    """Rows ``[lo, hi)`` of the leaf path, with the inputs and counts of
    variant ``factored``, whitened for the outputs of variant ``whitened``;
    ``step`` made its cross terms."""

    factored: int
    whitened: int
    lo: int
    hi: int
    step: _LeafStep


def _leaf_plan(blocks: list[GpBlock], read_outputs: bool) -> list[tuple[int, int, list]]:
    """How every variant's leaf follows from one parent coalition. The
    variants' blocks form a trie keyed by their rows (input, count, output),
    visited in sorted order, so a block comes right before those it begins.
    The leaf path is a stack of segments above the parent: a variant keeps the
    segments whose inputs and counts begin its block, whitens those whose
    outputs differ from its own (outputs count only where ``read_outputs``),
    conditions the next segment anew from its held cross terms if only the
    counts differ, and appends the rest of its rows. Returns ``(variant, depth,
    steps)`` in visiting order: keep ``depth`` segments, then run ``steps``;
    the top segment is then the variant's leaf."""
    rows = [
        (b.inputs, b.counts, b.outputs if read_outputs else np.zeros(b.counts.size))
        for b in blocks
    ]

    def agrees(g, seg, field):  # field 0 inputs, 1 counts, 2 outputs
        owner, part = seg.whitened if field == 2 else seg.factored, slice(seg.lo, seg.hi)
        return seg.hi <= rows[g][1].size and np.array_equal(
            rows[g][field][part], rows[owner][field][part]
        )

    def key(g):
        return [(x.tobytes(), c, y) for x, c, y in zip(*rows[g])]

    plan, stack = [], []
    for g in sorted(range(len(blocks)), key=key) if len(blocks) > 1 else [0]:
        depth = 0
        while depth < len(stack) and agrees(g, stack[depth], 0) and agrees(g, stack[depth], 1):
            depth += 1
        steps = []
        redo = [j for j in range(depth) if not agrees(g, stack[j], 2)]
        if redo:
            steps.append(_LeafStep("whiten", stack[redo[0]].lo, stack[depth - 1].hi))
            for seg in stack[redo[0] : depth]:
                seg.whitened = g
        plan.append((g, depth, steps))
        if depth < len(stack) and agrees(g, stack[depth], 0):  # only the counts differ
            seg = stack[depth]
            seg.step.keep = True
            steps.append(_LeafStep("sibling", seg.lo, seg.hi))
            stack[depth] = _Segment(g, g, seg.lo, seg.hi, steps[-1])
            depth += 1
        del stack[depth:]
        end, size = stack[-1].hi if stack else 0, rows[g][1].size
        if end < size:
            steps.append(_LeafStep("append", end, size))
            stack.append(_Segment(g, g, end, size, steps[-1]))
    return plan


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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

    ``variants`` ``(i, [d_0, ..., d_{G-1}])`` makes G points, point g with source
    i's submission d_g, and ``moments``, one ``(mean, sd)`` per point, scale its
    outputs and pool to (y - mean) / sd; values are per point, points major.

    Conjugate families and the baselines score blocks of coalitions at once:
    a membership matrix times stacked per-source sums (sufficient statistics,
    or input Gram matrices for volume and linear information gain) gives
    every coalition's statistics, and one formula runs over the stack; points
    with equal ``moments`` (all of them without, and for the kinds that read
    only inputs) differ only in source i, so only the first of them scores
    the coalitions without it, and a rank-deficient volume warning counts
    each such coalition once. A GP
    walks the requested coalitions as one lattice, the other sources, then the
    variants as leaves: each coalition extends a smaller one by the rows of
    one source, so its Cholesky factor and its pool posterior are the parent's
    plus one appended block, and each is factorized once for all points, whose
    standardizations move only the pool mean (:class:`~truthval.gp.GpPath`).
    The leaves under one coalition share what their blocks share
    (:func:`_leaf_plan`): a variant with another's inputs and counts only
    whitens its outputs, one that extends another appends only its extra
    rows, and one with another's inputs and other counts is conditioned from
    the other's held cross terms. A source's repeated input rows enter its
    block once, with their mean output and noise divided by their count
    (:func:`~truthval.gp.gp_block`), the lattice's pool is the rows that some
    validation set reads, and a lattice whose scratch (for the longest
    coalition), kept posteriors and held cross terms would not fit in
    physical memory is refused before anything is allocated. The posterior
    is kept only where the scores read it: a covariance block per validation
    set, the variances alone for ``mean-log-score``, and only the log
    determinant of the factor for information gain.
    """

    def __init__(self, model, kind, sources, pool=None, subsets=None, variants=None, moments=None):
        DvfSpec(kind, model, pool)  # a known kind and model, with the pool it needs
        if not sources:
            raise ConfigurationError("need at least one source")
        check_source_count(len(sources), MASK_BITS)
        self.n = len(sources)
        self._swept, alternatives = variants or (self.n - 1, [sources[-1]])
        self.points = len(alternatives)
        if pool is None:
            if subsets is not None:
                raise ConfigurationError(f"{kind} has no validation sets to take subsets of")
            check_consistent([*sources, *alternatives])
            pool, subsets = empty_like(sources[0]), []  # no pool rows to score
        else:
            _check_kind(model, pool, "validation")
            check_consistent([*sources, *alternatives, pool])
            if subsets is None:
                subsets = [np.arange(len(pool))]
            subsets = [np.asarray(idx, dtype=int) for idx in subsets]
            if any(idx.size == 0 for idx in subsets):
                raise InputError("validation set must be non-empty")
            union = np.unique(np.concatenate(subsets))
            if union.size < len(pool):  # only the pool rows that a validation set reads
                pool = take_rows(pool, union)
                subsets = [np.searchsorted(union, idx) for idx in subsets]
        if model is not None:  # its kind and, for linear regression, feature count
            for ds in (*sources, *alternatives):
                _check_kind(model, ds, "data")
        self._model = model
        self._kind = kind
        self._pool = pool
        self._subsets = subsets
        self._rank_deficient = 0  # coalitions given volume 0, warned of once per call
        self._lattice = isinstance(model, GpHyper) and kind in (*LOG_SCORE_KINDS, INFO_GAIN)
        if self._lattice:
            slots = [*sources[: self._swept], *sources[self._swept + 1 :], *alternatives]
            self._blocks = [gp_block(ds) for ds in slots]
            sizes = [block.counts.size for block in self._blocks]
            self._rows = sum(sizes[: self.n - 1]) + max(sizes[self.n - 1 :])
            self._plan = _leaf_plan(self._blocks[self.n - 1 :], kind != INFO_GAIN)
            self._moments = np.array(moments or [(0.0, 1.0)] * self.points)
            self._mean_kind = kind == MEAN_LOG_SCORE
            # The path scratch; the two pool means and the spread (pool variances,
            # or a covariance block per validation set) that each stack level
            # keeps: the root, the n - 1 other sources and the deepest leaf's
            # segments; the temporaries of appending the largest block b after
            # the other rows: two b x start cross terms, a b x b kernel and two
            # b x pool projections; and the cross terms that a segment of b' rows
            # holds for its counts siblings: L21, a Schur complement, K(S, pool).
            floats = len(pool) if self._mean_kind else sum(idx.size**2 for idx in subsets)
            levels = self.n + max(
                depth + sum(step.kind != "whiten" for step in steps)
                for _, depth, steps in self._plan
            )
            held = sum(
                (step.hi - step.lo) * (self._rows + len(pool))
                for _, _, steps in self._plan
                for step in steps
                if step.kind == "append" and step.keep
            )
            b = max(sizes)
            append = b * (2 * (self._rows - b) + b + 2 * len(pool))
            need = GpPath.nbytes(self._rows, pool.inputs) + 8 * (
                levels * (2 * len(pool) + floats) + append + held
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
            self._gp_root = _GpLevel(0, np.zeros((2, len(pool))), spread)
            self._prior_scores = self._gp_scores(self._gp_root, np.arange(self.points))
            return
        # Per point: the first point with its moments, row counts, per-source
        # sums, scores and prior scores. The other kinds read only input Grams,
        # which standardization leaves alone, so their points form one group.
        self._conjugate, first = [], {}
        uses_outputs = kind in (*LOG_SCORE_KINDS, KL_FROM_PRIOR)
        for g, (d, m) in enumerate(zip(alternatives, moments or [None] * self.points)):
            leader = first.setdefault(None if m is None or not uses_outputs else tuple(m), g)
            *point, point_pool = [*sources[: self._swept], d, *sources[self._swept + 1 :], pool]
            if m is not None:  # the point's sources and pool, standardized
                *point, point_pool = [shift_scale_outputs(ds, *m) for ds in (*point, point_pool)]
            counts = np.array([len(ds) for ds in point], dtype=float)
            if uses_outputs:
                vectors = np.vstack([suff_stats(ds, model) for ds in point])
                self._nu0, self._sums0 = prior_params(model)
            else:  # the input Gram matrices, which cardinality ignores
                vectors = np.vstack([(ds.inputs.T @ ds.inputs).ravel() for ds in point])
                self._nu0, self._sums0 = 0.0, np.zeros(vectors.shape[1])
            if kind in LOG_SCORE_KINDS:
                scores = [self._subset_score(point_pool, idx, kind) for idx in subsets]
            else:
                scores = [lambda batch: self._baseline(kind, pool.n_features, *batch)]
            prior = (np.array([self._nu0]), self._sums0[None, :])
            prior_scores = np.ravel([f(prior) for f in scores])
            self._conjugate.append((leader, counts, vectors, scores, prior_scores))
        self._prior_scores = np.concatenate([point[-1] for point in self._conjugate])

    def values(self, masks) -> np.ndarray:
        """Values of the coalitions in the integer array ``masks`` (any shape) at
        every point on every validation set, shape ``(points * len(subsets),) +
        masks.shape``, or ``(points,) + masks.shape`` for a validation-set-free kind."""
        masks = np.asarray(masks)
        if not np.issubdtype(masks.dtype, np.integer):
            raise ConfigurationError(f"coalition masks must be integers, got {masks.dtype}")
        if masks.size and (masks.min() < 0 or int(masks.max()) >> self.n):
            raise ConfigurationError(f"coalition masks must lie in [0, 2^{self.n})")
        unique, inverse = np.unique(masks.astype(np.uint64).ravel(), return_inverse=True)
        if self._lattice:
            scored = self._score_gp(unique)
        else:
            scored = np.empty((self._prior_scores.size, unique.size))
            block = max(1, _BLOCK_FLOATS // (self.n + self._conjugate[0][2].shape[1]))
            for start in range(0, unique.size, block):
                scored[:, start : start + block] = self._score_conjugate(
                    unique[start : start + block]
                )
        if self._rank_deficient:
            count, self._rank_deficient = self._rank_deficient, 0
            message = f"{count} coalitions have a rank-deficient Gram matrix; their volume is 0"
            warnings.warn(message, RankDeficientVolumeWarning, stacklevel=2)
        return scored[:, inverse.reshape(masks.shape)]

    def table(self) -> np.ndarray:
        """Every game's 2^n coalition values by bitmask: one row per point and
        validation set (per point for a validation-set-free kind), points major."""
        check_source_count(self.n, EXACT_LIMIT)
        return self.values(np.arange(2**self.n))

    def _score_conjugate(self, masks: np.ndarray) -> np.ndarray:
        """Points with equal output moments differ only in the swept source's
        statistics, so a point scores only the masks that hold it and takes
        the others from the first point with its moments."""
        members = (masks[:, None] >> np.arange(self.n, dtype=np.uint64)) & np.uint64(1)
        members = members.astype(float)
        held = members[:, self._swept] == 1.0
        out = []
        for g, (leader, counts, vectors, subset_scores, prior_scores) in enumerate(self._conjugate):
            if leader != g and not held.any():  # every mask lacks the swept source
                out.append(out[leader])
                continue
            rows = members if leader == g else members[held]
            sizes = rows @ counts
            batch = (self._nu0 + sizes, self._sums0 + rows @ vectors)
            scores = np.array([score(batch) for score in subset_scores])
            scores = np.where(sizes == 0, 0.0, scores - prior_scores[:, None])
            if leader != g:
                scores, swept = out[leader].copy(), scores
                scores[:, held] = swept
            out.append(scores)
        return np.concatenate(out)

    def _score_gp(self, masks: np.ndarray) -> np.ndarray:
        """A mask's coalition of the other sources, at every point, and with
        source i also each point's variant as a leaf on top of it. Visit the
        other sources' coalitions in the order of their sorted member lists.
        The stack then holds the path from the empty coalition: its level k is
        the coalition of the first k members of the current one, and the next
        pops the levels past their common prefix and appends its remaining
        members one source at a time."""
        out = np.zeros(self._prior_scores.shape + (masks.size,))
        i, wants = self._swept, {}  # other sources -> the mask index without i, and with it
        for j, mask in enumerate(masks):
            others = tuple(m - (m > i) for m in coalition_members(int(mask), self.n) if m != i)
            wants.setdefault(others, [None, None])[int(mask) >> i & 1] = j
        path = GpPath(self._rows, self._pool.inputs)
        on_path: list[int] = []
        stack = [self._gp_root]
        points = np.arange(self.points)
        for others in sorted(wants):
            depth = 0
            while depth < min(len(others), len(on_path)) and others[depth] == on_path[depth]:
                depth += 1
            del on_path[depth:], stack[depth + 1 :]
            for slot in others[depth:]:
                stack.append(self._gp_append(stack[-1], self._blocks[slot], path)[0])
                on_path.append(slot)
            without, with_i = wants[others]
            if without is not None and stack[-1].end:  # no training rows: worth exactly zero
                out[:, :, without] = self._gp_scores(stack[-1], points) - self._prior_scores
            if with_i is not None:
                out[:, :, with_i] = self._gp_leaf_scores(stack[-1], path)
        return out.reshape(-1, masks.size)

    def _gp_leaf_scores(self, parent: _GpLevel, path: GpPath) -> np.ndarray:
        """Scores at each point (rows) of its leaf, ``parent`` extended by the
        point's variant, built by the steps of :func:`_leaf_plan`."""
        scores = np.zeros(self._prior_scores.shape)
        segments, held = [parent], {}  # the leaf path; cross terms kept per depth
        for g, depth, steps in self._plan:
            del segments[depth + 1 :]
            self._gp_leaf(segments, held, self._blocks[self.n - 1 + g], steps, path)
            if segments[-1].end:  # no training rows: worth exactly zero
                scores[g] = self._gp_scores(segments[-1], [g])[0] - self._prior_scores[g]
        return scores

    def _gp_leaf(self, segments: list, held: dict, block: GpBlock, steps, path: GpPath) -> None:
        """Run a variant's ``steps`` on the leaf path ``segments``, which starts
        at the parent coalition, with rows of the variant's ``block``. A method
        of its own, so that no local outlives it to keep a level that the next
        variant drops."""
        start = segments[0].end
        for step in steps:
            if step.kind == "whiten":
                for k in range(1, len(segments)):
                    below, level = segments[k - 1], segments[k]
                    if level.end > start + step.lo:
                        outputs = block.outputs[below.end - start : level.end - start]
                        segments[k] = self._gp_whiten(below, level, outputs, path)
                continue
            part = GpBlock(*(field[step.lo : step.hi] for field in block))
            depth = len(segments)
            cross = held.pop(depth) if step.kind == "sibling" else None
            level, cross = self._gp_append(segments[-1], part, path, cross, step.keep)
            segments.append(level)
            if step.keep:
                held[depth] = cross

    def _gp_append(self, parent, block, path, cross=None, keep=False):
        """Extend ``parent`` by ``block`` S, which follows every row of ``parent``,
        with :func:`~truthval.gp.append_block`, or with
        :func:`~truthval.gp.condition_block` from the ``cross`` terms of S's
        inputs, and its pool posterior by mean += V_S^T w_S, cov -= V_S^T V_S.
        Returns the new level and S's cross terms.

        Information gain keeps only log det(I + K / noise) of the raw rows: no
        jitter, no pool. By the determinant lemma, a block whose distinct rows
        occur c times adds 2 sum log diag(L22) + sum log(c / noise).
        """
        model = self._model
        start, end = parent.end, parent.end + block.counts.size
        if start == end:
            return parent, cross
        jitter = None if self._kind == INFO_GAIN else model.jitter
        if cross is None:
            l22, cross = append_block(path, start, block, model, jitter, self._pool.inputs, keep)
        else:
            l22 = condition_block(path, cross, block, model, jitter, self._pool.inputs, keep)
        if self._kind == INFO_GAIN:
            logdet = 2.0 * np.log(np.diag(l22)).sum() + np.log(block.counts / model.noise_var).sum()
            return parent._replace(end=end, logdet=parent.logdet + logdet), cross
        proj = path.proj[start:end]
        mean = parent.mean + [proj.T @ white for white in path.white[:, start:end]]
        if self._mean_kind:
            return _GpLevel(end, mean, parent.spread - np.einsum("ij,ij->j", proj, proj)), cross
        spread = []
        for cov, idx in zip(parent.spread, self._subsets):
            part = proj[:, idx]
            spread.append(cov - part.T @ part)
        return _GpLevel(end, mean, spread), cross

    def _gp_whiten(self, parent: _GpLevel, level: _GpLevel, outputs, path: GpPath) -> _GpLevel:
        """``level``, which extends ``parent``, for other ``outputs`` of its rows:
        only w and the pool mean change."""
        start, end = parent.end, level.end
        whiten_block(path, start, end, outputs)
        mean = parent.mean[0] + path.proj[start:end].T @ path.white[0, start:end]
        return level._replace(mean=np.stack([mean, level.mean[1]]))

    def _gp_scores(self, level: _GpLevel, points) -> np.ndarray:
        """Log score of every validation set (columns) at each of ``points`` (rows)
        under the noisy predictive of ``level``'s posterior, or its information gain."""
        if self._kind == INFO_GAIN:
            return np.full((len(points), 1), 0.5 * level.logdet)
        shift, scale = self._moments[points].T
        scores = np.empty((len(points), len(self._subsets)))
        for s, idx in enumerate(self._subsets):
            latent = level.spread[idx] if self._mean_kind else level.spread[s]
            y, mean = self._pool.outputs[idx, None], level.mean[:, idx, None]
            y, mean = (y - shift) / scale, (mean[0] - shift * mean[1]) / scale
            density = predictive_log_density(y, mean, latent, self._model.noise_var)
            scores[:, s] = np.mean(density, axis=0) if self._mean_kind else density
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

    def _subset_score(self, pool: Dataset, idx: np.ndarray, kind: str):
        """Log score of the conjugate family on rows ``idx`` of ``pool`` as a
        function of a stacked ``(nu, sums)`` batch of posterior parameters, one
        score per coalition."""
        model = self._model
        validation = take_rows(pool, idx)
        if kind == MEAN_LOG_SCORE:
            return lambda batch: pointwise_log_predictive_batch(model, *batch, validation).mean(
                axis=1
            )
        # The joint predictive depends on the validation set only through its
        # summary statistics, so they are computed once per validation set.
        summary = validation_summary(model, validation)
        return lambda batch: log_predictive_batch(model, *batch, summary)


def build_char_table(sources: list[Dataset], spec: DvfSpec) -> np.ndarray:
    """The game of ``spec`` on ``sources``, the one row of the
    :class:`CoalitionScorer` table: 2^n coalition values by bitmask. More than
    ``EXACT_LIMIT`` sources are refused before it is built; beyond that,
    log-score kinds go through :func:`truthval.semivalues.sampled_semivalue`
    with :meth:`CoalitionScorer.values` as the evaluator."""
    return CoalitionScorer(spec.model, spec.kind, sources, spec.validation).table()[0]
