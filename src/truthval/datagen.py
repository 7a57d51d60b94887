"""Synthetic data generation, submission strategies, splits, and CSV ingestion.

Everything randomized takes an explicit integer seed and is bit-reproducible.
``derive_seed`` turns one experiment seed plus labels into decorrelated
per-operation seeds.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import BINARY, REGRESSION, Dataset, concat_datasets, take_rows
from .errors import ConfigurationError, InputError

TRUTHFUL = "truthful"
SUBSET = "subset"
NOISE_OUTPUT = "noise-output"
DUPLICATE = "duplicate"
INJECT = "inject"
NOISE_INPUT = "noise-input"

STRATEGY_TAGS = (TRUTHFUL, SUBSET, NOISE_OUTPUT, DUPLICATE, INJECT, NOISE_INPUT)


def derive_seed(seed: int, *labels) -> int:
    """Derive a child seed from a base seed and a label path.

    Stable across runs and platforms; distinct label paths give decorrelated
    streams.
    """
    digest = hashlib.blake2b(
        repr((int(seed),) + tuple(labels)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def friedman_mean(inputs: np.ndarray, alpha: float = 0.0, beta: float = 0.0) -> np.ndarray:
    """Noiseless Friedman response on a [n x 6] input matrix.

    ``alpha`` scales the frequency of the sine term and ``beta`` shifts the
    output; both default to the nominal generator. Feature 5 has a zero
    coefficient by construction.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != 6:
        raise InputError(f"Friedman inputs need 6 features, got shape {x.shape}")
    return (
        10.0 * np.sin((1.0 + alpha) * np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
        + 0.0 * x[:, 5]
        + beta
    )


def friedman_generate(
    n_points: int,
    seed: int,
    alpha: float = 0.0,
    beta: float = 0.0,
    noise_sd: float = 1.0,
) -> Dataset:
    """Friedman dataset: 6 uniform features, standard Gaussian output noise."""
    if n_points < 0:
        raise InputError(f"n_points must be >= 0, got {n_points}")
    if not noise_sd >= 0:  # NaN included
        raise InputError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n_points, 6))
    y = friedman_mean(x, alpha=alpha, beta=beta)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n_points)
    return Dataset(x, y, REGRESSION)


@dataclass(frozen=True)
class Strategy:
    """One submission strategy with its parameters and seed.

    tag:
        truthful      submit the dataset unchanged (bit-identical)
        subset        keep ceil(frac * n) rows, sampled without replacement
        noise-output  regression: add N(0, level^2) to outputs;
                      binary: flip each label independently with prob. level
        duplicate     concatenate ``copies`` full copies
        inject        append ceil(frac * n) synthetic rows whose first two
                      features sit ``offset`` below the per-column minimum and
                      whose outputs are ``fill`` (default: 0 for regression,
                      the majority class for binary)
        noise-input   add N(0, sd^2) to every input cell
    """

    tag: str
    seed: int = 0
    frac: float = 0.5
    level: float = 0.2
    copies: int = 3
    offset: float = 0.1
    fill: float | None = None
    sd: float = 0.05

    def __post_init__(self) -> None:
        if self.tag not in STRATEGY_TAGS:
            raise ConfigurationError(f"unknown strategy tag {self.tag!r}")
        if self.tag in (SUBSET, INJECT) and not 0.0 < self.frac <= 1.0:
            raise ConfigurationError(f"{self.tag} frac must be in (0, 1], got {self.frac}")
        if self.tag == DUPLICATE and self.copies < 1:
            raise ConfigurationError(f"duplicate copies must be >= 1, got {self.copies}")
        if self.tag == NOISE_OUTPUT and self.level < 0:
            raise ConfigurationError("noise-output level must be >= 0")
        if self.tag == NOISE_INPUT and self.sd < 0:
            raise ConfigurationError("noise-input sd must be >= 0")


def apply_strategy(data: Dataset, strategy: Strategy) -> Dataset:
    n = len(data)
    if strategy.tag == TRUTHFUL:
        return data
    rng = np.random.default_rng(strategy.seed)
    if strategy.tag == SUBSET:
        k = math.ceil(strategy.frac * n)
        return take_rows(data, rng.choice(n, size=k, replace=False)) if n else data
    if strategy.tag == NOISE_OUTPUT:
        if data.kind == BINARY:
            if strategy.level > 1:
                raise ConfigurationError(
                    f"noise-output level is a flip probability on binary labels and "
                    f"must be in [0, 1], got {strategy.level!r}"
                )
            flip = rng.random(n) < strategy.level
            return Dataset(data.inputs, np.where(flip, 1.0 - data.outputs, data.outputs), BINARY)
        noisy = data.outputs + rng.normal(0.0, strategy.level, size=n)
        return Dataset(data.inputs, noisy, REGRESSION)
    if strategy.tag == DUPLICATE:
        return concat_datasets([data] * strategy.copies)
    if strategy.tag == INJECT:
        if n == 0:
            raise InputError("cannot inject synthetic rows into an empty dataset")
        k = math.ceil(strategy.frac * n)
        picked = rng.choice(n, size=k, replace=False)
        synth = np.array(data.inputs[picked])
        for col in range(min(2, data.n_features)):
            synth[:, col] = data.inputs[:, col].min() - strategy.offset
        if strategy.fill is not None:
            fill = strategy.fill
        elif data.kind == BINARY:
            fill = 1.0 if data.outputs.mean() >= 0.5 else 0.0
        else:
            fill = 0.0
        extra = Dataset(synth, np.full(k, fill), data.kind)
        return concat_datasets([data, extra])
    # noise-input
    noisy = data.inputs + rng.normal(0.0, strategy.sd, size=data.inputs.shape)
    return Dataset(noisy, data.outputs, data.kind)


def perturb_validation(
    validation: Dataset, noise_sd: float, sorted_fraction: float, seed: int
) -> Dataset:
    """``validation`` with N(0, noise_sd^2) added to its outputs, then cut to
    its first ceil(sorted_fraction * n) rows in a lexicographic order of its
    features, taken in a random order. ``noise_sd`` 0 and ``sorted_fraction``
    1 return it unchanged."""
    if not noise_sd >= 0:  # NaN included
        raise ConfigurationError(f"noise_sd must be >= 0, got {noise_sd}")
    if not 0.0 < sorted_fraction <= 1.0:
        raise ConfigurationError(f"sorted_fraction must be in (0, 1], got {sorted_fraction}")
    rng = np.random.default_rng(seed)
    ds = validation
    if noise_sd > 0:
        if ds.kind != REGRESSION:
            raise InputError("Gaussian output noise is only defined for regression outputs")
        noisy = ds.outputs + rng.normal(0.0, noise_sd, size=len(ds))
        ds = Dataset(ds.inputs, noisy, ds.kind)
    if sorted_fraction < 1.0 and len(ds) > 0:
        if ds.n_features == 0:
            raise InputError("a validation pool without input features has no order to sort by")
        perm = rng.permutation(ds.n_features)
        # lexsort uses its last key as the primary one
        order = np.lexsort(tuple(ds.inputs[:, c] for c in perm[::-1]))
        keep = math.ceil(sorted_fraction * len(ds))
        ds = take_rows(ds, order[:keep])
    return ds


def split_train_validation(
    data: Dataset, validation_frac: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Disjoint (remaining, validation) partition; validation gets ceil(frac * n) rows."""
    if not 0.0 < validation_frac < 1.0:
        raise ConfigurationError(
            f"validation_frac must be in (0, 1), got {validation_frac}"
        )
    n = len(data)
    perm = np.random.default_rng(seed).permutation(n)
    k = math.ceil(validation_frac * n)
    return take_rows(data, perm[k:]), take_rows(data, perm[:k])


def load_csv(path, output_column: str, kind: str = REGRESSION) -> Dataset:
    """Load a comma-separated file: one header row, numeric cells, UTF-8.

    The named column becomes the outputs; the remaining columns become inputs
    in header order.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path} is empty; a header row is required")
        header = [name.strip() for name in header]
        if output_column not in header:
            raise InputError(
                f"output column {output_column!r} not found in header {header}"
            )
        out_idx = header.index(output_column)
        inputs: list[list[float]] = []
        outputs: list[float] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise InputError(
                    f"row {row_num} has {len(row)} cells, header has {len(header)}"
                )
            values = []
            for col, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError as exc:
                    raise InputError(
                        f"non-numeric value {cell.strip()!r} at row {row_num}, "
                        f"column {col!r}"
                    ) from exc
            outputs.append(values[out_idx])
            inputs.append([v for i, v in enumerate(values) if i != out_idx])
    inputs_arr = np.array(inputs, dtype=float).reshape(len(outputs), len(header) - 1)
    try:
        return Dataset(inputs_arr, np.array(outputs), kind)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def output_moments(datasets: list[Dataset]) -> tuple[float, float]:
    """Pooled mean and standard deviation of the outputs of all datasets.

    Used to standardize regression outputs once per experiment, over the
    union of everything submitted, so coalition values stay comparable.
    """
    pooled = np.concatenate([ds.outputs for ds in datasets]) if datasets else np.empty(0)
    if pooled.size == 0:
        return 0.0, 1.0
    sd = float(pooled.std())
    return float(pooled.mean()), sd if sd > 0 else 1.0


def shift_scale_outputs(data: Dataset, mean: float, sd: float) -> Dataset:
    if data.kind != REGRESSION:
        raise InputError("only regression outputs can be standardized")
    return Dataset(data.inputs, (data.outputs - mean) / sd, data.kind)
