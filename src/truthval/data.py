"""Dataset container shared by every model, strategy, and valuation routine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

REGRESSION = "regression"
BINARY = "binary"
KINDS = (REGRESSION, BINARY)


@dataclass(frozen=True)
class Dataset:
    """An input matrix paired with an output vector.

    ``inputs`` holds one row per point, ``outputs`` is aligned with the rows.
    ``kind`` is ``"regression"`` (real outputs) or ``"binary"`` (0/1 outputs).
    Instances are immutable: arrays are copied on construction and marked
    read-only, so they are safe to share across threads. Every value must be
    finite. An empty dataset (zero rows) is valid.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    kind: str = REGRESSION

    def __post_init__(self) -> None:
        inputs = np.array(self.inputs, dtype=float)
        outputs = np.array(self.outputs, dtype=float)
        if inputs.ndim != 2:
            raise InputError(f"inputs must be a 2-d matrix, got ndim={inputs.ndim}")
        if outputs.ndim != 1:
            raise InputError(f"outputs must be a 1-d vector, got ndim={outputs.ndim}")
        if inputs.shape[0] != outputs.shape[0]:
            raise InputError(
                f"inputs have {inputs.shape[0]} rows but outputs have {outputs.shape[0]}"
            )
        if not np.isfinite(inputs).all():
            raise InputError("inputs contain NaN or infinite values")
        if not np.isfinite(outputs).all():
            raise InputError("outputs contain NaN or infinite values")
        if self.kind not in KINDS:
            raise InputError(f"unknown dataset kind {self.kind!r}")
        if self.kind == BINARY and outputs.size and not np.isin(outputs, (0.0, 1.0)).all():
            raise InputError("binary outputs must be encoded as 0/1")
        inputs.setflags(write=False)
        outputs.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]


def empty_dataset(n_features: int, kind: str = REGRESSION) -> Dataset:
    return Dataset(np.empty((0, n_features)), np.empty(0), kind)


def empty_like(dataset: Dataset) -> Dataset:
    return empty_dataset(dataset.n_features, dataset.kind)


def binary_dataset(labels: Sequence[float]) -> Dataset:
    """Binary outputs with no input features (e.g. coin-flip observations)."""
    labels = np.asarray(labels, dtype=float).reshape(-1)
    return Dataset(np.empty((labels.size, 0)), labels, BINARY)


def outputs_dataset(values: Sequence[float]) -> Dataset:
    """Real outputs with no input features (for mean-only models)."""
    values = np.asarray(values, dtype=float).reshape(-1)
    return Dataset(np.empty((values.size, 0)), values, REGRESSION)


def take_rows(dataset: Dataset, indices) -> Dataset:
    indices = np.asarray(indices, dtype=int)
    return Dataset(dataset.inputs[indices], dataset.outputs[indices], dataset.kind)


def concat_datasets(
    datasets: Iterable[Dataset],
    n_features: int | None = None,
    kind: str | None = None,
) -> Dataset:
    """Row-concatenate datasets (multiset union).

    ``n_features``/``kind`` are only needed when ``datasets`` may be empty.
    """
    datasets = list(datasets)
    if not datasets:
        if n_features is None or kind is None:
            raise InputError("concatenating zero datasets requires n_features and kind")
        return empty_dataset(n_features, kind)
    first = datasets[0]
    for ds in datasets[1:]:
        if ds.n_features != first.n_features:
            raise InputError(
                f"feature-count mismatch in union: {ds.n_features} vs {first.n_features}"
            )
        if ds.kind != first.kind:
            raise InputError(f"kind mismatch in union: {ds.kind} vs {first.kind}")
    if len(datasets) == 1:
        return first
    return Dataset(
        np.concatenate([ds.inputs for ds in datasets]),
        np.concatenate([ds.outputs for ds in datasets]),
        first.kind,
    )
