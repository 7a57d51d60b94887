"""Configuration-driven experiment runner with machine-readable reports.

A config describes the agreed model, the sources (generated or loaded), the
strategy each source plays, the valuation, the semivalue weights, optional
reward post-processing, an optional sweep axis, and how many repeats to run.
Repeats resample the validation subset while source data stays fixed, except
in cross-validation mode where repeats resample the per-source splits.
Everything is derived from one seed, so identical configs produce identical
numbers regardless of the thread count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.special import stdtrit

from .data import REGRESSION, Dataset, take_rows
from .datagen import (
    PerturbSpec,
    Strategy,
    apply_strategy,
    derive_seed,
    friedman_generate,
    load_csv,
    output_moments,
    perturb_validation,
    shift_scale_outputs,
)
from .errors import ConfigurationError, InputError, NumericalError, TruthvalError
from .gp import GpHyper
from .mechanisms import cross_validation_rewards
from .models import BetaBernoulliModel, GaussianMeanModel, LinearRegressionModel
from .semivalues import (
    budget_cap,
    exact_semivalue,
    make_weights,
    sampled_semivalue,
    scaled_reward,
)
from .valuation import (
    DVF_KINDS,
    LOG_SCORE,
    LOG_SCORE_KINDS,
    CoalitionScorer,
    DvfSpec,
    build_char_table,
)

SWEEP_AXES = (
    "strategy-grid",
    "validation-fraction",
    "validation-noise",
    "friedman-alpha",
    "friedman-beta",
    "sorted-fraction",
    "weight-family",
)

_STRATEGY_KEYS = ("frac", "level", "copies", "offset", "fill", "sd")


@contextmanager
def _stage(name: str):
    """Re-raise package errors with the failing pipeline stage named."""
    try:
        yield
    except TruthvalError as exc:
        if str(exc).startswith("["):
            raise
        raise type(exc)(f"[{name}] {exc}") from exc


# -- config -------------------------------------------------------------------


def _json_int(value: Any, what: str) -> int:
    """``value`` itself if it is a JSON integer; booleans and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


def _build_model(spec: Any):
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigurationError("model must be an object with a 'family' key")
    family = spec["family"]
    if family == "beta-bernoulli":
        return BetaBernoulliModel(spec.get("alpha", 1.0), spec.get("beta", 1.0))
    if family == "gaussian-known-var":
        return GaussianMeanModel(
            spec.get("prior_mean", 0.0),
            spec.get("prior_var", 1.0),
            spec.get("noise_var", 1.0),
        )
    if family == "bayes-linreg":
        if "n_features" not in spec:
            raise ConfigurationError("bayes-linreg model requires n_features")
        return LinearRegressionModel(
            _json_int(spec["n_features"], "model n_features"),
            spec.get("prior_var", 1.0),
            spec.get("noise_var", 1.0),
        )
    if family == "gp":
        return GpHyper(
            spec.get("lengthscales", 1.0),
            spec.get("signal_var", 1.0),
            spec.get("noise_var", 1.0),
            spec.get("jitter", 0.0),
        )
    raise ConfigurationError(f"unknown model family {family!r}")


def _build_strategy(spec: Any, seed: int) -> Strategy:
    if isinstance(spec, str):
        return Strategy(tag=spec, seed=seed)
    if isinstance(spec, dict):
        if "tag" not in spec:
            raise ConfigurationError(f"strategy object needs a 'tag': {spec!r}")
        unknown = set(spec) - {"tag", *_STRATEGY_KEYS}
        if unknown:
            raise ConfigurationError(f"unknown strategy keys {sorted(unknown)}")
        params = {k: spec[k] for k in _STRATEGY_KEYS if k in spec}
        return Strategy(tag=spec["tag"], seed=seed, **params)
    raise ConfigurationError(f"strategy must be a tag or an object, got {spec!r}")


def _strategy_label(spec: Any) -> str:
    if isinstance(spec, str):
        return spec
    parts = [f"{k}={spec[k]}" for k in _STRATEGY_KEYS if k in spec]
    return spec["tag"] + (f"({','.join(parts)})" if parts else "")


def _weights_label(spec: Any) -> str:
    if isinstance(spec, str):
        return spec
    family = spec.get("family", "?")
    if family == "beta":
        return f"beta({spec.get('alpha')},{spec.get('beta')})"
    return family


def _spec_object(spec: Any, what: str, name_key: str) -> dict:
    """A config section as an object: a bare ``name_key`` value or an object."""
    if isinstance(spec, str):
        return {name_key: spec}
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"{what} must be a {name_key} name or an object, got {spec!r}"
        )
    return spec


def _check_csv_spec(spec: dict, what: str) -> None:
    if "csv" in spec and "output_column" not in spec:
        raise ConfigurationError(f"{what} loads a CSV file and needs an 'output_column'")


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``resolved`` echoes the full config."""

    seed: int
    repeats: int
    threads: int
    model: Any
    source_specs: list
    strategy_specs: list
    validation_spec: dict | None
    dvf_kind: str
    weights_spec: dict
    post_spec: dict
    estimator_spec: dict
    sweep_spec: dict | None
    standardize: bool
    resolved: dict = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {
            "seed",
            "repeats",
            "threads",
            "model",
            "sources",
            "strategies",
            "validation",
            "dvf",
            "weights",
            "post",
            "estimator",
            "sweep",
            "standardize_outputs",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys {sorted(unknown)}")

        seed = _json_int(raw.get("seed", 0), "seed")
        repeats = _json_int(raw.get("repeats", 1), "repeats")
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        threads = _json_int(raw.get("threads", 1), "threads")
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")

        model = _build_model(raw.get("model"))

        sources = raw.get("sources")
        if not isinstance(sources, list) or not sources:
            raise ConfigurationError("config needs a non-empty 'sources' list")
        for i, spec in enumerate(sources):
            if not isinstance(spec, dict) or not ({"generator", "csv"} & set(spec)):
                raise ConfigurationError(
                    f"source {i} must specify a 'generator' or a 'csv' path"
                )
            _check_csv_spec(spec, f"source {i}")

        strategies = raw.get("strategies", ["truthful"] * len(sources))
        if len(strategies) != len(sources):
            raise ConfigurationError(
                f"{len(strategies)} strategies for {len(sources)} sources"
            )
        for i, spec in enumerate(strategies):
            _build_strategy(spec, 0)  # validate shape early

        dvf_kind = raw.get("dvf", LOG_SCORE)
        if isinstance(dvf_kind, dict):
            dvf_kind = dvf_kind.get("kind")
        if dvf_kind not in DVF_KINDS:
            raise ConfigurationError(f"unknown dvf kind {dvf_kind!r}")

        weights_spec = _spec_object(raw.get("weights", {"family": "shapley"}), "weights", "family")

        post_spec = _spec_object(raw.get("post", {"kind": "none"}), "post", "kind")
        post_kind = post_spec.get("kind", "none")
        if post_kind not in ("none", "budget", "scaled", "cross-validation"):
            raise ConfigurationError(f"unknown post-processing {post_kind!r}")
        if post_kind == "cross-validation":
            variant = post_spec.get("variant", "breve")
            if variant not in ("breve", "grave"):
                raise ConfigurationError(
                    f"cross-validation variant must be 'breve' or 'grave', got {variant!r}"
                )
            post_spec = {**post_spec, "variant": variant}
        if post_kind in ("budget", "scaled"):
            for key, default in (("budget", None), ("a", 1.0), ("gamma", 0.0)):
                value = post_spec.get(key, default)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigurationError(
                        f"post-processing {post_kind!r} needs a numeric {key!r}, got {value!r}"
                    )
        validation_spec = raw.get("validation")
        if dvf_kind in LOG_SCORE_KINDS and post_kind != "cross-validation":
            if not isinstance(validation_spec, dict):
                raise ConfigurationError(
                    f"dvf {dvf_kind!r} needs a 'validation' section"
                )
        if isinstance(validation_spec, dict):
            _check_csv_spec(validation_spec, "validation")

        estimator_spec = _spec_object(raw.get("estimator", {}), "estimator", "kind")
        unknown = set(estimator_spec) - {"kind", "permutations", "exact_limit"}
        if unknown:
            raise ConfigurationError(f"unknown estimator keys {sorted(unknown)}")
        est_kind = estimator_spec.get("kind", "auto")
        if est_kind not in ("auto", "exact", "sampled"):
            raise ConfigurationError(f"unknown estimator kind {est_kind!r}")
        estimator_spec = {
            "kind": est_kind,
            "permutations": _json_int(
                estimator_spec.get("permutations", 3000), "estimator permutations"
            ),
            "exact_limit": _json_int(
                estimator_spec.get("exact_limit", 20), "estimator exact_limit"
            ),
        }
        if estimator_spec["permutations"] < 1:
            raise ConfigurationError("estimator permutations must be >= 1")
        if post_kind == "cross-validation" and est_kind == "sampled":
            raise ConfigurationError(
                "cross-validation rewards enumerate every game exactly; "
                "the sampled estimator is not available with them"
            )

        sweep_spec = raw.get("sweep")
        if sweep_spec is not None:
            if not isinstance(sweep_spec, dict):
                raise ConfigurationError(f"sweep must be an object, got {sweep_spec!r}")
            axis = sweep_spec.get("axis")
            if axis not in SWEEP_AXES:
                raise ConfigurationError(f"unknown sweep axis {axis!r}")
            values = sweep_spec.get("values")
            if not isinstance(values, list) or not values:
                raise ConfigurationError("sweep needs a non-empty 'values' list")
            if axis == "strategy-grid":
                src = sweep_spec.get("source")
                if not isinstance(src, int) or not 0 <= src < len(sources):
                    raise ConfigurationError(
                        f"strategy-grid sweep needs a valid 'source' index, got {src!r}"
                    )
                for v in values:
                    _build_strategy(v, 0)
            elif axis == "weight-family":
                for v in values:
                    _spec_object(v, "weight-family sweep value", "family")
            else:
                numeric = [float(v) for v in values]
                if not all(math.isfinite(v) for v in numeric):
                    raise ConfigurationError("sweep values must be finite")
                if sorted(numeric) != numeric:
                    raise ConfigurationError("numeric sweep values must be ascending")

        standardize = raw.get("standardize_outputs", model.data_kind == REGRESSION)
        if not isinstance(standardize, bool):
            raise ConfigurationError(
                f"standardize_outputs must be true or false, got {standardize!r}"
            )

        resolved = {
            "seed": seed,
            "repeats": repeats,
            "threads": threads,
            "model": raw.get("model"),
            "sources": sources,
            "strategies": strategies,
            "validation": validation_spec,
            "dvf": dvf_kind,
            "weights": weights_spec,
            "post": post_spec,
            "estimator": estimator_spec,
            "sweep": sweep_spec,
            "standardize_outputs": standardize,
        }
        return cls(
            seed=seed,
            repeats=repeats,
            threads=threads,
            model=model,
            source_specs=sources,
            strategy_specs=list(strategies),
            validation_spec=validation_spec,
            dvf_kind=dvf_kind,
            weights_spec=weights_spec,
            post_spec=post_spec,
            estimator_spec=estimator_spec,
            sweep_spec=sweep_spec,
            standardize=standardize,
            resolved=resolved,
        )


# -- data materialization ------------------------------------------------------


def _generate_linear(spec: dict, seed: int) -> Dataset:
    """Linear-Gaussian data: X ~ U(x_low, x_high), y = X w + intercept + noise.

    With centered inputs (x_low = -x_high) and zero intercept this is exactly
    the Bayesian linear-regression likelihood, i.e. a well-specified study.
    """
    weights = np.asarray(spec.get("weights", [1.0]), dtype=float)
    n = _json_int(spec.get("n_points"), "n_points")
    rng = np.random.default_rng(seed)
    x = rng.uniform(
        float(spec.get("x_low", 0.0)), float(spec.get("x_high", 1.0)),
        size=(n, weights.size),
    )
    y = x @ weights + float(spec.get("intercept", 0.0))
    noise_sd = float(spec.get("noise_sd", 1.0))
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n)
    return Dataset(x, y, REGRESSION)


def _materialize(spec: dict, seed: int, alpha: float = 0.0, beta: float = 0.0) -> Dataset:
    if "csv" in spec:
        return load_csv(spec["csv"], spec["output_column"], spec.get("kind", REGRESSION))
    generator = spec.get("generator")
    if generator == "friedman":
        return friedman_generate(
            _json_int(spec.get("n_points"), "n_points"),
            seed,
            alpha=alpha,
            beta=beta,
            noise_sd=float(spec.get("noise_sd", 1.0)),
        )
    if generator == "linear":
        return _generate_linear(spec, seed)
    if generator == "bernoulli":
        rng = np.random.default_rng(seed)
        p = float(spec.get("p", 0.5))
        labels = (rng.random(_json_int(spec.get("n_points"), "n_points")) < p).astype(float)
        return Dataset(np.empty((labels.size, 0)), labels, "binary")
    raise ConfigurationError(f"unknown generator {generator!r}")


# -- sweep handling -------------------------------------------------------------


@dataclass
class _Point:
    label: str | None
    strategy_specs: list
    validation_spec: dict | None
    weights_spec: dict


def _sweep_points(config: ExperimentConfig) -> list[_Point]:
    base = _Point(
        None, list(config.strategy_specs), config.validation_spec, config.weights_spec
    )
    if config.sweep_spec is None:
        return [base]
    axis = config.sweep_spec["axis"]
    values = config.sweep_spec["values"]
    points = []
    labels_seen: dict[str, int] = {}
    for value in values:
        point = _Point(
            None, list(base.strategy_specs), base.validation_spec, base.weights_spec
        )
        if axis == "strategy-grid":
            point.strategy_specs[config.sweep_spec["source"]] = value
            label = _strategy_label(value)
        elif axis == "weight-family":
            point.weights_spec = dict(_spec_object(value, "weight-family sweep value", "family"))
            label = _weights_label(value)
        else:
            key = {
                "validation-fraction": "subset_fraction",
                "validation-noise": "noise_sd",
                "friedman-alpha": "alpha",
                "friedman-beta": "beta",
                "sorted-fraction": "sorted_fraction",
            }[axis]
            point.validation_spec = {**(base.validation_spec or {}), key: float(value)}
            label = f"{float(value):g}"
        if label in labels_seen:
            labels_seen[label] += 1
            label = f"{label}#{labels_seen[label]}"
        else:
            labels_seen[label] = 0
        point.label = label
        points.append(point)
    return points


# -- reward computation ----------------------------------------------------------


def _uses_sampling(estimator_spec: dict, n_sources: int) -> bool:
    kind = estimator_spec["kind"]
    return kind == "sampled" or (kind == "auto" and n_sources > estimator_spec["exact_limit"])


def _build_weights(spec: dict, n: int):
    family = spec.get("family")
    if family is None:
        raise ConfigurationError("weights need a 'family'")
    return make_weights(family, n, alpha=spec.get("alpha"), beta=spec.get("beta"))


def _post_process(phi: np.ndarray, post_spec: dict) -> np.ndarray:
    kind = post_spec.get("kind", "none")
    if kind == "none":
        return phi
    if kind == "budget":
        a = float(post_spec.get("a", 1.0))
        budget = float(post_spec["budget"])
        return budget_cap(phi, a, budget)
    if kind == "scaled":
        budget = float(post_spec["budget"])
        gamma = float(post_spec.get("gamma", 0.0))
        return scaled_reward(phi, budget, gamma)
    raise ConfigurationError(f"unknown post-processing {kind!r}")


def _validation_pool(config: ExperimentConfig, point: _Point) -> Dataset:
    vcfg = point.validation_spec
    if vcfg is None:
        raise ConfigurationError("log-score valuation needs a 'validation' section")
    pool = _materialize(
        vcfg,
        derive_seed(config.seed, "validation"),
        alpha=float(vcfg.get("alpha", 0.0)),
        beta=float(vcfg.get("beta", 0.0)),
    )
    spec = PerturbSpec(
        validation_noise_sd=float(vcfg.get("noise_sd", 0.0)),
        friedman_alpha=float(vcfg.get("alpha", 0.0)),
        friedman_beta=float(vcfg.get("beta", 0.0)),
        sorted_fraction=float(vcfg.get("sorted_fraction", 1.0)),
    )
    return perturb_validation(pool, spec, derive_seed(config.seed, "validation-perturb"))


def _repeat_subsets(config: ExperimentConfig, point: _Point, pool: Dataset) -> list[np.ndarray]:
    fraction = float((point.validation_spec or {}).get("subset_fraction", 0.5))
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"subset_fraction must be in (0, 1], got {fraction}")
    k = math.ceil(fraction * len(pool))
    subsets = []
    for r in range(config.repeats):
        rng = np.random.default_rng(derive_seed(config.seed, "repeat", r))
        subsets.append(np.sort(rng.choice(len(pool), size=k, replace=False)))
    return subsets


# -- report -------------------------------------------------------------------


@dataclass
class ReportRow:
    sweep: str | None
    repeat: int
    source: int
    strategy: str
    value: float
    reward: float


@dataclass
class RunReport:
    """Everything a run produced, with the resolved config echoed for provenance."""

    config: dict
    config_hash: str
    seed: int
    sweep_axis: str | None
    rows: list[ReportRow]
    summary: list[dict]
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "sweep_axis": self.sweep_axis,
            "rows": [vars(r) for r in self.rows],
            "summary": self.summary,
            "wall_time_s": self.wall_time_s,
        }


def _repeat_rows(
    point: _Point, r: int, strategies: list[Strategy], values, rewards
) -> list[ReportRow]:
    """Report rows of repeat ``r``, one per source; every number must be finite."""
    values = np.asarray(values, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    finite = np.isfinite(values) & np.isfinite(rewards)
    if not finite.all():
        raise NumericalError(
            f"source {int(np.argmin(finite))} has a non-finite value or reward in repeat {r}"
        )
    return [
        ReportRow(point.label, r, i, s.tag, float(values[i]), float(rewards[i]))
        for i, s in enumerate(strategies)
    ]


def _summarize(rows: list[ReportRow]) -> list[dict]:
    grouped: dict[tuple, list[ReportRow]] = {}
    order: list[tuple] = []
    for row in rows:
        key = (row.sweep, row.source)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(row)
    summary = []
    for key in order:
        bucket = grouped[key]
        values = np.array([r.value for r in bucket])
        rewards = np.array([r.reward for r in bucket])
        k = len(bucket)
        entry = {
            "sweep": key[0],
            "source": key[1],
            "strategy": bucket[0].strategy,
            "n_repeats": k,
            "mean_value": float(values.mean()),
            "mean_reward": float(rewards.mean()),
        }
        if k >= 2:
            crit = float(stdtrit(k - 1, 0.975)) / math.sqrt(k)
            entry["ci_value"] = float(values.std(ddof=1)) * crit
            entry["ci_reward"] = float(rewards.std(ddof=1)) * crit
        else:
            entry["ci_value"] = None
            entry["ci_reward"] = None
        summary.append(entry)
    return summary


# -- the runner -----------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> RunReport:
    start = time.perf_counter()
    with _stage("sources"):
        raw_sources = [
            _materialize(spec, derive_seed(config.seed, "source", i))
            for i, spec in enumerate(config.source_specs)
        ]
    points = _sweep_points(config)
    rows: list[ReportRow] = []
    for point in points:
        with _stage("strategies"):
            strategies = [
                _build_strategy(spec, derive_seed(config.seed, "strategy", i))
                for i, spec in enumerate(point.strategy_specs)
            ]
            submissions = [
                apply_strategy(src, strat) for src, strat in zip(raw_sources, strategies)
            ]
        if config.post_spec.get("kind") == "cross-validation":
            point_rows = _run_cross_point(config, point, submissions, strategies)
        else:
            point_rows = _run_standard_point(config, point, submissions, strategies)
        rows.extend(point_rows)
    resolved = config.resolved
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    return RunReport(
        config=resolved,
        config_hash=hashlib.sha256(blob).hexdigest()[:16],
        seed=config.seed,
        sweep_axis=config.sweep_spec["axis"] if config.sweep_spec else None,
        rows=rows,
        summary=_summarize(rows),
        wall_time_s=time.perf_counter() - start,
    )


def _standardize_all(
    config: ExperimentConfig, submissions: list[Dataset], pool: Dataset | None
):
    if not config.standardize or submissions[0].kind != REGRESSION:
        return submissions, pool
    mean, sd = output_moments(submissions)
    submissions = [shift_scale_outputs(ds, mean, sd) for ds in submissions]
    if pool is not None:
        pool = shift_scale_outputs(pool, mean, sd)
    return submissions, pool


def _run_standard_point(
    config: ExperimentConfig,
    point: _Point,
    submissions: list[Dataset],
    strategies: list[Strategy],
) -> list[ReportRow]:
    n = len(submissions)
    model = config.model
    with _stage("weights"):
        weights = _build_weights(point.weights_spec, n)
    needs_validation = config.dvf_kind in LOG_SCORE_KINDS
    pool = None
    if needs_validation:
        with _stage("validation"):
            pool = _validation_pool(config, point)
    with _stage("standardize"):
        submissions, pool = _standardize_all(config, submissions, pool)

    est = config.estimator_spec
    singletons = np.uint64(1) << np.arange(n, dtype=np.uint64)

    if not needs_validation:
        # Validation-free baselines: the table does not change across repeats.
        with _stage("table"):
            spec = DvfSpec(config.dvf_kind, model=model)
            table = build_char_table(submissions, spec, exact_limit=est["exact_limit"])
            phi = exact_semivalue(table, weights)
        with _stage("rewards"):
            rewards = _post_process(phi, config.post_spec)
            values = table.values[singletons]
            return [
                row
                for r in range(config.repeats)
                for row in _repeat_rows(point, r, strategies, values, rewards)
            ]

    with _stage("validation"):
        subsets = _repeat_subsets(config, point, pool)

    if not _uses_sampling(est, n):
        if n > est["exact_limit"]:
            raise ConfigurationError(
                f"{n} sources exceed the exact limit {est['exact_limit']}; "
                "set estimator.kind to 'sampled'"
            )
        with _stage("table"):
            tables = CoalitionScorer(model, config.dvf_kind, submissions, pool, subsets).table()
        rows: list[ReportRow] = []
        with _stage("rewards"):
            for r, table in enumerate(tables):
                phi = exact_semivalue(table, weights)
                rewards = _post_process(phi, config.post_spec)
                rows += _repeat_rows(point, r, strategies, table.values[singletons], rewards)
        return rows

    def sampled_repeat(r: int) -> list[ReportRow]:
        validation = take_rows(pool, subsets[r])
        scorer = CoalitionScorer(model, config.dvf_kind, submissions, validation)

        def evaluate(masks):
            return scorer.values(masks)[0]

        estimate = sampled_semivalue(
            evaluate, weights, est["permutations"], derive_seed(config.seed, "permutations", r)
        )
        rewards = _post_process(estimate.values, config.post_spec)
        return _repeat_rows(point, r, strategies, evaluate(singletons), rewards)

    with _stage("rewards"):
        return [row for chunk in _map_repeats(config, sampled_repeat) for row in chunk]


def _run_cross_point(
    config: ExperimentConfig,
    point: _Point,
    submissions: list[Dataset],
    strategies: list[Strategy],
) -> list[ReportRow]:
    n = len(submissions)
    model = config.model
    with _stage("weights"):
        weights = _build_weights(point.weights_spec, n)
    with _stage("standardize"):
        submissions, _ = _standardize_all(config, submissions, None)
    frac = float(config.post_spec.get("validation_frac", 0.25))
    variant = config.post_spec["variant"]

    def one_repeat(r: int) -> list[ReportRow]:
        split_seeds = [derive_seed(config.seed, "split", r, j) for j in range(n)]
        cg = cross_validation_rewards(
            submissions,
            frac,
            weights,
            model,
            config.seed,
            split_seeds=split_seeds,
            exact_limit=config.estimator_spec["exact_limit"],
        )
        rewards = cg.breve if variant == "breve" else cg.grave
        return _repeat_rows(point, r, strategies, np.diag(cg.per_game), rewards)

    with _stage("rewards"):
        return [row for chunk in _map_repeats(config, one_repeat) for row in chunk]


def _map_repeats(config: ExperimentConfig, fn) -> list:
    indices = range(config.repeats)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return list(pool.map(fn, indices))
    return [fn(r) for r in indices]


# -- serialization ----------------------------------------------------------------


def emit_report(report: RunReport, format: str, path) -> None:
    """Write a report as CSV (one row per repeat and source) or nested JSON."""
    if format not in ("csv", "json"):
        raise ConfigurationError(f"unknown report format {format!r}")
    text = render_report(report, format)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write report to {path}: {exc}") from exc


def render_report(report: RunReport, format: str) -> str:
    if format == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    columns = ["repeat", "source", "strategy", "value", "reward"]
    if report.sweep_axis is not None:
        columns = ["sweep"] + columns
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in report.rows:
        record = [str(row.repeat), str(row.source), row.strategy, repr(row.value), repr(row.reward)]
        if report.sweep_axis is not None:
            record = [row.sweep] + record
        writer.writerow(record)
    return buffer.getvalue()
