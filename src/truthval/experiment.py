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
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import BINARY, REGRESSION, Dataset
from .datagen import (
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
    EXACT_LIMIT,
    LOG_SCORE,
    LOG_SCORE_KINDS,
    MASK_BITS,
    CoalitionScorer,
    check_source_count,
)


@contextmanager
def _stage(name: str):
    """Re-raise package errors with the failing pipeline stage named."""
    try:
        yield
    except TruthvalError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


# -- config schema ------------------------------------------------------------
#
# One table per section, and per variant of a section: key -> (JSON type,
# default). ``_walk`` rejects every key a table does not name, checks JSON
# types and fills in defaults; its output is the resolved config that reports
# echo and the runner reads, in one canonical form. _REQUIRED keys must be
# given. _OPTIONAL keys may be omitted and are then not echoed: the class the
# section is passed to (a model or ``Strategy``) owns their defaults, and
# strategy labels show only the parameters given.

_REQUIRED = object()
_OPTIONAL = object()

_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_COUNT = ("an integer >= 1", lambda v: _INT[1](v) and v >= 1)
_NUMBER = ("a number", lambda v: _INT[1](v) or isinstance(v, float) and math.isfinite(v))
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_NUMBER[1], v)))
_NUMBER_OR_LIST = ("a number or a list of numbers", lambda v: _NUMBER[1](v) or _NUMBERS[1](v))
_STRING = ("a string", lambda v: isinstance(v, str))
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_VARIANT = ("'breve' or 'grave'", lambda v: v in ("breve", "grave"))
_OPT_NUMBER = (_NUMBER, _OPTIONAL)  # a number that may be omitted
_SIZE = ("an integer >= 0", lambda v: _INT[1](v) and v >= 0)
_NONNEGATIVE = ("a number >= 0", lambda v: _NUMBER[1](v) and v >= 0)
_POSITIVE = ("a number > 0", lambda v: _NUMBER[1](v) and v > 0)
_PROBABILITY = ("a number in [0, 1]", lambda v: _NUMBER[1](v) and 0 <= v <= 1)
_FRACTION = ("a number in (0, 1]", lambda v: _NUMBER[1](v) and 0 < v <= 1)
_OPEN_UNIT = ("a number in (0, 1)", lambda v: _NUMBER[1](v) and 0 < v < 1)


@dataclass(frozen=True)
class _Named:
    """A section whose table is chosen by the value of its ``key``.

    ``implied`` is the variant when ``key`` is omitted. With ``bare`` a bare
    name is shorthand for ``{key: name}`` and resolves to that object.
    """

    key: str
    what: str
    tables: dict
    implied: str | None = None
    bare: bool = False


_MODEL = _Named("family", "model", {
    "beta-bernoulli": {"alpha": _OPT_NUMBER, "beta": _OPT_NUMBER},
    "gaussian-known-var": {
        "prior_mean": _OPT_NUMBER, "prior_var": _OPT_NUMBER, "noise_var": _OPT_NUMBER,
    },
    "bayes-linreg": {
        "n_features": (_INT, _REQUIRED), "prior_var": _OPT_NUMBER, "noise_var": _OPT_NUMBER,
    },
    "gp": {
        "lengthscales": (_NUMBER_OR_LIST, _OPTIONAL), "signal_var": _OPT_NUMBER,
        "noise_var": _OPT_NUMBER, "jitter": _OPT_NUMBER,
    },
})
_MODELS = (BetaBernoulliModel, GaussianMeanModel, LinearRegressionModel, GpHyper)

# A data spec without a generator loads a CSV file.
_DATA = _Named("generator", "data spec", {
    "friedman": {
        "n_points": (_SIZE, _REQUIRED), "alpha": (_NUMBER, 0.0), "beta": (_NUMBER, 0.0),
        "noise_sd": (_NONNEGATIVE, 1.0),
    },
    "linear": {
        "n_points": (_SIZE, _REQUIRED), "weights": (_NUMBERS, [1.0]),
        "intercept": (_NUMBER, 0.0), "noise_sd": (_NONNEGATIVE, 1.0),
        "x_low": (_NUMBER, 0.0), "x_high": (_NUMBER, 1.0),
    },
    "bernoulli": {"n_points": (_SIZE, _REQUIRED), "p": (_PROBABILITY, 0.5)},
    "csv": {
        "csv": (_STRING, _REQUIRED), "output_column": (_STRING, _REQUIRED),
        "kind": (_STRING, REGRESSION),
    },
}, implied="csv")
# A validation spec is a data spec plus these keys. Its ``noise_sd`` is the
# Gaussian output noise of the pool: a Friedman or linear generator's own,
# noise that ``perturb_validation`` adds to a CSV pool, and none for a
# Bernoulli pool, which refuses the key.
_VALIDATION_ONLY = {"subset_fraction": (_FRACTION, 0.5), "sorted_fraction": (_FRACTION, 1.0)}
_VALIDATION = _Named("generator", "validation spec", {
    **{name: {**table, **_VALIDATION_ONLY} for name, table in _DATA.tables.items()},
    "csv": {**_DATA.tables["csv"], **_VALIDATION_ONLY, "noise_sd": (_NONNEGATIVE, 0.0)},
}, implied="csv")

_STRATEGY = _Named("tag", "strategy", {
    "truthful": {},
    "subset": {"frac": _OPT_NUMBER},
    "noise-output": {"level": _OPT_NUMBER},
    "duplicate": {"copies": (_INT, _OPTIONAL)},
    "inject": {"frac": _OPT_NUMBER, "offset": _OPT_NUMBER, "fill": _OPT_NUMBER},
    "noise-input": {"sd": _OPT_NUMBER},
}, bare=True)

_WEIGHTS = _Named("family", "weight family", {
    "shapley": {}, "banzhaf": {}, "individual": {},
    "beta": {"alpha": (_NUMBER, _REQUIRED), "beta": (_NUMBER, _REQUIRED)},
}, bare=True)

_POST = _Named("kind", "post-processing", {
    "none": {},
    "budget": {"budget": (_POSITIVE, _REQUIRED), "a": (_POSITIVE, 1.0)},
    "scaled": {"budget": (_POSITIVE, _REQUIRED), "gamma": (_NONNEGATIVE, 0.0)},
    "cross-validation": {"variant": (_VARIANT, "breve"), "validation_frac": (_OPEN_UNIT, 0.25)},
}, implied="none", bare=True)

_ESTIMATOR = _Named("kind", "estimator", {
    "auto": {},
    "exact": {},
    "sampled": {"permutations": (_COUNT, 3000)},
}, implied="auto", bare=True)

_DVF = _Named("kind", "valuation", {kind: {} for kind in DVF_KINDS}, bare=True)

# The validation key each numeric sweep axis sets.
_NUMERIC_SWEEPS = {
    "validation-fraction": "subset_fraction", "validation-noise": "noise_sd",
    "friedman-alpha": "alpha", "friedman-beta": "beta", "sorted-fraction": "sorted_fraction",
}
_SWEEP = _Named("axis", "sweep", {
    "strategy-grid": {"source": (_INT, _REQUIRED), "values": ([_STRATEGY], _REQUIRED)},
    **{axis: {"values": ([_NUMBER], _REQUIRED)} for axis in _NUMERIC_SWEEPS},
    "weight-family": {"values": ([_WEIGHTS], _REQUIRED)},
})

_CONFIG = {
    "seed": (_INT, 0),
    "repeats": (_COUNT, 1),
    "threads": (_COUNT, 1),
    "model": (_MODEL, _REQUIRED),
    "sources": ([_DATA], _REQUIRED),
    "strategies": ([_STRATEGY], _OPTIONAL),  # default, all truthful, needs the source count
    "validation": (_VALIDATION, None),
    "dvf": (_DVF, LOG_SCORE),
    "weights": (_WEIGHTS, {"family": "shapley"}),
    "post": (_POST, {"kind": "none"}),
    "estimator": (_ESTIMATOR, {}),
    "sweep": (_SWEEP, None),
    "standardize_outputs": (_BOOL, _OPTIONAL),  # default depends on the model
}


def _walk(value: Any, spec: Any, where: str, variant: str = "") -> Any:
    """``value`` checked against ``spec`` (a type, a table, a ``_Named``
    section or a one-element list of them), with defaults filled in.

    ``where`` is the path of ``value`` in the config, ``variant`` names the
    variant whose table ``spec`` is, for messages.
    """
    if isinstance(spec, _Named):
        return _walk_named(value, spec, where)
    if isinstance(spec, list):
        if not isinstance(value, list) or not value:
            raise ConfigurationError(f"{where} must be a non-empty list, got {value!r}")
        return [_walk(item, spec[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(spec, tuple):
        name, test = spec
        if not test(value):
            raise ConfigurationError(f"{where} must be {name}, got {value!r}")
        return list(value) if isinstance(value, list) else value  # table defaults stay unshared
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where or 'config'} must be a JSON object, got {value!r}")
    path = {key: f"{where}[{key!r}]" if where else key for key in {*value, *spec}}
    for key in value:
        if key not in spec:
            raise ConfigurationError(f"unknown config key {path[key]}{variant}")
    out = {}
    for key, (item, default) in spec.items():
        if key in value and not (value[key] is None and default is None):
            out[key] = _walk(value[key], item, path[key])
        elif default is _REQUIRED:
            raise ConfigurationError(f"{path[key]} is required{variant}")
        elif default is not _OPTIONAL:
            out[key] = None if default is None else _walk(default, item, path[key])
    return out


def _walk_named(value: Any, spec: _Named, where: str) -> Any:
    if isinstance(value, str) and spec.bare:
        obj = {spec.key: value}
    elif isinstance(value, dict):
        obj = value
    else:
        shape = f"a {spec.key} name or an object" if spec.bare else "an object"
        raise ConfigurationError(f"{where} must be {shape} ({spec.what}), got {value!r}")
    name = obj.get(spec.key, spec.implied)
    key_path = f"{where}[{spec.key!r}]" if where else spec.key
    if name is None:
        raise ConfigurationError(f"{key_path} is required ({spec.what})")
    if not isinstance(name, str) or name not in spec.tables:
        choices = ", ".join(map(repr, spec.tables))
        raise ConfigurationError(f"{key_path} must be one of {choices}, got {name!r}")
    rest = {k: v for k, v in obj.items() if k != spec.key}
    return {spec.key: name, **_walk(rest, spec.tables[name], where, f" ({spec.key} {name!r})")}


@dataclass
class ExperimentConfig:
    """A checked config. ``resolved`` is the schema walk's output with every
    default filled in; reports echo it and the runner reads only it and
    ``model``, which is built from its ``model`` section."""

    resolved: dict
    model: Any

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = _walk(raw, _CONFIG, "")
        params = dict(cfg["model"])
        family = params.pop("family")
        model = next(m for m in _MODELS if m.family == family)(**params)
        n = len(cfg["sources"])
        cfg.setdefault("strategies", [{"tag": "truthful"} for _ in range(n)])
        cfg.setdefault("standardize_outputs", model.data_kind == REGRESSION)
        cfg["dvf"] = cfg["dvf"]["kind"]  # echoed and read as the bare kind name
        if len(cfg["strategies"]) != n:
            raise ConfigurationError(f"{len(cfg['strategies'])} strategies for {n} sources")
        post_kind = cfg["post"]["kind"]
        reads_validation = cfg["dvf"] in LOG_SCORE_KINDS and post_kind != "cross-validation"
        if reads_validation and cfg["validation"] is None:
            raise ConfigurationError(f"dvf {cfg['dvf']!r} needs a 'validation' section")
        # The estimator, chosen once and echoed as chosen. Only log-score
        # values on a validation set can be sampled; everything else is
        # enumerated exactly.
        estimator = cfg["estimator"]
        if estimator["kind"] == "sampled" and not reads_validation:
            why = (
                "cross-validation rewards enumerate every game"
                if post_kind == "cross-validation"
                else f"dvf {cfg['dvf']!r} reads no validation set, so its table is enumerated"
            )
            raise ConfigurationError(f"{why} exactly; the sampled estimator is not available")
        if estimator["kind"] == "auto":
            kind = "sampled" if reads_validation and n > EXACT_LIMIT else "exact"
            cfg["estimator"] = estimator = _walk({"kind": kind}, _ESTIMATOR, "estimator")
        check_source_count(n, EXACT_LIMIT if estimator["kind"] == "exact" else MASK_BITS)
        sweep = cfg["sweep"] or {"axis": None}
        if sweep["axis"] == "strategy-grid" and not 0 <= sweep["source"] < n:
            raise ConfigurationError(
                f"strategy-grid sweep needs a valid 'source' index, got {sweep['source']!r}"
            )
        if sweep["axis"] in _NUMERIC_SWEEPS:
            if sorted(sweep["values"]) != sweep["values"]:
                raise ConfigurationError("numeric sweep values must be ascending")
            key, validation = _NUMERIC_SWEEPS[sweep["axis"]], cfg["validation"]
            if not reads_validation:
                raise ConfigurationError(
                    f"sweep axis {sweep['axis']!r} sets validation[{key!r}], but this "
                    "run reads no validation set"
                )
            table = _VALIDATION.tables[validation["generator"]]
            if key not in table:
                raise ConfigurationError(
                    f"sweep axis {sweep['axis']!r} sets validation[{key!r}], which a "
                    f"{validation['generator']!r} validation spec does not use"
                )
            for i, value in enumerate(sweep["values"]):
                _walk(value, table[key][0], f"sweep['values'][{i}]")
        if cfg["validation"] is not None and not reads_validation:
            reason = (
                "cross-validation rewards score each source on the others' splits"
                if post_kind == "cross-validation"
                else f"dvf {cfg['dvf']!r} is validation-set-free"
            )
            raise ConfigurationError(f"this run never reads its 'validation' section: {reason}")
        if post_kind == "cross-validation" and cfg["dvf"] != LOG_SCORE:
            raise ConfigurationError(
                f"post 'cross-validation' scores every game by {LOG_SCORE!r}, "
                f"so dvf {cfg['dvf']!r} is not available with it"
            )
        if cfg["standardize_outputs"] and model.data_kind != REGRESSION:
            raise ConfigurationError(
                f"standardize_outputs applies to regression outputs; model {family!r} "
                f"scores {model.data_kind} outputs"
            )
        validation = cfg["validation"]
        specs = [(f"sources[{i}]", spec) for i, spec in enumerate(cfg["sources"])]
        if validation is not None:
            specs.append(("validation", validation))
            swept = sweep["values"] if sweep["axis"] == "sorted-fraction" else []
            fractions = [validation["sorted_fraction"], *swept]
            if validation["generator"] == "bernoulli" and min(fractions) < 1:
                raise ConfigurationError(
                    "validation['sorted_fraction'] must be 1 for a 'bernoulli' validation spec: "
                    "its pool has no input features to sort by"
                )
        for where, spec in specs:  # a data spec's output kind is known before it is read
            kind = spec.get("kind", BINARY if spec["generator"] == "bernoulli" else REGRESSION)
            if kind != model.data_kind:
                raise ConfigurationError(
                    f"{where} holds {kind} data, but model {family!r} scores "
                    f"{model.data_kind} outputs"
                )
        grid = sweep["values"] if sweep["axis"] == "strategy-grid" else []
        for where, strategies in (("strategies", cfg["strategies"]), ("sweep['values']", grid)):
            for i, strategy in enumerate(strategies):  # only noise-output has a level
                if model.data_kind == BINARY and strategy.get("level", 0) > 1:
                    raise ConfigurationError(
                        f"{where}[{i}]['level'] is a flip probability on binary labels and "
                        f"must be in [0, 1], got {strategy['level']!r}"
                    )
        # Of the binary pools only a CSV pool has a noise_sd (a Bernoulli
        # spec refuses the key and the sweep above).
        noisy = validation is not None and validation.get("noise_sd", 0) > 0
        if model.data_kind != REGRESSION and (noisy or sweep["axis"] == "validation-noise"):
            raise ConfigurationError(
                "validation['noise_sd'], given or swept by 'validation-noise', is Gaussian output "
                f"noise, defined only for regression outputs; model {family!r} scores "
                f"{model.data_kind} outputs"
            )
        return cls({key: cfg[key] for key in _CONFIG}, model)


# -- data materialization ------------------------------------------------------


def _generate_linear(spec: dict, seed: int) -> Dataset:
    """Linear-Gaussian data: X ~ U(x_low, x_high), y = X w + intercept + noise.

    With centered inputs (x_low = -x_high) and zero intercept this is exactly
    the Bayesian linear-regression likelihood, i.e. a well-specified study.
    """
    weights = np.asarray(spec["weights"], dtype=float)
    n = spec["n_points"]
    rng = np.random.default_rng(seed)
    x = rng.uniform(spec["x_low"], spec["x_high"], size=(n, weights.size))
    y = x @ weights + spec["intercept"]
    if spec["noise_sd"] > 0:
        y = y + rng.normal(0.0, spec["noise_sd"], size=n)
    return Dataset(x, y, REGRESSION)


def _materialize(spec: dict, seed: int) -> Dataset:
    """The dataset a resolved data or validation spec describes."""
    generator = spec["generator"]
    if generator == "csv":
        return load_csv(spec["csv"], spec["output_column"], spec["kind"])
    if generator == "friedman":
        return friedman_generate(
            spec["n_points"], seed, alpha=spec["alpha"], beta=spec["beta"],
            noise_sd=spec["noise_sd"],
        )
    if generator == "linear":
        return _generate_linear(spec, seed)
    rng = np.random.default_rng(seed)
    labels = (rng.random(spec["n_points"]) < spec["p"]).astype(float)
    return Dataset(np.empty((labels.size, 0)), labels, "binary")


# -- sweep handling -------------------------------------------------------------


def _sweep_points(cfg: dict) -> list[tuple[str | None, dict]]:
    """(label, config) per sweep point: the resolved config with the swept value in place."""
    sweep = cfg["sweep"]
    if sweep is None:
        return [(None, cfg)]
    points = []
    labels_seen: dict[str, int] = {}
    for value in sweep["values"]:
        if sweep["axis"] == "strategy-grid":
            strategies = list(cfg["strategies"])
            strategies[sweep["source"]] = value
            params = ",".join(f"{k}={v}" for k, v in value.items() if k != "tag")
            label = value["tag"] + (f"({params})" if params else "")
            point = {**cfg, "strategies": strategies}
        elif sweep["axis"] == "weight-family":
            label = value["family"]
            if label == "beta":
                label = f"beta({value['alpha']},{value['beta']})"
            point = {**cfg, "weights": value}
        else:
            validation = {**cfg["validation"], _NUMERIC_SWEEPS[sweep["axis"]]: value}
            point, label = {**cfg, "validation": validation}, f"{value:g}"
        labels_seen[label] = labels_seen.get(label, -1) + 1
        points.append((f"{label}#{labels_seen[label]}" if labels_seen[label] else label, point))
    return points


# -- reward computation ----------------------------------------------------------


def _post_process(phi: np.ndarray, post: dict) -> np.ndarray:
    if post["kind"] == "budget":
        return budget_cap(phi, post["a"], post["budget"])
    if post["kind"] == "scaled":
        return scaled_reward(phi, post["budget"], post["gamma"])
    return phi


def _validation_pool(point: dict, pools: dict[str, Dataset]) -> Dataset:
    """The perturbed validation pool of ``point``, built once per distinct
    validation spec and kept in ``pools``. ``subset_fraction`` does not change
    the pool (:func:`_repeat_subsets` applies it), so it is not part of the key."""
    vcfg = point["validation"]
    key = json.dumps({k: v for k, v in vcfg.items() if k != "subset_fraction"}, sort_keys=True)
    if key in pools:
        return pools[key]
    pool = _materialize(vcfg, derive_seed(point["seed"], "validation"))
    # A generator has drawn its own output noise; a CSV pool gets it added.
    noise_sd = vcfg["noise_sd"] if vcfg["generator"] == "csv" else 0.0
    pools[key] = perturb_validation(
        pool, noise_sd, vcfg["sorted_fraction"], derive_seed(point["seed"], "validation-perturb")
    )
    return pools[key]


def _repeat_subsets(point: dict, pool: Dataset) -> list[np.ndarray]:
    k = math.ceil(point["validation"]["subset_fraction"] * len(pool))
    subsets = []
    for r in range(point["repeats"]):
        rng = np.random.default_rng(derive_seed(point["seed"], "repeat", r))
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


def _repeat_rows(
    label: str | None, r: int, strategies: list[Strategy], values, rewards
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
        ReportRow(label, r, i, s.tag, float(values[i]), float(rewards[i]))
        for i, s in enumerate(strategies)
    ]


def _summarize(rows: list[ReportRow]) -> list[dict]:
    grouped: dict[tuple, list[ReportRow]] = {}
    for row in rows:
        grouped.setdefault((row.sweep, row.source), []).append(row)
    summary = []
    for (sweep, source), bucket in grouped.items():
        values = np.array([r.value for r in bucket])
        rewards = np.array([r.reward for r in bucket])
        k = len(bucket)
        entry = {
            "sweep": sweep,
            "source": source,
            "strategy": bucket[0].strategy,
            "n_repeats": k,
            "mean_value": float(values.mean()),
            "mean_reward": float(rewards.mean()),
            "ci_value": None,
            "ci_reward": None,
        }
        if k >= 2:
            from scipy.special import stdtrit

            crit = float(stdtrit(k - 1, 0.975)) / math.sqrt(k)
            entry["ci_value"] = float(values.std(ddof=1)) * crit
            entry["ci_reward"] = float(rewards.std(ddof=1)) * crit
        summary.append(entry)
    return summary


# -- the runner -----------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> RunReport:
    start = time.perf_counter()
    cfg = config.resolved
    with _stage("sources"):
        raw_sources = [
            _materialize(spec, derive_seed(cfg["seed"], "source", i))
            for i, spec in enumerate(cfg["sources"])
        ]
    rows: list[ReportRow] = []
    pools: dict[str, Dataset] = {}
    # A strategy grid's points differ only in its swept source, so they run together.
    points, sweep = _sweep_points(cfg), cfg["sweep"] or {}
    swept = sweep.get("source", len(raw_sources) - 1)  # only a strategy grid has one
    for group in [points] if "source" in sweep else [[point] for point in points]:
        rows.extend(_run_points(config.model, group, raw_sources, swept, pools))
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return RunReport(
        config=cfg,
        config_hash=hashlib.sha256(blob).hexdigest()[:16],
        seed=cfg["seed"],
        sweep_axis=cfg["sweep"]["axis"] if cfg["sweep"] else None,
        rows=rows,
        summary=_summarize(rows),
        wall_time_s=time.perf_counter() - start,
    )


def _run_points(model, points, raw_sources, swept, pools) -> list[ReportRow]:
    """Rows of the sweep ``points``, (label, config) pairs that differ at most in
    the strategy of source ``swept``; ``pools`` as in :func:`_validation_pool`."""
    point, n = points[0][1], len(raw_sources)
    with _stage("strategies"):
        seeds = [derive_seed(point["seed"], "strategy", i) for i in range(n)]
        strategies = [
            [Strategy(seed=seed, **spec) for seed, spec in zip(seeds, cfg["strategies"])]
            for _, cfg in points
        ]
        submissions = [list(map(apply_strategy, raw_sources, strats)) for strats in strategies]
    pool = None
    if point["validation"] is not None:
        with _stage("validation"):
            pool = _validation_pool(point, pools)
    with _stage("weights"):
        weights = make_weights(n=n, **point["weights"])
    with _stage("standardize"):  # each point by its own moments
        moments = [output_moments(s) for s in submissions] if point["standardize_outputs"] else None

    singletons = np.uint64(1) << np.arange(n, dtype=np.uint64)
    with _stage("validation"):
        subsets = None if pool is None else _repeat_subsets(point, pool)

    # repeat(r) -> each point's (each source's value, its reward) in repeat r.
    post, est = point["post"], point["estimator"]
    variants = (swept, [subs[swept] for subs in submissions])
    if post["kind"] == "cross-validation":

        def repeat(r: int):
            # Per point: each point's games are scored on its own split of the swept source.
            results = []
            for g, data in enumerate(submissions):
                if moments:
                    data = [shift_scale_outputs(ds, *moments[g]) for ds in data]
                cg = cross_validation_rewards(
                    data, post["validation_frac"], weights, model, point["seed"],
                    split_seeds=[derive_seed(point["seed"], "split", r, j) for j in range(n)],
                )
                rewards = cg.breve if post["variant"] == "breve" else cg.grave
                results.append((np.diag(cg.per_game), rewards))
            return results

    elif est["kind"] == "exact":
        with _stage("table"):
            args = (model, point["dvf"], submissions[0], pool, subsets, variants, moments)
            games = CoalitionScorer(*args).table()
        with _stage("rewards"):
            phis = exact_semivalue(games, weights)
            results = [(v, _post_process(phi, post)) for v, phi in zip(games[:, singletons], phis)]
        sets = len(games) // len(points)  # games per point, points major

        def repeat(r: int):
            # A validation-free valuation has one game, the same in every repeat.
            return results[min(r, sets - 1) :: sets]

    else:

        def repeat(r: int):
            # Every point draws the same permutations, so one scorer serves them all.
            scorer = CoalitionScorer(
                model, point["dvf"], submissions[0], pool, subsets[r : r + 1], variants, moments
            )
            estimate = sampled_semivalue(
                scorer.values, weights, est["permutations"],
                derive_seed(point["seed"], "permutations", r),
            )
            phis = [_post_process(phi, post) for phi in estimate.values]
            return list(zip(scorer.values(singletons), phis))

    with _stage("rewards"):
        repeats = range(point["repeats"])
        if point["threads"] > 1:
            with ThreadPoolExecutor(max_workers=point["threads"]) as executor:
                per_repeat = list(executor.map(repeat, repeats))
        else:
            per_repeat = list(map(repeat, repeats))
        return [
            row
            for g, (label, _) in enumerate(points)
            for r, per_point in enumerate(per_repeat)
            for row in _repeat_rows(label, r, strategies[g], *per_point[g])
        ]


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
        # The fields in order, as dataclasses.asdict gives them, without its deep copy.
        payload = {**vars(report), "rows": [vars(row) for row in report.rows]}
        return json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    # One column per ReportRow field; a report without a sweep has no sweep column.
    first = 0 if report.sweep_axis is not None else 1
    writer.writerow(["sweep", "repeat", "source", "strategy", "value", "reward"][first:])
    for row in report.rows:
        writer.writerow(list(vars(row).values())[first:])
    return buffer.getvalue()
