"""Per-layer tracing from outside the program.

Each traced name is replaced, in every loaded ``truthval`` module that binds
it, by a wrapper that records a span (layer, start, end, parent) around the
call plus the counts its layer needs. Spans stay in memory; ``metrics``
reduces them at the end of a round. A name that no longer exists is listed
in ``missing`` and its layer reports zeros.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

# layer -> (defining module, function names)
LAYERS = {
    "gp.kernel": ("truthval.gp", ("se_ard_kernel",)),
    "gp.factor": ("truthval.gp", ("_factor_train_kernel",)),
    "gp.posterior": ("truthval.gp", ("gp_posterior",)),
    "gp.logpdf": ("truthval.gp", ("gaussian_logpdf",)),
    "models.score": (
        "truthval.models",
        (
            "log_predictive",
            "mean_log_predictive",
            "log_predictive_from_params",
            "pointwise_log_predictive_from_params",
            "linreg_log_predictive_from_summary",
        ),
    ),
    "valuation.table": ("truthval.valuation", ("build_char_table",)),
    "valuation.dvf": ("truthval.valuation", ("dvf_value",)),
    "semivalues.sampled": ("truthval.semivalues", ("sampled_shapley",)),
    "semivalues.exact": ("truthval.semivalues", ("exact_semivalue",)),
    "mechanisms.cross_game": ("truthval.mechanisms", ("cross_validation_rewards",)),
    "oracle": (
        "truthval.oracle",
        ("oracle_dvf_truthfulness", "oracle_semivalue_truthfulness", "oracle_rank_gap"),
    ),
    "experiment.run": ("truthval.experiment", ("run_experiment",)),
    "experiment.render": ("truthval.experiment", ("render_report",)),
}

# Metric names the traced run reports, in BENCHMARK.json order.
METRICS = {
    "gp.kernel.calls": "count",
    "gp.kernel.self_s": "s",
    "gp.factor.calls": "count",
    "gp.factor.self_s": "s",
    "gp.factor.gflop": "GFLOP",
    "gp.posterior.calls": "count",
    "gp.posterior.self_s": "s",
    "gp.posterior.distinct_ratio": "ratio",
    "gp.logpdf.calls": "count",
    "gp.logpdf.self_s": "s",
    "models.score.calls": "count",
    "models.score.self_s": "s",
    "models.prior_score.calls": "count",
    "valuation.table.calls": "count",
    "valuation.table.self_s": "s",
    "valuation.dvf.calls": "count",
    "valuation.dvf.self_s": "s",
    "semivalues.sampled.self_s": "s",
    "semivalues.sampled.evaluations": "count",
    "semivalues.sampled.distinct_ratio": "ratio",
    "semivalues.exact.calls": "count",
    "semivalues.exact.self_s": "s",
    "mechanisms.cross_game.calls": "count",
    "mechanisms.cross_game.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.outcomes": "count",
    "experiment.run.self_s": "s",
    "experiment.render.self_s": "s",
    "experiment.report_bytes": "bytes",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_names": "count",
}


class Tracer:
    def __init__(self):
        self.missing: list[str] = []  # "module.name" of traced names not found
        self._prior_nu0: dict = {}
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self._stack: list[int] = []
        self._depth = {layer: 0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.prior_scores = 0
        self.gflop = 0.0
        self.train_sets: set[bytes] = set()
        self.evaluations = 0
        self.distinct_coalitions = 0
        self.outcomes = 0
        self.report_bytes = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("truthval") and m]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules.get(home), name, None)
                if original is None:
                    self.missing.append(f"{home}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        note = getattr(self, "_note_" + name, None)
        positions = {p: i for i, p in enumerate(inspect.signature(fn).parameters)}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._depth[layer] == 0
            if outer:
                self.calls[layer] += 1
            if note is not None:

                def arg(param):
                    i = positions[param]
                    return args[i] if i < len(args) else kwargs.get(param)

                for param, value in (note(outer, arg) or {}).items():
                    i = positions[param]
                    if i < len(args):
                        args = args[:i] + (value,) + args[i + 1 :]
                    else:
                        kwargs[param] = value
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            self._depth[layer] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._depth[layer] -= 1
                self._stack.pop()
            if name == "render_report":
                self.report_bytes += len(result.encode())
            return result

        return wrapper

    # -- per-name counts, taken before the call starts its span. A note may
    # return {parameter: value} to replace an argument.

    def _note_prior(self, outer, model, params=None, data=None):
        if not outer:
            return
        if data is not None:
            empty = len(data) == 0
        else:
            if model not in self._prior_nu0:
                from truthval.models import prior_params

                self._prior_nu0[model] = prior_params(model).nu0
            # Every observation adds one to the pseudo-count.
            empty = params.nu0 == self._prior_nu0[model]
        self.prior_scores += bool(empty)

    def _note_log_predictive(self, outer, arg):
        self._note_prior(outer, arg("model"), data=arg("data"))

    _note_mean_log_predictive = _note_log_predictive

    def _note_log_predictive_from_params(self, outer, arg):
        self._note_prior(outer, arg("model"), params=arg("params"))

    _note_pointwise_log_predictive_from_params = _note_log_predictive_from_params
    _note_linreg_log_predictive_from_summary = _note_log_predictive_from_params

    def _note__factor_train_kernel(self, outer, arg):
        self.gflop += arg("k_train").shape[0] ** 3 / 3.0 / 1e9

    def _note_gp_posterior(self, outer, arg):
        train = arg("train")
        digest = hashlib.blake2b(digest_size=16)
        digest.update(train.inputs.tobytes())
        digest.update(train.outputs.tobytes())
        digest.update(repr(arg("train_noise_var")).encode())
        self.train_sets.add(digest.digest())

    def _note_sampled_shapley(self, outer, arg):
        evaluator = arg("evaluator")
        seen = set()  # coalitions of this game; masks repeat across games

        def counted(mask):
            self.evaluations += 1
            if mask not in seen:
                seen.add(mask)
                self.distinct_coalitions += 1
            return evaluator(mask)

        return {"evaluator": counted}

    def _note_oracle_dvf_truthfulness(self, outer, arg):
        self.outcomes += 2 ** arg("validation_size")

    def _note_oracle_semivalue_truthfulness(self, outer, arg):
        others = sum(len(d) for j, d in enumerate(arg("true_datasets")) if j != arg("target"))
        self.outcomes += 2 ** (arg("validation_size") + others)

    _note_oracle_rank_gap = _note_oracle_semivalue_truthfulness

    # -- reduction --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for (layer, start, end, _), nested in zip(self.spans, child):
            self_s[layer] += end - start - nested
        out = {}
        for layer in LAYERS:
            if f"{layer}.calls" in METRICS:
                out[f"{layer}.calls"] = self.calls[layer]
            if f"{layer}.self_s" in METRICS:
                out[f"{layer}.self_s"] = self_s[layer]
        posterior_calls = self.calls["gp.posterior"]
        out["gp.factor.gflop"] = self.gflop
        out["gp.posterior.distinct_ratio"] = (
            len(self.train_sets) / posterior_calls if posterior_calls else 0.0
        )
        out["models.prior_score.calls"] = self.prior_scores
        out["semivalues.sampled.evaluations"] = self.evaluations
        out["semivalues.sampled.distinct_ratio"] = (
            self.distinct_coalitions / self.evaluations if self.evaluations else 0.0
        )
        out["oracle.outcomes"] = self.outcomes
        out["experiment.report_bytes"] = self.report_bytes
        return out
