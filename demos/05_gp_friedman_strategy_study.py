"""Manipulation strategies against a GP model, end to end.

Three sources generate nonlinear regression data; source 0 tries six
submission strategies while the others stay honest. The experiment runner
standardizes the pooled outputs, scores every coalition on resampled
validation subsets, and reports mean stand-alone values and Shapley rewards
per strategy. Runs in about ten seconds; the acceptance suite repeats the
same study with more validation repeats.
"""

import collections

from truthval.experiment import ExperimentConfig, run_experiment

config = ExperimentConfig.from_dict(
    {
        "seed": 0,
        "repeats": 10,
        "model": {
            "family": "gp",
            "lengthscales": [0.48, 0.54, 0.69, 1.15, 1.8, 400.0],
            "signal_var": 1.0,
            "noise_var": 0.04,
        },
        "sources": [
            {"generator": "friedman", "n_points": 400},
            {"generator": "friedman", "n_points": 300},
            {"generator": "friedman", "n_points": 300},
        ],
        "validation": {"generator": "friedman", "n_points": 400, "subset_fraction": 0.5},
        "sweep": {
            "axis": "strategy-grid",
            "source": 0,
            "values": [
                "truthful",
                {"tag": "subset", "frac": 0.5},
                {"tag": "noise-output", "level": 1.0},
                {"tag": "duplicate", "copies": 3},
                {"tag": "inject", "frac": 0.1, "offset": 0.1},
                {"tag": "noise-input", "sd": 0.05},
            ],
        },
    }
)

report = run_experiment(config)
values = collections.defaultdict(dict)
rewards = collections.defaultdict(dict)
for entry in report.summary:
    label = entry["sweep"].split("(")[0]
    values[entry["source"]][label] = entry["mean_value"]
    rewards[entry["source"]][label] = entry["mean_reward"]

labels = list(values[0])
print(f"Mean results over {config.resolved['repeats']} validation subsets ({report.wall_time_s:.1f}s):\n")
header = "  ".join(f"{lab:>12s}" for lab in labels)
print(f"{'':24s}{header}")
for source in (0, 1, 2):
    row = "  ".join(f"{values[source][lab]:12.2f}" for lab in labels)
    print(f"value   source {source}:     {row}")
for source in (0, 1, 2):
    row = "  ".join(f"{rewards[source][lab]:12.2f}" for lab in labels)
    print(f"shapley source {source}:     {row}")

best = max(labels, key=lambda lab: rewards[0][lab])
print(f"\nSource 0's best strategy by mean Shapley reward: {best}")
print("Sources 1 and 2 earn more when source 0 degrades its submission,")
print("because their clean data becomes relatively more informative.")
