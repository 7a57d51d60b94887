"""truthval benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts fresh worker processes
(``worker.py``) with every BLAS/OpenMP thread count pinned to 1: a few that
only set up, to time set-up, then one that runs whole rounds of the
workload's operations for about ``--seconds`` seconds and checks their
outputs. The last line on stdout is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are ``wall_s``, ``setup_s`` and ``peak_rss_mb``, with ``--trace 1``
the per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("linreg-sampled-20", "gp-cross-game", "gp-friedman-study", "bb-oracle")
# OpenBLAS otherwise starts one thread per core; on a 2-core machine that
# makes GP runs slower and far less steady (see README).
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 5  # setup_s is the median over this many fresh processes
SETUP_TIMEOUT_S = 10
RUN_TIMEOUT_S = 120

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _launch(args, workdir: str, env: dict, setup_only: bool) -> dict:
    os.makedirs(workdir)
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--launched", repr(time.perf_counter())]
    done = subprocess.run(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "truthval", "cli.py")):
        print(f"benchmark: no truthval sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    scratch_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch_root)
    try:
        setups = [
            _launch(args, os.path.join(scratch, f"setup{i}"), env, setup_only=True)
            for i in range(SETUP_LAUNCHES - 1)
        ]
        run = _launch(args, os.path.join(scratch, "run"), env, setup_only=False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:  # another run is still using it
            pass
    setups.append(run)
    print(
        f"benchmark: {args.workload} seed {args.seed}: untraced rounds took "
        + ", ".join(f"{w:.4f}" for w in run["walls"])
        + " s",
        file=sys.stderr,
    )
    if args.trace:
        from tracing import METRICS

        layers = dict(run["layers"], **{"cli.import_s": statistics.median(s["import_s"] for s in setups)})
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRICS.items()}
    else:
        values = {
            "wall_s": run["wall_s"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
