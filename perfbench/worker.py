"""One benchmark process: import the program, write the inputs, run rounds.

``run.py`` starts this script with every BLAS/OpenMP thread count pinned to
1 and prints the final result; see the README. With ``--setup-only`` the
process stops once the program is imported and the inputs are on disk, so
that set-up can be timed over several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True, help="parent's perf_counter at launch")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _run_round(workload):
    """Run every operation once; return (wall seconds, results, failures)."""
    results, failures = [], 0
    start = time.perf_counter()
    for name, op in workload.ops:
        try:
            results.append(op())
        except Exception:
            failures += 1
            results.append(None)
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, results, failures


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import truthval.cli  # noqa: F401  (the program, as every CLI run imports it)
    import truthval.oracle  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - args.launched
    report = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    walls, traced_walls, layer_rounds = [], [], []
    attempted = failed = 0
    reference_outputs = None
    errors: list[str] = []
    measure_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced rounds, so that the
        # tracing overhead is measured in the same process.
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, results, failures = _run_round(workload)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(workload.ops)
        failed += failures
        if traced:
            traced_walls.append(wall)
            layer_rounds.append(tracer.metrics())
        else:
            walls.append(wall)
        if failures == 0:
            outputs = workload.outputs(results)
            if reference_outputs is None:
                reference_outputs = outputs
            elif repr(outputs) != repr(reference_outputs) and not errors:
                errors.append("outputs differ between rounds of the same seed")
        elapsed = time.perf_counter() - measure_start
        done = tracer is None or traced_walls
        if done and elapsed + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if reference_outputs is not None:
        errors.extend(workload.check(reference_outputs))
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    report.update(
        attempted=attempted,
        failed=failed,
        correct=not errors,
        walls=walls,
        wall_s=statistics.median(walls),
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        layers = {
            name: float(statistics.median(r[name] for r in layer_rounds)) for name in layer_rounds[0]
        }
        traced_wall = statistics.median(traced_walls)
        layers.update(
            {
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - report["wall_s"],
                "trace.missing_names": len(tracer.missing),
            }
        )
        for name in tracer.missing:
            print(f"traced name is missing: {name}", file=sys.stderr)
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
