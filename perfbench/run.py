"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.
Prints a readable report, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The metrics are the
``end_to_end`` ones of ``BENCHMARK.json`` with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``; ``attempted``/``failed`` count
the workload's cells (``cells_attempted``/``cells_failed``).
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="added to every sweep's registry seed "
                             "(default: the registry seeds)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit("repro was imported from %s, not from %s"
                         % (repro.__file__, src))
    from perfbench.bench import measure
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    result = measure(WORKLOADS[args.workload], seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace))
    units = {metric["name"]: metric["unit"] for metric in
             declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result.metrics):
        raise SystemExit("measured metrics differ from BENCHMARK.json: "
                         "missing %s, undeclared %s" % (
                             sorted(set(units) - set(result.metrics)),
                             sorted(set(result.metrics) - set(units))))

    print("workload %s  seed %s  %s  rounds %d" % (
        args.workload, "registry" if args.seed is None else args.seed,
        "traced" if args.trace else "end to end", result.rounds))
    for name in units:
        print("  %-26s %16.6f %s" % (name, result.metrics[name], units[name]))
    print("  %-26s %16d cells" % ("cells_attempted", result.attempted))
    print("  %-26s %16d cells" % ("cells_failed", result.failed))
    print("  payload_sha256 %s" % result.payload_sha256)
    for cell, problems in result.problems.items():
        print("  FAILED %s: %s" % (cell, "; ".join(problems)))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
