"""The sim-core benchmark behind ``BENCH_simcore.json``.

Measures the packet-level hot path end-to-end on fixed registry cell
workloads (the Figure 5 QoS grid and the Figure 7 VoIP grids, at scale
0.25) and reports:

* ``events`` — events the simulator executed over the workload.  Exact:
  the simulator is deterministic, so a count that varies between
  repetitions means nondeterminism crept in, and the bench raises.
* ``sim_seconds`` — CPU seconds spent inside
  :meth:`repro.sim.engine.Simulator.run` over the workload.  This is
  *the* hot-path metric: it excludes per-cell QoE post-processing (numpy
  DSP) whose cost is unrelated to the event loop, and it falls when the
  simulator does the same payload-bearing work with fewer events.
* ``events_per_sec`` — executed events divided by ``sim_seconds``,
  for information: removing cheap events lowers it by design.
* ``cells_per_sec`` — whole cells (simulation + QoE scoring) per
  wall-clock second: the number that bounds registry sweep throughput.
* ``peak_rss_kb`` — ``ru_maxrss`` after the run.

Timings are the best of ``REPETITIONS`` runs, to shave scheduler noise.

``check_regression``, the CI perf-smoke gate, compares a fresh
measurement with the committed ``BENCH_simcore.json``: exact events,
and ``sim_seconds`` within ``TOLERANCE``.  Cross-machine timings differ
by design; the baseline is refreshed whenever a PR deliberately moves
it.
"""

import json
import platform
import resource
import sys
import time

from repro.sim import engine

#: Default benchmark artifact, relative to the current directory.
DEFAULT_OUTPUT = "BENCH_simcore.json"

SCHEMA = 2

#: Workload definitions: name -> ((sweep, scale), ...).  "fig7" is both
#: halves of Figure 7 (download- and upload-congested VoIP); scale 0.25
#: resolves every sweep to its duration floors.
WORKLOADS = (
    ("fig5", (("fig5", 0.25),)),
    ("fig7", (("fig7a", 0.25), ("fig7b", 0.25))),
)

#: Best-of repetitions of every timing.
REPETITIONS = 3

#: Allowed fractional growth of a workload's ``sim_seconds``.
TOLERANCE = 0.30


class _SimRunTimer:
    """Accumulates CPU seconds spent inside ``Simulator.run``."""

    def __init__(self):
        self.seconds = 0.0
        self._original = None

    def __enter__(self):
        original = engine.Simulator.run
        timer = self

        def timed_run(sim, *args, **kwargs):
            t0 = time.process_time()
            try:
                return original(sim, *args, **kwargs)
            finally:
                timer.seconds += time.process_time() - t0

        self._original = original
        engine.Simulator.run = timed_run
        return self

    def __exit__(self, *exc_info):
        engine.Simulator.run = self._original
        return False


def _measure_workload(name, parts):
    from repro.core.registry import get
    from repro.runner.execute import execute_task

    tasks = [task for sweep, scale in parts
             for task in get(sweep).tasks(scale)]
    best_wall = best_sim = None
    events = None
    for __ in range(REPETITIONS):
        with _SimRunTimer() as timer:
            events_before = engine.total_events()
            wall_start = time.perf_counter()
            for task in tasks:
                execute_task(task)
            wall = time.perf_counter() - wall_start
            executed = engine.total_events() - events_before
        if events is None:
            events = executed
        elif events != executed:
            raise RuntimeError(
                "nondeterministic event count on workload %r: %d != %d"
                % (name, events, executed))
        best_wall = wall if best_wall is None else min(best_wall, wall)
        best_sim = (timer.seconds if best_sim is None
                    else min(best_sim, timer.seconds))
    return {
        "sweeps": ["%s@%g" % part for part in parts],
        "cells": len(tasks),
        "events": events,
        "sim_seconds": round(best_sim, 6),
        "wall_seconds": round(best_wall, 6),
        "events_per_sec": round(events / best_sim) if best_sim else 0,
        "cells_per_sec": round(len(tasks) / best_wall, 3) if best_wall else 0.0,
    }


def run_bench():
    """Run the benchmark; returns the ``BENCH_simcore.json`` document."""
    results = {name: _measure_workload(name, parts)
               for name, parts in WORKLOADS}
    totals = {
        "cells": sum(w["cells"] for w in results.values()),
        "events": sum(w["events"] for w in results.values()),
        "sim_seconds": round(sum(w["sim_seconds"] for w in results.values()), 6),
        "wall_seconds": round(sum(w["wall_seconds"] for w in results.values()), 6),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    totals["events_per_sec"] = (
        round(totals["events"] / totals["sim_seconds"])
        if totals["sim_seconds"] else 0)
    totals["cells_per_sec"] = (
        round(totals["cells"] / totals["wall_seconds"], 3)
        if totals["wall_seconds"] else 0.0)
    return {
        "schema": SCHEMA,
        "kind": "simcore-bench",
        "repetitions": REPETITIONS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
        "totals": totals,
    }


def write_bench(document, path=DEFAULT_OUTPUT):
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return path


def load_baseline():
    with open(DEFAULT_OUTPUT) as handle:
        return json.load(handle)


def check_regression(current, baseline):
    """Fail (return False) if a workload's events differ from the
    baseline's, its ``sim_seconds`` exceed the baseline's by more than
    ``TOLERANCE``, or the baseline lacks it; prints one stderr line per
    workload (events/sec for information only)."""
    ok = True
    for name, workload in current["workloads"].items():
        base = baseline["workloads"].get(name)
        if base is None:
            print("perf-check %-6s MISSING: the baseline has no such "
                  "workload" % name, file=sys.stderr)
            ok = False
            continue
        ceiling = base["sim_seconds"] * (1.0 + TOLERANCE)
        failed = []
        if workload["events"] != base["events"]:
            failed.append("EVENTS")
        if workload["sim_seconds"] > ceiling:
            failed.append("TIME")
        status = "+".join(failed) or "ok"
        print("perf-check %-6s %s: %d events vs baseline %d; %.3f s in "
              "Simulator.run vs baseline %.3f s (ceiling %.3f s); "
              "%d ev/s vs %d"
              % (name, status, workload["events"], base["events"],
                 workload["sim_seconds"], base["sim_seconds"], ceiling,
                 workload.get("events_per_sec", 0),
                 base.get("events_per_sec", 0)), file=sys.stderr)
        ok = ok and not failed
    return ok


def render_summary(document):
    """Human-readable one-block summary of a bench document."""
    lines = ["sim-core bench (best of %d):" % document["repetitions"]]
    for name, workload in document["workloads"].items():
        lines.append(
            "  %-6s %3d cells  %9d events  %7.3f s (sim)  %8d ev/s  "
            "%6.2f cells/s"
            % (name, workload["cells"], workload["events"],
               workload["sim_seconds"], workload["events_per_sec"],
               workload["cells_per_sec"]))
    totals = document["totals"]
    lines.append(
        "  total  %3d cells  %9d events  %8d ev/s (sim)  peak RSS %.1f MB"
        % (totals["cells"], totals["events"], totals["events_per_sec"],
           totals["peak_rss_kb"] / 1024.0))
    return "\n".join(lines)
