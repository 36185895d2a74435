"""The sim-core benchmark behind ``BENCH_simcore.json``.

Measures the packet-level hot path end-to-end on fixed registry cell
workloads (the Figure 5 QoS grid and the Figure 7 VoIP grids) and
reports:

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

Timings are best-of-``repetitions`` to shave scheduler noise; event
counts are exact and must not vary between repetitions (the simulator is
deterministic — a varying count means nondeterminism crept in, and the
bench raises).

``check_regression`` compares a fresh measurement against the committed
``BENCH_simcore.json`` and fails when a workload's ``sim_seconds`` grew
by more than 30%, which is the CI perf-smoke gate.  A full-mode run
also measures the quick workloads (the ``quick`` block), so the quick CI
smoke has a baseline of its own.  Cross-machine numbers differ by
design; the committed baseline is refreshed whenever a PR deliberately
moves it.
"""

import json
import platform
import resource
import sys
import time

from repro.sim import engine

#: Default benchmark artifact, relative to the current directory.
DEFAULT_OUTPUT = "BENCH_simcore.json"

SCHEMA = 1

#: Workload definitions: name -> ((sweep, scale), ...).  "fig7" is both
#: halves of Figure 7 (download- and upload-congested VoIP).
FULL_WORKLOADS = (
    ("fig5", (("fig5", 1.0),)),
    ("fig7", (("fig7a", 1.0), ("fig7b", 1.0))),
)

#: Quick mode: smaller cells (scale 0.25 resolves every sweep to its
#: duration floors), gated against the baseline's ``quick`` block.
QUICK_WORKLOADS = (
    ("fig5", (("fig5", 0.25),)),
    ("fig7", (("fig7a", 0.25), ("fig7b", 0.25))),
)

#: Best-of repetitions of each mode when none are given.
FULL_REPETITIONS = 3
QUICK_REPETITIONS = 2


def _workload_tasks(parts):
    from repro.core.registry import get

    tasks = []
    for sweep_name, scale in parts:
        tasks.extend(get(sweep_name).tasks(scale))
    return tasks


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


def _measure_workload(name, parts, repetitions):
    from repro.runner.execute import execute_task

    tasks = _workload_tasks(parts)
    best_wall = best_sim = None
    events = None
    for __ in range(repetitions):
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


def run_bench(quick=False, repetitions=None):
    """Run the benchmark; returns the ``BENCH_simcore.json`` document.

    A full run also measures the quick workloads, into the ``quick``
    block.
    """
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    if repetitions is None:
        repetitions = QUICK_REPETITIONS if quick else FULL_REPETITIONS
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1, got %r" % (repetitions,))
    results = {}
    for name, parts in workloads:
        results[name] = _measure_workload(name, parts, repetitions)
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
    document = {
        "schema": SCHEMA,
        "kind": "simcore-bench",
        "mode": "quick" if quick else "full",
        "repetitions": repetitions,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
        "totals": totals,
    }
    if not quick:
        document["quick"] = {
            name: _measure_workload(name, parts, QUICK_REPETITIONS)
            for name, parts in QUICK_WORKLOADS}
    return document


def write_bench(document, path=DEFAULT_OUTPUT):
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return path


def load_baseline(path=DEFAULT_OUTPUT):
    with open(path) as handle:
        return json.load(handle)


def baseline_workloads(baseline, mode):
    """The per-workload numbers ``baseline`` holds for ``mode`` runs."""
    if baseline.get("mode") == mode:
        return baseline.get("workloads", {})
    if mode == "quick":
        return baseline.get("quick", {})
    return {}


def check_regression(current, baseline, tolerance=0.30):
    """Fail (return False) if a workload's ``sim_seconds`` grew by more
    than ``tolerance``; prints one line per workload on stderr.

    Compares the CPU seconds inside ``Simulator.run`` of each workload
    present in both documents, measured in the same mode (a quick run is
    compared with the baseline's ``quick`` block); events/sec is printed
    for information only.  Machine-to-machine variance is real — the
    committed baseline and the tolerance are calibrated for CI-class
    hardware.
    """
    bases = baseline_workloads(baseline, current.get("mode"))
    if not bases:
        print("perf-check: the baseline has no %s-mode workloads"
              % current.get("mode"), file=sys.stderr)
        return False
    ok = True
    for name, workload in current["workloads"].items():
        base = bases.get(name)
        if base is None or not base.get("sim_seconds"):
            continue
        ceiling = base["sim_seconds"] * (1.0 + tolerance)
        status = "ok" if workload["sim_seconds"] <= ceiling else "REGRESSED"
        print("perf-check %-6s %s: %.3f s in Simulator.run vs baseline "
              "%.3f s (ceiling %.3f s); %d ev/s vs %d"
              % (name, status, workload["sim_seconds"], base["sim_seconds"],
                 ceiling, workload.get("events_per_sec", 0),
                 base.get("events_per_sec", 0)), file=sys.stderr)
        if status != "ok":
            ok = False
    return ok


def render_summary(document):
    """Human-readable one-block summary of a bench document."""
    lines = ["sim-core bench (%s mode, best of %d):"
             % (document["mode"], document["repetitions"])]
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
