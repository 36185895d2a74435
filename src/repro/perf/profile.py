"""cProfile harness over registry cells.

Every hot-path PR starts here: pick the cell whose workload you are
optimizing, profile it, sort by ``tottime`` and attack the top rows.
The harness is what produced the measurements behind the engine/link
fast-path rewrite (see docs/ARCHITECTURE.md).

Usage::

    python -m repro perf --profile fig5 --cell 2 --top 25
    python -m repro perf --profile fig7b --sort cumulative

or programmatically::

    from repro.perf.profile import profile_cell
    text, task = profile_cell("fig5", cell=2)
"""

import cProfile
import io
import pstats

SORT_KEYS = ("tottime", "cumulative", "ncalls")


def profile_cell(sweep, cell=0, scale=1.0, top=25, sort="tottime"):
    """Profile one registry cell; returns ``(report_text, task)``.

    The cell runs once unprofiled first so process-lifetime caches
    (speech synthesis, clip generation) don't pollute the profile.
    """
    from repro.core.registry import get
    from repro.runner.execute import execute_task

    if sort not in SORT_KEYS:
        raise ValueError("sort must be one of %s, got %r" % (SORT_KEYS, sort))
    tasks = get(sweep).tasks(scale)
    if not -len(tasks) <= cell < len(tasks):
        raise IndexError("sweep %r has %d cells at scale %g; cell %d "
                         "out of range" % (sweep, len(tasks), scale, cell))
    task = tasks[cell]
    execute_task(task)
    profiler = cProfile.Profile()
    profiler.enable()
    execute_task(task)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    header = "profile: %s cell %d (scale %g) — %s\n" % (
        sweep, cell, scale, task.label)
    return header + buffer.getvalue(), task
