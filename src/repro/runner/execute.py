"""Executable bodies of grid cells.

:func:`execute_task` runs one :class:`repro.runner.task.CellTask` and
returns a JSON-ready payload (:mod:`repro.results.record` wraps it in a
:class:`repro.results.record.CellResult`).  Everything here is
module-level and picklable so the grid runner can ship tasks to worker
processes.  Study-layer imports happen lazily inside the
executors to keep ``repro.runner`` import-light and cycle-free.

Cells run with the cyclic garbage collector paused: the sim core is
careful about reference cycles (packets and events are plain objects
that reference counting frees) and gen-0 scans over a large live heap
cost several percent of every cell.  The pause cannot change results — collection timing has no
observable effect on the simulation — and collection happens naturally
once the payload is built.
"""

import gc
from dataclasses import asdict

# Canonical payload→JSON conversion lives in repro.results.convert;
# re-exported here because workers and older call sites import it from
# the execution module.
from repro.results.convert import jsonify


def queue_factory_for(discipline):
    """Map a discipline name to a ``capacity_packets -> Queue`` factory.

    ``"droptail"`` returns None so networks keep their default factory.
    """
    if discipline in (None, "droptail"):
        return None
    if discipline == "red":
        from repro.sim.queues import REDQueue

        return lambda capacity: REDQueue(capacity_packets=capacity)
    if discipline == "codel":
        from repro.sim.queues import CoDelQueue

        return lambda capacity: CoDelQueue(capacity_packets=capacity)
    raise ValueError("unknown queue discipline %r" % (discipline,))


# ---------------------------------------------------------------------------
# Per-kind executors: CellTask -> JSON-ready payload.
# ---------------------------------------------------------------------------
def _run_qos(task):
    from repro.core.experiment import run_qos_cell

    report = run_qos_cell(
        task.scenario, task.buffer_packets, warmup=task.warmup,
        duration=task.duration, seed=task.seed,
        queue_factory=queue_factory_for(task.discipline))
    return asdict(report)


def _run_voip(task):
    import numpy as np

    from repro.core.voip_study import median_mos, run_voip_cell

    params = task.params_dict
    directions = tuple(params.get("directions", ("talks", "listens")))
    scores = run_voip_cell(
        task.scenario, task.buffer_packets, calls=params.get("calls", 2),
        warmup=task.warmup, seed=task.seed, duration=task.duration,
        directions=directions,
        queue_factory=queue_factory_for(task.discipline))
    payload = {direction: median_mos(score_list)
               for direction, score_list in scores.items()}
    # Median mouth-to-ear delay (seconds) per direction: the AQM and
    # bufferbloat sweeps assert on the standing queue, not just MOS.
    payload["delay"] = {
        direction: (float(np.median([score.mouth_to_ear_delay
                                     for score in score_list]))
                    if score_list else 0.0)
        for direction, score_list in scores.items()}
    return payload


def _run_video(task):
    from repro.core.video_study import run_video_cell

    params = task.params_dict
    return run_video_cell(
        task.scenario, task.buffer_packets,
        resolution=params.get("resolution", "SD"),
        clip=params.get("clip", "C"), duration=task.duration,
        warmup=task.warmup, seed=task.seed, arq=params.get("arq", False),
        queue_factory=queue_factory_for(task.discipline))


def _run_web(task):
    from repro.core.web_study import run_web_cell

    params = task.params_dict
    return run_web_cell(
        task.scenario, task.buffer_packets,
        fetches=params.get("fetches", 10), warmup=task.warmup,
        seed=task.seed, queue_factory=queue_factory_for(task.discipline))


_EXECUTORS = {
    "qos": _run_qos,
    "voip": _run_voip,
    "video": _run_video,
    "web": _run_web,
}


def execute_task(task):
    """Run one cell simulation and return its JSON-ready payload."""
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return jsonify(_EXECUTORS[task.kind](task))
    finally:
        if was_enabled:
            gc.enable()
