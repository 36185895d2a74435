"""Executable bodies of grid cells.

:func:`execute_task` runs one :class:`repro.runner.task.CellTask` and
returns a JSON-ready payload (:mod:`repro.results.record` wraps it in a
:class:`repro.results.record.CellResult`).  It makes one generic call:
the kind's cell function (:data:`CELLS`) gets the task's scenario,
buffer, windows, seed and params as keywords, and the payload is what
it returns, shaped in its own module.  Everything here is module-level
and picklable so the grid runner can ship tasks to worker processes.
The cell function is looked up at call time, so ``repro.runner`` stays
import-light and cycle-free, and a replaced module attribute is the one
that runs.

Cells run with the cyclic garbage collector paused: the sim core is
careful about reference cycles (packets and events are plain objects
that reference counting frees) and gen-0 scans over a large live heap
cost several percent of every cell.  The pause cannot change results — collection timing has no
observable effect on the simulation — and collection happens naturally
once the payload is built.
"""

import gc
from importlib import import_module

# Canonical payload→JSON conversion lives in repro.results.convert;
# re-exported here because workers and older call sites import it from
# the execution module.
from repro.results.convert import jsonify

#: Each cell kind's cell function, as ``(module, attribute)``.
CELLS = {
    "qos": ("repro.core.experiment", "run_qos_cell"),
    "voip": ("repro.core.voip_study", "run_voip_cell"),
    "video": ("repro.core.video_study", "run_video_cell"),
    "web": ("repro.core.web_study", "run_web_cell"),
}


def execute_task(task):
    """Run one cell simulation and return its JSON-ready payload."""
    module, name = CELLS[task.kind]
    cell = getattr(import_module(module), name)
    # Web tasks carry no measurement window: CellTask.make zeroes it, and
    # every other kind's window is positive.
    window = {"duration": task.duration} if task.duration else {}
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return jsonify(cell(task.scenario, task.buffer_packets,
                            warmup=task.warmup, seed=task.seed, **window,
                            **task.params_dict))
    finally:
        if was_enabled:
            gc.enable()
