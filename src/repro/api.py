"""Stable public facade: run sweeps, get keyed :class:`ResultSet`s.

This module is the one entry point everything user-facing goes through —
the CLI, the report, the examples and downstream analysis code::

    from repro import api

    results = api.run_sweep("fig7b")                 # ResultSet
    results.value_map("talks")                       # {cell key: MOS}
    results[("long-many", 256)]["talks"]             # one cell's value
    results.to_csv("fig7b.csv")

    for record in api.iter_sweep("fig5"):            # streaming
        print(record.key, record["down_utilization"])

    cached = api.load_sweep("fig5")                  # cache-only, no sims

Sweeps are named registry entries (``python -m repro list``) or explicit
:class:`repro.core.registry.SweepSpec` objects (e.g. from
:func:`repro.core.registry.adhoc_sweep`).  :func:`apply_overrides`
narrows or retunes a sweep's axes without editing the registry — the
same knobs the ``export`` CLI flags expose.  Results come back as
:class:`repro.results.record.CellResult` records in a
:class:`repro.results.set.ResultSet`; the payload wire format and
cache schema underneath are exactly the runner's, so facade runs share
cache entries bit-identically with every other consumer.
"""

from dataclasses import replace

from repro.core import registry
from repro.core.registry import SweepSpec, resolve_scale
from repro.results.set import ResultSet
from repro.runner import GridRunner
from repro.runner.cache import ResultCache


def resolve_spec(name_or_spec):
    """A :class:`SweepSpec` from a registry name (or pass one through)."""
    if isinstance(name_or_spec, SweepSpec):
        return name_or_spec
    return registry.get(name_or_spec)


def apply_overrides(spec, scale=None, workloads=None, buffers=None,
                    duration=None, warmup=None, seed=None):
    """Resolve ``spec``'s axes at ``scale`` and apply ad-hoc overrides.

    ``workloads`` restricts the scenario axis to the given cell-key
    labels; ``buffers`` replaces the buffer axis (packet counts or
    ``(down, up)`` pairs); ``duration``/``warmup`` are literal simulated
    seconds (a duration override bypasses scale stretching).  Unknown
    workload labels, repeated buffers and a duration for a web sweep (it
    runs a fixed fetch count, with no measurement window) raise
    ValueError.  Overridden runs use different cache keys than the
    registered grid, by design.
    """
    if duration is not None and spec.kind == "web":
        raise ValueError("sweep %r is a web sweep: it runs a fixed fetch "
                         "count and has no duration to override" % spec.name)
    scale = resolve_scale() if scale is None else scale
    scenarios = spec.scenario_axis(scale)
    buffer_axis = spec.buffer_axis(scale)
    if workloads:
        wanted = tuple(workloads)
        unknown = set(wanted) - {s.key for s in scenarios}
        if unknown:
            raise ValueError("unknown workload label(s) %s (have: %s)" % (
                ", ".join(sorted(unknown)),
                ", ".join(s.key for s in scenarios)))
        scenarios = tuple(s for s in scenarios if s.key in wanted)
    if buffers:
        buffer_axis = tuple(tuple(b) if isinstance(b, list) else b
                            for b in buffers)
    changes = {"scenarios": scenarios, "scenarios_small": None,
               "buffers": buffer_axis, "buffers_small": None}
    if duration is not None:
        # A literal window at any scale: the floor alone carries the
        # value, so resolved_duration == duration even at REPRO_SCALE > 1.
        changes["duration"] = 0.0
        changes["duration_min"] = duration
    if warmup is not None:
        changes["warmup"] = warmup
    if seed is not None:
        changes["seed"] = seed
    return replace(spec, **changes)


def iter_sweep(name_or_spec, *, scale=None, runner=None):
    """Stream one sweep's records as cells complete.

    Yields :class:`repro.results.record.CellResult` records (cache hits
    first, then pool completions), each carrying its sweep cell ``key``
    and task ``index``.  Consume the stream in a loop to hold one cell
    at a time, or feed it to
    :meth:`repro.results.set.ResultSet.from_stream` to collect.
    """
    spec = resolve_spec(name_or_spec)
    scale = resolve_scale() if scale is None else scale
    runner = runner or GridRunner()
    tasks = spec.tasks(scale)
    keys = spec.cells(scale)
    for __, record in runner.iter_run(tasks, keys=keys):
        yield record


def run_sweep(name_or_spec, *, scale=None, runner=None):
    """Execute one sweep; returns a :class:`ResultSet` in task order.

    ``runner`` defaults to a fresh env-driven
    :class:`repro.runner.GridRunner` (parallel + cached).  The result
    equals collecting :func:`iter_sweep` — ``run`` is just the batch
    spelling.
    """
    return ResultSet.from_stream(
        iter_sweep(name_or_spec, scale=scale, runner=runner))


def load_sweep(name_or_spec, *, scale=None, cache=None):
    """Build a :class:`ResultSet` from cached cells only — no simulation.

    Cells missing from the cache are skipped.  Useful for re-analyzing
    or exporting finished grids without paying for a runner, e.g. on a
    machine that only holds the cache.
    """
    spec = resolve_spec(name_or_spec)
    scale = resolve_scale() if scale is None else scale
    cache = cache or ResultCache()
    records = []
    from repro.results.record import record_from_payload

    for index, (task, key) in enumerate(zip(spec.tasks(scale),
                                            spec.cells(scale))):
        payload = cache.get(task)
        if payload is None:
            continue
        records.append(record_from_payload(task, payload, key=key,
                                           index=index))
    return ResultSet(records)

