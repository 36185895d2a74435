"""Declarative scenario/sweep registry — the single source of truth for
every experiment grid.

The paper's artifacts are all grids of independent (scenario x buffer
size x extra axes) cells.  This module declares each grid once, as a
named :class:`SweepSpec`, and everything else consumes that
declaration:

* :func:`repro.api.run_sweep` runs a spec (by name or object) and
  returns a :class:`repro.results.set.ResultSet`;
* the figure catalog (:mod:`repro.report.figures`) looks each figure's
  sweep up in :data:`REGISTRY`, so the report's grid and the CLI's are
  the *same tasks* (bit-identical cell hashes, shared result cache),
  and takes its heatmap axes from that spec;
* ``python -m repro list/describe/run`` (see :mod:`repro.cli`) exposes
  the catalog on the command line.

Specs are frozen, JSON-serializable dataclasses; :meth:`SweepSpec.tasks`
lowers a spec to :class:`repro.runner.task.CellTask` cells and
:meth:`SweepSpec.cells` gives their cell keys, aligned.

Scale resolution
----------------
The global fidelity knob ``REPRO_SCALE`` (float, default 1.0) stretches
measurement windows and repetition counts: a spec stores a *base*
duration plus a floor (``duration``/``duration_min``, both in simulated
seconds) and resolves ``max(duration_min, duration * scale)``; scaled
integer knobs such as web fetch counts are declared in ``counts`` the
same way.  Specs may also declare reduced axes (``scenarios_small``,
``buffers_small``) used below ``full_scale`` so quick runs stay quick.
Every :class:`SweepSpec` method takes the scale as an argument; only the
entry points (:mod:`repro.api`, the CLI and :mod:`repro.report.build`)
read ``REPRO_SCALE``, through :func:`resolve_scale`.
"""

import math
import os
from dataclasses import asdict, dataclass

from repro.core.buffers import ACCESS_BUFFER_SIZES, BACKBONE_BUFFER_SIZES
from repro.core.scenarios import access_scenario, backbone_scenario
from repro.runner import CellTask
from repro.runner.task import KINDS


def parse_scale(text, name="scale"):
    """``text`` as a fidelity scale: a finite number above zero.

    Raises ``ValueError`` naming ``name`` for anything else (``nan``,
    ``inf``, ``0``, negative numbers, non-numbers).
    """
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("%s must be a finite number above 0, got %r"
                         % (name, text))
    return scale


def resolve_scale():
    """Read the global fidelity knob (``REPRO_SCALE`` env var, float;
    1.0 when unset or empty).

    Raises ``ValueError`` when ``REPRO_SCALE`` is set to anything
    :func:`parse_scale` rejects.
    """
    env = os.environ.get("REPRO_SCALE", "")
    if not env:
        return 1.0
    return parse_scale(env, "REPRO_SCALE")


# ---------------------------------------------------------------------------
# ScenarioSpec: a declarative pointer to one workload row.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """Pointer to one :class:`repro.core.scenarios.Scenario` row.

    Parameters
    ----------
    testbed:
        ``"access"`` or ``"backbone"``.
    workload:
        Table 1 row name (``"noBG"``, ``"long-many"``, ``"short-low"``,
        ...).
    direction:
        Congestion direction for access scenarios: ``"down"``, ``"up"``
        or ``"bidir"`` (ignored for ``noBG`` and the backbone).
    label:
        Cell-key label used in sweep results; defaults to ``workload``.
        Must be unique within a sweep.
    """

    testbed: str
    workload: str
    direction: str = "down"
    label: str = ""

    def __post_init__(self):
        if self.testbed not in ("access", "backbone"):
            raise ValueError("unknown testbed %r" % (self.testbed,))

    @property
    def key(self):
        """The label this row contributes to sweep cell keys."""
        return self.label or self.workload

    def build(self):
        """Materialize the :class:`repro.core.scenarios.Scenario`."""
        if self.testbed == "access":
            return access_scenario(self.workload, self.direction)
        return backbone_scenario(self.workload)

    def to_json(self):
        """Plain-JSON dict representation (tuple-free)."""
        return asdict(self)


def access(workload, direction="down", label=""):
    """Shorthand for an access-testbed :class:`ScenarioSpec`."""
    return ScenarioSpec("access", workload, direction, label)


def backbone(workload):
    """Shorthand for a backbone-testbed :class:`ScenarioSpec`."""
    return ScenarioSpec("backbone", workload)


# ---------------------------------------------------------------------------
# SweepSpec: a named experiment grid.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """One named experiment grid (a paper artifact).

    The cell cross-product is ``scenarios x buffers x axes``; each cell
    lowers to one :class:`repro.runner.task.CellTask`.  Every
    duration/warmup field is in simulated seconds; buffer sizes are in
    packets (an entry may be a ``(down, up)`` pair for per-direction
    buffers).

    Cell keys in the sweep's results are ``(scenario.key, buffer)``
    extended by one value per entry of ``axes`` (in declaration order).
    """

    name: str
    kind: str  # "qos" | "voip" | "video" | "web"
    title: str
    provenance: str  # e.g. "Figure 5" / "Table 1 (access)" / "ad-hoc"
    description: str = ""
    scenarios: tuple = ()  # ScenarioSpec rows (full-scale axis)
    scenarios_small: tuple = None  # reduced axis below full_scale
    buffers: tuple = ()  # packet counts, or (down, up) tuples
    buffers_small: tuple = None
    full_scale: float = 4.0  # REPRO_SCALE at which the full axes kick in
    seed: int = 0
    warmup: float = 5.0  # seconds (simulated) before measurement starts
    duration: float = 8.0  # base measurement window, seconds (simulated)
    duration_min: float = 4.0  # window floor, seconds (simulated)
    counts: tuple = ()  # ((param, base, minimum), ...) scale-resolved ints
    params: tuple = ()  # ((param, value), ...) static cell parameters
    axes: tuple = ()  # ((param, (value, ...)), ...) extra cell axes

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown sweep kind %r (have %s)"
                             % (self.kind, KINDS))
        for axis in (self.scenarios, self.scenarios_small or ()):
            labels = [spec.key for spec in axis]
            if len(set(labels)) != len(labels):
                raise ValueError(
                    "sweep %r has duplicate scenario labels %s — set "
                    "ScenarioSpec.label to disambiguate" % (self.name, labels))
        # A repeated value makes two tasks with one content hash and one
        # cell key, so one of the two results would silently vanish.
        for axis in (self.buffers, self.buffers_small or ()):
            for index, value in enumerate(axis):
                if value in axis[:index]:
                    raise ValueError("sweep %r repeats buffer size %s in %s"
                                     % (self.name, value, list(axis)))

    # -- axis resolution ------------------------------------------------
    def scenario_axis(self, scale):
        """The scenario rows active at ``scale``."""
        if self.scenarios_small is not None and scale < self.full_scale:
            return self.scenarios_small
        return self.scenarios

    def buffer_axis(self, scale):
        """The buffer sizes (packets) active at ``scale``."""
        if self.buffers_small is not None and scale < self.full_scale:
            return self.buffers_small
        return self.buffers

    def workloads(self, scale):
        """Cell-key labels of the active scenario rows."""
        return tuple(spec.key for spec in self.scenario_axis(scale))

    def resolved_duration(self, scale):
        """Measurement window in simulated seconds at ``scale``."""
        return max(self.duration_min, self.duration * scale)

    def resolved_counts(self, scale):
        """Scale-dependent integer parameters, e.g. web fetch counts."""
        return {name: max(minimum, int(round(base * scale)))
                for name, base, minimum in self.counts}

    # -- lowering to tasks ---------------------------------------------
    def _axis_product(self):
        """Cross-product of the extra ``axes`` as (key-part, params) pairs."""
        combos = [((), {})]
        for param, values in self.axes:
            combos = [(key + (value,), dict(params, **{param: value}))
                      for key, params in combos for value in values]
        return combos

    def cells(self, scale):
        """Cell keys, aligned one-to-one with :meth:`tasks`."""
        return [(scenario.key, buffer_packets) + axis_key
                for scenario in self.scenario_axis(scale)
                for buffer_packets in self.buffer_axis(scale)
                for axis_key, __ in self._axis_product()]

    def tasks(self, scale):
        """Lower the spec to :class:`repro.runner.task.CellTask` cells."""
        duration = self.resolved_duration(scale)
        params = dict(self.params)
        params.update(self.resolved_counts(scale))
        tasks = []
        for scenario_spec in self.scenario_axis(scale):
            scenario = scenario_spec.build()
            for buffer_packets in self.buffer_axis(scale):
                for __, axis_params in self._axis_product():
                    tasks.append(CellTask.make(
                        self.kind, scenario, buffer_packets,
                        seed=self.seed, warmup=self.warmup,
                        duration=duration, **dict(params, **axis_params)))
        return tasks

    def cell_count(self, scale):
        """Number of grid cells at ``scale``."""
        axis_cells = 1
        for __, values in self.axes:
            axis_cells *= len(values)
        return (len(self.scenario_axis(scale)) * len(self.buffer_axis(scale))
                * axis_cells)

    # -- serialization --------------------------------------------------
    def to_json(self):
        """Plain-JSON dict representation of the full spec."""
        data = asdict(self)
        if self.scenarios_small is None:
            data.pop("scenarios_small")
        if self.buffers_small is None:
            data.pop("buffers_small")
        return data

    def describe(self, scale):
        """JSON-ready summary with scale-resolved axes and durations."""
        return {
            "name": self.name,
            "kind": self.kind,
            "title": self.title,
            "provenance": self.provenance,
            "description": self.description,
            "scale": scale,
            "workloads": list(self.workloads(scale)),
            "buffers": [list(b) if isinstance(b, tuple) else b
                        for b in self.buffer_axis(scale)],
            "axes": [[param, list(values)] for param, values in self.axes],
            "seed": self.seed,
            "warmup_s": self.warmup,
            "duration_s": self.resolved_duration(scale),
            "counts": self.resolved_counts(scale),
            "params": dict(self.params),
            "cells": self.cell_count(scale),
        }


def adhoc_sweep(name, kind, scenarios, buffers, seed=0, warmup=5.0,
                duration=8.0, params=(), axes=()):
    """Build an unregistered spec with a *literal* (unscaled) duration.

    For scripts, examples and tests whose explicit ``duration=`` must
    pass through verbatim: the base duration doubles as its own floor,
    making :meth:`SweepSpec.resolved_duration` the identity at any
    ``REPRO_SCALE`` ≤ 1 and callers responsible for scaling above it.
    """
    return SweepSpec(
        name=name, kind=kind, title=name, provenance="ad-hoc",
        scenarios=tuple(scenarios), buffers=tuple(buffers), seed=seed,
        warmup=warmup, duration=duration, duration_min=duration,
        params=tuple(params), axes=tuple(axes))


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------
REGISTRY = {}


def register(spec):
    """Add ``spec`` to the global catalog (name collisions are errors)."""
    if spec.name in REGISTRY:
        raise ValueError("duplicate sweep name %r" % (spec.name,))
    REGISTRY[spec.name] = spec
    return spec


def get(name):
    """Look a registered sweep up by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError("unknown sweep %r — run `python -m repro list` "
                       "(have: %s)" % (name, ", ".join(sorted(REGISTRY)))
                       ) from None


def names():
    """Registered sweep names in catalog (registration) order."""
    return list(REGISTRY)


# -- paper grids (provenance = figure/table) --------------------------------
#
# At scale 1 the *_small axes and duration floors give the quick grids
# that `report` runs by default; at
# REPRO_SCALE >= full_scale the full paper grids run.

register(SweepSpec(
    name="fig4-up",
    kind="qos",
    title="Figure 4c: mean queueing delay, upstream congestion",
    provenance="Figure 4",
    description="Mean up/downlink queueing delay per (workload, buffer) "
                "on the access testbed with upload activity — the "
                "bufferbloat staircase.",
    scenarios=tuple(access(w, "up") for w in
                    ("long-few", "long-many", "short-few", "short-many")),
    scenarios_small=(access("long-few", "up"), access("short-few", "up")),
    buffers=ACCESS_BUFFER_SIZES,
    seed=2, warmup=8.0, duration=12.0, duration_min=8.0))

register(SweepSpec(
    name="fig4-down",
    kind="qos",
    title="Figure 4a: mean queueing delay, downstream congestion",
    provenance="Figure 4",
    description="Downlink congestion keeps the mean delay envelope below "
                "200 ms at every buffer size; the uplink carries only ACKs.",
    scenarios=(access("long-many", "down"),),
    buffers=ACCESS_BUFFER_SIZES,
    seed=2, warmup=6.0, duration=10.0, duration_min=6.0))

register(SweepSpec(
    name="fig5",
    kind="qos",
    title="Figure 5: link utilization, bidirectional long workload",
    provenance="Figure 5",
    description="Per-second utilization boxplots of both bottleneck "
                "directions under the 8-up/64-down long-flow workload.",
    scenarios=(access("long-many", "bidir"),),
    buffers=ACCESS_BUFFER_SIZES,
    seed=1, warmup=8.0, duration=15.0, duration_min=10.0))

register(SweepSpec(
    name="table1-access",
    kind="qos",
    title="Table 1 (access): workload characteristics at BDP buffers",
    provenance="Table 1",
    description="Utilization/loss columns of the access half of Table 1, "
                "measured at the per-direction BDP buffers (64 down, 8 up).",
    scenarios=tuple(
        access(name, direction, label="%s/%s" % (name, direction))
        for name in ("short-few", "short-many", "long-few", "long-many")
        for direction in ("up", "bidir", "down")),
    scenarios_small=(
        access("short-few", "down", label="short-few/down"),
        access("short-many", "down", label="short-many/down"),
        access("long-few", "bidir", label="long-few/bidir"),
        access("long-many", "down", label="long-many/down"),
        access("short-few", "up", label="short-few/up")),
    buffers=((64, 8),),
    seed=1, warmup=6.0, duration=20.0, duration_min=10.0))

register(SweepSpec(
    name="table1-backbone",
    kind="qos",
    title="Table 1 (backbone): workload characteristics at the BDP buffer",
    provenance="Table 1",
    description="Utilization/loss columns of the backbone half of Table 1 "
                "at the 749-packet BDP buffer.",
    scenarios=tuple(backbone(w) for w in
                    ("short-low", "short-medium", "short-high",
                     "short-overload", "long")),
    scenarios_small=tuple(backbone(w) for w in
                          ("short-low", "short-medium", "short-high")),
    buffers=(749,),
    full_scale=2.0,
    seed=1, warmup=5.0, duration=15.0, duration_min=8.0))

register(SweepSpec(
    name="fig7a",
    kind="voip",
    title="Figure 7a: access VoIP MOS, download activity",
    provenance="Figure 7",
    description="Median combined MOS for both call directions under "
                "downstream background traffic.",
    scenarios=tuple(access(w, "down") for w in
                    ("noBG", "long-few", "long-many")),
    buffers=(8, 64, 256),
    seed=3, warmup=8.0, duration=8.0, duration_min=5.0,
    params=(("calls", 1), ("directions", ("talks", "listens")))))

register(SweepSpec(
    name="fig7b",
    kind="voip",
    title="Figure 7b: access VoIP MOS, upload activity (bufferbloat)",
    provenance="Figure 7",
    description="The headline result: upload congestion plus a bloated "
                "uplink buffer destroys both call directions.",
    scenarios=tuple(access(w, "up") for w in
                    ("noBG", "long-few", "long-many", "short-few",
                     "short-many")),
    scenarios_small=tuple(access(w, "up") for w in
                          ("noBG", "long-few", "long-many")),
    buffers=ACCESS_BUFFER_SIZES,
    buffers_small=(8, 64, 256),
    seed=3, warmup=10.0, duration=8.0, duration_min=5.0,
    params=(("calls", 1), ("directions", ("talks", "listens")))))

register(SweepSpec(
    name="fig8",
    kind="voip",
    title="Figure 8: backbone VoIP MOS",
    provenance="Figure 8",
    description="Unidirectional (server -> client) audio across the "
                "backbone workloads; workload, not buffer size, dominates.",
    scenarios=tuple(backbone(w) for w in
                    ("noBG", "short-low", "short-medium", "short-high",
                     "short-overload", "long")),
    scenarios_small=tuple(backbone(w) for w in
                          ("noBG", "short-medium", "long")),
    buffers=BACKBONE_BUFFER_SIZES,
    buffers_small=(8, 749, 7490),
    full_scale=2.0,
    seed=3, warmup=12.0, duration=8.0, duration_min=5.0,
    params=(("calls", 1), ("directions", ("listens",)))))

register(SweepSpec(
    name="fig9a",
    kind="video",
    title="Figure 9a: access IPTV SSIM, download activity",
    provenance="Figure 9",
    description="RTP video streamed downstream; SSIM is binary in the "
                "workload and almost independent of the buffer size.",
    scenarios=tuple(access(w, "down") for w in
                    ("noBG", "long-few", "long-many", "short-few",
                     "short-many")),
    scenarios_small=tuple(access(w, "down") for w in
                          ("noBG", "long-few", "long-many")),
    buffers=(8, 64, 256),
    seed=4, warmup=6.0, duration=6.0, duration_min=4.0,
    params=(("clip", "C"),),
    axes=(("resolution", ("SD", "HD")),)))

register(SweepSpec(
    name="fig9b",
    kind="video",
    title="Figure 9b: backbone IPTV SSIM",
    provenance="Figure 9",
    description="Backbone streaming: clean under light load, degraded by "
                "the sustained long workload regardless of buffer size.",
    scenarios=tuple(backbone(w) for w in ("noBG", "short-medium", "long")),
    buffers=(749, 7490),
    seed=4, warmup=12.0, duration=6.0, duration_min=4.0,
    params=(("clip", "C"),),
    axes=(("resolution", ("SD", "HD")),)))

register(SweepSpec(
    name="fig10a",
    kind="web",
    title="Figure 10a: access WebQoE, download activity",
    provenance="Figure 10",
    description="Median page-load time per (workload, buffer); moderate "
                "load likes large buffers, heavy load small ones.",
    scenarios=tuple(access(w, "down") for w in
                    ("noBG", "long-few", "long-many", "short-few")),
    buffers=ACCESS_BUFFER_SIZES,
    buffers_small=(8, 64, 256),
    seed=5, warmup=8.0, duration=0.0, duration_min=0.0,
    counts=(("fetches", 8, 4),)))

register(SweepSpec(
    name="fig10b",
    kind="web",
    title="Figure 10b: access WebQoE, upload activity",
    provenance="Figure 10",
    description="Upload congestion wrecks page loads; only a small uplink "
                "buffer keeps long-few barely acceptable.",
    scenarios=tuple(access(w, "up") for w in
                    ("noBG", "long-few", "short-many")),
    buffers=(8, 64, 256),
    seed=5, warmup=8.0, duration=0.0, duration_min=0.0,
    counts=(("fetches", 6, 3),)))

register(SweepSpec(
    name="fig11",
    kind="web",
    title="Figure 11: backbone WebQoE",
    provenance="Figure 11",
    description="Backbone page loads: fine under light load at every "
                "size, RTT-dominated under the sustained long workload.",
    scenarios=tuple(backbone(w) for w in
                    ("noBG", "short-low", "short-medium", "short-high",
                     "short-overload", "long")),
    scenarios_small=tuple(backbone(w) for w in
                          ("noBG", "short-medium", "long")),
    buffers=(8, 749, 7490),
    full_scale=2.0,
    seed=5, warmup=15.0, duration=0.0, duration_min=0.0,
    counts=(("fetches", 5, 3),)))
