"""One frozen record type for every grid-cell kind.

A :class:`CellResult` wraps one cell's JSON *payload* (the wire format
produced by :func:`repro.runner.execute.execute_task` and stored in the
result cache — this module never changes it) together with the task
axes that produced it:

``.kind``
    The cell kind (``qos``/``voip``/``video``/``web``).
``.scenario``
    The scenario label (``str(task.scenario)``).
``.buffer_packets``
    Packet count, or a ``(down, up)`` tuple for per-direction buffers.
``.seed`` / ``.params``
    The remaining task axes.
``.key`` / ``.index``
    The sweep cell key and task position, when the record was built by a
    sweep-aware caller (:func:`repro.api.run_sweep`); None otherwise.
``.metrics``
    Flat ``{name: number}`` dict of every scalar metric in the payload
    (nested dicts are dot-joined, e.g. ``delay.talks``).

``record[name]`` reads the payload (``record["talks"]``,
``record["delay"]["talks"]``); ``record.value(name)`` looks up any
column — axis, param or metric.  What a payload entry means is defined
by the kind's cell function that builds it and the figure catalog that
reads it; the record only carries it.
"""

import json
from dataclasses import dataclass

from repro.results.convert import flatten_metrics, format_buffer


_AXES = ("kind", "scenario", "buffer_packets", "seed", "key", "index")


@dataclass(frozen=True)
class CellResult:
    """One executed grid cell and its payload."""

    kind: str  # the task's cell kind, one of repro.runner.task.KINDS
    scenario: str
    buffer_packets: object  # packets: int, or a (down, up) tuple
    seed: int
    params: tuple  # kind-specific parameters as a sorted item tuple
    payload: object  # the JSON wire-format payload (never mutated)
    key: tuple = None  # sweep cell key, e.g. ("long-few", 64, "HD")
    index: int = None  # position within the sweep's task list

    @property
    def metrics(self):
        """Every scalar numeric metric of the payload, flattened.

        Memoized: the record is frozen and payloads are never mutated,
        and the figure catalog looks up several columns per record.
        """
        cached = self.__dict__.get("_metrics")
        if cached is None:
            cached = flatten_metrics(self.payload)
            object.__setattr__(self, "_metrics", cached)
        return cached

    def value(self, name):
        """Uniform column lookup: record axes, then params, then metrics.

        ``"buffer"`` is accepted as an alias for ``buffer_packets``.
        Raises KeyError for unknown columns.
        """
        if name == "buffer":
            name = "buffer_packets"
        if name in _AXES:
            return getattr(self, name)
        params = dict(self.params)
        if name in params:
            return params[name]
        metrics = self.metrics
        if name in metrics:
            return metrics[name]
        raise KeyError("record has no column %r (have axes, params %s and "
                       "metrics %s)" % (name, sorted(params),
                                        sorted(metrics)))

    def to_row(self):
        """Flat ``{column: scalar}`` dict for tabular export.

        Axis columns first (kind/scenario/buffer/seed, plus
        the cell key when set), then params, then every metric.  Floats
        pass through unformatted — ``str()`` round-trips them exactly.
        """
        row = {
            "kind": self.kind,
            "scenario": self.scenario,
            "buffer": format_buffer(self.buffer_packets),
            "seed": self.seed,
        }
        if self.key is not None:
            row["key"] = "/".join(str(part) for part in self.key)
        for name, value in sorted(self.params):
            if isinstance(value, (list, tuple)):
                value = json.dumps(list(value))
            row[name] = value
        row.update(self.metrics)
        return row

    def __getitem__(self, name):
        return self.payload[name]


def record_from_payload(task, payload, key=None, index=None):
    """Build the record of a :class:`repro.runner.task.CellTask` from its
    (fresh or cache-loaded) JSON payload."""
    from repro.runner.task import KINDS  # the runner imports this module

    if task.kind not in KINDS:
        raise ValueError("no record type for cell kind %r (have %s)"
                         % (task.kind, KINDS))
    return CellResult(kind=task.kind, scenario=str(task.scenario),
                      buffer_packets=task.buffer_packets, seed=task.seed,
                      params=task.params, payload=payload, key=key,
                      index=index)
