"""Cell task descriptions for the grid runner.

A :class:`CellTask` is the declarative unit of work of every paper grid:
one (scenario, buffer size, seed) cell plus the measurement windows that
fully determine its result.  Tasks are frozen, picklable (so they can
cross a process-pool boundary) and carry a stable content hash that keys
the on-disk result cache.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass

from repro.runner.execute import CELLS

#: Bump when the meaning of a cached payload changes incompatibly.
#: v2: voip payloads carry a per-direction "delay" entry (seconds).
CACHE_SCHEMA_VERSION = 2

#: Cell kinds, the kinds :mod:`repro.runner.execute` has a cell function for.
KINDS = tuple(CELLS)


def _check_cell_values(kind, scenario, buffer_packets, warmup, duration):
    """Raise ``ValueError`` for a cell no simulation can give meaning to."""
    buffers = (buffer_packets if isinstance(buffer_packets, tuple)
               else (buffer_packets,))
    if len(buffers) not in (1, 2) or not all(
            type(packets) is int and packets >= 1 for packets in buffers):
        raise ValueError("buffer size must be a packet count of at least 1, "
                         "or a (down, up) pair of them; got %r"
                         % (buffer_packets,))
    if len(buffers) == 2 and scenario.testbed == "backbone":
        raise ValueError("the backbone testbed has one buffer size for both "
                         "directions; got the (down, up) pair %r"
                         % (buffer_packets,))
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ValueError("warmup must be a finite number of seconds >= 0, "
                         "got %r" % (warmup,))
    if kind != "web" and not (math.isfinite(duration) and duration > 0):
        raise ValueError("duration must be a finite number of seconds > 0, "
                         "got %r" % (duration,))


def _jsonable(value):
    """Make hash inputs canonical: tuples become lists, recursively."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class CellTask:
    """One grid cell: everything that determines one simulation's result.

    ``params`` holds kind-specific keyword arguments (e.g. ``calls`` and
    ``directions`` for VoIP cells) as a sorted item tuple so the task
    stays hashable; build tasks through :meth:`make`, which accepts them
    as plain keywords and rejects buffers, warm-ups and windows out of
    range.  ``warmup``/``duration`` are simulated seconds;
    ``buffer_packets`` is a packet count (or a per-direction pair).
    """

    kind: str
    scenario: object  # repro.core.scenarios.Scenario
    buffer_packets: object  # packets: int, or a (down, up) tuple
    seed: int = 0
    warmup: float = 5.0  # seconds (simulated) before measurement
    duration: float = 20.0  # measurement window, seconds (simulated)
    params: tuple = ()

    @classmethod
    def make(cls, kind, scenario, buffer_packets, seed=0, warmup=5.0,
             duration=20.0, **params):
        if kind not in KINDS:
            raise ValueError("unknown cell kind %r (have %s)" % (kind, KINDS))
        if isinstance(buffer_packets, list):
            buffer_packets = tuple(buffer_packets)
        _check_cell_values(kind, scenario, buffer_packets, warmup, duration)
        if kind == "web":
            # Web cells run a fixed fetch count, not a measurement window;
            # normalize the unused knob so semantically identical cells
            # share one cache key.
            duration = 0.0
        return cls(kind=kind, scenario=scenario,
                   buffer_packets=buffer_packets, seed=seed, warmup=warmup,
                   duration=duration, params=tuple(sorted(params.items())))

    @property
    def params_dict(self):
        return dict(self.params)

    @property
    def label(self):
        """Short human-readable cell label for progress lines."""
        return "%s %s buf=%s seed=%d" % (
            self.kind, self.scenario, self.buffer_packets, self.seed)

    def describe(self):
        """Stable JSON-ready description of the task (the hash input)."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": self.kind,
            "scenario": _jsonable(asdict(self.scenario)),
            "buffer_packets": _jsonable(self.buffer_packets),
            "seed": self.seed,
            "warmup": self.warmup,
            "duration": self.duration,
            "params": _jsonable(self.params_dict),
        }

    def content_hash(self):
        """Hex digest identifying the task's full configuration."""
        blob = json.dumps(self.describe(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
