"""Frozen typed records, one per grid-cell kind.

A record wraps one cell's JSON *payload* (the wire format produced by
:func:`repro.runner.execute.execute_task` and stored in the result
cache — this module never changes it) together with the task axes that
produced it, and gives every kind the same uniform surface:

``.scenario``
    The scenario label (``str(task.scenario)``).
``.buffer_packets``
    Packet count, or a ``(down, up)`` tuple for per-direction buffers.
``.seed`` / ``.discipline`` / ``.params``
    The remaining task axes.
``.key`` / ``.index``
    The sweep cell key and task position, when the record was built by a
    sweep-aware caller (:func:`repro.api.run_sweep`); None otherwise.
``.metrics``
    Flat ``{name: number}`` dict of every scalar metric in the payload
    (nested dicts are dot-joined, e.g. ``delay.talks``).
``.qoe``
    The cell's headline MOS-scale score, where defined (None for pure
    QoS cells).

Every kind also supports dict-style access to its payload
(``record["talks"]``, ``record["up_mean_delay"]``), and the QoE kinds
add named accessors for their headline metrics.
"""

import json
from dataclasses import dataclass

from repro.results.convert import flatten_metrics, format_buffer

#: Record classes by cell kind, filled in below.
RECORD_TYPES = {}


def _register(cls):
    RECORD_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class CellResult:
    """Base record: one executed grid cell and its payload."""

    scenario: str
    buffer_packets: object  # packets: int, or a (down, up) tuple
    seed: int
    discipline: str
    params: tuple  # kind-specific parameters as a sorted item tuple
    payload: object  # the JSON wire-format payload (never mutated)
    key: tuple = None  # sweep cell key, e.g. ("long-few", 64, "codel")
    index: int = None  # position within the sweep's task list

    kind = None  # overridden per subclass

    # -- construction ---------------------------------------------------
    @classmethod
    def from_payload(cls, task, payload, key=None, index=None):
        """Build a record from a :class:`repro.runner.task.CellTask` and
        its (fresh or cache-loaded) JSON payload."""
        return cls(scenario=str(task.scenario),
                   buffer_packets=task.buffer_packets, seed=task.seed,
                   discipline=task.discipline, params=task.params,
                   payload=payload, key=key, index=index)

    # -- uniform accessors ----------------------------------------------
    @property
    def params_dict(self):
        return dict(self.params)

    @property
    def metrics(self):
        """Every scalar numeric metric of the payload, flattened.

        Memoized: the record is frozen and payloads are never mutated,
        and the ResultSet verbs (filter/pivot/sort) hit this per record
        several times.
        """
        cached = self.__dict__.get("_metrics")
        if cached is None:
            cached = flatten_metrics(self.payload)
            object.__setattr__(self, "_metrics", cached)
        return cached

    @property
    def qoe(self):
        """Headline MOS-scale score of the cell; None where undefined."""
        return None

    def value(self, name):
        """Uniform column lookup: record axes, then params, then metrics.

        ``"buffer"`` is accepted as an alias for ``buffer_packets``.
        Raises KeyError for unknown columns.
        """
        if name == "buffer":
            name = "buffer_packets"
        if name in ("kind", "scenario", "buffer_packets", "seed",
                    "discipline", "key", "index", "qoe"):
            return getattr(self, name)
        params = self.params_dict
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

        Axis columns first (kind/scenario/buffer/seed/discipline, plus
        the cell key when set), then params, then every metric.  Floats
        pass through unformatted — ``str()`` round-trips them exactly.
        """
        row = {
            "kind": self.kind,
            "scenario": self.scenario,
            "buffer": format_buffer(self.buffer_packets),
            "seed": self.seed,
            "discipline": self.discipline,
        }
        if self.key is not None:
            row["key"] = "/".join(str(part) for part in self.key)
        for name, value in sorted(self.params_dict.items()):
            if isinstance(value, (list, tuple)):
                value = json.dumps(list(value))
            row[name] = value
        row.update(self.metrics)
        return row

    def summary(self):
        """One-line human summary of the cell (the CLI's per-cell line)."""
        return str(self.payload)

    # -- dict-style payload access ---------------------------------------
    def __getitem__(self, name):
        return self.payload[name]

    def get(self, name, default=None):
        try:
            return self.payload.get(name, default)
        except AttributeError:
            return default

    def keys(self):
        return self.payload.keys()


@_register
@dataclass(frozen=True)
class QosResult(CellResult):
    """Background-traffic QoS cell (Table 1 / Figures 4-5)."""

    kind = "qos"

    def summary(self):
        payload = self.payload
        return ("down util %5.1f%%  up util %5.1f%%  loss %5.2f%%/%5.2f%%  "
                "mean delay %4.0f/%4.0f ms" % (
                    payload["down_utilization"] * 100,
                    payload["up_utilization"] * 100,
                    payload["down_loss"] * 100, payload["up_loss"] * 100,
                    payload["down_mean_delay"] * 1000,
                    payload["up_mean_delay"] * 1000))


@_register
@dataclass(frozen=True)
class VoipResult(CellResult):
    """VoIP cell (Figures 7-8): per-direction median MOS and delay."""

    kind = "voip"

    @property
    def directions(self):
        """Call directions present in the cell, sorted."""
        return tuple(sorted(name for name, value in self.payload.items()
                            if isinstance(value, (int, float))))

    def mos(self, direction):
        """Median combined MOS of one direction."""
        return self.payload[direction]

    def delay(self, direction):
        """Median mouth-to-ear delay (seconds) of one direction."""
        return self.payload["delay"][direction]

    @property
    def qoe(self):
        """The call's governing MOS: the worse of its directions."""
        scores = [value for name, value in self.payload.items()
                  if isinstance(value, (int, float))]
        return min(scores) if scores else None

    def summary(self):
        payload = self.payload
        parts = ["%s MOS %.1f" % (direction, mos)
                 for direction, mos in sorted(payload.items())
                 if isinstance(mos, float)]
        parts += ["m2e %s %.0f ms" % (direction, delay * 1000)
                  for direction, delay in sorted(
                      payload.get("delay", {}).items())]
        return "  ".join(parts)


@_register
@dataclass(frozen=True)
class VideoResult(CellResult):
    """IPTV video cell (Figure 9): SSIM/PSNR/MOS and loss fractions."""

    kind = "video"

    @property
    def ssim(self):
        return self.payload["ssim"]

    @property
    def psnr(self):
        return self.payload["psnr"]

    @property
    def mos(self):
        return self.payload["mos"]

    @property
    def packet_loss(self):
        return self.payload["packet_loss"]

    @property
    def qoe(self):
        return self.payload["mos"]

    def summary(self):
        payload = self.payload
        return "SSIM %.2f  MOS %.1f  pkt loss %.1f%%" % (
            payload["ssim"], payload["mos"], payload["packet_loss"] * 100)


@_register
@dataclass(frozen=True)
class WebResult(CellResult):
    """Web page-load cell (Figures 10-11): PLT series and G.1030 MOS."""

    kind = "web"

    @property
    def median_plt(self):
        return self.payload["median_plt"]

    @property
    def p80_plt(self):
        return self.payload["p80_plt"]

    @property
    def plts(self):
        return self.payload["plts"]

    @property
    def mos(self):
        return self.payload["mos"]

    @property
    def qoe(self):
        return self.payload["mos"]

    def summary(self):
        payload = self.payload
        return "median PLT %.2f s  MOS %.1f" % (
            payload["median_plt"], payload["mos"])


def record_from_payload(task, payload, key=None, index=None):
    """Build the right typed record for ``task.kind`` from its payload."""
    try:
        cls = RECORD_TYPES[task.kind]
    except KeyError:
        raise ValueError("no record type for cell kind %r (have %s)"
                         % (task.kind, sorted(RECORD_TYPES))) from None
    return cls.from_payload(task, payload, key=key, index=index)
