"""Workload scenario catalog (Table 1).

Each :class:`Scenario` fully describes the background traffic of one row
of Table 1: how many Harpoon sessions or long-lived flows run in each
direction and with which parameters.

Calibration note
----------------
The paper states the file-size distribution exactly
(Weibull(0.35, 10039), mean ~50 KB) but describes the session behaviour
only as "Harpoon's default parameters" with inter-arrival means of 2 s
(access, "exp-a") and 1 s (backbone, "exp-b").  Taken literally as one
transfer per session per inter-arrival, those numbers produce a fraction
of the utilizations Table 1 reports (e.g. ~10% instead of 44% for
short-few downstream).  Harpoon sessions issue several concurrent
transfers; we calibrate the *effective* per-session inter-arrival so the
measured utilizations match Table 1:

* access downstream: 0.5 s (nominal 2 s) → short-few ~40%, short-many ~79%
* access upstream: 0.3 s with a deep per-session cap → sustained ~99%
  uplink utilization and tens of piled-up concurrent flows, as reported
* backbone: 0.5 s (nominal 1 s) → 16.5% / 49% / 98% / overload, matching
  short-low/-medium/-high/-overload

Congestion control follows §5.2: TCP Reno for the backbone background
traffic, CUBIC (BIC available) for the access testbed.
"""

from dataclasses import dataclass

#: Calibrated effective inter-arrival means (see module docstring).
ACCESS_DOWN_INTERARRIVAL = 0.45
ACCESS_UP_INTERARRIVAL = 0.12
BACKBONE_INTERARRIVAL = 0.5

#: Per-session outstanding-transfer caps.
ACCESS_DOWN_CAP = 8
ACCESS_UP_CAP = 35
BACKBONE_CAP = 3


@dataclass(frozen=True)
class Scenario:
    """Background traffic for one experiment.

    ``*_sessions`` are Harpoon session counts ("short" workloads);
    ``*_flows`` are long-lived flow counts ("long" workloads).  A
    scenario may combine both directions (the bidirectional access
    rows).  ``*_interarrival`` are mean inter-transfer times in seconds.
    """

    name: str
    testbed: str  # "access" | "backbone"
    direction: str  # "down" | "up" | "bidir" | "none"
    kind: str  # "none" | "short" | "long"
    down_sessions: int = 0
    up_sessions: int = 0
    down_flows: int = 0
    up_flows: int = 0
    down_interarrival: float = ACCESS_DOWN_INTERARRIVAL
    up_interarrival: float = ACCESS_UP_INTERARRIVAL
    down_session_cap: int = ACCESS_DOWN_CAP
    up_session_cap: int = ACCESS_UP_CAP
    cc: str = "cubic"

    @property
    def label(self):
        """Row label as used in the paper's figures."""
        if self.kind == "none":
            return "noBG"
        return self.name

    def __str__(self):
        return "%s/%s[%s]" % (self.testbed, self.name, self.direction)


# ---------------------------------------------------------------------------
# Access testbed (Table 1, upper half).  Base workload shapes; the three
# direction rows of the table are derived by access_scenario().
# ---------------------------------------------------------------------------
_ACCESS_BASE = {
    "noBG": dict(kind="none"),
    "short-few": dict(kind="short", up_sessions=1, down_sessions=8),
    "short-many": dict(kind="short", up_sessions=1, down_sessions=16),
    "long-few": dict(kind="long", up_flows=1, down_flows=8),
    "long-many": dict(kind="long", up_flows=8, down_flows=64),
}

ACCESS_WORKLOAD_NAMES = ("noBG", "short-few", "short-many",
                         "long-few", "long-many")
ACCESS_DIRECTIONS = ("down", "up", "bidir")


def access_scenario(name, direction="down", cc="cubic"):
    """Build one access-testbed scenario row.

    ``direction`` selects which side of the base workload is active:
    ``"down"`` (downstream congestion only), ``"up"`` (upstream only) or
    ``"bidir"`` (both, the rows that triggered the bufferbloat debate).
    """
    try:
        base = dict(_ACCESS_BASE[name])
    except KeyError:
        raise ValueError("unknown access workload %r (have %s)"
                         % (name, sorted(_ACCESS_BASE))) from None
    kind = base.pop("kind")
    if kind == "none":
        return Scenario(name=name, testbed="access", direction="none",
                        kind="none", cc=cc)
    if direction not in ACCESS_DIRECTIONS:
        raise ValueError("direction must be one of %s" % (ACCESS_DIRECTIONS,))
    if direction == "down":
        base["up_sessions"] = 0
        base["up_flows"] = 0
    elif direction == "up":
        base["down_sessions"] = 0
        base["down_flows"] = 0
    return Scenario(name=name, testbed="access", direction=direction,
                    kind=kind, cc=cc, **{k: v for k, v in base.items()})


#: The full access catalog: noBG plus every (workload, direction) pair.
ACCESS_SCENARIOS = tuple(
    [access_scenario("noBG")]
    + [access_scenario(name, direction)
       for name in ACCESS_WORKLOAD_NAMES if name != "noBG"
       for direction in ACCESS_DIRECTIONS]
)


# ---------------------------------------------------------------------------
# Backbone testbed (Table 1, lower half).  All traffic flows downstream
# (servers -> clients); session counts follow the paper's 3 x N notation.
# ---------------------------------------------------------------------------
_BACKBONE_BASE = {
    "noBG": dict(kind="none"),
    "short-low": dict(kind="short", down_sessions=3 * 10),
    "short-medium": dict(kind="short", down_sessions=3 * 30),
    "short-high": dict(kind="short", down_sessions=3 * 60),
    "short-overload": dict(kind="short", down_sessions=3 * 256),
    "long": dict(kind="long", down_flows=3 * 256),
}

BACKBONE_WORKLOAD_NAMES = ("noBG", "short-low", "short-medium",
                           "short-high", "short-overload", "long")


def backbone_scenario(name, cc="reno"):
    """Build one backbone-testbed scenario row."""
    try:
        base = dict(_BACKBONE_BASE[name])
    except KeyError:
        raise ValueError("unknown backbone workload %r (have %s)"
                         % (name, sorted(_BACKBONE_BASE))) from None
    kind = base.pop("kind")
    if kind == "none":
        return Scenario(name=name, testbed="backbone", direction="none",
                        kind="none", cc=cc)
    return Scenario(
        name=name, testbed="backbone", direction="down", kind=kind, cc=cc,
        down_interarrival=BACKBONE_INTERARRIVAL,
        down_session_cap=BACKBONE_CAP,
        **{k: v for k, v in base.items()},
    )


#: The full backbone catalog in Table 1 order.
BACKBONE_SCENARIOS = tuple(
    backbone_scenario(name) for name in BACKBONE_WORKLOAD_NAMES
)
