"""Packet-level discrete-event network simulator.

This package is the "testbed hardware" substrate of the reproduction:
an event engine (:mod:`repro.sim.engine`), packets
(:mod:`repro.sim.packet`), the drop-tail bottleneck queue
(:mod:`repro.sim.queues`), store-and-forward bottleneck links (closed-form
on the testbeds, event-driven as the tests' reference) and closed-form
edge links (:mod:`repro.sim.link`), hosts/routers (:mod:`repro.sim.node`)
and the two dumbbell topologies used by the paper
(:mod:`repro.sim.topology`).

One clock drives it all.  Callbacks are scheduled with
``Simulator.call_later`` (or ``schedule_many``); a ``Timer`` is the only
cancellable kind.  Packets are plain objects that any callback may keep.
"""

from repro.sim.engine import SimTimeError, Simulator, Timer
from repro.sim.link import DropTailLink, EdgeLink, Interface
from repro.sim.node import Node
from repro.sim.packet import FLAG_ACK, FLAG_FIN, FLAG_SYN, Packet
from repro.sim.queues import DropTailQueue, Queue, QueueStats
from repro.sim.topology import (
    AccessNetwork,
    BackboneNetwork,
    DumbbellNetwork,
)

__all__ = [
    "SimTimeError",
    "Simulator",
    "Timer",
    "Interface",
    "DropTailLink",
    "EdgeLink",
    "Node",
    "Packet",
    "FLAG_SYN",
    "FLAG_ACK",
    "FLAG_FIN",
    "Queue",
    "QueueStats",
    "DropTailQueue",
    "AccessNetwork",
    "BackboneNetwork",
    "DumbbellNetwork",
]
