"""Packet-level discrete-event network simulator.

This package is the "testbed hardware" substrate of the reproduction:
an event engine (:mod:`repro.sim.engine`), packets
(:mod:`repro.sim.packet`), queue disciplines including drop-tail, RED and
CoDel (:mod:`repro.sim.queues`), store-and-forward and closed-form edge links
(:mod:`repro.sim.link`), hosts/routers (:mod:`repro.sim.node`) and the two
dumbbell topologies used by the paper (:mod:`repro.sim.topology`).
"""

from repro.sim.engine import Event, SimTimeError, Simulator, Timer
from repro.sim.link import EdgeLink, Interface
from repro.sim.node import Node
from repro.sim.packet import FLAG_ACK, FLAG_FIN, FLAG_SYN, Packet
from repro.sim.queues import CoDelQueue, DropTailQueue, Queue, QueueStats, REDQueue
from repro.sim.topology import (
    AccessNetwork,
    BackboneNetwork,
    DumbbellNetwork,
)

__all__ = [
    "Event",
    "SimTimeError",
    "Simulator",
    "Timer",
    "Interface",
    "EdgeLink",
    "Node",
    "Packet",
    "FLAG_SYN",
    "FLAG_ACK",
    "FLAG_FIN",
    "Queue",
    "QueueStats",
    "DropTailQueue",
    "REDQueue",
    "CoDelQueue",
    "AccessNetwork",
    "BackboneNetwork",
    "DumbbellNetwork",
]
