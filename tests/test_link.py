"""Unit tests for Interface transmit accounting and the EdgeLink."""

import random

import pytest

from proputil import seeded_property
from repro.sim.engine import Simulator
from repro.sim.link import EdgeLink, Interface
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


def make_packet(size=1000):
    return Packet(src=1, dst=2, sport=1, dport=2, proto="udp", size=size)


def make_interface(sim, rate_bps=8000.0):
    sink = Node(sim, "sink", 2)  # no socket on the port: drops on arrival
    return Interface(sim, "slow", rate_bps, 0.0,
                     DropTailQueue(capacity_packets=10), sink)


def test_full_packet_credited_inside_window():
    sim = Simulator()
    iface = make_interface(sim)  # 1000 B takes exactly 1 s
    iface.send(make_packet())
    sim.run(until=2.0)
    assert iface.stats.tx_packets == 1
    assert iface.stats.tx_bytes == pytest.approx(1000.0)
    assert iface.stats.busy_time == pytest.approx(1.0)
    # 8000 bits over a 2 s window at 8000 bit/s -> 50%.
    assert iface.utilization() == pytest.approx(0.5)


def test_inflight_packet_prorated_across_reset():
    """Regression: a packet in flight across the warm-up reset must only
    credit the bytes serialized inside the new measurement window, the
    same proration reset_stats already applies to busy_time."""
    sim = Simulator()
    iface = make_interface(sim)  # 1000 B takes exactly 1 s
    iface.send(make_packet())    # serialization spans [0.0, 1.0]
    sim.run(until=0.75)
    iface.reset_stats()          # warm-up ends mid-transmission
    sim.run(until=1.75)
    # Only the final 0.25 s of the packet lies inside the window.
    assert iface.stats.tx_bytes == pytest.approx(250.0)
    assert iface.stats.busy_time == pytest.approx(0.25)
    # Window [0.75, 1.75]: 250 B * 8 / (8000 bit/s * 1 s) = 25%, not 100%.
    assert iface.utilization() == pytest.approx(0.25)


def test_back_to_back_packets_after_reset_fully_credited():
    sim = Simulator()
    iface = make_interface(sim)
    for __ in range(3):
        iface.send(make_packet())
    sim.run(until=1.5)           # 1.5 packets serialized
    iface.reset_stats()
    sim.run(until=4.0)           # remaining 1.5 packets finish by t=3
    # Half of packet #2 plus all of packet #3 fall inside the window.
    assert iface.stats.tx_bytes == pytest.approx(1500.0)
    assert iface.stats.busy_time == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# EdgeLink: the closed-form serializer must reproduce the event-driven
# Interface (with a queue that never drops) float for float.
# ---------------------------------------------------------------------------
class _Recorder:
    """A receiving host that records ``(arrival time, packet index)``."""

    def __init__(self, sim, addr):
        self.sim = sim
        self.addr = addr
        self.routes = {}
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet.payload))


def _random_traffic(rng):
    """``(send time, size)`` pairs: bursts, ties and idle gaps."""
    now, traffic = 0.0, []
    for __ in range(rng.randint(1, 120)):
        gap = rng.choice((0.0, rng.random() * 1e-4, rng.random() * 0.01))
        now += gap
        traffic.append((now, rng.randint(40, 1500)))
    return traffic


def _send_all(sim, link_send, traffic, dst):
    for index, (time, size) in enumerate(traffic):
        packet = Packet(src=1, dst=dst, sport=1, dport=2, proto="udp",
                        size=size, payload=index)
        sim.call_later(time, link_send, packet)


def _unbounded_interface(sim, name, rate, delay, dst):
    """An event-driven Interface whose queue can hold any test's traffic."""
    return Interface(sim, name, rate, delay,
                     DropTailQueue(capacity_packets=10 ** 6), dst)


@seeded_property()
def test_property_edge_link_matches_event_driven_interface(seed):
    rng = random.Random(seed)
    rate = rng.choice((1e5, 1e6, 16e6, 1e9)) * (0.5 + rng.random())
    delay = rng.choice((0.0, 1e-4, rng.random() * 0.05))
    traffic = _random_traffic(rng)
    arrivals = []
    for make_link in (_unbounded_interface, EdgeLink):
        sim = Simulator()
        host = _Recorder(sim, 2)
        link = make_link(sim, "a->b", rate, delay, host)
        _send_all(sim, link.send, traffic, host.addr)
        sim.run()
        arrivals.append(host.arrivals)
    reference, closed_form = arrivals
    assert len(reference) == len(traffic)
    assert closed_form == reference  # same floats, same order


@seeded_property(max_examples=40)
def test_property_bottleneck_cut_through_matches_forwarding(seed):
    """A bottleneck feeding an EdgeLink through a router delivers at the
    times a router forwarding onto an event-driven edge produces."""
    rng = random.Random(seed)
    bottleneck_rate = rng.choice((1e6, 16e6, 150e6))
    bottleneck_delay = rng.choice((0.0, 0.03))
    edge_rate = rng.choice((1e8, 1e9))
    edge_delay = rng.choice((1e-4, 0.005, 0.02))
    traffic = _random_traffic(rng)
    arrivals = []
    for make_edge in (_unbounded_interface, EdgeLink):
        sim = Simulator()
        router = Node(sim, "router", 1)
        host = _Recorder(sim, 2)
        router.add_route(host.addr, make_edge(sim, "router->host", edge_rate,
                                              edge_delay, host))
        bottleneck = _unbounded_interface(sim, "bottleneck", bottleneck_rate,
                                          bottleneck_delay, router)
        _send_all(sim, bottleneck.send, traffic, host.addr)
        sim.run()
        arrivals.append(host.arrivals)
        assert router.forwarded == len(traffic)
    reference, cut_through = arrivals
    assert len(reference) == len(traffic)
    assert cut_through == reference


def test_edge_link_rejects_out_of_order_entries():
    sim = Simulator()
    host = _Recorder(sim, 2)
    link = EdgeLink(sim, "a->b", 1e9, 0.001, host)
    link.send_at(make_packet(), 1.0)
    link.send_at(make_packet(), 1.0)  # a tie is in order
    with pytest.raises(ValueError, match="precedes"):
        link.send_at(make_packet(), 0.5)
    sim.run()
    assert len(host.arrivals) == 2


def test_edge_link_send_accepts_and_delivers_once_serialized():
    sim = Simulator()
    host = _Recorder(sim, 2)
    link = EdgeLink(sim, "a->b", 8000.0, 0.5, host)  # 1000 B take 1 s
    assert link.send(make_packet()) is True
    assert link.send(make_packet()) is True  # waits for the first
    assert sim.pending() == 2  # one event per packet: its arrival
    sim.run()
    assert [time for time, __ in host.arrivals] == [1.5, 2.5]
