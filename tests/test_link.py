"""Unit tests for Interface transmit accounting, the EdgeLink and the
closed-form DropTailLink."""

import random

import pytest

from proputil import seeded_property
from repro.sim.engine import Simulator
from repro.sim.link import DropTailLink, EdgeLink, Interface, InterfaceStats
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, Queue, QueueStats
from repro.sim.stats import UtilizationSampler


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
    # 8000 bits over a 2 s window at 8000 bit/s -> 50%.
    assert iface.utilization() == pytest.approx(0.5)


def test_inflight_packet_prorated_across_reset():
    """Regression: a packet in flight across the warm-up reset must only
    credit the bytes serialized inside the new measurement window."""
    sim = Simulator()
    iface = make_interface(sim)  # 1000 B takes exactly 1 s
    iface.send(make_packet())    # serialization spans [0.0, 1.0]
    sim.run(until=0.75)
    iface.reset_stats()          # warm-up ends mid-transmission
    sim.run(until=1.75)
    # Only the final 0.25 s of the packet lies inside the window.
    assert iface.stats.tx_bytes == pytest.approx(250.0)
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


# ---------------------------------------------------------------------------
# EdgeLink: the closed-form serializer must reproduce the event-driven
# Interface (with a queue that never drops) float for float.
# ---------------------------------------------------------------------------
class _Recorder(Node):
    """A receiving host that records ``(arrival time, packet index)``."""

    def __init__(self, sim, addr):
        super().__init__(sim, "host%d" % addr, addr)
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


# ---------------------------------------------------------------------------
# DropTailLink: the closed-form drop-tail bottleneck must reproduce the
# event-driven Interface with a DropTailQueue, drop for drop, float for
# float, counter for counter.
# ---------------------------------------------------------------------------
def _offer_all(sim, link, offers, verdicts):
    """Offer ``(sched, arrive, size)`` packets to ``link``.

    At ``sched`` the packet's arrival at ``arrive`` is scheduled and
    ``scheduled_at`` stamped, as an upstream EdgeLink does.  Appends
    ``(index, accepted)`` to ``verdicts`` per arrival.
    """
    def arrive(packet):
        verdicts.append((packet.payload, link.send(packet)))

    def schedule(packet, time):
        packet.scheduled_at = sim.now
        sim.call_later(time - sim.now, arrive, packet)

    for index, (sched, time, size) in enumerate(offers):
        packet = Packet(src=1, dst=2, sport=1, dport=2, proto="udp",
                        size=size, payload=index)
        sim.call_later(sched, schedule, packet, time)


def _counters(link, node):
    """Everything a reader can see of a bottleneck and its egress node."""
    queue = link.queue.stats
    stats = link.stats
    return ([getattr(queue, name) for name in QueueStats.__slots__],
            [getattr(stats, name) for name in InterfaceStats.__slots__],
            node.forwarded, link.backlog())


def _run_bottleneck(make_link, offers, rate, delay, capacity, cut_through,
                    reset_at, bin_seconds, end):
    """Run ``offers`` through one bottleneck; returns what it observed."""
    sim = Simulator()
    host = _Recorder(sim, 2)
    if cut_through:  # via a router that hands packets to an edge link
        node = Node(sim, "router", 3)
        node.add_route(host.addr, EdgeLink(sim, "router->host", 1e9, 1e-3,
                                           host))
    else:  # straight into the host's receive event
        node = host
    link = make_link(sim, "bottleneck", rate, delay,
                     DropTailQueue(capacity_packets=capacity), node)
    verdicts = []
    _offer_all(sim, link, offers, verdicts)
    sim.run(until=reset_at)
    before_reset = _counters(link, node)
    link.reset_stats()
    sampler = UtilizationSampler(sim, link, bin_seconds)
    sampler.start()
    sim.run(until=end)
    sampler.stop()
    return {"verdicts": verdicts, "arrivals": host.arrivals,
            "before_reset": before_reset, "end": _counters(link, node),
            "utilization": link.utilization(), "samples": sampler.samples}


def _tie_traffic(rng, byte_time):
    """``(sched, arrive, size)`` offers that tie with completions.

    Arrivals lie on the grid of one byte's serialization time, where
    every start and finish lies too, so arrivals often fall at exactly
    a completion time.  Scheduling times lie half a byte off the grid,
    or at the arrival itself: either way they never equal the start of
    a packet finishing at the arrival, so the engine's order at a tie is
    the one the tie rule predicts, whichever side of that start the
    arrival was scheduled on.
    """
    arrive, offers = 4096 * byte_time, []
    for __ in range(rng.randint(1, 150)):
        arrive += byte_time * rng.choice(
            (0, 40, 1500, rng.randrange(3000)))
        if rng.random() < 0.2:
            sched = arrive  # scheduled at its own arrival time
        else:
            sched = arrive - byte_time * (rng.randrange(4095) + 0.5)
        offers.append((sched, arrive, rng.choice((40, 1500))))
    return offers


@seeded_property(max_examples=80)
def test_property_drop_tail_link_matches_event_driven_interface(seed):
    rng = random.Random(seed)
    rate = float(2 ** rng.choice((17, 20, 24)))
    byte_time = 8.0 / rate
    offers = _tie_traffic(rng, byte_time)
    last = offers[-1][1]
    # The reset lies on the grid; sampler bins are an odd number of
    # half bytes, so every second tick lies on the grid too, armed off it.
    reset_at = byte_time * round(rng.random() * last / byte_time)
    bin_seconds = byte_time * (2 * rng.randrange(100, 3000) + 1) / 2
    kwargs = dict(rate=rate, delay=rng.choice((0.0, 1e-3, 0.03)),
                  capacity=rng.randint(1, 16),
                  cut_through=rng.random() < 0.5, reset_at=reset_at,
                  bin_seconds=bin_seconds,
                  end=last + 20 * 1500 * byte_time)
    reference = _run_bottleneck(Interface, offers, **kwargs)
    closed_form = _run_bottleneck(DropTailLink, offers, **kwargs)
    assert len(reference["verdicts"]) == len(offers)
    assert closed_form == reference


def _tie_case(sched):
    """Capacity 1, 1000 B per second.  A (t=0) finishes at 1; B (t=0.5)
    serializes over [1, 2]; X (t=1.5) waits for B.  C arrives at exactly
    2.0, when B finishes and X starts; C was scheduled at ``sched``."""
    offers = [(0.0, 0.0, 1000), (0.25, 0.5, 1000), (0.75, 1.5, 1000),
              (sched, 2.0, 1000)]
    results = [_run_bottleneck(make_link, offers, rate=8000.0, delay=0.0,
                               capacity=1, cut_through=True,
                               reset_at=1.0, bin_seconds=1.0, end=10.0)
               for make_link in (Interface, DropTailLink)]
    assert results[1] == results[0]
    return dict(results[1]["verdicts"])[3]


def test_arrival_scheduled_before_the_finishing_packet_started_goes_first():
    # Scheduled at 0.5, before B started (1.0): C arrives before B's
    # completion, X still waits, and the full buffer drops C.
    assert _tie_case(sched=0.5) is False


def test_completion_scheduled_before_the_arrival_goes_first():
    # Scheduled at 1.5, after B started: B's completion runs first, X
    # leaves the buffer for the serializer, and C is accepted.
    assert _tie_case(sched=1.5) is True


def test_sampler_tick_sees_completions_by_the_tie_rule():
    # 1000 B per second; ticks every second from 0.  A (750 B, from
    # 0.25) finishes exactly at the tick at 1, but started after that
    # tick was armed: it counts in the second bin.  B (1500 B, from
    # 2.5) finishes at the tick at 4 and started before it was armed
    # (at 3): it counts in the fourth bin.
    offers = [(0.0, 0.25, 750), (0.0, 2.5, 1500)]
    results = [_run_bottleneck(make_link, offers, rate=8000.0, delay=0.0,
                               capacity=4, cut_through=False,
                               reset_at=0.0, bin_seconds=1.0, end=4.5)
               for make_link in (Interface, DropTailLink)]
    assert results[1] == results[0]
    assert results[1]["samples"] == [0.0, 0.75, 0.0, 1.0]


class _OtherQueue(Queue):
    """A queue with some other drop policy; only its type matters here."""

    __slots__ = ()


def test_drop_tail_link_needs_a_drop_tail_queue():
    sim = Simulator()
    with pytest.raises(TypeError, match="DropTailQueue"):
        DropTailLink(sim, "other", 1e6, 0.0, _OtherQueue(capacity_packets=8),
                     _Recorder(sim, 2))
