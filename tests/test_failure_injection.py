"""Failure injection: TCP delivery integrity under random packet drops.

A lossy queue drops every packet with independent probability; whatever
the drop rate, the byte stream the application receives must be exactly
the byte stream sent — no loss, no duplication, no reordering of
message boundaries — and connections must still close cleanly.
"""

import numpy as np
import pytest

from reference_link import FifoQueue, Interface
from repro.sim import Simulator
from repro.sim.node import Node
from repro.tcp import Cubic, Reno, TcpConnection, TcpListener
from repro.util.units import MBPS, ms


class RandomDropQueue(FifoQueue):
    """Drop-tail queue that also drops arrivals with probability ``p``."""

    def __init__(self, capacity_packets, p, rng):
        super().__init__(capacity_packets=capacity_packets)
        self.p = p
        self.rng = rng

    def push(self, packet, now):
        if self.rng.random() < self.p:
            self._reject(packet)
            return False
        return super().push(packet, now)


def lossy_pair(p, seed, rate_bps=8 * MBPS, delay=ms(10)):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    a = Node(sim, "a", 1)
    b = Node(sim, "b", 2)
    a_to_b = Interface(sim, "a->b", rate_bps, delay,
                       RandomDropQueue(200, p, rng), b)
    b_to_a = Interface(sim, "b->a", rate_bps, delay,
                       RandomDropQueue(200, p, rng), a)
    a.set_default_route(a_to_b)
    b.set_default_route(b_to_a)
    return sim, a, b


@pytest.mark.parametrize("p", [0.01, 0.05, 0.10])
@pytest.mark.parametrize("cc_cls", [Reno, Cubic])
def test_exact_delivery_under_random_loss(p, cc_cls):
    sim, a, b = lossy_pair(p, seed=int(p * 1000) + 1)
    got = {"bytes": 0, "messages": []}

    def on_server_conn(conn):
        for index in range(4):
            conn.send(60_000, meta=index)
        conn.close()

    TcpListener(sim, b, 80, on_connection=on_server_conn,
                cc_factory=cc_cls)
    client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80,
                           cc=cc_cls())
    client.on_data = lambda c, n: got.__setitem__("bytes", got["bytes"] + n)
    client.on_message = lambda c, meta: got["messages"].append(meta)
    client.on_peer_fin = lambda c: c.close()
    client.connect()
    sim.run(until=600)
    assert got["bytes"] == 240_000  # exactly once, every byte
    assert got["messages"] == [0, 1, 2, 3]  # boundaries in order
    assert client.state == "closed"
    assert not a.tcp_connections
    assert not b.tcp_connections


def test_bidirectional_exchange_under_loss():
    sim, a, b = lossy_pair(0.05, seed=9)
    got = {"resp": 0, "req": 0}

    def on_server_conn(conn):
        conn.on_data = lambda c, n: got.__setitem__("req", got["req"] + n)
        conn.on_message = lambda c, meta: (c.send(80_000, meta="resp"),
                                           c.close())

    TcpListener(sim, b, 80, on_connection=on_server_conn)
    client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
    client.on_established = lambda c: c.send(50_000, meta="req")
    client.on_data = lambda c, n: got.__setitem__("resp", got["resp"] + n)
    client.on_peer_fin = lambda c: c.close()
    client.connect()
    sim.run(until=300)
    assert got["req"] == 50_000
    assert got["resp"] == 80_000


def test_extreme_loss_eventually_completes():
    # 25% loss: progress is RTO-driven but the stream must still finish.
    sim, a, b = lossy_pair(0.25, seed=4)
    got = {"bytes": 0}

    def on_server_conn(conn):
        conn.send(20_000, meta="file")
        conn.close()

    TcpListener(sim, b, 80, on_connection=on_server_conn)
    client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
    client.on_data = lambda c, n: got.__setitem__("bytes", got["bytes"] + n)
    client.on_peer_fin = lambda c: c.close()
    client.connect()
    sim.run(until=1200)
    assert got["bytes"] == 20_000


def test_handshake_survives_syn_loss():
    # Force the first SYNs to vanish; the retry path must connect anyway.
    sim, a, b = lossy_pair(0.5, seed=12)
    established = []
    TcpListener(sim, b, 80)
    client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
    client.on_established = lambda c: established.append(sim.now)
    client.connect()
    sim.run(until=120)
    assert established, "handshake never completed despite retries"
