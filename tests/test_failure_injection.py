"""Failure injection: TCP delivery integrity under random packet drops.

A lossy queue drops every packet with independent probability; whatever
the drop rate, the byte stream the application receives must be exactly
the byte stream sent — no loss, no duplication — and connections must
still close cleanly.
"""

import numpy as np
import pytest

from reference_link import FifoQueue, Interface
from repro.apps.web import PAGE_OBJECTS, PageFetch, WebServer
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


class AckBlackoutQueue(FifoQueue):
    """Drop-tail queue that drops every segment acknowledging peer data
    while ``blackout()`` holds, and logs the sequence number of every
    data segment it accepts."""

    def __init__(self, blackout=lambda: False):
        super().__init__(capacity_packets=200)
        self.blackout = blackout
        self.accepted = []

    def push(self, packet, now):
        if packet.ack_no > 1 and self.blackout():
            self._reject(packet)
            return False
        accepted = super().push(packet, now)
        if accepted and packet.payload_len:
            self.accepted.append(packet.seq)
        return accepted


def pair(a_to_b_queue, b_to_a_queue, rate_bps=8 * MBPS, delay=ms(10)):
    sim = Simulator()
    a = Node(sim, "a", 1)
    b = Node(sim, "b", 2)
    a.set_default_route(Interface(sim, "a->b", rate_bps, delay,
                                  a_to_b_queue, b))
    b.set_default_route(Interface(sim, "b->a", rate_bps, delay,
                                  b_to_a_queue, a))
    return sim, a, b


def lossy_pair(p, seed):
    rng = np.random.default_rng(seed)
    return pair(RandomDropQueue(200, p, rng), RandomDropQueue(200, p, rng))


@pytest.mark.parametrize("p", [0.01, 0.05, 0.10])
@pytest.mark.parametrize("cc_cls", [Reno, Cubic])
def test_exact_delivery_under_random_loss(p, cc_cls):
    sim, a, b = lossy_pair(p, seed=int(p * 1000) + 1)
    got = {"bytes": 0}

    def on_server_conn(conn):
        for __ in range(4):
            conn.send(60_000)
        conn.close()

    TcpListener(sim, b, 80, on_connection=on_server_conn,
                cc_factory=cc_cls)
    client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80,
                           cc=cc_cls())
    client.on_data = lambda c, n: got.__setitem__("bytes", got["bytes"] + n)
    client.on_peer_fin = lambda c: c.close()
    client.connect()
    sim.run(until=600)
    assert got["bytes"] == 240_000  # exactly once, every byte
    assert client.state == "closed"
    assert not a.tcp_connections
    assert not b.tcp_connections


def test_bidirectional_exchange_under_loss():
    sim, a, b = lossy_pair(0.05, seed=9)
    got = {"resp": 0, "req": 0}

    def on_request_data(conn, nbytes):
        got["req"] += nbytes
        if got["req"] == 50_000:  # the whole request is in: answer it
            conn.send(80_000)
            conn.close()

    def on_server_conn(conn):
        conn.on_data = on_request_data

    TcpListener(sim, b, 80, on_connection=on_server_conn)
    client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
    client.on_established = lambda c: c.send(50_000)
    client.on_data = lambda c, n: got.__setitem__("resp", got["resp"] + n)
    client.on_peer_fin = lambda c: c.close()
    client.connect()
    sim.run(until=300)
    assert got["req"] == 50_000
    assert got["resp"] == 80_000


def fetch_page(sim, client, server):
    """Fetch the page from a :class:`WebServer` on ``server``; returns the
    fetch and the server's accepted connections."""
    web = WebServer(sim, server)
    accepted = []
    accept = web.listener.on_connection
    web.listener.on_connection = lambda c: (accepted.append(c), accept(c))
    fetch = PageFetch(sim, client, server.addr).start()
    sim.run(until=600)
    return fetch, accepted


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_page_fetch_answers_each_request_once_under_loss(seed):
    sim, a, b = lossy_pair(0.1, seed)
    fetch, [server] = fetch_page(sim, a, b)
    assert fetch.done and not fetch.failed
    # SYN and FIN take one sequence number each; the rest is the page.
    assert server.snd_nxt == 1 + sum(PAGE_OBJECTS) + 1
    assert server.state == "closed"


def test_duplicate_request_is_answered_once():
    # The server's answer to the first request and its ACKs are lost
    # until the client's RTO has resent the request and the server has
    # received it twice; the fetch can only finish after that.
    requests = AckBlackoutQueue()
    sim, a, b = pair(requests, AckBlackoutQueue(
        lambda: requests.accepted.count(1) < 2))
    fetch, [server] = fetch_page(sim, a, b)
    assert fetch.done and not fetch.failed
    assert server.snd_nxt == 1 + sum(PAGE_OBJECTS) + 1


def test_extreme_loss_eventually_completes():
    # 25% loss: progress is RTO-driven but the stream must still finish.
    sim, a, b = lossy_pair(0.25, seed=4)
    got = {"bytes": 0}

    def on_server_conn(conn):
        conn.send(20_000)
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
