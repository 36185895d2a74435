"""Shared helpers for building small test networks."""

from reference_link import FifoQueue, Interface
from repro.sim import Simulator
from repro.sim.node import Node
from repro.tcp import TcpConnection, TcpListener
from repro.util.units import MBPS, ms


def two_hosts(rate_bps=10 * MBPS, delay=ms(10), queue_packets=100):
    """Two hosts joined by a symmetric full-duplex link.

    Returns ``(sim, a, b)``.  The queue on each direction holds
    ``queue_packets`` packets.
    """
    sim = Simulator()
    a = Node(sim, "a", 1)
    b = Node(sim, "b", 2)
    a_to_b = Interface(sim, "a->b", rate_bps, delay,
                       FifoQueue(capacity_packets=queue_packets), b)
    b_to_a = Interface(sim, "b->a", rate_bps, delay,
                       FifoQueue(capacity_packets=queue_packets), a)
    a.set_default_route(a_to_b)
    b.set_default_route(b_to_a)
    return sim, a, b


class TransferRecorder:
    """Collects receiver-side events for assertions."""

    def __init__(self):
        self.bytes = 0
        self.established = 0
        self.peer_fin = 0
        self.closed = 0
        self.close_times = []

    def attach(self, connection):
        connection.on_data = self._on_data
        connection.on_established = self._on_established
        connection.on_peer_fin = self._on_peer_fin
        connection.on_close = self._on_close
        return connection

    def _on_data(self, connection, nbytes):
        self.bytes += nbytes

    def _on_established(self, connection):
        self.established += 1

    def _on_peer_fin(self, connection):
        self.peer_fin += 1

    def _on_close(self, connection):
        self.closed += 1
        self.close_times.append(connection.sim.now)


def run_transfer(nbytes, rate_bps=10 * MBPS, delay=ms(10), queue_packets=100,
                 cc_factory=None, until=60.0):
    """Server sends ``nbytes`` to a connecting client; returns recorder + conns.

    The server closes after sending; the client closes on peer FIN, so the
    whole exchange finishes with both endpoints closed.
    """
    sim, a, b = two_hosts(rate_bps, delay, queue_packets)
    recorder = TransferRecorder()

    def on_server_conn(conn):
        conn.send(nbytes)
        conn.close()

    TcpListener(sim, b, 80, on_connection=on_server_conn,
                cc_factory=cc_factory)
    client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
    recorder.attach(client)
    client.on_peer_fin = lambda c: (recorder._on_peer_fin(c), c.close())
    client.connect()
    sim.run(until=until)
    return sim, recorder, client
