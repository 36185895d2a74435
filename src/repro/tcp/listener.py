"""Passive TCP endpoints."""

from repro.tcp.cc import Reno
from repro.tcp.connection import TcpConnection


class TcpListener:
    """Accepts incoming connections on a port.

    Parameters
    ----------
    sim, node, port:
        Where to listen.
    on_connection:
        ``fn(connection)`` invoked for every new connection *before* the
        SYN is processed, so the application can attach callbacks (e.g.
        ``on_data``) without racing the handshake.
    cc_factory:
        Zero-argument callable building the congestion controller for
        each accepted connection; defaults to Reno.
    """

    def __init__(self, sim, node, port, on_connection=None, cc_factory=None,
                 delayed_ack=True):
        self.sim = sim
        self.node = node
        self.port = port
        self.on_connection = on_connection
        self.cc_factory = cc_factory if cc_factory is not None else Reno
        self.delayed_ack = delayed_ack
        self.accepted = 0
        node.register_tcp_listener(port, self)

    def handle_packet(self, packet):
        """Process a SYN with no established connection (from the node demux)."""
        from repro.sim.packet import FLAG_ACK, FLAG_SYN

        if not (packet.flags & FLAG_SYN) or (packet.flags & FLAG_ACK):
            return  # stray segment for a connection we no longer track
        connection = TcpConnection(
            self.sim,
            self.node,
            peer_addr=packet.src,
            peer_port=packet.sport,
            local_port=self.port,
            cc=self.cc_factory(),
            delayed_ack=self.delayed_ack,
        )
        self.accepted += 1
        if self.on_connection is not None:
            self.on_connection(connection)
        connection.handle_syn(packet)

    def close(self):
        """Stop accepting new connections."""
        self.node.unregister_tcp_listener(self.port)

    def __repr__(self):
        return "TcpListener(%s:%d, accepted=%d)" % (
            self.node.name,
            self.port,
            self.accepted,
        )
