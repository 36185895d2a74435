"""Minimal UDP socket bound to a node port."""

from repro.sim.packet import IPV4_HEADER, UDP_HEADER, Packet

_UDP_OVERHEAD = IPV4_HEADER + UDP_HEADER


class UdpSocket:
    """A bound UDP endpoint.

    Parameters
    ----------
    sim, node:
        Where the socket lives.
    port:
        Local port; an ephemeral one is allocated when omitted.
    on_datagram:
        ``fn(socket, packet)`` callback for received datagrams.
    """

    __slots__ = ("sim", "node", "port", "on_datagram", "_closed")

    def __init__(self, sim, node, port=None, on_datagram=None):
        self.sim = sim
        self.node = node
        self.port = node.allocate_port() if port is None else port
        self.on_datagram = on_datagram
        self._closed = False
        node.register_udp(self.port, self)

    def sendto(self, payload_len, dst_addr, dst_port, payload=None):
        """Send a datagram of ``payload_len`` application bytes.

        Returns False if a queue along the first hop dropped it.
        """
        if self._closed:
            raise RuntimeError("sendto() on closed socket")
        node = self.node
        packet = Packet(
            node.addr,               # src
            dst_addr,
            self.port,               # sport
            dst_port,
            "udp",
            _UDP_OVERHEAD + payload_len,
            0,                       # seq
            0,                       # ack_no
            0,                       # flags
            payload_len,
            0.0,                     # ts
            -1.0,                    # ts_echo
            payload,
        )
        return node.send(packet)

    def handle_packet(self, packet):
        """Entry point from the node's UDP demultiplexer."""
        if self.on_datagram is not None:
            self.on_datagram(self, packet)

    def close(self):
        """Unbind the port."""
        if not self._closed:
            self._closed = True
            self.node.unregister_udp(self.port)

    def __repr__(self):
        return "UdpSocket(%s:%d)" % (self.node.name, self.port)
