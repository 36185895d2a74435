"""RTP media over UDP: the receiver side.

The VoIP and IPTV applications send each media unit in one UDP datagram
of ``RTP_HEADER`` plus payload bytes, whose packet payload is the media
index.  The receiver records ``(media, arrival time)`` pairs; the
applications rebuild the media timeline from them.
"""

from repro.udp.socket import UdpSocket


class RtpReceiver:
    """Collects media arrivals on one port.

    Attributes
    ----------
    arrivals:
        List of ``(media, arrival_time)`` in arrival order.
    """

    def __init__(self, sim, node, port):
        self.sim = sim
        self.socket = UdpSocket(sim, node, port=port,
                                on_datagram=self._on_datagram)
        self.arrivals = []

    def _on_datagram(self, socket, packet):
        self.arrivals.append((packet.payload, self.sim.now))

    def close(self):
        self.socket.close()
