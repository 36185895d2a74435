"""RTP framing over UDP (RFC 3550 subset).

The VoIP and IPTV applications send media in RTP packets; the receiver
side reconstructs the media timeline from sequence numbers and RTP
timestamps and computes the RFC 3550 interarrival jitter estimate, which
feeds the QoS reporting.
"""

from repro.sim.packet import RTP_HEADER


class RtpPacket:
    """Application payload describing one RTP packet.

    ``media`` is an opaque object identifying the carried media unit(s) —
    a speech frame index for VoIP, a list of (frame, slice) coordinates
    for video.
    """

    __slots__ = ("seq", "timestamp", "media", "sent_at")

    def __init__(self, seq, timestamp, media, sent_at):
        self.seq = seq
        self.timestamp = timestamp
        self.media = media
        self.sent_at = sent_at

    def __repr__(self):
        return "RtpPacket(seq=%d, ts=%.4f)" % (self.seq, self.timestamp)


class RtpSender:
    """Sequencing/timestamping wrapper around a UDP socket."""

    def __init__(self, sim, node, dst_addr, dst_port):
        from repro.udp.socket import UdpSocket

        self.sim = sim
        self.socket = UdpSocket(sim, node)
        self.dst_addr = dst_addr
        self.dst_port = dst_port
        self.next_seq = 0

    def send(self, payload_bytes, timestamp, media=None):
        """Send one RTP packet; returns (packet, accepted)."""
        seq = self.next_seq
        self.next_seq = seq + 1
        rtp = RtpPacket(seq, timestamp, media, self.sim.now)
        accepted = self.socket.sendto(
            RTP_HEADER + payload_bytes, self.dst_addr, self.dst_port, rtp
        )
        return rtp, accepted

    def close(self):
        self.socket.close()


class RtpReceiver:
    """Collects RTP arrivals and computes reception statistics.

    Attributes
    ----------
    arrivals:
        List of ``(rtp_packet, arrival_time)`` in arrival order.
    jitter:
        RFC 3550 interarrival jitter estimate (seconds).
    """

    def __init__(self, sim, node, port):
        from repro.udp.socket import UdpSocket

        self.sim = sim
        self.socket = UdpSocket(sim, node, port=port, on_datagram=self._on_datagram)
        self.arrivals = []
        self.received = 0
        self.highest_seq = -1
        self.jitter = 0.0
        self._last_transit = None

    def _on_datagram(self, socket, packet):
        rtp = packet.payload
        if rtp is None:
            return
        now = self.sim.now
        self.received += 1
        if rtp.seq > self.highest_seq:
            self.highest_seq = rtp.seq
        transit = now - rtp.sent_at
        if self._last_transit is not None:
            deviation = abs(transit - self._last_transit)
            self.jitter += (deviation - self.jitter) / 16.0  # RFC 3550
        self._last_transit = transit
        self.arrivals.append((rtp, now))

    @property
    def expected(self):
        """Packets expected so far, from the highest sequence seen."""
        return self.highest_seq + 1

    @property
    def loss_rate(self):
        """Fraction of expected packets never received."""
        if self.expected <= 0:
            return 0.0
        return max(0.0, 1.0 - self.received / self.expected)

    def close(self):
        self.socket.close()
