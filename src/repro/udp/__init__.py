"""UDP sockets and the RTP receiver for the media applications."""

from repro.udp.rtp import RtpReceiver
from repro.udp.socket import UdpSocket

__all__ = ["UdpSocket", "RtpReceiver"]
