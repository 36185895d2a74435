"""RTP/UDP video streaming, VLC-style with smoothing (§8.1).

The sender chops each encoded frame into 32 slices, packs them into
MPEG-TS cells (7 per RTP packet) and — crucially — *smooths* the
transmission schedule: the paper configures VLC with a 1-second
smoothing window because bursting a whole frame at line rate instantly
overflows access-link buffers.  We pace packets at the constant stream
bitrate, the limit of that smoothing.

The receiver records which RTP packets arrived within the playout
deadline; a slice is decodable iff every packet carrying part of it
made it.  There is no error recovery: the paper's §8.1 numbers are the
baseline without the set-top-box's proprietary retransmissions.
"""

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from repro.media.codec import SLICES_PER_FRAME, frame_bytes
from repro.media.mpegts import packetize, slice_packet_map
from repro.media.video_source import FPS, generate_clip
from repro.sim.packet import RTP_HEADER
from repro.udp import RtpReceiver, UdpSocket

#: Playout deadline relative to each packet's send time; later arrivals
#: count as lost (IPTV set-top-boxes buffer well under two seconds).
DEADLINE = 1.0


@lru_cache(maxsize=16)
def clip_frames(clip, resolution, n_frames):
    """Cached reference frames for (clip, resolution, length).

    Every cell of the process shares the clip, so it is read-only.
    """
    frames = generate_clip(clip, resolution, n_frames=n_frames)
    frames.setflags(write=False)
    return frames


@lru_cache(maxsize=16)
def build_packet_plan(resolution, n_frames):
    """Slice sizes and packet layout for one stream, cached per shape.

    Returns ``(plans, slice_map)``: a tuple of
    :class:`repro.media.mpegts.PacketPlan` and a read-only mapping of
    ``(frame, slice)`` to the tuple of its packet indices.  Every stream
    of that shape in the process shares them.
    """
    per_frame = frame_bytes(resolution, n_frames)
    slice_sizes = []
    for frame_index, total in enumerate(per_frame):
        base = total // SLICES_PER_FRAME
        for slice_index in range(SLICES_PER_FRAME):
            extra = 1 if slice_index < total % SLICES_PER_FRAME else 0
            slice_sizes.append(((frame_index, slice_index), base + extra))
    plans = tuple(packetize(slice_sizes))
    return plans, MappingProxyType({
        key: tuple(packets)
        for key, packets in slice_packet_map(plans).items()})


class VideoStream:
    """One paced video stream between two hosts.

    Parameters
    ----------
    sim, src_node, dst_node, port:
        Endpoints (IPTV flows travel server -> client).
    clip, resolution:
        Content class ("A"/"B"/"C") and profile ("SD" 4 Mbit/s /
        "HD" 8 Mbit/s).
    duration:
        Stream length in seconds (the paper's clips run 16 s).
    """

    def __init__(self, sim, src_node, dst_node, port, clip="C",
                 resolution="SD", duration=8.0):
        self.sim = sim
        self.src_node = src_node
        self.dst_node = dst_node
        self.port = port
        self.clip = clip
        self.resolution = resolution
        self.n_frames = max(1, int(duration * FPS))
        self.plans, self.slice_map = build_packet_plan(resolution,
                                                       self.n_frames)
        self.duration = self.n_frames / FPS
        self.send_times = {}
        self.receiver = None
        self.sender = None

    def start(self):
        """Begin pacing packets at the stream bitrate."""
        self.receiver = RtpReceiver(self.sim, self.dst_node, self.port)
        self.sender = UdpSocket(self.sim, self.src_node)
        interval = self.duration / len(self.plans)
        self.sim.schedule_many(
            (index * interval, self._send_plan, (plan,))
            for index, plan in enumerate(self.plans))
        return self

    @property
    def end_time(self):
        return self.duration + DEADLINE

    def _send_plan(self, plan):
        self.send_times[plan.index] = self.sim.now
        self.sender.sendto(RTP_HEADER + plan.payload_bytes,
                           self.dst_node.addr, self.port, plan.index)

    def finish(self):
        """Close sockets; return the [frames, slices] reception matrix."""
        on_time = set()
        deadline = DEADLINE
        for packet_index, arrival in self.receiver.arrivals:
            sent = self.send_times.get(packet_index)
            if sent is not None and arrival - sent <= deadline:
                on_time.add(packet_index)
        received = np.zeros((self.n_frames, SLICES_PER_FRAME), dtype=bool)
        for (frame_index, slice_index), packets in self.slice_map.items():
            received[frame_index][slice_index] = all(
                p in on_time for p in packets)
        self.receiver.close()
        self.sender.close()
        return received

    @property
    def packet_loss_rate(self):
        """Wire-level loss of the stream (for Figure 9's discussion)."""
        if self.receiver is None or not self.plans:
            return 0.0
        got = len({media for media, __ in self.receiver.arrivals})
        return max(0.0, 1.0 - got / len(self.plans))
