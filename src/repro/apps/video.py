"""RTP/UDP video streaming, VLC-style with smoothing (§8.1).

The sender chops each encoded frame into 32 slices, packs them into
MPEG-TS cells (7 per RTP packet) and — crucially — *smooths* the
transmission schedule: the paper configures VLC with a 1-second
smoothing window because bursting a whole frame at line rate instantly
overflows access-link buffers.  We pace packets at the constant stream
bitrate, the limit of that smoothing.

The receiver records which RTP packets arrived within the playout
deadline; a slice is decodable iff every packet carrying part of it
made it.  An optional ARQ mode retransmits each lost packet once after
an RTT (the proprietary IPTV set-top-box recovery of §8.1, used by the
ablation benchmark; the paper's baseline has it off).
"""

from functools import lru_cache

import numpy as np

from repro.media.codec import SLICES_PER_FRAME, frame_bytes
from repro.media.mpegts import packetize, slice_packet_map
from repro.media.video_source import FPS, generate_clip
from repro.sim.packet import RTP_HEADER
from repro.udp import RtpReceiver, UdpSocket

#: Playout deadline relative to each packet's send time; later arrivals
#: count as lost (IPTV set-top-boxes buffer well under two seconds).
DEADLINE = 1.0

#: Round-trip time the ARQ mode waits out (twice) before it resends.
ARQ_RTT = 0.1


@lru_cache(maxsize=16)
def clip_frames(clip, resolution, n_frames):
    """Cached reference frames for (clip, resolution, length)."""
    return generate_clip(clip, resolution, n_frames=n_frames)


def build_packet_plan(resolution, n_frames):
    """Slice sizes and packet layout for one stream."""
    per_frame = frame_bytes(resolution, n_frames)
    slice_sizes = []
    for frame_index, total in enumerate(per_frame):
        base = total // SLICES_PER_FRAME
        for slice_index in range(SLICES_PER_FRAME):
            extra = 1 if slice_index < total % SLICES_PER_FRAME else 0
            slice_sizes.append(((frame_index, slice_index), base + extra))
    plans = packetize(slice_sizes)
    return plans, slice_packet_map(plans)


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
    arq:
        When True, retransmit each missing packet once (ablation A3).
    """

    def __init__(self, sim, src_node, dst_node, port, clip="C",
                 resolution="SD", duration=8.0, arq=False):
        self.sim = sim
        self.src_node = src_node
        self.dst_node = dst_node
        self.port = port
        self.clip = clip
        self.resolution = resolution
        self.n_frames = max(1, int(duration * FPS))
        self.arq = arq
        self.plans, self.slice_map = build_packet_plan(resolution,
                                                       self.n_frames)
        self.duration = self.n_frames / FPS
        self.send_times = {}
        self.receiver = None
        self.sender = None
        self._retransmitted = set()

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
        return self.duration + DEADLINE + 4 * ARQ_RTT

    def _send_plan(self, plan, retransmission=False):
        self.send_times.setdefault(plan.index, self.sim.now)
        self.sender.sendto(RTP_HEADER + plan.payload_bytes,
                           self.dst_node.addr, self.port, plan.index)
        if self.arq and not retransmission:
            self.sim.call_later(ARQ_RTT * 2.0, self._maybe_retransmit,
                                plan)

    def _maybe_retransmit(self, plan):
        if plan.index in self._retransmitted:
            return
        arrived = any(media == plan.index
                      for media, __ in self.receiver.arrivals)
        if not arrived:
            self._retransmitted.add(plan.index)
            self._send_plan(plan, retransmission=True)

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
