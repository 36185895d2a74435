"""VoIP calls over RTP (Section 7's application under test).

A :class:`VoipCall` streams one 8-second G.711-encoded speech sample in
20 ms RTP packets (160-byte payloads, 50 pps) from one host to another
through whatever background traffic the testbed carries — the PjSIP
setup of the paper.  After the call, the receiver side reconstructs the
played signal through the playout buffer and concealment, producing
everything the QoE models need (degraded signal, effective loss, mouth-
to-ear delay).
"""

from functools import lru_cache

import numpy as np

from repro.media.g711 import codec_round_trip
from repro.media.playout import PlayoutBuffer, reconstruct_signal
from repro.media.speech import synthesize_speech
from repro.sim.packet import RTP_HEADER
from repro.udp import RtpReceiver, UdpSocket

FRAME_SECONDS = 0.020
FRAME_SAMPLES = 160  # 20 ms at 8 kHz
PAYLOAD_BYTES = 160  # one byte per sample with G.711

#: Jitter-buffer depth at the receiver, in seconds.
PLAYOUT_DELAY = 0.100


@lru_cache(maxsize=64)
def call_media(sample_seed, duration):
    """Reference media for one sample: (frames tuple, clean signal).

    ``frames`` are codec round-tripped 20 ms chunks — what an error-free
    call would play; ``clean`` is their concatenation, the PESQ
    reference.
    """
    raw = synthesize_speech(sample_seed, duration=duration)
    n_frames = len(raw) // FRAME_SAMPLES
    frames = tuple(
        codec_round_trip(raw[i * FRAME_SAMPLES:(i + 1) * FRAME_SAMPLES])
        for i in range(n_frames)
    )
    clean = np.concatenate(frames)
    return frames, clean


class VoipCall:
    """One unidirectional call leg.

    Parameters
    ----------
    sim:
        Driving simulator.
    src_node, dst_node:
        Speaker and listener hosts.
    port:
        Receiver UDP port (unique per concurrent call leg).
    sample_seed, duration:
        Which reference sample to stream and its length in seconds.
    """

    def __init__(self, sim, src_node, dst_node, port, sample_seed=1000,
                 duration=8.0):
        self.sim = sim
        self.src_node = src_node
        self.dst_node = dst_node
        self.port = port
        self.duration = duration
        self.playout = PlayoutBuffer(FRAME_SECONDS, PLAYOUT_DELAY)
        self.frames, self.clean_signal = call_media(sample_seed, duration)
        self.n_frames = len(self.frames)
        self.send_times = {}
        self.receiver = None
        self.sender = None
        self._sent = 0
        self._send_frame_cb = self._send_frame  # bound once: runs per frame

    def start(self):
        """Begin streaming now; frames go out every 20 ms."""
        self.receiver = RtpReceiver(self.sim, self.dst_node, self.port)
        self.sender = UdpSocket(self.sim, self.src_node)
        self._send_frame(0)
        return self

    @property
    def end_time(self):
        """Simulated time when the last frame has been sent."""
        return self.sim.now + (self.n_frames - self._sent) * FRAME_SECONDS

    def _send_frame(self, index):
        if index >= self.n_frames:
            return
        self.send_times[index] = self.sim.now
        self.sender.sendto(RTP_HEADER + PAYLOAD_BYTES, self.dst_node.addr,
                           self.port, index)
        self._sent += 1
        self.sim.call_later(FRAME_SECONDS, self._send_frame_cb, index + 1)

    def finish(self):
        """Close sockets and return the playout outcome + degraded signal.

        Returns ``(playout_result, degraded_signal)``.
        """
        arrivals = {}
        for media, arrival_time in self.receiver.arrivals:
            arrivals.setdefault(media, arrival_time)
        result = self.playout.schedule(arrivals, self.n_frames,
                                       self.send_times)
        degraded = reconstruct_signal(list(self.frames), result.statuses)
        self.receiver.close()
        self.sender.close()
        return result, degraded
