"""Receiver-side playout (jitter) buffer with loss concealment.

VoIP receivers delay playout by a fixed offset from the first arrival so
that network jitter does not interrupt the stream; packets arriving
after their scheduled playout instant are as good as lost.  Lost or late
frames are concealed G.711-Appendix-I style: repeat the last good frame
with decaying amplitude, then mute.

The buffer also reports the *mouth-to-ear* delay (network + buffering +
codec), which feeds the E-model delay impairment (z2).
"""

from dataclasses import dataclass, field

import numpy as np

#: One-way codec + packetization overhead added to the mouth-to-ear
#: delay (G.711 frame assembly plus device processing).
CODEC_DELAY = 0.025

#: Concealment: each consecutive lost frame repeats the last good one
#: attenuated by another factor of ``CONCEAL_DECAY``; after
#: ``MUTE_AFTER`` repeats the output is muted.
CONCEAL_DECAY = 0.5
MUTE_AFTER = 3


@dataclass
class PlayoutResult:
    """Outcome of playing one call's worth of frames."""

    statuses: list  # per frame: "ok" | "late" | "lost"
    mouth_to_ear_delay: float  # mean, seconds
    playout_delay: float
    frames: int = 0
    ok: int = 0
    late: int = 0
    lost: int = 0
    arrival_delays: list = field(default_factory=list)

    @property
    def effective_loss_rate(self):
        """Fraction of frames not played (lost or late)."""
        if self.frames == 0:
            return 0.0
        return (self.late + self.lost) / self.frames


class PlayoutBuffer:
    """Fixed-delay playout schedule anchored at the first arrival.

    Parameters
    ----------
    frame_duration:
        Media frame spacing (20 ms for G.711 at 50 pps).
    playout_delay:
        Buffering applied to the first received frame; later frames play
        at ``first_arrival + playout_delay + k * frame_duration``.
    """

    def __init__(self, frame_duration=0.020, playout_delay=0.060):
        self.frame_duration = frame_duration
        self.playout_delay = playout_delay

    def schedule(self, arrivals, n_frames, send_times):
        """Classify every frame of a stream.

        ``arrivals`` maps frame index -> arrival time (first arrival wins
        for duplicates); ``send_times`` maps frame index -> send time.
        """
        statuses = []
        ok = late = lost = 0
        delays = []
        if arrivals:
            first_index = min(arrivals)
            anchor = (arrivals[first_index]
                      - first_index * self.frame_duration
                      + self.playout_delay)
        else:
            anchor = None
        mouth_to_ear = []
        for index in range(n_frames):
            arrival = arrivals.get(index)
            if arrival is None:
                statuses.append("lost")
                lost += 1
                continue
            playout_at = anchor + index * self.frame_duration
            delays.append(arrival - send_times[index])
            if arrival <= playout_at + 1e-12:
                statuses.append("ok")
                ok += 1
                mouth_to_ear.append(playout_at - send_times[index])
            else:
                statuses.append("late")
                late += 1
        mean_m2e = (float(np.mean(mouth_to_ear)) + CODEC_DELAY
                    if mouth_to_ear else self.playout_delay + CODEC_DELAY)
        return PlayoutResult(
            statuses=statuses,
            mouth_to_ear_delay=mean_m2e,
            playout_delay=self.playout_delay,
            frames=n_frames,
            ok=ok,
            late=late,
            lost=lost,
            arrival_delays=delays,
        )


def reconstruct_signal(reference_frames, statuses):
    """Rebuild the played signal applying concealment.

    ``reference_frames`` is the list of decoded (codec round-tripped)
    frames the sender emitted; frames whose status is not ``"ok"`` are
    concealed by repeating the last good frame attenuated by
    :data:`CONCEAL_DECAY` per consecutive loss, muted after
    :data:`MUTE_AFTER` repeats.
    """
    decay, mute_after = CONCEAL_DECAY, MUTE_AFTER  # locals in the loop
    pieces = []
    last_good = None
    consecutive = 0
    for frame, status in zip(reference_frames, statuses):
        if status == "ok":
            pieces.append(frame)
            last_good = frame
            consecutive = 0
        else:
            consecutive += 1
            if last_good is None or consecutive > mute_after:
                pieces.append(np.zeros_like(frame))
            else:
                pieces.append(last_good * (decay ** consecutive))
    if not pieces:
        return np.zeros(0)
    return np.concatenate(pieces)
