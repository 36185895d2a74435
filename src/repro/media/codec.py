"""H.264-like slice-structured codec model (§8.1).

The paper encodes each clip with H.264 using 32 slices per frame "to
keep errors localized".  What the QoE outcome depends on is captured
here without entropy coding:

* GOP structure: one I frame then P frames (predicted from the previous
  reconstructed frame);
* each frame split into 32 horizontal slices, the unit of loss;
* a rate model assigning bytes per frame/slice to hit the target
  bitrate, with I frames ~4x the size of P frames;
* a decoder with standard error concealment: a missing slice is frozen
  from the previous decoded frame; a received P slice on top of a
  corrupted reference inherits (attenuated) propagation error until the
  next I frame refreshes it.
"""

import numpy as np

from repro.media.video_source import BITRATES, FPS

SLICES_PER_FRAME = 32
GOP_SIZE = 12  # ~1 s at 12.5 fps
I_TO_P_RATIO = 4.0

#: Fraction of reference error a received P slice inherits (leaky
#: motion-compensated prediction; ~1 means errors persist until the next
#: I frame, as they do in practice without intra refresh).
PROPAGATION = 1.0

#: Vertical reach (rows) of motion compensation: received P slices pull
#: reference pixels from up to this far into neighbouring slices, which
#: spreads corruption spatially frame over frame.  This is why percent-
#: level slice loss saturates real H.264 SSIM near 0.4-0.5 (Figure 9).
MOTION_REACH = 10

#: Horizontal displacement (pixels) of the concealment patch.  Real
#: decoders conceal with motion-compensated copies whose vectors are
#: guesses; the misalignment is what destroys local structure and drives
#: SSIM down (the paper sees ~0.45-0.55 at percent-level loss).
CONCEAL_SHIFT = 14

#: Brightness error of the concealment patch (lost DC coefficients).
CONCEAL_DC_SHIFT = 0.06


def frame_types(n_frames, gop=GOP_SIZE):
    """'I'/'P' type per frame."""
    return ["I" if index % gop == 0 else "P" for index in range(n_frames)]


def frame_bytes(resolution, n_frames, fps=FPS, gop=GOP_SIZE):
    """Byte budget per frame meeting the profile's target bitrate.

    Within a GOP the I frame gets ``I_TO_P_RATIO`` times a P frame's
    bytes; totals match ``bitrate * duration``.
    """
    bitrate = BITRATES[resolution]
    bytes_per_gop = bitrate / 8.0 * gop / fps
    p_bytes = bytes_per_gop / (I_TO_P_RATIO + (gop - 1))
    i_bytes = I_TO_P_RATIO * p_bytes
    return [int(i_bytes) if t == "I" else int(p_bytes)
            for t in frame_types(n_frames, gop)]


def slice_rows(height, slice_index, n_slices=SLICES_PER_FRAME):
    """Row range (start, stop) of one horizontal slice."""
    start = (height * slice_index) // n_slices
    stop = (height * (slice_index + 1)) // n_slices
    return start, max(stop, start + 1)


def decode(reference, received, gop=GOP_SIZE, propagation=PROPAGATION,
           conceal_shift=CONCEAL_SHIFT, conceal_dc=CONCEAL_DC_SHIFT,
           motion_reach=MOTION_REACH):
    """Decode a received stream with error concealment.

    Parameters
    ----------
    reference:
        [frames, height, width] clean decoded frames (the sender-side
        reconstruction — the SSIM reference).
    received:
        Boolean [frames, slices] matrix: slice arrived completely and on
        time.

    A lost slice is concealed with a *displaced* copy of the co-located
    region of the previous decoded frame (wrong motion vectors) plus a
    DC error; a received P slice whose reference region is corrupted
    inherits the error attenuated by ``propagation`` until the next I
    frame.  Returns the decoded frames.

    A fully received I frame, or a fully received P frame whose
    predecessor decoded to exactly its reference, is the clipped
    reference frame (its spread error is all zero), so it is copied
    without the per-slice work.
    """
    n_frames, height, __ = reference.shape
    types = frame_types(n_frames, gop)
    decoded = np.empty_like(reference)
    previous = np.full_like(reference[0], 0.5)  # decoder start-up grey
    clean = False  # previous is exactly reference[f - 1]
    for f in range(n_frames):
        if np.all(received[f]) and (clean or types[f] == "I"):
            np.clip(reference[f], 0.0, 1.0, out=decoded[f])
            previous = decoded[f]
            clean = np.array_equal(previous, reference[f])
            continue
        clean = False
        current = np.empty_like(previous)
        if types[f] == "P" and f > 0:
            # Reference error of the previous reconstruction, dilated
            # vertically by the motion search range: P slices inherit
            # corruption from neighbouring slices at full amplitude
            # (motion vectors drag bad pixels in, they don't average
            # them away).  This is what makes percent-level slice loss
            # saturate SSIM near 0.4-0.5 within a GOP, as in Figure 9.
            error = previous - reference[f - 1]
            up = np.roll(error, motion_reach, axis=0)
            down = np.roll(error, -motion_reach, axis=0)
            spread_error = np.where(np.abs(up) > np.abs(error), up, error)
            spread_error = np.where(np.abs(down) > np.abs(spread_error),
                                    down, spread_error)
        else:
            spread_error = None
        for s in range(SLICES_PER_FRAME):
            start, stop = slice_rows(height, s)
            if received[f][s]:
                if spread_error is None:
                    current[start:stop] = reference[f][start:stop]
                else:
                    current[start:stop] = (
                        reference[f][start:stop]
                        + propagation * spread_error[start:stop])
            else:
                patch = np.roll(previous[start:stop], conceal_shift, axis=1)
                current[start:stop] = patch + conceal_dc
        np.clip(current, 0.0, 1.0, out=current)
        decoded[f] = current
        previous = current
    return decoded
