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

from repro.media.video_source import BITRATES, FPS, roll_into

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


def frame_types(n_frames):
    """'I'/'P' type per frame."""
    return ["I" if index % GOP_SIZE == 0 else "P" for index in range(n_frames)]


def frame_bytes(resolution, n_frames):
    """Byte budget per frame meeting the profile's target bitrate.

    Within a GOP the I frame gets ``I_TO_P_RATIO`` times a P frame's
    bytes; totals match ``bitrate * duration``.
    """
    bitrate = BITRATES[resolution]
    bytes_per_gop = bitrate / 8.0 * GOP_SIZE / FPS
    p_bytes = bytes_per_gop / (I_TO_P_RATIO + (GOP_SIZE - 1))
    i_bytes = I_TO_P_RATIO * p_bytes
    return [int(i_bytes) if t == "I" else int(p_bytes)
            for t in frame_types(n_frames)]


def slice_rows(height, slice_index):
    """Row range (start, stop) of one horizontal slice."""
    start = (height * slice_index) // SLICES_PER_FRAME
    stop = (height * (slice_index + 1)) // SLICES_PER_FRAME
    return start, max(stop, start + 1)


def decode(reference, received):
    """Decode a received stream with error concealment, frame by frame.

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
    inherits the error attenuated by :data:`PROPAGATION` until the next
    I frame.

    Yields the decoded frames in order.  They are decoded into a
    two-frame ring, so memory does not grow with the clip: a yielded
    frame is overwritten when the frame after the next one is decoded
    (copy it to keep it).

    A fully received I frame, or a fully received P frame whose
    predecessor decoded to exactly its reference, is the clipped
    reference frame (its spread error is all zero), so it is copied
    without the per-slice work.  Every other frame is decoded in place:
    the spread error of a damaged P frame is computed in one scratch
    buffer, allocated on the first one.
    """
    n_frames, height, __ = reference.shape
    types = frame_types(n_frames)
    # Locals, not module globals, in the per-slice loop.
    propagation, conceal_shift, conceal_dc = (PROPAGATION, CONCEAL_SHIFT,
                                              CONCEAL_DC_SHIFT)
    ring = np.full((2,) + reference.shape[1:], 0.5, dtype=reference.dtype)
    previous = ring[1]  # decoder start-up grey
    clean = False  # previous is exactly reference[f - 1]
    scratch = None
    for f in range(n_frames):
        current = ring[f % 2]
        if np.all(received[f]) and (clean or types[f] == "I"):
            np.clip(reference[f], 0.0, 1.0, out=current)
            clean = np.array_equal(current, reference[f])
            previous = current
            yield current
            continue
        clean = False
        if types[f] == "P" and f > 0:
            # Reference error of the previous reconstruction, dilated
            # vertically by the motion search range: P slices inherit
            # corruption from neighbouring slices at full amplitude
            # (motion vectors drag bad pixels in, they don't average
            # them away).  This is what makes percent-level slice loss
            # saturate SSIM near 0.4-0.5 within a GOP, as in Figure 9.
            if scratch is None:
                scratch = (tuple(np.empty_like(current) for __ in range(4))
                           + (np.empty(current.shape, dtype=bool),))
            spread_error = _spread_error(previous, reference[f - 1],
                                         MOTION_REACH, scratch)
        else:
            spread_error = None
        for s in range(SLICES_PER_FRAME):
            start, stop = slice_rows(height, s)
            rows = current[start:stop]
            if not received[f][s]:
                roll_into(rows, previous[start:stop], conceal_shift, axis=1)
                np.add(rows, conceal_dc, out=rows)
            elif spread_error is None:
                rows[...] = reference[f][start:stop]
            else:
                np.multiply(propagation, spread_error[start:stop], out=rows)
                np.add(reference[f][start:stop], rows, out=rows)
        np.clip(current, 0.0, 1.0, out=current)
        previous = current
        yield current


def _spread_error(previous, reference, reach, scratch):
    """The reference error dilated by ``reach`` rows each way.

    The floats of ``error = previous - reference``,
    ``spread = np.where(|up| > |error|, up, error)`` then
    ``spread = np.where(|down| > |spread|, down, spread)``, where
    ``up``/``down`` are ``error`` rolled by ``reach``/``-reach`` rows.
    They are computed in ``scratch`` (four planes like ``reference``
    and a bool mask): ``|error|`` is taken once, and each roll is read
    as its two row-slice views instead of being copied.  Returns the
    spread plane, valid until the next call.
    """
    error, magnitude, spread, spread_magnitude, mask = scratch
    np.subtract(previous, reference, out=error)
    np.abs(error, out=magnitude)
    np.copyto(spread, error)
    np.copyto(spread_magnitude, magnitude)
    rows = len(error)
    for shift in (reach % rows, -reach % rows):
        # np.roll's two pieces: rows [shift:] read [:-shift], rows
        # [:shift] read the last ``shift`` rows.
        for into, source in ((slice(shift, rows), slice(0, rows - shift)),
                             (slice(0, shift), slice(rows - shift, rows))):
            wins = mask[into]
            np.greater(magnitude[source], spread_magnitude[into], out=wins)
            np.copyto(spread[into], error[source], where=wins)
            np.copyto(spread_magnitude[into], magnitude[source], where=wins)
    return spread
