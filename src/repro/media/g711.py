"""G.711 A-law (PCMA) codec — the narrow-band codec of the paper's calls.

Vectorized clean-room implementation of the ITU-T G.711 A-law companding
tables: 13-bit linear PCM mapped to 8-bit log-companded bytes across 8
segments.  Round-tripping speech through it yields the familiar ~38 dB
SNR, so the codec contributes the same (negligible relative to packet
loss) distortion as in the real system.
"""

import numpy as np

_SEG_END = np.array(
    [0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF, 0x1FFF, 0x3FFF, 0x7FFF], dtype=np.int32
)


def alaw_encode(pcm):
    """Encode int16 PCM samples to A-law bytes (uint8).

    Accepts any integer/float array; values are clipped to int16 range.
    """
    pcm = np.asarray(pcm)
    pcm = np.clip(np.round(pcm), -32768, 32767).astype(np.int32)
    sign_mask = np.where(pcm >= 0, 0xD5, 0x55).astype(np.uint8)
    magnitude = np.abs(pcm)
    np.clip(magnitude, 0, 0x7FFF, out=magnitude)

    # Segment number: index of the first segment end >= magnitude.
    segment = np.searchsorted(_SEG_END, magnitude)
    low = magnitude >> 4  # segment 0 encoding (linear region)
    shifted = (magnitude >> (segment + 3)) & 0x0F
    high = (segment << 4) | shifted
    aval = np.where(magnitude < 256, low, high).astype(np.uint8)
    return aval ^ sign_mask


def alaw_decode(alaw):
    """Decode A-law bytes back to int16 PCM samples."""
    alaw = np.asarray(alaw, dtype=np.uint8).astype(np.int32)
    sign = np.where((alaw & 0x80) != 0, 1, -1)
    value = alaw ^ 0x55
    value &= 0x7F
    mantissa = (value & 0x0F) << 4
    segment = (value & 0x70) >> 4
    decoded = np.where(
        segment == 0,
        mantissa + 8,
        (mantissa + 0x108) << np.maximum(segment - 1, 0),
    )
    return (sign * decoded).astype(np.int16)


def codec_round_trip(pcm):
    """Encode + decode, returning the companded signal (float64)."""
    return alaw_decode(alaw_encode(pcm)).astype(np.float64)
