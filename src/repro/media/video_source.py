"""Procedural video sources for the three content classes (§8.1).

The paper uses three 16-second clips chosen for different motion/detail
profiles: A) an interview scene (low motion), B) a soccer match (high
motion, fine texture), C) a movie (medium motion with a scene cut).
These generators synthesize luminance-only frames with exactly those
motion characteristics; each clip is deterministic given its class.

Resolutions are scaled down from broadcast SD/HD to keep full-reference
metrics fast while preserving the SD-vs-HD relationships (HD has ~2.3x
the pixels and double the bitrate, as in the paper).
"""

import numpy as np

#: (width, height) of the scaled-down profiles.
RESOLUTIONS = {"SD": (320, 180), "HD": (480, 270)}

#: Target bitrates (bit/s), exactly the paper's encodings.
BITRATES = {"SD": 4_000_000, "HD": 8_000_000}

FPS = 12.5
CLIP_SECONDS = 16.0


def _field_texture(rng, width, height):
    """Smooth random texture (low-pass filtered noise)."""
    spectrum = np.fft.rfft2(rng.standard_normal((height, width)))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    spectrum *= 1.0 / (1.0 + ((fx ** 2 + fy ** 2) * 400.0))  # low-pass
    textured = np.fft.irfft2(spectrum, s=(height, width))
    textured -= textured.min()
    peak = textured.max()
    if peak > 0:
        textured /= peak
    return textured


def roll_into(out, source, shift, axis):
    """``out[...] = np.roll(source, shift, axis)`` as two slice copies."""
    n = source.shape[axis]
    shift %= n
    head = [slice(None)] * source.ndim
    tail = list(head)
    head[axis], tail[axis] = slice(shift, n), slice(0, n - shift)
    out[tuple(head)] = source[tuple(tail)]
    head[axis], tail[axis] = slice(0, shift), slice(n - shift, n)
    out[tuple(head)] = source[tuple(tail)]


def _add_blob(frame, layer, xx, yy, cx, cy, radius, amplitude):
    """Add a Gaussian blob to ``frame``, computed in ``layer``.

    ``xx``/``yy`` are the pixel coordinates as a row and a column
    vector; they broadcast to the frame element for element.
    """
    np.add((xx - cx) ** 2, (yy - cy) ** 2, out=layer)
    np.divide(layer, 2.0 * radius ** 2, out=layer)
    np.negative(layer, out=layer)
    np.exp(layer, out=layer)
    np.multiply(amplitude, layer, out=layer)
    np.add(frame, layer, out=frame)


def _add_noise(frame, layer, rng, scale):
    """Add ``scale`` times a standard normal draw to ``frame``."""
    rng.standard_normal(out=layer)
    np.multiply(scale, layer, out=layer)
    np.add(frame, layer, out=frame)


def _backdrop(frame, texture, shift, axis, offset, gain):
    """``frame = offset + gain * np.roll(texture, shift, axis)``."""
    roll_into(frame, texture, shift, axis)
    np.multiply(gain, frame, out=frame)
    np.add(offset, frame, out=frame)


def generate_clip(clip, resolution="SD", n_frames=None):
    """Generate one clip as a float32 array [frames, height, width] in [0,1].

    ``clip`` is ``"A"`` (interview), ``"B"`` (soccer) or ``"C"`` (movie).
    Each frame is composed in float64 in two reused planes (``frame``,
    and ``layer`` for one blob or noise draw at a time) and clipped into
    the clip.
    """
    width, height = RESOLUTIONS[resolution]
    if n_frames is None:
        n_frames = int(CLIP_SECONDS * FPS)
    rng = np.random.default_rng({"A": 11, "B": 22, "C": 33}[clip])
    background = _field_texture(rng, width, height)
    if clip == "C":
        # The scene after the cut, drawn before the clip is allocated so
        # that the texture's FFT does not add to the clip's memory.
        alt_background = _field_texture(rng, width, height)
    yy = np.arange(height, dtype=np.float64)[:, None]
    xx = np.arange(width, dtype=np.float64)[None, :]
    frames = np.empty((n_frames, height, width), dtype=np.float32)
    frame = np.empty((height, width))
    layer = np.empty((height, width))

    if clip == "A":
        # Interview: static backdrop, one slowly swaying head-and-shoulders
        # blob, tiny sensor noise.
        for f in range(n_frames):
            t = f / FPS
            _backdrop(frame, background, 0, 0, 0.35, 0.25)
            cx = width * (0.5 + 0.02 * np.sin(2 * np.pi * 0.2 * t))
            cy = height * (0.45 + 0.01 * np.sin(2 * np.pi * 0.13 * t))
            _add_blob(frame, layer, xx, yy, cx, cy, height * 0.18, 0.45)
            _add_blob(frame, layer, xx, yy, cx, cy + height * 0.35,
                      height * 0.3, 0.25)
            _add_noise(frame, layer, rng, 0.01)
            np.clip(frame, 0.0, 1.0, out=frames[f])
    elif clip == "B":
        # Soccer: fast global pan over a textured pitch plus fast players.
        players = [(rng.uniform(0, 1), rng.uniform(0, 1),
                    rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
                   for __ in range(8)]
        for f in range(n_frames):
            t = f / FPS
            shift = int((t * 0.35 * width)) % width
            _backdrop(frame, background, shift, 1, 0.3, 0.4)
            for px, py, vx, vy in players:
                cx = ((px + vx * t) % 1.0) * width
                cy = ((py + vy * t) % 1.0) * height
                _add_blob(frame, layer, xx, yy, cx, cy, height * 0.04, 0.5)
            ball_x = ((0.1 + 0.45 * t) % 1.0) * width
            ball_y = height * (0.5 + 0.3 * np.sin(2 * np.pi * 0.7 * t))
            _add_blob(frame, layer, xx, yy, ball_x, ball_y, height * 0.015,
                      0.7)
            np.clip(frame, 0.0, 1.0, out=frames[f])
    else:
        # Movie: medium pan, two drifting subjects, hard scene cut halfway.
        for f in range(n_frames):
            t = f / FPS
            if f < n_frames // 2:
                shift = int(t * 0.08 * width)
                _backdrop(frame, background, shift, 1, 0.3, 0.35)
                _add_blob(frame, layer, xx, yy, width * (0.3 + 0.05 * t),
                          height * 0.5, height * 0.12, 0.4)
            else:
                shift = int(t * 0.05 * width)
                _backdrop(frame, alt_background, -shift, 0, 0.25, 0.4)
                _add_blob(frame, layer, xx, yy, width * 0.6,
                          height * (0.4 + 0.04 * np.sin(2 * np.pi * t)),
                          height * 0.15, 0.45)
            _add_noise(frame, layer, rng, 0.005)
            np.clip(frame, 0.0, 1.0, out=frames[f])
    return frames
