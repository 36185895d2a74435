"""Synthetic speech-like test samples.

The paper streams the 20 eight-second Dutch samples of ITU-T P.862
Annex A.  That corpus is licensed, so we synthesize speech-*like*
signals with the statistics the quality models care about: alternating
voiced segments (harmonic stacks under a formant envelope with a moving
pitch), unvoiced fricative-like noise bursts and silent pauses, at the
G.711 sampling rate of 8 kHz.

Each sample is seeded, so "sample k of speaker s" is a stable reference
signal across runs, mirroring the fixed ITU corpus.
"""

import numpy as np

SAMPLE_RATE = 8000
SAMPLE_SECONDS = 8.0

#: Speech band of interest (narrow-band telephony).
_MIN_F0, _MAX_F0 = 90.0, 240.0

#: Active-speech RMS level at int16 scale (~-22 dBov, typical for the
#: ITU corpus).
RMS_LEVEL = 2600.0


def _voiced_segment(rng, n, f0_base, formants):
    """A vowel-ish harmonic stack with vibrato and a formant envelope."""
    t = np.arange(n) / SAMPLE_RATE
    # Slow pitch drift plus a touch of vibrato.
    f0 = f0_base * (1.0 + 0.04 * np.sin(2 * np.pi * 3.0 * t)
                    + 0.10 * (t / max(t[-1], 1e-9)) * rng.uniform(-1, 1))
    phase = 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    signal = np.zeros(n)
    max_harmonic = int(3400.0 / f0_base)
    for harmonic in range(1, max(2, max_harmonic)):
        freq = harmonic * f0_base
        if freq > 3600.0:
            break
        # Formant envelope: sum of Gaussian resonances.
        gain = sum(
            amp * np.exp(-0.5 * ((freq - center) / width) ** 2)
            for center, width, amp in formants
        )
        gain += 0.02  # spectral floor
        signal += gain * np.sin(harmonic * phase + rng.uniform(0, 2 * np.pi))
    return signal


def _unvoiced_segment(rng, n):
    """Fricative-like shaped noise (high-pass tilted)."""
    noise = rng.standard_normal(n)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    tilt = np.clip((freqs - 1000.0) / 2500.0, 0.05, 1.0)
    return np.fft.irfft(spectrum * tilt, n)


def _envelope(rng, n):
    """Attack / sustain / decay amplitude contour."""
    attack = max(1, int(n * rng.uniform(0.05, 0.2)))
    decay = max(1, int(n * rng.uniform(0.1, 0.3)))
    env = np.ones(n)
    env[:attack] = np.linspace(0.0, 1.0, attack)
    env[n - decay:] = np.linspace(1.0, 0.0, decay)
    return env


def synthesize_speech(seed, duration=SAMPLE_SECONDS):
    """Synthesize one speech-like sample as float64 PCM at int16 scale.

    ``seed`` selects the "speaker and sentence"; the active speech is
    scaled to :data:`RMS_LEVEL`.
    """
    rng = np.random.default_rng(seed)
    total = int(duration * SAMPLE_RATE)
    f0_base = rng.uniform(_MIN_F0, _MAX_F0)
    formants = [
        (rng.uniform(300, 900), rng.uniform(80, 200), rng.uniform(0.8, 1.2)),
        (rng.uniform(900, 2200), rng.uniform(120, 300), rng.uniform(0.4, 0.8)),
        (rng.uniform(2200, 3300), rng.uniform(150, 350), rng.uniform(0.15, 0.4)),
    ]
    out = np.zeros(total)
    cursor = 0
    while cursor < total:
        kind = rng.choice(["voiced", "unvoiced", "pause"],
                          p=[0.55, 0.25, 0.20])
        seg_len = int(rng.uniform(0.08, 0.40) * SAMPLE_RATE)
        seg_len = min(seg_len, total - cursor)
        if seg_len <= 8:
            break
        if kind == "voiced":
            segment = _voiced_segment(rng, seg_len, f0_base, formants)
        elif kind == "unvoiced":
            segment = _unvoiced_segment(rng, seg_len) * 0.4
        else:
            segment = np.zeros(seg_len)
        if kind != "pause":
            segment *= _envelope(rng, seg_len)
        out[cursor:cursor + seg_len] = segment
        cursor += seg_len

    active = out[np.abs(out) > 1e-9]
    if active.size:
        rms = np.sqrt(np.mean(active ** 2))
        if rms > 0:
            out *= RMS_LEVEL / rms
    return np.clip(out, -32768, 32767)
