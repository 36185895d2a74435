"""Tests for the G.711 A-law codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.g711 import alaw_decode, alaw_encode, codec_round_trip
from repro.media.speech import synthesize_speech


def snr_db(reference, degraded):
    """Signal-to-noise ratio of ``degraded`` against ``reference``."""
    reference = np.asarray(reference, dtype=np.float64)
    noise = reference - np.asarray(degraded, dtype=np.float64)
    noise_power = np.mean(noise ** 2)
    if noise_power == 0:
        return float("inf")
    return 10.0 * np.log10(np.mean(reference ** 2) / noise_power)


def test_round_trip_error_bounded():
    # A-law quantization error is bounded by the segment step size.
    pcm = np.arange(-32768, 32768, 17, dtype=np.int32)
    decoded = alaw_decode(alaw_encode(pcm))
    error = np.abs(decoded.astype(np.int64) - pcm)
    # Largest segment (seg 7) has step 256; half-step rounding -> <= 1024
    # worst case at the extreme end.
    assert error.max() <= 1024


def test_idempotent_on_decoded_values():
    pcm = np.arange(-32768, 32768, 101)
    once = alaw_decode(alaw_encode(pcm))
    twice = alaw_decode(alaw_encode(once))
    assert np.array_equal(once, twice)


def test_sign_preserved():
    pcm = np.array([-20000, -100, -8, 8, 100, 20000])
    decoded = alaw_decode(alaw_encode(pcm))
    assert np.all(np.sign(decoded) == np.sign(pcm))


def test_speech_round_trip_snr():
    # G.711 achieves ~35-40 dB SNR on speech material.
    speech = synthesize_speech(seed=42)
    decoded = codec_round_trip(speech)
    assert snr_db(speech, decoded) > 30.0


def test_snr_identity_infinite():
    x = np.array([1.0, 2.0, 3.0])
    assert snr_db(x, x) == float("inf")


def test_encode_output_is_bytes():
    encoded = alaw_encode(np.array([0, 1000, -1000]))
    assert encoded.dtype == np.uint8


def test_clipping_out_of_range():
    decoded = alaw_decode(alaw_encode(np.array([100000, -100000])))
    assert decoded[0] > 30000
    assert decoded[1] < -30000


@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=200))
@settings(max_examples=100)
def test_property_monotone_small_error(values):
    pcm = np.array(values, dtype=np.int32)
    decoded = alaw_decode(alaw_encode(pcm))
    # Companding error is relative: |err| <= max(16, |x|/8) per sample
    # (half of the in-segment step, which is ~1/16 of the magnitude).
    error = np.abs(decoded.astype(np.int64) - pcm)
    bound = np.maximum(16, np.abs(pcm) // 8 + 16)
    assert np.all(error <= bound)
