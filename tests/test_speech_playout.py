"""Tests for speech synthesis and the playout buffer."""

import numpy as np
import pytest

from repro.media.playout import (
    CODEC_DELAY,
    CONCEAL_DECAY,
    MUTE_AFTER,
    PlayoutBuffer,
    reconstruct_signal,
)
from repro.media.speech import SAMPLE_RATE, synthesize_speech


class TestSpeech:
    def test_length_and_rate(self):
        speech = synthesize_speech(seed=1, duration=8.0)
        assert len(speech) == 8 * SAMPLE_RATE

    def test_deterministic_per_seed(self):
        a = synthesize_speech(seed=5)
        b = synthesize_speech(seed=5)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = synthesize_speech(seed=1)
        b = synthesize_speech(seed=2)
        assert not np.array_equal(a, b)

    def test_int16_range(self):
        speech = synthesize_speech(seed=3)
        assert speech.max() <= 32767
        assert speech.min() >= -32768

    def test_has_speech_like_activity(self):
        speech = synthesize_speech(seed=4)
        # Both active and silent stretches exist.
        frame_rms = np.sqrt(np.mean(
            speech[: len(speech) // 160 * 160].reshape(-1, 160) ** 2, axis=1))
        assert (frame_rms > 500).any()
        assert (frame_rms < 50).any()

    def test_wrong_rate_rejected(self):
        # The rate is fixed at SAMPLE_RATE: there is no knob to get wrong.
        with pytest.raises(TypeError):
            synthesize_speech(seed=1, rate=16000)


class TestPlayoutBuffer:
    def _arrivals(self, n, delay, jitter=0.0, drop=()):
        send_times = {i: i * 0.02 for i in range(n)}
        arrivals = {}
        for i in range(n):
            if i in drop:
                continue
            arrivals[i] = send_times[i] + delay + (jitter if i % 2 else 0.0)
        return arrivals, send_times

    def test_all_on_time(self):
        buffer = PlayoutBuffer(0.02, playout_delay=0.06)
        arrivals, send_times = self._arrivals(100, delay=0.03)
        result = buffer.schedule(arrivals, 100, send_times)
        assert result.ok == 100
        assert result.effective_loss_rate == 0.0
        # Mouth-to-ear = network + playout + codec.
        assert result.mouth_to_ear_delay == pytest.approx(
            0.03 + 0.06 + CODEC_DELAY, abs=1e-6)

    def test_lost_frames_counted(self):
        buffer = PlayoutBuffer(0.02, 0.06)
        arrivals, send_times = self._arrivals(50, 0.03, drop={3, 4, 10})
        result = buffer.schedule(arrivals, 50, send_times)
        assert result.lost == 3
        assert result.effective_loss_rate == pytest.approx(3 / 50)

    def test_late_frames_counted(self):
        buffer = PlayoutBuffer(0.02, playout_delay=0.05)
        arrivals, send_times = self._arrivals(50, 0.02, jitter=0.2)
        result = buffer.schedule(arrivals, 50, send_times)
        assert result.late > 0
        assert result.ok + result.late + result.lost == 50

    def test_statuses_order(self):
        buffer = PlayoutBuffer(0.02, 0.06)
        arrivals, send_times = self._arrivals(10, 0.03, drop={2})
        result = buffer.schedule(arrivals, 10, send_times)
        assert result.statuses[2] == "lost"
        assert result.statuses[0] == "ok"

    def test_no_arrivals(self):
        buffer = PlayoutBuffer(0.02, 0.06)
        result = buffer.schedule({}, 10, {i: i * 0.02 for i in range(10)})
        assert result.lost == 10


class TestReconstruction:
    def test_clean_reconstruction_identical(self):
        frames = [np.ones(160) * i for i in range(5)]
        out = reconstruct_signal(frames, ["ok"] * 5)
        assert np.array_equal(out, np.concatenate(frames))

    def test_concealment_repeats_with_decay(self):
        frames = [np.ones(160), np.ones(160) * 2.0]
        out = reconstruct_signal(frames, ["ok", "lost"])
        assert np.allclose(out[160:], CONCEAL_DECAY)  # frame 0 decayed

    def test_mute_after_long_burst(self):
        frames = [np.ones(160)] * 6
        statuses = ["ok"] + ["lost"] * 5
        out = reconstruct_signal(frames, statuses)
        assert np.allclose(out[(MUTE_AFTER + 1) * 160:], 0.0)  # muted tail

    def test_leading_loss_is_silence(self):
        frames = [np.ones(160)] * 3
        out = reconstruct_signal(frames, ["lost", "ok", "ok"])
        assert np.allclose(out[:160], 0.0)

    def test_empty(self):
        assert reconstruct_signal([], []).size == 0
