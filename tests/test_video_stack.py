"""Tests for the video substrate: sources, codec, TS packing, SSIM/PSNR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from proputil import seeded_property

from repro.media.codec import (
    CONCEAL_DC_SHIFT,
    CONCEAL_SHIFT,
    MOTION_REACH,
    PROPAGATION,
    SLICES_PER_FRAME,
    decode,
    frame_bytes,
    frame_types,
    slice_rows,
)
from repro.media.mpegts import (
    PACKET_PAYLOAD_BYTES,
    packetize,
    slice_packet_map,
)
from repro.media.video_source import BITRATES, RESOLUTIONS, generate_clip
from repro.qoe.psnr import psnr, psnr_sequence, psnr_to_mos
from repro.qoe.ssim import ssim, ssim_sequence
from repro.qoe.video import ssim_to_mos


class TestVideoSource:
    def test_shapes(self):
        frames = generate_clip("A", "SD", n_frames=10)
        width, height = RESOLUTIONS["SD"]
        assert frames.shape == (10, height, width)

    def test_range(self):
        frames = generate_clip("B", "SD", n_frames=5)
        assert frames.min() >= 0.0
        assert frames.max() <= 1.0

    def test_deterministic(self):
        a = generate_clip("C", "SD", n_frames=5)
        b = generate_clip("C", "SD", n_frames=5)
        assert np.array_equal(a, b)

    def test_motion_ordering(self):
        # Soccer (B) has more frame-to-frame motion than interview (A).
        def motion(clip):
            frames = generate_clip(clip, "SD", n_frames=10)
            return np.mean(np.abs(np.diff(frames, axis=0)))

        assert motion("B") > motion("A")

    def test_hd_larger(self):
        sd = generate_clip("A", "SD", n_frames=2)
        hd = generate_clip("A", "HD", n_frames=2)
        assert hd[0].size > sd[0].size


class TestCodecModel:
    def test_gop_structure(self):
        types = frame_types(25, gop=12)
        assert types[0] == "I"
        assert types[12] == "I"
        assert types[1] == "P"

    def test_rate_budget(self):
        n = 125  # 10 s at 12.5 fps
        total = sum(frame_bytes("SD", n))
        expected = BITRATES["SD"] / 8.0 * (n / 12.5)
        assert total == pytest.approx(expected, rel=0.02)

    def test_i_frames_bigger(self):
        sizes = frame_bytes("SD", 13)
        assert sizes[0] > 3 * sizes[1]

    def test_slice_rows_cover_frame(self):
        height = 180
        covered = 0
        for s in range(SLICES_PER_FRAME):
            start, stop = slice_rows(height, s)
            covered += stop - start
        assert covered == height

    def test_perfect_reception_is_lossless(self):
        reference = generate_clip("C", "SD", n_frames=13)
        received = np.ones((13, SLICES_PER_FRAME), dtype=bool)
        decoded = decode(reference, received)
        assert np.array_equal(decoded, reference)

    def test_lost_slice_recovers_at_next_i_frame(self):
        reference = generate_clip("C", "SD", n_frames=25)
        received = np.ones((25, SLICES_PER_FRAME), dtype=bool)
        received[2][5] = False  # one lost slice early in the first GOP
        decoded = decode(reference, received, gop=12)
        assert not np.allclose(decoded[2], reference[2])
        # After the next I frame (index 12) everything is clean again.
        assert np.allclose(decoded[12], reference[12])

    def test_more_loss_less_quality(self):
        reference = generate_clip("C", "SD", n_frames=25)
        rng = np.random.default_rng(1)
        light = rng.random((25, SLICES_PER_FRAME)) >= 0.01
        heavy = rng.random((25, SLICES_PER_FRAME)) >= 0.2
        q_light = ssim_sequence(reference, decode(reference, light))
        q_heavy = ssim_sequence(reference, decode(reference, heavy))
        assert q_light > q_heavy


def _decode_per_slice(reference, received, gop=12):
    """decode() without its identical-frame shortcut: every frame goes
    through the per-slice concealment and error-spread arithmetic."""
    height = reference.shape[1]
    types = frame_types(len(reference), gop)
    decoded = np.empty_like(reference)
    previous = np.full_like(reference[0], 0.5)
    for f in range(len(reference)):
        current = np.empty_like(previous)
        spread = None
        if types[f] == "P" and f > 0:
            error = previous - reference[f - 1]
            up = np.roll(error, MOTION_REACH, axis=0)
            down = np.roll(error, -MOTION_REACH, axis=0)
            spread = np.where(np.abs(up) > np.abs(error), up, error)
            spread = np.where(np.abs(down) > np.abs(spread), down, spread)
        for s in range(SLICES_PER_FRAME):
            start, stop = slice_rows(height, s)
            if not received[f][s]:
                current[start:stop] = (
                    np.roll(previous[start:stop], CONCEAL_SHIFT, axis=1)
                    + CONCEAL_DC_SHIFT)
            elif spread is None:
                current[start:stop] = reference[f][start:stop]
            else:
                current[start:stop] = (reference[f][start:stop]
                                       + PROPAGATION * spread[start:stop])
        np.clip(current, 0.0, 1.0, out=current)
        decoded[f] = current
        previous = current
    return decoded


def _random_reception(seed, n_frames):
    """A reception matrix mixing complete frames and lossy ones."""
    rng = np.random.default_rng(seed)
    loss = rng.choice([0.0, 0.0, 0.02, 0.3], size=(n_frames, 1))
    return rng.random((n_frames, SLICES_PER_FRAME)) >= loss


_CLIP = generate_clip("B", "SD", n_frames=26)


class TestIdenticalFrameShortcuts:
    @seeded_property(max_examples=12)
    def test_decode_matches_per_slice_decoding(self, seed):
        received = _random_reception(seed, len(_CLIP))
        assert np.array_equal(decode(_CLIP, received),
                              _decode_per_slice(_CLIP, received))

    @seeded_property(max_examples=8)
    def test_decode_out_of_range_reference(self, seed):
        # Clipping changes such a reference, so no decoded frame is
        # "clean" and only the I-frame copy may be shortcut.
        reference = (_CLIP[:13] * 1.4 - 0.2).astype(_CLIP.dtype)
        received = _random_reception(seed, 13)
        assert np.array_equal(decode(reference, received),
                              _decode_per_slice(reference, received))

    @seeded_property(max_examples=12)
    def test_sequence_scores_equal_per_frame_means(self, seed):
        received = _random_reception(seed, len(_CLIP))
        received[0] = True  # frame 0 decodes to its reference...
        received[1][seed % SLICES_PER_FRAME] = False  # ...frame 1 does not
        degraded = decode(_CLIP, received)
        assert ssim_sequence(_CLIP, degraded) == np.mean(
            [ssim(r, d) for r, d in zip(_CLIP, degraded)])
        assert psnr_sequence(_CLIP, degraded) == np.mean(
            [min(psnr(r, d), 60.0) for r, d in zip(_CLIP, degraded)])

    def test_identical_frame_scores_exactly(self):
        frame = _CLIP[3]
        assert ssim(frame, frame) == 1.0
        assert ssim(frame, frame, window="gaussian") == 1.0
        assert ssim_sequence(_CLIP, _CLIP.copy()) == 1.0
        assert psnr_sequence(_CLIP, _CLIP.copy(), cap=42.0) == 42.0


class TestMpegTs:
    def test_packet_sizes(self):
        plans = packetize([((0, s), 1000) for s in range(32)])
        assert all(p.payload_bytes <= PACKET_PAYLOAD_BYTES for p in plans)
        assert sum(p.payload_bytes for p in plans) == 32_000

    def test_slices_share_packets(self):
        plans = packetize([((0, 0), 700), ((0, 1), 700)])
        assert len(plans) == 2  # 1400 bytes -> 1316 + 84
        assert plans[0].slices == ((0, 0), (0, 1))

    def test_slice_map_inversion(self):
        slice_bytes = [((0, s), 900) for s in range(8)]
        plans = packetize(slice_bytes)
        mapping = slice_packet_map(plans)
        assert set(mapping) == {(0, s) for s in range(8)}
        for packets in mapping.values():
            assert packets == sorted(packets)

    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_property_byte_conservation(self, sizes):
        slice_bytes = [((0, i), size) for i, size in enumerate(sizes)]
        plans = packetize(slice_bytes)
        assert sum(p.payload_bytes for p in plans) == sum(sizes)
        mapping = slice_packet_map(plans)
        assert set(mapping) == {key for key, __ in slice_bytes}


class TestSsimPsnr:
    def test_identity(self):
        image = generate_clip("A", "SD", n_frames=1)[0]
        assert ssim(image, image) == pytest.approx(1.0, abs=1e-9)
        assert psnr(image, image) == float("inf")

    def test_noise_lowers_both(self):
        image = generate_clip("A", "SD", n_frames=1)[0].astype(float)
        rng = np.random.default_rng(0)
        noisy = np.clip(image + rng.normal(0, 0.1, image.shape), 0, 1)
        assert ssim(image, noisy) < 0.95
        assert psnr(image, noisy) < 25.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_unknown_window_raises(self):
        frames = generate_clip("A", "SD", n_frames=2)
        with pytest.raises(ValueError, match="window"):
            ssim(frames[0], frames[1], window="gausian")
        # Identical frames skip filtering; the window is checked anyway.
        with pytest.raises(ValueError, match="window"):
            ssim_sequence(frames, frames, window="box")

    def test_sequence_length_mismatch_raises(self):
        frames = generate_clip("A", "SD", n_frames=3)
        with pytest.raises(ValueError, match="length"):
            ssim_sequence(frames, frames[:2])
        with pytest.raises(ValueError, match="length"):
            psnr_sequence(frames[:2], frames)

    def test_gaussian_window_variant(self):
        image = generate_clip("A", "SD", n_frames=1)[0]
        rng = np.random.default_rng(0)
        noisy = np.clip(image + rng.normal(0, 0.05, image.shape), 0, 1)
        uniform = ssim(image, noisy)
        gaussian = ssim(image, noisy, window="gaussian")
        assert abs(uniform - gaussian) < 0.15

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20)
    def test_property_ssim_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((32, 32))
        b = rng.random((32, 32))
        value = ssim(a, b)
        assert -1.0 <= value <= 1.0
        assert ssim(b, a) == pytest.approx(value, abs=1e-9)

    def test_sequence_means(self):
        frames = generate_clip("A", "SD", n_frames=4)
        assert ssim_sequence(frames, frames) == pytest.approx(1.0)
        assert psnr_sequence(frames, frames) == 60.0  # capped

    def test_mappings_monotone(self):
        ssim_values = [0.3, 0.6, 0.88, 0.95, 1.0]
        mos = [ssim_to_mos(v) for v in ssim_values]
        assert mos == sorted(mos)
        assert mos[-1] == 5.0
        psnr_values = [18, 26, 33, 40]
        pm = [psnr_to_mos(v) for v in psnr_values]
        assert pm == sorted(pm)
