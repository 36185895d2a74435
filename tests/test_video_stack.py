"""Tests for the video substrate: sources, codec, TS packing, SSIM/PSNR."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from proputil import seeded_property
from scipy.ndimage import uniform_filter

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
from repro.qoe.psnr import CAP_DB, psnr, psnr_sequence
from repro.qoe.ssim import C1, C2, Workspace, ssim, ssim_sequence
from repro.qoe.video import ssim_to_mos


def _decoded(reference, received):
    """decode()'s stream as one array (each ring frame copied out)."""
    return np.array([frame.copy() for frame in decode(reference, received)])


def _scores(reference, degraded_frames):
    """(mean SSIM, mean PSNR) scored the way a video cell scores them."""
    frame_mse = []
    ssim_value = ssim_sequence(reference, degraded_frames, frame_mse)
    return ssim_value, psnr_sequence(frame_mse)


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
        types = frame_types(25)
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
        decoded = _decoded(reference, received)
        assert np.array_equal(decoded, reference)

    def test_lost_slice_recovers_at_next_i_frame(self):
        reference = generate_clip("C", "SD", n_frames=25)
        received = np.ones((25, SLICES_PER_FRAME), dtype=bool)
        received[2][5] = False  # one lost slice early in the first GOP
        decoded = _decoded(reference, received)
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


def _decode_per_slice(reference, received):
    """decode() without its identical-frame shortcut: every frame goes
    through the per-slice concealment and error-spread arithmetic."""
    height = reference.shape[1]
    types = frame_types(len(reference))
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
_HD_CLIP = generate_clip("B", "HD", n_frames=14)


def _ssim_formula(reference, degraded):
    """Wang et al.'s SSIM with the 8x8 uniform window, as written."""
    x = reference.astype(np.float64)
    y = degraded.astype(np.float64)
    mu_x = uniform_filter(x, size=8)
    mu_y = uniform_filter(y, size=8)
    sigma_xx = uniform_filter(x * x, size=8) - mu_x * mu_x
    sigma_yy = uniform_filter(y * y, size=8) - mu_y * mu_y
    sigma_xy = uniform_filter(x * y, size=8) - mu_x * mu_y
    numerator = (2.0 * (mu_x * mu_y) + C1) * (2.0 * sigma_xy + C2)
    denominator = ((mu_x * mu_x + mu_y * mu_y + C1)
                   * (sigma_xx + sigma_yy + C2))
    return float(np.mean(numerator / denominator))


def _psnr_formula(reference, degraded):
    """PSNR in dB at peak 1.0, as written; identical frames give +inf."""
    mse = np.mean((reference.astype(np.float64) - degraded) ** 2)
    return float("inf") if mse == 0 else float(10.0 * np.log10(1.0 / mse))


class TestIdenticalFrameShortcuts:
    @seeded_property(max_examples=12)
    def test_decode_matches_per_slice_decoding(self, seed):
        received = _random_reception(seed, len(_CLIP))
        assert np.array_equal(_decoded(_CLIP, received),
                              _decode_per_slice(_CLIP, received))

    @seeded_property(max_examples=8)
    def test_decode_out_of_range_reference(self, seed):
        # Clipping changes such a reference, so no decoded frame is
        # "clean" and only the I-frame copy may be shortcut.
        reference = (_CLIP[:13] * 1.4 - 0.2).astype(_CLIP.dtype)
        received = _random_reception(seed, 13)
        assert np.array_equal(_decoded(reference, received),
                              _decode_per_slice(reference, received))

    @seeded_property(max_examples=12)
    def test_sequence_scores_equal_per_frame_means(self, seed):
        # Differential: the streamed scores of decode()'s ring frames are
        # the plain formulas, applied to every frame of the fully
        # materialised per-slice decoding.
        for clip in (_CLIP, _HD_CLIP):
            received = _random_reception(seed, len(clip))
            received[0] = True  # frame 0 decodes to its reference...
            received[1][seed % SLICES_PER_FRAME] = False  # ...frame 1 not
            degraded = _decode_per_slice(clip, received)
            assert _scores(clip, decode(clip, received)) == (
                np.mean([_ssim_formula(r, d) for r, d in zip(clip, degraded)]),
                np.mean([min(_psnr_formula(r, d), 60.0)
                         for r, d in zip(clip, degraded)]))

    def test_identical_frame_scores_exactly(self):
        frame = _CLIP[3]
        assert ssim(frame, frame) == 1.0
        assert _ssim_formula(frame, frame) == 1.0
        frame_mse = []
        assert ssim_sequence(_CLIP, _CLIP.copy(), frame_mse) == 1.0
        assert psnr_sequence(frame_mse) == CAP_DB


_LONG_CLIP = generate_clip("B", "SD", n_frames=64)


def _traced_peak(function, *args):
    """``(function(*args), peak bytes traced while it ran)``."""
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_scoring_bytes(n_frames, reference=_LONG_CLIP, received=None):
    """Peak bytes traced while a cell's scoring decodes and scores a clip."""
    reference = reference[:n_frames]
    if received is None:
        received = np.ones((n_frames, SLICES_PER_FRAME), dtype=bool)
        received[1:, ::5] = False  # every frame after the first is damaged
    return _traced_peak(lambda: _scores(reference, decode(reference,
                                                          received)))[1]


def test_scoring_memory_does_not_grow_with_the_clip():
    frame_bytes = _LONG_CLIP[0].size * np.dtype(np.float64).itemsize
    assert _peak_scoring_bytes(64) <= _peak_scoring_bytes(8) + frame_bytes


def test_hd_memory_bounds():
    # A 19-frame HD clip C with about 3% of its slices lost.  Scoring
    # holds the five-plane SSIM workspace (10 float32 frames), decode's
    # ring (2) and spread scratch (4 and a mask); generation holds the
    # two textures (4) and two compositing planes (4) beyond the clip,
    # or, for a clip of one frame, a texture's FFT.
    n_frames = 19
    for length in (1, n_frames):
        clip, peak = _traced_peak(generate_clip, "C", "HD", length)
        frame = clip[0].nbytes
        assert peak - clip.nbytes <= 11 * frame, length
    received = (np.random.default_rng(3).random((n_frames, SLICES_PER_FRAME))
                >= 0.03)
    assert not received.all()
    assert _peak_scoring_bytes(n_frames, clip, received) <= 17 * frame


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

    def test_sequence_length_mismatch_raises(self):
        frames = generate_clip("A", "SD", n_frames=3)
        with pytest.raises(ValueError, match="length"):
            ssim_sequence(frames, frames[:2])
        with pytest.raises(ValueError, match="length"):
            ssim_sequence(frames[:2], iter(frames))

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
        assert _scores(frames, frames) == (1.0, 60.0)  # PSNR capped

    @given(st.integers(1, 24), st.integers(1, 24),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_scores_are_the_formulas(self, height, width, seed):
        # Frames smaller than, as large as and larger than the 8x8
        # window, scored bit for bit as the textbook formulas score them;
        # one workspace is reused across pairs, as a clip reuses it.
        rng = np.random.default_rng(seed)
        workspace = Workspace((height, width))
        for noise in (0.3, 0.02, 0.0):
            reference = rng.random((height, width), dtype=np.float32)
            degraded = np.clip(
                reference + noise * rng.standard_normal((height, width)),
                0.0, 1.0).astype(np.float32)
            expected = _ssim_formula(reference, degraded)
            assert ssim(reference, degraded) == expected
            assert psnr(reference, degraded) == _psnr_formula(reference,
                                                              degraded)
            workspace.load(reference, degraded)
            assert workspace.ssim() == expected
            assert workspace.mse() == np.mean(
                (reference.astype(np.float64) - degraded) ** 2)

    def test_mappings_monotone(self):
        ssim_values = [0.3, 0.6, 0.88, 0.95, 1.0]
        mos = [ssim_to_mos(v) for v in ssim_values]
        assert mos == sorted(mos)
        assert mos[-1] == 5.0
