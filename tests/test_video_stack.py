"""Tests for the video substrate: sources, codec, TS packing, SSIM/PSNR."""

import math
import os
import subprocess
import sys
import tracemalloc

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
from repro.qoe import ssim as ssim_module
from repro.qoe.psnr import CAP_DB, psnr_sequence
from repro.qoe.ssim import (
    BAND_ROWS,
    C1,
    C2,
    WINDOW,
    Workspace,
    band_runs,
    ssim_sequence,
)
from repro.qoe.video import ssim_to_mos

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _decoded(reference, received):
    """decode()'s stream as one array (each ring frame copied out)."""
    return np.array([frame.copy() for frame in decode(reference, received)])


def _scores(reference, degraded_frames):
    """(mean SSIM, mean PSNR) scored the way a video cell scores them."""
    frame_mse = []
    ssim_value = ssim_sequence(reference, degraded_frames, frame_mse)
    return ssim_value, psnr_sequence(frame_mse)


def _loaded(reference, degraded):
    """A fresh :class:`Workspace` with one frame pair loaded."""
    workspace = Workspace(np.shape(reference))
    workspace.load(reference, degraded)
    return workspace


def _ssim(reference, degraded):
    """Mean SSIM of one frame pair, scored in a fresh workspace."""
    return _loaded(reference, degraded).ssim()


def _psnr(reference, degraded):
    """PSNR in dB of one frame pair from a fresh workspace's MSE;
    identical frames give +inf."""
    mse = _loaded(reference, degraded).mse()
    return float("inf") if mse == 0 else float(10.0 * np.log10(1.0 / mse))


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


def _window_mean(plane):
    """The 8x8 window mean with "reflect" edges, as written: each window
    sum is three doubling adds down the columns, then three along the
    rows, and the sum is divided by 64."""
    padded = np.pad(plane, ((4, 3), (4, 3)), mode="symmetric")
    for step in (1, 2, 4):
        padded = padded[:-step] + padded[step:]
    for step in (1, 2, 4):
        padded = padded[:, :-step] + padded[:, step:]
    return padded / 64.0


def _ssim_formula(reference, degraded):
    """Wang et al.'s SSIM with the 8x8 uniform window, as written."""
    x = reference.astype(np.float64)
    y = degraded.astype(np.float64)
    mu_x = _window_mean(x)
    mu_y = _window_mean(y)
    sigma_xx = _window_mean(x * x) - mu_x * mu_x
    sigma_yy = _window_mean(y * y) - mu_y * mu_y
    sigma_xy = _window_mean(x * y) - mu_x * mu_y
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
        assert _ssim(frame, frame) == 1.0
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
    # holds the SSIM workspace (its float64 map plane, 2 float32
    # frames, and its 64-row band scratch, about 3.4), decode's ring (2)
    # and spread scratch (4 and a mask); generation holds the
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


def _module_window_mean(a, b=None):
    """The workspace's window mean of ``a`` (``a * b``), band by band."""
    workspace = Workspace(np.shape(a))
    height, width = np.shape(a)
    bands = [(start, min(start + ssim_module.BAND_ROWS, height))
             for start in range(0, height, ssim_module.BAND_ROWS)]
    return np.concatenate([
        workspace.window_mean(a, b, band_runs(height, start, stop),
                              np.empty((stop - start, width)))
        for start, stop in bands])


def _exact_window_mean(plane):
    """Each 8x8 window's sum rounded once (``math.fsum``), over 64."""
    padded = np.pad(plane, ((4, 3), (4, 3)), mode="symmetric")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (8, 8))
    return np.array([[math.fsum(window.ravel().tolist()) for window in row]
                     for row in windows]) / 64.0


#: Unit roundoff of float64.
_U = 2.0 ** -53

#: Relative error bound of the window mean against the exact one.  A
#: window sum of non-negative terms taken in six roundings errs by at
#: most gamma_6 = 6u / (1 - 6u) of the sum, the once-rounded reference
#: by u, and the 1/64 scale is exact.
_MEAN_BOUND = (6 * _U / (1 - 6 * _U) + _U) / (1 - _U)


def _damaged(frame, seed):
    """``frame`` with noise, clipped back into [0, 1] as float32."""
    rng = np.random.default_rng(seed)
    return np.clip(frame + 0.1 * rng.standard_normal(frame.shape),
                   0.0, 1.0).astype(np.float32)


class TestWindowMean:
    def _check_accuracy(self, x, y):
        for b, terms in ((None, x.astype(np.float64)),
                         (y, x.astype(np.float64) * y)):
            exact = _exact_window_mean(terms)
            error = np.abs(_module_window_mean(x, b) - exact)
            assert np.all(error <= _MEAN_BOUND * exact)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (9, 2), (17, 23),
                                       (24, 24)])
    def test_accuracy_on_small_frames(self, shape):
        rng = np.random.default_rng(sum(shape))
        # Powers spread the terms over many binades.
        x = (rng.random(shape) ** 6).astype(np.float32)
        self._check_accuracy(x, rng.random(shape, dtype=np.float32))

    def test_accuracy_on_an_sd_frame(self):
        frame = _CLIP[4]
        self._check_accuracy(frame, _damaged(frame, 4))

    def test_bands_do_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(9)
        small = rng.random((37, 29), dtype=np.float32)
        for x, y in ((small, _damaged(small, 1)), (_CLIP[7],
                                                    _damaged(_CLIP[7], 2))):
            formula = _window_mean(x.astype(np.float64) * y)
            score = _ssim_formula(x, y)
            for rows in (1, 2, 7, 64, 1000):
                monkeypatch.setattr(ssim_module, "BAND_ROWS", rows)
                assert np.array_equal(_module_window_mean(x, y), formula)
                assert _ssim(x, y) == score


def test_scoring_video_loads_no_scipy():
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from repro.media.codec import SLICES_PER_FRAME, decode",
        "from repro.media.video_source import generate_clip",
        "from repro.qoe.ssim import ssim_sequence",
        "clip = generate_clip('A', 'SD', n_frames=3)",
        "received = np.ones((3, SLICES_PER_FRAME), dtype=bool)",
        "received[1, 2] = False",
        "assert ssim_sequence(clip, decode(clip, received)) < 1.0",
        "print(sorted(name for name in sys.modules",
        "             if name.partition('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


#: Rows of the row-skip frames: more than two bands.
_TALL = 2 * BAND_ROWS + 21

#: Damaged row ranges of a ``_TALL``-row frame: a run long enough to be
#: scored in two bands, the reflect edges, and two runs whose windows
#: overlap.
_ROW_DAMAGE = {
    "middle": ((50, 120),),
    "first rows": ((0, 3),),
    "last rows": ((_TALL - 2, _TALL),),
    "two close runs": ((40, 44), (49, 52)),
}


def _rows_reaching(height, rows):
    """``[(start, stop)]``: the runs of output rows whose 8-row window,
    with "reflect" edges, holds one of ``rows``."""
    padded = np.pad(np.arange(height), (4, 3), mode="symmetric")
    reached = [bool(set(padded[r:r + WINDOW].tolist()) & set(rows))
               for r in range(height)]
    runs = []
    for r, hit in enumerate(reached):
        if hit and runs and runs[-1][1] == r:
            runs[-1] = (runs[-1][0], r + 1)
        elif hit:
            runs.append((r, r + 1))
    return runs


class TestSsimPsnr:
    def test_identity(self):
        image = generate_clip("A", "SD", n_frames=1)[0]
        assert _ssim(image, image) == pytest.approx(1.0, abs=1e-9)
        assert _psnr(image, image) == float("inf")

    def test_noise_lowers_both(self):
        image = generate_clip("A", "SD", n_frames=1)[0].astype(float)
        rng = np.random.default_rng(0)
        noisy = np.clip(image + rng.normal(0, 0.1, image.shape), 0, 1)
        assert _ssim(image, noisy) < 0.95
        assert _psnr(image, noisy) < 25.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            _ssim(np.zeros((4, 4)), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            _psnr(np.zeros((4, 4)), np.zeros((5, 5)))

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
        value = _ssim(a, b)
        assert -1.0 <= value <= 1.0
        assert _ssim(b, a) == pytest.approx(value, abs=1e-9)

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
            assert _ssim(reference, degraded) == expected
            assert _psnr(reference, degraded) == _psnr_formula(
                reference, degraded)
            workspace.load(reference, degraded)
            assert workspace.ssim() == expected
            assert workspace.mse() == np.mean(
                (reference.astype(np.float64) - degraded) ** 2)

    @pytest.mark.parametrize("damage", sorted(_ROW_DAMAGE))
    @seeded_property(max_examples=6)
    def test_property_row_skip_scores_the_formula(self, damage, seed):
        # Frames taller than two bands, damaged only in some rows: the
        # rows whose window reaches no damage are not scored, and the
        # score is still the textbook formula's, bit for bit.
        rng = np.random.default_rng(seed)
        width = 1 + seed % 40
        reference = rng.random((_TALL, width), dtype=np.float32)
        degraded = reference.copy()
        for start, stop in _ROW_DAMAGE[damage]:
            degraded[start:stop] = np.clip(
                degraded[start:stop]
                + 0.3 * rng.standard_normal((stop - start, width)),
                0.0, 1.0)
        workspace = _loaded(reference, degraded)
        assert workspace.ssim() == _ssim_formula(reference, degraded)
        differs = np.flatnonzero((reference != degraded).any(axis=1))
        assert workspace.scored_rows() == _rows_reaching(_TALL, differs)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e200])
    def test_equal_frames_beyond_tame_score_the_formula(self, value):
        # Unchanged rows score 1.0 only for tame values: here the full
        # computation gives NaN, and so must the workspace.
        reference = np.random.default_rng(5).random((_TALL, 29))
        reference[90, 7] = value
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _ssim_formula(reference, reference.copy())
            score = _ssim(reference, reference.copy())
        assert math.isnan(expected)
        assert math.isnan(score)

    def test_mappings_monotone(self):
        ssim_values = [0.3, 0.6, 0.88, 0.95, 1.0]
        mos = [ssim_to_mos(v) for v in ssim_values]
        assert mos == sorted(mos)
        assert mos[-1] == 5.0
