"""Tests for the QoE metric layer: E-model, PESQ-like, scales, G.1030."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.g711 import codec_round_trip
from repro.media.playout import reconstruct_signal
from repro.media.speech import synthesize_speech
from repro.qoe.emodel import delay_impairment, mos_to_r, r_to_mos
from repro.qoe.pesq import pesq_like_mos
from repro.qoe.scales import (
    g114_class,
    heat_marker_from_delay,
    heat_marker_from_mos,
    mos_class,
    voip_mos_class,
)
from repro.qoe.voip import score_call
from repro.qoe.web import g1030_mos, min_plt_for

#: The E-model's transmission rating budget with all G.107 defaults
#: (G.711, no echo, no noise).
DEFAULT_R0 = 93.2

#: Packet-loss robustness of G.711 with packet-loss concealment (ITU-T
#: G.113 Appendix I; 4.3 without concealment) and its equipment
#: impairment.
G711_BPL_PLC = 25.1
G711_IE = 0.0


def loss_impairment(loss_rate):
    """G.107 effective equipment impairment Ie,eff of G.711 with PLC
    under random loss; ``loss_rate`` is the end-to-end packet-loss
    probability in [0, 1]."""
    ppl = max(0.0, min(1.0, loss_rate)) * 100.0
    if ppl == 0.0:
        return G711_IE
    return G711_IE + (95.0 - G711_IE) * ppl / (ppl + G711_BPL_PLC)


def emodel_mos(one_way_delay, loss_rate):
    """The full E-model's MOS at a delay (s) / loss (fraction) point:
    ``R = Ro - Id - Ie,eff``, clamped to [0, 100], through Annex B."""
    r = (DEFAULT_R0 - delay_impairment(one_way_delay)
         - loss_impairment(loss_rate))
    return r_to_mos(max(0.0, min(100.0, r)))


class TestEModel:
    def test_no_delay_no_impairment(self):
        assert delay_impairment(0.05) == 0.0
        assert delay_impairment(0.100) == 0.0

    def test_moderate_delay(self):
        # ~400 ms one-way costs about 24 R points.
        assert delay_impairment(0.400) == pytest.approx(24.0, abs=3.0)

    def test_bufferbloat_delay_saturates(self):
        idd_3s = delay_impairment(3.0)
        idd_10s = delay_impairment(10.0)
        assert 45.0 < idd_3s < 55.0
        assert idd_10s < 60.0

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100)
    def test_property_monotone_in_delay(self, delay):
        assert delay_impairment(delay) <= delay_impairment(delay + 0.1) + 1e-9

    def test_loss_impairment_monotone(self):
        values = [loss_impairment(l) for l in (0.0, 0.01, 0.05, 0.2, 1.0)]
        assert values == sorted(values)
        assert values[0] == 0.0

    def test_r_to_mos_anchors(self):
        assert r_to_mos(0) == 1.0
        assert r_to_mos(100) == 4.5
        assert r_to_mos(DEFAULT_R0) == pytest.approx(4.41, abs=0.05)

    def test_mos_to_r_inverse(self):
        for r in (10, 30, 50, 70, 90):
            assert mos_to_r(r_to_mos(r)) == pytest.approx(r, abs=0.1)

    def test_emodel_score_clean(self):
        assert emodel_mos(one_way_delay=0.05, loss_rate=0.0) > 4.3

    def test_emodel_score_bad(self):
        assert emodel_mos(one_way_delay=2.0, loss_rate=0.10) < 2.5


class TestPesqLike:
    @pytest.fixture(scope="class")
    def media(self):
        ref = synthesize_speech(seed=1001, duration=4.0)
        frames = [codec_round_trip(ref[i * 160:(i + 1) * 160])
                  for i in range(len(ref) // 160)]
        return frames, np.concatenate(frames)

    def test_identity_is_excellent(self, media):
        __, clean = media
        assert pesq_like_mos(clean, clean) > 4.3

    def test_loss_degrades_monotonically(self, media):
        frames, clean = media
        rng = np.random.default_rng(3)
        scores = []
        for loss in (0.0, 0.05, 0.20):
            statuses = ["lost" if rng.random() < loss else "ok"
                        for __ in frames]
            deg = reconstruct_signal(frames, statuses)
            scores.append(pesq_like_mos(clean, deg))
        assert scores[0] > scores[1] > scores[2]

    def test_heavy_loss_is_bad(self, media):
        frames, clean = media
        statuses = ["lost" if i % 2 else "ok" for i in range(len(frames))]
        deg = reconstruct_signal(frames, statuses)
        assert pesq_like_mos(clean, deg) < 2.0

    def test_bounded(self, media):
        frames, clean = media
        silent = np.zeros_like(clean)
        mos = pesq_like_mos(clean, silent)
        assert 1.0 <= mos <= 4.56


class TestVoipComposition:
    def test_delay_kills_good_signal(self):
        from repro.media.playout import PlayoutResult

        ref = synthesize_speech(seed=1001, duration=2.0)
        clean = codec_round_trip(ref)
        good = PlayoutResult(statuses=[], mouth_to_ear_delay=0.1,
                             playout_delay=0.06, frames=100, ok=100)
        bloated = PlayoutResult(statuses=[], mouth_to_ear_delay=2.0,
                                playout_delay=0.06, frames=100, ok=100)
        fast = score_call(clean, clean, good)
        slow = score_call(clean, clean, bloated)
        assert fast.mos > 4.0
        assert slow.mos < 2.7
        assert slow.z1_mos == pytest.approx(fast.z1_mos)  # same signal

    def test_conversational_delay_override(self):
        from repro.media.playout import PlayoutResult

        ref = synthesize_speech(seed=1001, duration=2.0)
        clean = codec_round_trip(ref)
        local = PlayoutResult(statuses=[], mouth_to_ear_delay=0.1,
                              playout_delay=0.06, frames=10, ok=10)
        coupled = score_call(clean, clean, local, conversational_delay=2.0)
        assert coupled.z2 > 40.0
        assert coupled.mos < 2.7


class TestScales:
    def test_g114_classes(self):
        assert g114_class(0.05) == "acceptable"
        assert g114_class(0.2) == "problematic"
        assert g114_class(1.0) == "bad"

    def test_voip_bands(self):
        assert voip_mos_class(4.4) == "very satisfied"
        assert voip_mos_class(1.5) == "not recommended"

    def test_acr_bands(self):
        assert mos_class(4.6) == "excellent"
        assert mos_class(3.0) == "fair"
        assert mos_class(1.2) == "bad"

    def test_markers(self):
        assert heat_marker_from_mos(4.0) == "+"
        assert heat_marker_from_mos(2.8) == "o"
        assert heat_marker_from_mos(1.0) == "!"
        assert heat_marker_from_delay(0.05) == "+"
        assert heat_marker_from_delay(5.0) == "!"


class TestG1030:
    def test_anchors(self):
        assert g1030_mos(0.56) == 5.0
        assert g1030_mos(6.0) == 1.0
        assert g1030_mos(10.0) == 1.0
        assert g1030_mos(None) == 1.0

    def test_logarithmic_midpoint(self):
        # Geometric mean of the anchors maps to the middle of the scale.
        import math

        mid = math.sqrt(0.56 * 6.0)
        assert g1030_mos(mid) == pytest.approx(3.0, abs=0.01)

    def test_paper_examples(self):
        # §9.4: both 9 s and 5 s map to "bad"-ish scores despite the
        # large QoS difference.
        assert g1030_mos(9.0) == 1.0
        assert g1030_mos(5.0) < 1.4

    @given(st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=100)
    def test_property_monotone(self, plt):
        assert g1030_mos(plt) >= g1030_mos(plt + 0.1) - 1e-9

    def test_per_testbed_anchor(self):
        assert min_plt_for("access") == 0.56
        assert min_plt_for("backbone") == 0.85
