"""Unit tests for the congestion-control algorithms."""

import pytest

from repro.tcp.cc import CongestionControl, Cubic, Reno, make_cc

MSS = 1460


class TestReno:
    def test_initial_window(self):
        cc = Reno(mss=MSS, initial_window_segments=3)
        assert cc.cwnd == 3 * MSS
        assert cc.in_slow_start

    def test_slow_start_doubles_per_window(self):
        cc = Reno(mss=MSS)
        start = cc.cwnd
        # One window's worth of ACKs in slow start ~ doubles cwnd.
        acked = 0
        while acked < start:
            cc.on_ack(MSS, now=1.0, srtt=0.1)
            acked += MSS
        assert cc.cwnd >= 2 * start - MSS

    def test_congestion_avoidance_linear(self):
        cc = Reno(mss=MSS)
        cc.ssthresh = 10 * MSS
        cc.cwnd = 20 * MSS
        before = cc.cwnd
        for __ in range(20):  # one window of ACKs
            cc.on_ack(MSS, now=1.0, srtt=0.1)
        assert cc.cwnd == pytest.approx(before + MSS, rel=0.01)

    def test_loss_halves(self):
        cc = Reno(mss=MSS)
        cc.cwnd = 100 * MSS
        cc.ssthresh = 50 * MSS
        cc.on_loss(flight_bytes=100 * MSS, now=1.0)
        assert cc.ssthresh == pytest.approx(50 * MSS)
        assert cc.cwnd == pytest.approx(50 * MSS)

    def test_loss_floor_two_segments(self):
        cc = Reno(mss=MSS)
        cc.on_loss(flight_bytes=MSS, now=1.0)
        assert cc.ssthresh == 2 * MSS

    def test_timeout_collapses_to_one_segment(self):
        cc = Reno(mss=MSS)
        cc.cwnd = 100 * MSS
        cc.on_timeout(flight_bytes=100 * MSS, now=1.0)
        assert cc.cwnd == MSS
        assert cc.ssthresh == pytest.approx(50 * MSS)


class TestCubic:
    def test_loss_uses_beta(self):
        cc = Cubic(mss=MSS)
        cc.cwnd = 100 * MSS
        cc.on_loss(flight_bytes=100 * MSS, now=5.0)
        assert cc.ssthresh == pytest.approx(100 * MSS * Cubic.BETA)
        assert cc.cwnd == pytest.approx(cc.ssthresh)
        assert cc.w_max == pytest.approx(100.0)

    def test_fast_convergence(self):
        cc = Cubic(mss=MSS)
        cc.w_max = 200.0
        cc.on_loss(flight_bytes=100 * MSS, now=5.0)
        assert cc.w_max == pytest.approx(100 * (2 - Cubic.BETA) / 2)

    def test_concave_growth_toward_wmax(self):
        cc = Cubic(mss=MSS)
        cc.ssthresh = 10 * MSS
        cc.cwnd = 70 * MSS
        cc.w_max = 100.0
        now = 0.0
        trajectory = []
        for step in range(400):
            now += 0.01
            cc.on_ack(MSS, now=now, srtt=0.1)
            trajectory.append(cc.cwnd / MSS)
        # Growth plateaus near w_max (concave region) before probing past it.
        assert trajectory[-1] > 95.0
        deltas = [b - a for a, b in zip(trajectory, trajectory[1:])]
        assert max(deltas[:50]) > max(deltas[150:250])

    def test_timeout_resets_epoch(self):
        cc = Cubic(mss=MSS)
        cc.ssthresh = MSS
        cc.on_ack(MSS, now=1.0, srtt=0.1)
        assert cc.epoch_start is not None
        cc.on_timeout(flight_bytes=10 * MSS, now=2.0)
        assert cc.epoch_start is None
        assert cc.cwnd == MSS


class TestSlowStartExit:
    """HyStart-style delay-based exit: threshold clamping + exact effects.

    These lock the numeric behaviour the hot-path rewrite touches:
    ``min_rtt / 8`` clamped to [4 ms, 16 ms], exit sets ``ssthresh`` to
    the *current* cwnd, and the <16-segment / missing-sample guards.
    """

    def _cc_in_slow_start(self):
        cc = Reno(mss=MSS)
        cc.cwnd = 32.0 * MSS  # >= 16 segments, still below ssthresh=inf
        return cc

    def test_threshold_floor_4ms(self):
        cc = self._cc_in_slow_start()
        # min_rtt/8 = 2 ms -> clamped up to 4 ms.
        assert cc.maybe_exit_slow_start(0.016 + 0.0039, 0.016) is False
        assert cc.in_slow_start
        assert cc.maybe_exit_slow_start(0.016 + 0.004, 0.016) is True
        assert cc.ssthresh == 32.0 * MSS  # exactly the cwnd at exit

    def test_threshold_cap_16ms(self):
        cc = self._cc_in_slow_start()
        # min_rtt/8 = 25 ms -> clamped down to 16 ms.
        assert cc.maybe_exit_slow_start(0.2 + 0.0159, 0.2) is False
        assert cc.maybe_exit_slow_start(0.2 + 0.016, 0.2) is True

    def test_threshold_midband_exact(self):
        cc = self._cc_in_slow_start()
        # min_rtt/8 = 8 ms: inside the clamp band, used as-is.
        assert cc.maybe_exit_slow_start(0.064 + 0.0079, 0.064) is False
        assert cc.maybe_exit_slow_start(0.064 + 0.008, 0.064) is True

    def test_no_exit_below_16_segments(self):
        cc = Reno(mss=MSS)
        cc.cwnd = 15.9 * MSS
        assert cc.maybe_exit_slow_start(10.0, 0.01) is False
        assert cc.ssthresh == float("inf")

    def test_no_exit_without_samples(self):
        cc = self._cc_in_slow_start()
        assert cc.maybe_exit_slow_start(None, 0.05) is False
        assert cc.maybe_exit_slow_start(0.05, None) is False

    def test_no_exit_outside_slow_start(self):
        cc = self._cc_in_slow_start()
        cc.ssthresh = cc.cwnd  # congestion avoidance
        assert cc.maybe_exit_slow_start(10.0, 0.01) is False


class TestTimeoutCollapse:
    """RTO during/after recovery: exact window collapse per algorithm."""

    @pytest.mark.parametrize("cls", [Reno, Cubic])
    def test_timeout_exact_values(self, cls):
        cc = cls(mss=MSS)
        cc.cwnd = 80.0 * MSS
        cc.ssthresh = 40.0 * MSS
        cc.on_timeout(flight_bytes=60 * MSS, now=3.0)
        assert cc.cwnd == float(MSS)  # exactly one segment
        assert cc.ssthresh == 30.0 * MSS  # flight/2

    @pytest.mark.parametrize("cls", [Reno, Cubic])
    def test_timeout_ssthresh_floor_two_segments(self, cls):
        cc = cls(mss=MSS)
        cc.on_timeout(flight_bytes=MSS, now=3.0)
        assert cc.ssthresh == 2.0 * MSS
        assert cc.cwnd == float(MSS)

    def test_cubic_timeout_resets_epoch_state(self):
        cc = Cubic(mss=MSS)
        cc.ssthresh = 10.0 * MSS
        cc.cwnd = 20.0 * MSS
        cc.on_ack(MSS, now=1.0, srtt=0.05)  # starts an epoch
        assert cc.epoch_start is not None
        cc.on_timeout(flight_bytes=20 * MSS, now=2.0)
        assert cc.epoch_start is None
        assert cc.cwnd == float(MSS)

    def test_timeout_during_recovery_sequence(self):
        """on_loss (enter recovery) then on_timeout: the timeout wins and
        collapses to one segment, with ssthresh from the *current*
        flight, not the pre-loss one."""
        cc = Cubic(mss=MSS)
        cc.ssthresh = 50.0 * MSS
        cc.cwnd = 100.0 * MSS
        cc.on_loss(flight_bytes=100 * MSS, now=1.0)
        assert cc.cwnd == cc.ssthresh == 70.0 * MSS  # BETA=0.7 exactly
        assert cc.w_max == 100.0
        cc.on_timeout(flight_bytes=10 * MSS, now=2.0)
        assert cc.cwnd == float(MSS)
        assert cc.ssthresh == 5.0 * MSS
        assert cc.epoch_start is None

    def test_exit_recovery_collapses_to_ssthresh(self):
        cc = Reno(mss=MSS)
        cc.cwnd = 100.0 * MSS
        cc.on_loss(flight_bytes=100 * MSS, now=1.0)
        cc.cwnd = 120.0 * MSS  # inflation during recovery
        cc.on_exit_recovery(now=2.0)
        assert cc.cwnd == cc.ssthresh == 50.0 * MSS


class TestByteCountingCap:
    """Appropriate byte counting: slow start grows by min(acked, MSS)."""

    @pytest.mark.parametrize("cls", [Reno, Cubic])
    def test_stretch_ack_capped_at_one_mss(self, cls):
        cc = cls(mss=MSS)
        before = cc.cwnd
        cc.on_ack(4 * MSS, now=1.0, srtt=0.05)  # stretch ACK
        assert cc.cwnd == before + MSS  # capped exactly at one MSS

    @pytest.mark.parametrize("cls", [Reno, Cubic])
    def test_partial_ack_counts_bytes(self, cls):
        cc = cls(mss=MSS)
        before = cc.cwnd
        cc.on_ack(500, now=1.0, srtt=0.05)
        assert cc.cwnd == before + 500  # below the cap: exact bytes


class TestFactory:
    def test_make_cc_by_name(self):
        assert isinstance(make_cc("reno"), Reno)
        assert isinstance(make_cc("cubic"), Cubic)

    def test_make_cc_unknown(self):
        with pytest.raises(ValueError):
            make_cc("vegas")

    def test_base_class_is_abstract_for_on_ack(self):
        cc = CongestionControl()
        with pytest.raises(NotImplementedError):
            cc.on_ack(MSS, 0.0, 0.1)
