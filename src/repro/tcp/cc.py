"""Congestion-control algorithms: Reno, BIC and CUBIC.

The algorithm object owns ``cwnd`` and ``ssthresh`` (bytes).  The
connection calls:

* :meth:`on_ack` for every ACK that advances ``snd_una`` outside recovery,
* :meth:`on_loss` when entering fast recovery (dup-ACK loss detection),
* :meth:`on_exit_recovery` when recovery completes,
* :meth:`on_timeout` when the retransmission timer fires.

Windows are floats in bytes; the connection rounds down to whole segments
when deciding what to transmit.  BIC and CUBIC follow the published
algorithms (Xu et al. 2004; Ha/Rhee/Xu 2008, RFC 8312) with windows
expressed in segments internally.
"""

INFINITE_SSTHRESH = float("inf")


class CongestionControl:
    """Base class: window state plus the Reno slow-start machinery."""

    name = "base"

    def __init__(self, mss=1460, initial_window_segments=3):
        self.mss = mss
        self.cwnd = float(initial_window_segments * mss)
        self.ssthresh = INFINITE_SSTHRESH

    # -- helpers --------------------------------------------------------
    @property
    def in_slow_start(self):
        return self.cwnd < self.ssthresh

    def _slow_start_increase(self, acked_bytes):
        # Appropriate byte counting, capped at one MSS per ACK.
        self.cwnd += min(acked_bytes, self.mss)

    def maybe_exit_slow_start(self, rtt_sample, min_rtt):
        """HyStart-style delay-based slow-start exit.

        Linux has shipped HyStart with CUBIC/BIC since 2.6.29: once RTT
        samples exceed the path minimum by a threshold (min_rtt/8 clamped
        to [4 ms, 16 ms]), the queue is clearly building and slow start
        ends by setting ``ssthresh`` to the current window.  Without this,
        slow start overshoots to ~2x (BDP + buffer) and the first seconds
        of every flow are a loss storm.
        """
        if not self.in_slow_start or self.cwnd < 16 * self.mss:
            return False
        if rtt_sample is None or min_rtt is None:
            return False
        threshold = min(max(min_rtt / 8.0, 0.004), 0.016)
        if rtt_sample >= min_rtt + threshold:
            self.ssthresh = self.cwnd
            return True
        return False

    # -- events ---------------------------------------------------------
    def on_ack(self, acked_bytes, now, srtt):
        raise NotImplementedError

    def on_loss(self, flight_bytes, now):
        """Dup-ACK loss: set ssthresh, deflate cwnd.  Returns new ssthresh."""
        raise NotImplementedError

    def on_exit_recovery(self, now):
        """Recovery finished; cwnd collapses to ssthresh (standard)."""
        self.cwnd = self.ssthresh

    def on_timeout(self, flight_bytes, now):
        """RTO: ssthresh per algorithm, cwnd back to one segment."""
        self.ssthresh = max(flight_bytes / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)

    def __repr__(self):
        return "%s(cwnd=%.0f, ssthresh=%s)" % (
            type(self).__name__,
            self.cwnd,
            "inf" if self.ssthresh == INFINITE_SSTHRESH else "%.0f" % self.ssthresh,
        )


class Reno(CongestionControl):
    """Classic Reno: slow start, then +1 MSS per RTT; halve on loss."""

    name = "reno"

    def on_ack(self, acked_bytes, now, srtt):
        if self.in_slow_start:
            self._slow_start_increase(acked_bytes)
        else:
            self.cwnd += self.mss * self.mss / self.cwnd

    def on_loss(self, flight_bytes, now):
        self.ssthresh = max(flight_bytes / 2.0, 2.0 * self.mss)
        self.cwnd = self.ssthresh
        return self.ssthresh


class Bic(CongestionControl):
    """Binary Increase Congestion control (Xu, Harfoush, Rhee 2004).

    Above ``LOW_WINDOW`` segments, the window binary-searches toward the
    pre-loss maximum (capped at ``S_MAX`` per RTT, floored at ``S_MIN``)
    and probes additively beyond it.  Below ``LOW_WINDOW`` it behaves
    like Reno.
    """

    name = "bic"

    LOW_WINDOW = 14.0  # segments
    S_MAX = 16.0  # max increment, segments per RTT (Linux BICTCP_MAX_INCREMENT)
    S_MIN = 0.01  # min increment, segments per RTT
    BETA = 0.8  # multiplicative decrease (BIC uses 0.8/0.875 variants)

    def __init__(self, mss=1460, initial_window_segments=3):
        super().__init__(mss, initial_window_segments)
        self.w_max = 0.0  # segments

    def _segments(self):
        return self.cwnd / self.mss

    def on_ack(self, acked_bytes, now, srtt):
        if self.in_slow_start:
            self._slow_start_increase(acked_bytes)
            return
        w = self._segments()
        if w < self.LOW_WINDOW or self.w_max <= 0.0:
            increment = 1.0  # Reno-like regime
        elif w < self.w_max:
            distance = (self.w_max - w) / 2.0  # binary search step
            increment = min(max(distance, self.S_MIN), self.S_MAX)
        else:
            # Max probing: slow start-like departure from w_max.
            distance = w - self.w_max
            increment = min(max(distance, self.S_MIN), self.S_MAX)
        # Spread the per-RTT increment over one window of ACKs.
        self.cwnd += self.mss * increment / max(w, 1.0)

    def on_loss(self, flight_bytes, now):
        w = flight_bytes / self.mss
        if w < self.w_max:
            # Fast convergence: release bandwidth for newer flows.
            self.w_max = w * (1.0 + self.BETA) / 2.0
        else:
            self.w_max = w
        self.ssthresh = max(flight_bytes * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh
        return self.ssthresh


class Cubic(CongestionControl):
    """CUBIC (RFC 8312): cubic window growth in real time + TCP friendliness."""

    name = "cubic"

    C = 0.4  # scaling constant (segments / s^3)
    BETA = 0.7  # multiplicative decrease

    def __init__(self, mss=1460, initial_window_segments=3):
        super().__init__(mss, initial_window_segments)
        self.w_max = 0.0  # segments
        self.epoch_start = None
        self.k = 0.0
        self.ack_count = 0
        self.w_est = 0.0

    def _reset_epoch(self, now):
        w = self.cwnd / self.mss
        self.epoch_start = now
        if self.w_max > w:
            self.k = ((self.w_max - w) / self.C) ** (1.0 / 3.0)
        else:
            self.k = 0.0
        self.ack_count = 0
        self.w_est = w

    def on_ack(self, acked_bytes, now, srtt):
        if self.in_slow_start:
            self._slow_start_increase(acked_bytes)
            return
        if self.epoch_start is None:
            self._reset_epoch(now)
        rtt = srtt if srtt and srtt > 0 else 0.1
        t = now - self.epoch_start + rtt
        w_cubic = self.C * (t - self.k) ** 3 + self.w_max  # segments
        # TCP-friendly region estimate (average Reno window at same time).
        self.w_est += 3.0 * (1.0 - self.BETA) / (1.0 + self.BETA) * (
            acked_bytes / self.cwnd
        )
        target = max(w_cubic, self.w_est)
        w = self.cwnd / self.mss
        if target > w:
            # Approach the target over the next window of ACKs.
            self.cwnd += self.mss * (target - w) / w
        else:
            self.cwnd += self.mss * 0.01 / w  # minimal growth when ahead

    def on_loss(self, flight_bytes, now):
        w = flight_bytes / self.mss
        if w < self.w_max:
            # Fast convergence.
            self.w_max = w * (2.0 - self.BETA) / 2.0
        else:
            self.w_max = w
        self.epoch_start = None
        self.ssthresh = max(flight_bytes * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh
        return self.ssthresh

    def on_timeout(self, flight_bytes, now):
        super().on_timeout(flight_bytes, now)
        self.epoch_start = None


_CC_BY_NAME = {"reno": Reno, "bic": Bic, "cubic": Cubic}


def make_cc(name, mss=1460, initial_window_segments=3):
    """Instantiate a congestion-control algorithm by name."""
    try:
        cls = _CC_BY_NAME[name]
    except KeyError:
        raise ValueError(
            "unknown congestion control %r (have %s)" % (name, sorted(_CC_BY_NAME))
        ) from None
    return cls(mss=mss, initial_window_segments=initial_window_segments)
