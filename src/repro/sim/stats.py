"""Measurement probes attached to the running simulation."""

import numpy as np

from repro.sim.engine import Timer


class UtilizationSampler:
    """Samples per-bin link utilization — Figure 5's boxplot input.

    Every ``bin_seconds`` the sampler records the fraction of the
    interface's capacity used during the elapsed bin.  Call :meth:`start`
    after warm-up and :meth:`stop` at the end of the measurement window.
    """

    def __init__(self, sim, interface, bin_seconds=1.0):
        self.sim = sim
        self.interface = interface
        self.bin_seconds = bin_seconds
        self.samples = []
        self._last_bytes = 0
        self._armed_at = 0.0
        self._timer = Timer(sim, self._tick)

    def start(self):
        """Begin sampling at the next bin boundary."""
        self.samples = []
        self._last_bytes = self.interface.stats.tx_bytes
        self._armed_at = self.sim.now
        self._timer.restart(self.bin_seconds)

    def _tick(self):
        # A transmission completing exactly now counts iff the engine
        # would run it first: the interface replays its lazy counters
        # as an event scheduled when this tick was armed.
        now_bytes = self.interface.stats_at(self._armed_at).tx_bytes
        delta = now_bytes - self._last_bytes
        self._last_bytes = now_bytes
        capacity = self.interface.rate_bps * self.bin_seconds / 8.0
        self.samples.append(min(1.0, delta / capacity))
        self._armed_at = self.sim.now
        self._timer.start(self.bin_seconds)

    def stop(self):
        """Stop sampling."""
        self._timer.cancel()


def five_number_summary(samples):
    """Return (min, q1, median, q3, max) of ``samples`` as floats."""
    if len(samples) == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(samples, dtype=float)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return (float(arr.min()), float(q1), float(med), float(q3), float(arr.max()))
