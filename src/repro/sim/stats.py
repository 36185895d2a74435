"""Measurement probes attached to the running simulation."""

import numpy as np


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
        self._event = None

    def start(self):
        """Begin sampling at the next bin boundary."""
        self.samples = []
        self._last_bytes = self.interface.stats.tx_bytes
        self._event = self.sim.schedule(self.bin_seconds, self._tick)

    def _tick(self):
        now_bytes = self.interface.stats.tx_bytes
        delta = now_bytes - self._last_bytes
        self._last_bytes = now_bytes
        capacity = self.interface.rate_bps * self.bin_seconds / 8.0
        self.samples.append(min(1.0, delta / capacity))
        self._event = self.sim.schedule(self.bin_seconds, self._tick)

    def stop(self):
        """Stop sampling."""
        if self._event is not None:
            self._event.cancel()
            self._event = None


def five_number_summary(samples):
    """Return (min, q1, median, q3, max) of ``samples`` as floats."""
    if len(samples) == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(samples, dtype=float)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return (float(arr.min()), float(q1), float(med), float(q3), float(arr.max()))
