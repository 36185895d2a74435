"""ITU-T G.107 E-model (the paper's z2 delay impairment, §7.1).

The E-model composes a transmission rating factor::

    R = Ro - Is - Id - Ie,eff + A

With all default parameters (G.711, no echo, no noise) the budget is
R = 93.2.  The paper uses the *delay impairment* ``Id`` — dominated by
``Idd``, the pure-delay term — as the score z2 on the R scale [0, 100],
and the G.107 Annex B polynomial to map R scores to MOS.

``Ie,eff`` (packet-loss impairment) is implemented as well: the full
E-model is exposed for the AQM ablations and for tests, even though the
paper's combination builds its loss sensitivity into z1 (PESQ) instead.
"""

import math

#: Default transmission rating budget with G.107 defaults.
DEFAULT_R0 = 93.2

#: Packet-loss robustness of G.711 with packet-loss concealment (ITU-T
#: G.113 Appendix I; 4.3 without concealment).
G711_BPL_PLC = 25.1
G711_IE = 0.0


def delay_impairment(one_way_delay):
    """G.107 delay impairment factor Idd for a one-way delay in seconds.

    Zero below 100 ms, then the standard's sixth-order interpolation —
    roughly 25 R-points at ~390 ms and saturating toward 50 for
    multi-second (bufferbloat) delays.
    """
    ta_ms = one_way_delay * 1000.0
    if ta_ms <= 100.0:
        return 0.0
    x = math.log(ta_ms / 100.0, 2.0)
    term1 = (1.0 + x ** 6) ** (1.0 / 6.0)
    term2 = 3.0 * (1.0 + (x / 3.0) ** 6) ** (1.0 / 6.0)
    return 25.0 * (term1 - term2 + 2.0)


def loss_impairment(loss_rate, ie=G711_IE, bpl=G711_BPL_PLC, burst_ratio=1.0):
    """G.107 effective equipment impairment Ie,eff.

    ``loss_rate`` is the end-to-end packet-loss probability in [0, 1];
    ``burst_ratio`` 1.0 means random loss, larger means burstier.
    """
    ppl = max(0.0, min(1.0, loss_rate)) * 100.0
    if ppl == 0.0:
        return ie
    return ie + (95.0 - ie) * ppl / (ppl / burst_ratio + bpl)


def r_to_mos(r):
    """G.107 Annex B mapping from the R scale to MOS (1.0 .. 4.5)."""
    if r <= 0.0:
        return 1.0
    if r >= 100.0:
        return 4.5
    return 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6


def mos_to_r(mos):
    """Numeric inverse of :func:`r_to_mos` (bisection on [0, 100])."""
    target = max(1.0, min(4.5, mos))
    lo, hi = 0.0, 100.0
    for __ in range(60):
        mid = (lo + hi) / 2.0
        if r_to_mos(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class EModel:
    """Convenience wrapper with fixed codec parameters.

    >>> model = EModel()
    >>> r, mos = model.score(one_way_delay=0.05, loss_rate=0.0)
    >>> round(mos, 1)
    4.4
    """

    def __init__(self, r0=DEFAULT_R0, ie=G711_IE, bpl=G711_BPL_PLC,
                 burst_ratio=1.0, advantage=0.0):
        self.r0 = r0
        self.ie = ie
        self.bpl = bpl
        self.burst_ratio = burst_ratio
        self.advantage = advantage

    def rating(self, one_way_delay, loss_rate=0.0):
        """Full R factor in [0, 100]; ``one_way_delay`` in seconds,
        ``loss_rate`` a fraction in [0, 1]."""
        r = (self.r0
             - delay_impairment(one_way_delay)
             - loss_impairment(loss_rate, self.ie, self.bpl, self.burst_ratio)
             + self.advantage)
        return max(0.0, min(100.0, r))

    def score(self, one_way_delay, loss_rate=0.0):
        """Return ``(R, MOS)`` for a delay (seconds) / loss (fraction)
        operating point."""
        r = self.rating(one_way_delay, loss_rate)
        return r, r_to_mos(r)
