"""ITU-T G.107 E-model (the paper's z2 delay impairment, §7.1).

The E-model composes a transmission rating factor::

    R = Ro - Is - Id - Ie,eff + A

The paper uses only two of its parts: the *delay impairment* ``Id`` —
dominated by ``Idd``, the pure-delay term — as the score z2 on the R
scale [0, 100], and the G.107 Annex B polynomial to map R scores to MOS.
Its combination builds loss sensitivity into z1 (PESQ) instead of
``Ie,eff``, so the loss half of the E-model lives only in the tests,
which check the standard's anchor points.
"""

import math


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
