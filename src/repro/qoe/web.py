"""WebQoE: ITU-T G.1030 one-page model (§9.1).

G.1030 maps page-load times logarithmically onto the ACR MOS scale for
web information-retrieval tasks.  The paper anchors the mapping with a
maximum PLT of six seconds ("bad") and a minimum — "excellent" — PLT of
0.56 s on the access testbed and 0.85 s on the backbone (their
respective baseline loading times, dominated by 14 RTTs).
"""

import math

#: The paper's G.1030 anchors.
MAX_PLT = 6.0
ACCESS_MIN_PLT = 0.56
BACKBONE_MIN_PLT = 0.85


def g1030_mos(plt, min_plt=ACCESS_MIN_PLT):
    """Map a page-load time (seconds) to MOS in [1, 5].

    Logarithmic interpolation between ``min_plt`` (MOS 5) and
    :data:`MAX_PLT` (MOS 1), clipped outside.
    """
    if plt is None:
        return 1.0
    if plt <= min_plt:
        return 5.0
    if plt >= MAX_PLT:
        return 1.0
    span = math.log(MAX_PLT) - math.log(min_plt)
    return 1.0 + 4.0 * (math.log(MAX_PLT) - math.log(plt)) / span


def min_plt_for(testbed):
    """The paper's per-testbed "excellent" anchor."""
    return ACCESS_MIN_PLT if testbed == "access" else BACKBONE_MIN_PLT
