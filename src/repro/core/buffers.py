"""Buffer-size catalog and sizing rules (Table 2).

The paper configures the bottleneck buffers in *packets*:

* Access (asymmetric 1/16 Mbit/s): powers of two from 8 to 256 packets —
  8 is roughly the uplink BDP, 64 the downlink BDP, 256 the maximum of
  the Stanford reference router and deep into bufferbloat territory.
* Backbone (OC-3): 8 ("tiny buffers", Enachescu et al.), 28 (Stanford
  BDP/sqrt(n) with n = 768), 749 (BDP at 60 ms RTT) and 7490 (10x BDP,
  the excessive-buffering scheme).
"""

import math
from dataclasses import dataclass

from repro.sim.topology import FULL_PACKET_BYTES, AccessNetwork, BackboneNetwork


def bdp_packets(rate_bps, rtt_seconds, packet_bytes=FULL_PACKET_BYTES):
    """Bandwidth-delay product in full-sized packets (rounded down)."""
    return max(1, int((rate_bps * rtt_seconds) / (8.0 * packet_bytes)))


def stanford_packets(rate_bps, rtt_seconds, n_flows,
                     packet_bytes=FULL_PACKET_BYTES):
    """Appenzeller et al.'s BDP/sqrt(n) rule."""
    if n_flows < 1:
        raise ValueError("n_flows must be >= 1")
    return max(1, int(bdp_packets(rate_bps, rtt_seconds, packet_bytes)
                      / math.sqrt(n_flows)))


def max_queueing_delay(packets, rate_bps):
    """Worst-case queueing delay of a full buffer of full-sized packets,
    in seconds."""
    return (packets * FULL_PACKET_BYTES * 8.0) / rate_bps


@dataclass(frozen=True)
class BufferConfig:
    """One buffer configuration of the study.

    ``scheme`` is the paper's label for the sizing rule the size
    corresponds to ("~BDP", "Stanford", "TinyBuf", "10xBDP", ...).
    """

    packets: int
    scheme: str = ""

    def delay_at(self, rate_bps):
        """Maximum queueing delay this buffer can add at ``rate_bps``."""
        return max_queueing_delay(self.packets, rate_bps)

    def __str__(self):
        if self.scheme:
            return "%d pkts (%s)" % (self.packets, self.scheme)
        return "%d pkts" % self.packets


#: Access testbed buffer sizes (applied to uplink and downlink alike,
#: mirroring the paper which sweeps one size across both directions).
ACCESS_BUFFERS = (
    BufferConfig(8, "~BDP up / min down"),
    BufferConfig(16, ""),
    BufferConfig(32, ""),
    BufferConfig(64, "~BDP down"),
    BufferConfig(128, ""),
    BufferConfig(256, "max"),
)

#: Backbone testbed buffer sizes.
BACKBONE_BUFFERS = (
    BufferConfig(8, "~TinyBuf"),
    BufferConfig(28, "Stanford"),
    BufferConfig(749, "BDP"),
    BufferConfig(7490, "10xBDP"),
)


def access_buffer_delays():
    """(size, uplink delay, downlink delay) rows of Table 2's access half."""
    rows = []
    for config in ACCESS_BUFFERS:
        rows.append((
            config.packets,
            config.delay_at(AccessNetwork.UP_RATE),
            config.delay_at(AccessNetwork.DOWN_RATE),
        ))
    return rows


def backbone_buffer_delays():
    """(size, delay) rows of Table 2's backbone half."""
    return [
        (config.packets, config.delay_at(BackboneNetwork.RATE))
        for config in BACKBONE_BUFFERS
    ]
