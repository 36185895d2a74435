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


#: Access testbed buffer sizes in packets (applied to uplink and
#: downlink alike, mirroring the paper which sweeps one size across both
#: directions): 8 ~ uplink BDP, 64 ~ downlink BDP, 256 the maximum.
ACCESS_BUFFER_SIZES = (8, 16, 32, 64, 128, 256)

#: Backbone testbed buffer sizes in packets: tiny buffers, Stanford,
#: BDP and 10x BDP.
BACKBONE_BUFFER_SIZES = (8, 28, 749, 7490)


def access_buffer_delays():
    """(size, uplink delay, downlink delay) rows of Table 2's access half."""
    return [
        (packets, max_queueing_delay(packets, AccessNetwork.UP_RATE),
         max_queueing_delay(packets, AccessNetwork.DOWN_RATE))
        for packets in ACCESS_BUFFER_SIZES
    ]


def backbone_buffer_delays():
    """(size, delay) rows of Table 2's backbone half."""
    return [
        (packets, max_queueing_delay(packets, BackboneNetwork.RATE))
        for packets in BACKBONE_BUFFER_SIZES
    ]
