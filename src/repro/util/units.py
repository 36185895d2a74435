"""Unit constants and conversion helpers.

Internally the simulator uses SI base units everywhere: seconds for time,
bits per second for rates, and bytes for sizes.  These helpers exist so
that configuration code reads like the paper ("16 Mbit/s", "5 ms") instead
of raw exponents.
"""

# Rate units (bits per second).
MBPS = 1_000_000.0
GBPS = 1_000_000_000.0

# Time units (seconds).
MS = 1e-3


def ms(value):
    """Return ``value`` milliseconds expressed in seconds."""
    return value * MS
