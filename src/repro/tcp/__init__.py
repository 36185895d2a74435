"""From-scratch TCP: connections, listeners and congestion control.

The paper's background traffic ran Linux TCP Reno on the backbone testbed
and BIC/CUBIC on the access testbed (§5.2; CUBIC is modelled here);
web-page fetches ran over a persistent connection.  This package reimplements the pieces of TCP those
experiments exercise:

* three-way handshake and FIN teardown,
* cumulative ACKs, duplicate-ACK fast retransmit and NewReno fast
  recovery,
* Karn-safe RTT estimation via timestamp echo, Jacobson RTO with
  exponential backoff,
* delayed ACKs,
* pluggable congestion control: Reno and CUBIC,
* large (scaled) windows — the receive window never binds.
"""

from repro.tcp.cc import CongestionControl, Cubic, Reno, make_cc
from repro.tcp.connection import TcpConnection, TcpStats
from repro.tcp.listener import TcpListener

__all__ = [
    "CongestionControl",
    "Reno",
    "Cubic",
    "make_cc",
    "TcpConnection",
    "TcpStats",
    "TcpListener",
]
