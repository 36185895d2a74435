"""Packet model.

A single slotted class carries every protocol the reproduction needs.
Keeping one concrete type (instead of a subclass per protocol) keeps the
hot path — queue/link handling, which only reads ``size`` — free of
dynamic dispatch, while transport demultiplexing switches on ``proto``.

Sizes are *wire* sizes in bytes, i.e. payload plus IP/transport header
overhead, because the buffers under study are counted in (full-sized)
packets and the links serialize wire bytes.

Packets are plain objects: nothing recycles them, so a transport or
application callback may keep a delivered packet for as long as it likes.
"""

# TCP flag bits.
FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4

# Wire overheads (bytes).
IPV4_HEADER = 20
TCP_HEADER = 20  # without options; timestamps are modelled, not serialized
UDP_HEADER = 8
RTP_HEADER = 12


class Packet:
    """One packet on the wire.

    Attributes
    ----------
    src, dst:
        Integer node addresses.
    sport, dport:
        Transport ports.
    proto:
        ``"tcp"`` or ``"udp"``.
    size:
        Wire size in bytes (headers included).
    seq, ack_no, flags, payload_len, ts, ts_echo:
        TCP fields (byte sequence numbers; ``ts``/``ts_echo`` model the
        timestamp option used for Karn-safe RTT sampling; ``ts_echo < 0``
        means "nothing to echo" — simulated time 0.0 is a valid stamp).
    payload:
        Opaque application object (RTP frame descriptors, HTTP message
        markers...).  Never inspected below the transport layer.
    scheduled_at:
        When its arrival at the next node was scheduled, i.e. when it
        entered its current edge link
        (:meth:`repro.sim.link.EdgeLink.send_at` stamps it).  A
        :class:`repro.sim.link.DropTailLink` breaks arrival/completion
        ties with it.
    """

    __slots__ = (
        "src",
        "dst",
        "sport",
        "dport",
        "proto",
        "size",
        "seq",
        "ack_no",
        "flags",
        "payload_len",
        "ts",
        "ts_echo",
        "payload",
        "scheduled_at",
    )

    def __init__(
        self,
        src,
        dst,
        sport,
        dport,
        proto,
        size,
        seq=0,
        ack_no=0,
        flags=0,
        payload_len=0,
        ts=0.0,
        ts_echo=-1.0,
        payload=None,
    ):
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto
        self.size = size
        self.seq = seq
        self.ack_no = ack_no
        self.flags = flags
        self.payload_len = payload_len
        self.ts = ts
        self.ts_echo = ts_echo
        self.payload = payload
        self.scheduled_at = 0.0

    def flag_names(self):
        """Human-readable flag list (for logs and tests)."""
        names = []
        if self.flags & FLAG_SYN:
            names.append("SYN")
        if self.flags & FLAG_ACK:
            names.append("ACK")
        if self.flags & FLAG_FIN:
            names.append("FIN")
        return names

    def __repr__(self):
        core = "%s %d:%d>%d:%d size=%d" % (
            self.proto,
            self.src,
            self.sport,
            self.dst,
            self.dport,
            self.size,
        )
        if self.proto == "tcp":
            core += " seq=%d ack=%d len=%d %s" % (
                self.seq,
                self.ack_no,
                self.payload_len,
                "|".join(self.flag_names()),
            )
        return "Packet(%s)" % core
