"""TCP connection state machine.

Implements the subset of TCP that the paper's experiments exercise, on
top of the simulator's packet/node layer:

* handshake (SYN / SYN-ACK / ACK) and FIN teardown, with retransmission;
* byte-stream sequence space: the SYN occupies sequence 0, application
  data starts at sequence 1, a FIN occupies one sequence number;
* cumulative ACKs with delayed-ACK policy (ack every second segment or
  after 40 ms, immediate ACK on out-of-order data);
* duplicate-ACK fast retransmit with NewReno fast recovery (partial-ACK
  retransmission, window inflation during recovery);
* retransmission timeout with Jacobson/Karn estimation — RTT samples come
  from a modelled timestamp-echo option, so samples from retransmitted
  segments remain valid;
* pluggable congestion control (:mod:`repro.tcp.cc`).

Applications talk to connections through a message-oriented facade:
:meth:`TcpConnection.send` queues ``nbytes`` and optionally marks the end
of an application message; the receiving side fires ``on_message`` once
every byte of that message has been delivered in order.  Actual payload
bytes are never materialized — only counts flow through the simulator —
but delivery ordering, retransmission and flow dynamics are real.
"""

import heapq
from bisect import bisect_right

from repro.sim.engine import Timer
from repro.sim.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_SYN,
    IPV4_HEADER,
    TCP_HEADER,
    Packet,
)
from repro.tcp.cc import MSS, Reno

# Connection states (strings keep debugging output readable).
CLOSED = "closed"
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"
FIN_WAIT = "fin-wait"  # our FIN sent, waiting for its ACK / peer FIN
CLOSE_WAIT = "close-wait"  # peer FIN consumed, we may still send
LAST_ACK = "last-ack"  # peer FIN consumed and our FIN sent

INITIAL_RTO = 1.0
MIN_RTO = 0.2
MAX_RTO = 60.0
DELACK_TIMEOUT = 0.040
DUPACK_THRESHOLD = 3
MAX_HANDSHAKE_RETRIES = 6

#: Sentinel stream length for send_forever() sources.
_INFINITE_BYTES = 1 << 62


class TcpStats:
    """Per-connection loss-recovery counters: fast retransmits, RTOs and
    retransmitted segments (every data or FIN segment sent below the send
    high-water mark, go-back-N resends after an RTO included)."""

    __slots__ = ("fast_retransmits", "timeouts", "retransmitted_segments")

    def __init__(self):
        self.fast_retransmits = 0
        self.timeouts = 0
        self.retransmitted_segments = 0


class TcpConnection:
    """One endpoint of a TCP connection.

    Client side::

        conn = TcpConnection(sim, node, peer_addr=server.addr, peer_port=80)
        conn.on_established = lambda c: c.send(300, meta="GET /")
        conn.connect()

    Server side: created by :class:`repro.tcp.listener.TcpListener`.
    """

    __slots__ = (
        "sim", "node", "peer_addr", "peer_port", "local_port", "cc", "mss",
        "delayed_ack", "state", "stats",
        "on_established", "on_data", "on_message", "on_peer_fin", "on_close",
        "snd_una", "snd_nxt", "_snd_max", "_app_bytes", "_infinite",
        "_fin_pending", "_fin_sent", "_fin_acked", "_fin_seq",
        "_tx_marker_offsets", "_tx_marker_meta", "_dupacks", "_in_recovery",
        "_recover",
        "_inflation", "_partial_acks", "srtt", "rttvar",
        "min_rtt", "rto", "_rto_timer", "_handshake_retries",
        "rcv_nxt", "_rx_holes", "_rx_marker_heap", "_rx_marker_seen",
        "_peer_fin_seq", "_peer_fin_consumed", "_delack_timer",
        "_pending_ack_segments", "_ts_to_echo",
    )

    def __init__(
        self,
        sim,
        node,
        peer_addr,
        peer_port,
        local_port=None,
        cc=None,
        delayed_ack=True,
    ):
        self.sim = sim
        self.node = node
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.local_port = node.allocate_port() if local_port is None else local_port
        self.cc = cc if cc is not None else Reno()
        self.mss = MSS
        self.delayed_ack = delayed_ack
        self.state = CLOSED
        self.stats = TcpStats()

        # Application callbacks (assign after construction).
        self.on_established = None
        self.on_data = None  # fn(conn, delivered_bytes)
        self.on_message = None  # fn(conn, meta)
        self.on_peer_fin = None  # fn(conn)
        self.on_close = None  # fn(conn)

        # --- sender state -------------------------------------------------
        self.snd_una = 0
        self.snd_nxt = 0
        self._snd_max = 0  # send high-water mark: highest seq sent + 1
        self._app_bytes = 0  # bytes queued by the application
        self._infinite = False
        self._fin_pending = False
        self._fin_sent = False
        self._fin_acked = False
        self._fin_seq = None
        self._tx_marker_offsets = []
        self._tx_marker_meta = []
        self._dupacks = 0
        self._in_recovery = False
        self._recover = 0
        self._inflation = 0.0
        self._partial_acks = 0
        self.srtt = None
        self.rttvar = None
        self.min_rtt = None  # minimum raw RTT sample (HyStart baseline)
        self.rto = INITIAL_RTO
        self._rto_timer = Timer(sim, self._on_rto)
        self._handshake_retries = 0

        # --- receiver state -------------------------------------------------
        self.rcv_nxt = 0
        self._rx_holes = None  # lazily created IntervalSet for OOO data
        self._rx_marker_heap = []
        self._rx_marker_seen = set()
        self._peer_fin_seq = None
        self._peer_fin_consumed = False
        self._delack_timer = Timer(sim, self._send_ack_now)
        self._pending_ack_segments = 0
        self._ts_to_echo = -1.0  # < 0 means "nothing to echo"

        node.register_tcp(peer_addr, peer_port, self.local_port, self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def connect(self):
        """Actively open the connection (client side)."""
        if self.state != CLOSED:
            raise RuntimeError("connect() on %s connection" % self.state)
        self.state = SYN_SENT
        self.snd_una = 0
        self.snd_nxt = 1  # SYN consumes sequence 0
        self._send_control(FLAG_SYN, seq=0)
        self._rto_timer.restart(self.rto)

    def send(self, nbytes, meta=None):
        """Queue ``nbytes`` of application data.

        When ``meta`` is given, the byte at the end of this call marks an
        application-message boundary: the peer's ``on_message(conn, meta)``
        fires once everything up to it has been delivered in order.
        """
        if nbytes < 0:
            raise ValueError("cannot send %d bytes" % nbytes)
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("send() after close()")
        self._app_bytes += nbytes
        if meta is not None:
            self._tx_marker_offsets.append(self._app_bytes)
            self._tx_marker_meta.append(meta)
        self._try_send()

    def send_forever(self):
        """Turn this endpoint into an infinite (long-lived) data source."""
        self._infinite = True
        self._try_send()

    def close(self):
        """Half-close: send a FIN once all queued data is out."""
        if self._infinite:
            raise RuntimeError("close() on an infinite source")
        self._fin_pending = True
        self._try_send()

    def abort(self):
        """Tear down immediately without FIN (used at experiment end)."""
        self._rto_timer.cancel()
        self._delack_timer.cancel()
        if self.state != CLOSED:
            self.state = CLOSED
            self.node.unregister_tcp(self.peer_addr, self.peer_port, self.local_port)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def flight_size(self):
        """Unacknowledged sequence span (bytes)."""
        return self.snd_nxt - self.snd_una

    @property
    def close_requested(self):
        """True once close() was called (FIN pending or sent)."""
        return self._fin_pending or self._fin_sent

    # ------------------------------------------------------------------
    # Sending machinery
    # ------------------------------------------------------------------
    def _data_end_seq(self):
        if self._infinite:
            return _INFINITE_BYTES
        return 1 + self._app_bytes

    def _try_send(self):
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT, LAST_ACK):
            return
        data_end = self._data_end_seq()
        mss = self.mss
        cc = self.cc
        while True:
            # Usable window: cwnd + inflation.  cwnd may move inside the
            # loop (never does today), so re-read it.
            limit = self.snd_una + (cc.cwnd + self._inflation)
            snd_nxt = self.snd_nxt
            if snd_nxt >= limit:
                break
            if snd_nxt < data_end:
                payload = int(min(mss, data_end - snd_nxt, limit - snd_nxt))
                if payload <= 0:
                    break
                self._send_segment(snd_nxt, payload)
                self.snd_nxt = snd_nxt + payload
            elif self._fin_pending and not self._fin_sent:
                self._fin_seq = self.snd_nxt
                self._send_fin(self.snd_nxt)
                self._fin_sent = True
                self.snd_nxt += 1
                if self.state == ESTABLISHED:
                    self.state = FIN_WAIT
                elif self.state == CLOSE_WAIT:
                    self.state = LAST_ACK
                break
            else:
                break
        if self.snd_nxt > self.snd_una:
            rto_timer = self._rto_timer
            entry = rto_timer._entry
            if entry is None or entry[2] is None:  # inline Timer.active
                rto_timer.restart(self.rto)

    def _markers_for(self, seq, payload_len):
        """Message markers whose end offset falls inside this segment.

        Zero-length messages produce markers at offset 0 which no data
        byte covers; they ride on the first data segment (and on the FIN,
        see :meth:`_all_markers`).
        """
        if not self._tx_marker_offsets:
            return None
        stream_start = seq - 1  # data offset of the segment's first byte
        if stream_start == 0:
            lo = 0  # include zero-offset markers on the first segment
        else:
            lo = bisect_right(self._tx_marker_offsets, stream_start)
        hi = bisect_right(self._tx_marker_offsets, stream_start + payload_len)
        if lo == hi:
            return None
        return [
            (self._tx_marker_offsets[i], i, self._tx_marker_meta[i])
            for i in range(lo, hi)
        ]

    def _all_markers(self):
        """Every marker queued so far — attached to FINs as a safety net.

        Receivers deduplicate by marker id, so re-announcing is harmless
        and guarantees that markers for zero-length messages arrive even
        when no data segment ever carried them.
        """
        if not self._tx_marker_offsets:
            return None
        return [
            (offset, i, meta)
            for i, (offset, meta) in enumerate(
                zip(self._tx_marker_offsets, self._tx_marker_meta)
            )
        ]

    def _send_segment(self, seq, payload_len):
        now = self.sim.now
        markers = (self._markers_for(seq, payload_len)
                   if self._tx_marker_offsets else None)
        packet = Packet(
            self.node.addr,          # src
            self.peer_addr,          # dst
            self.local_port,         # sport
            self.peer_port,          # dport
            "tcp",
            IPV4_HEADER + TCP_HEADER + payload_len,
            seq,
            self.rcv_nxt,            # ack_no
            FLAG_ACK,
            payload_len,
            now,                     # ts
            self._ts_to_echo,
            markers,
        )
        snd_max = self._snd_max
        if seq < snd_max:
            self.stats.retransmitted_segments += 1
        if seq + payload_len > snd_max:
            self._snd_max = seq + payload_len
        # Data segments piggyback the current ACK: cancel any pending one
        # (guarded inline — the timer is idle for almost every segment a
        # bulk sender pushes).
        delack = self._delack_timer
        if delack._entry is not None:
            delack.cancel()
        self._pending_ack_segments = 0
        self.node.send(packet)

    def _send_control(self, flags, seq, markers=None):
        """Send a segment without payload (SYN, SYN-ACK or FIN)."""
        now = self.sim.now
        packet = Packet(
            self.node.addr,          # src
            self.peer_addr,          # dst
            self.local_port,         # sport
            self.peer_port,          # dport
            "tcp",
            IPV4_HEADER + TCP_HEADER,
            seq,
            self.rcv_nxt if (flags & FLAG_ACK) else 0,  # ack_no
            flags,
            0,                       # payload_len
            now,                     # ts
            self._ts_to_echo,
            markers,
        )
        self.node.send(packet)

    def _send_fin(self, seq):
        """Send the FIN at ``seq``, counted like :meth:`_send_segment`."""
        if seq < self._snd_max:
            self.stats.retransmitted_segments += 1
        else:
            self._snd_max = seq + 1
        self._send_control(FLAG_FIN | FLAG_ACK, seq=seq,
                           markers=self._all_markers())

    def _retransmit_head(self):
        """Retransmit the segment at ``snd_una`` (data or FIN)."""
        seq = self.snd_una
        data_end = self._data_end_seq()
        if seq < data_end:
            payload = int(min(self.mss, data_end - seq))
            self._send_segment(seq, payload)
        elif self._fin_sent and seq == self._fin_seq:
            self._send_fin(seq)

    # ------------------------------------------------------------------
    # Packet ingress
    # ------------------------------------------------------------------
    def handle_packet(self, packet):
        """Entry point from the node's TCP demultiplexer."""
        flags = packet.flags
        if flags & FLAG_SYN:
            if flags & FLAG_ACK:
                self._handle_synack(packet)
            else:
                self.handle_syn(packet)
            return
        if packet.payload is not None:
            self._stash_markers(packet.payload)
        if flags & FLAG_ACK:
            self._process_ack(packet)
        if packet.payload_len > 0:
            self._process_data(packet)
        if flags & FLAG_FIN:
            self._process_fin(packet)

    # --- handshake --------------------------------------------------------
    def handle_syn(self, packet):
        """Passive open / retransmitted SYN (server side)."""
        self._ts_to_echo = packet.ts
        if self.state == CLOSED:
            self.state = SYN_RCVD
            self.snd_una = 0
            self.snd_nxt = 1
            self.rcv_nxt = 1  # peer ISS is 0, their SYN consumed
        if self.state == SYN_RCVD:
            self._send_control(FLAG_SYN | FLAG_ACK, seq=0)
            self._rto_timer.restart(self.rto)

    def _handle_synack(self, packet):
        if self.state != SYN_SENT:
            # Duplicate SYN-ACK; our final ACK was lost.  Re-ACK.
            self._ts_to_echo = packet.ts
            self._send_ack_now()
            return
        self.rcv_nxt = 1
        self.snd_una = 1
        self._ts_to_echo = packet.ts
        if packet.ts_echo >= 0:
            self._update_rtt(self.sim.now - packet.ts_echo)
        self._rto_timer.cancel()
        self.rto = max(self.rto, MIN_RTO)
        self.state = ESTABLISHED
        self._send_ack_now()
        if self.on_established is not None:
            self.on_established(self)
        self._try_send()

    # --- ACK path ---------------------------------------------------------
    def _process_ack(self, packet):
        if self.state == SYN_RCVD and packet.ack_no >= 1:
            self.state = ESTABLISHED
            self._rto_timer.cancel()
            if packet.ts_echo >= 0:
                self._update_rtt(self.sim.now - packet.ts_echo)
            if self.on_established is not None:
                self.on_established(self)

        ack = packet.ack_no
        snd_una = self.snd_una
        if ack > snd_una:
            acked = ack - snd_una
            self.snd_una = ack
            if packet.ts_echo >= 0:
                self._update_rtt(self.sim.now - packet.ts_echo)
            if self._in_recovery:
                if ack >= self._recover:
                    self._in_recovery = False
                    self._inflation = 0.0
                    self._dupacks = 0
                    self.cc.on_exit_recovery(self.sim.now)
                    if self.snd_nxt > ack:
                        self._rto_timer.restart(self.rto)
                    else:
                        self._rto_timer.cancel()
                else:
                    # NewReno partial ACK: the next hole is lost too.
                    self._retransmit_head()
                    self._inflation = max(0.0, self._inflation - acked + self.mss)
                    self._partial_acks += 1
                    if self._partial_acks == 1:
                        # RFC 6582 "impatient" variant: only the first
                        # partial ACK rearms the RTO, so a recovery with
                        # many holes ends in a timeout instead of dragging
                        # on for one hole per RTT indefinitely.
                        self._rto_timer.restart(self.rto)
            else:
                self._dupacks = 0
                self.cc.on_ack(acked, self.sim.now, self.srtt)
                if self.snd_nxt > ack:
                    self._rto_timer.restart(self.rto)
                else:
                    rto_timer = self._rto_timer
                    if rto_timer._entry is not None:  # inline guard
                        rto_timer.cancel()
            if self._fin_sent and not self._fin_acked and ack > self._fin_seq:
                self._fin_acked = True
                self._maybe_finish()
            self._try_send()
        elif (
            ack == self.snd_una
            and self.snd_nxt > self.snd_una
            and packet.payload_len == 0
            and not (packet.flags & FLAG_FIN)
        ):
            self._dupacks += 1
            if self._in_recovery:
                # Inflate for the segment that left the network, but cap the
                # inflation so a long multi-hole recovery cannot balloon the
                # effective window without bound.
                self._inflation = min(self._inflation + self.mss,
                                      2.0 * self.cc.cwnd)
                self._try_send()
            elif self._dupacks == DUPACK_THRESHOLD and self.snd_una > self._recover:
                # RFC 6582 §4 guard: after a timeout, go-back-N resends
                # segments the receiver already buffered, and their dup
                # ACKs must not trigger a (spurious) fast retransmit until
                # the cumulative ACK passes the recorded recover point.
                self._enter_recovery()

    def _enter_recovery(self):
        flight = self.flight_size
        self.cc.on_loss(flight, self.sim.now)
        self._in_recovery = True
        self._recover = self.snd_nxt
        self._inflation = DUPACK_THRESHOLD * self.mss
        self._partial_acks = 0
        self.stats.fast_retransmits += 1
        self._retransmit_head()
        self._rto_timer.restart(self.rto)

    def _on_rto(self):
        if self.state == SYN_SENT:
            self._handshake_retries += 1
            if self._handshake_retries > MAX_HANDSHAKE_RETRIES:
                self._fail_connection()
                return
            self.rto = min(self.rto * 2.0, MAX_RTO)
            self._send_control(FLAG_SYN, seq=0)
            self._rto_timer.restart(self.rto)
            return
        if self.state == SYN_RCVD:
            self._handshake_retries += 1
            if self._handshake_retries > MAX_HANDSHAKE_RETRIES:
                self._fail_connection()
                return
            self.rto = min(self.rto * 2.0, MAX_RTO)
            self._send_control(FLAG_SYN | FLAG_ACK, seq=0)
            self._rto_timer.restart(self.rto)
            return
        if self.snd_nxt <= self.snd_una:
            return
        self.stats.timeouts += 1
        self.cc.on_timeout(self.flight_size, self.sim.now)
        self._in_recovery = False
        self._inflation = 0.0
        self._dupacks = 0
        self._recover = self.snd_nxt  # RFC 6582: no fast rtx below this
        self.rto = min(self.rto * 2.0, MAX_RTO)
        # Go-back-N: rewind and slow-start from the hole (RFC 5681 §3.1).
        # The receiver discards duplicates and its cumulative ACKs jump
        # over whatever it already buffered.
        self.snd_nxt = self.snd_una
        if self._fin_sent and self._fin_seq is not None \
                and self._fin_seq >= self.snd_nxt:
            self._fin_sent = False  # FIN needs resending too
        self._try_send()
        self._rto_timer.restart(self.rto)

    def _fail_connection(self):
        self.state = CLOSED
        self.node.unregister_tcp(self.peer_addr, self.peer_port, self.local_port)
        if self.on_close is not None:
            self.on_close(self)

    def _update_rtt(self, sample):
        if sample <= 0:
            return
        if self.min_rtt is None or sample < self.min_rtt:
            self.min_rtt = sample
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + max(0.01, 4.0 * self.rttvar), MIN_RTO),
                       MAX_RTO)
        cc = self.cc
        if cc.cwnd < cc.ssthresh:  # inline in_slow_start precondition
            cc.maybe_exit_slow_start(sample, self.min_rtt)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _process_data(self, packet):
        seq = packet.seq
        end = seq + packet.payload_len
        if end <= self.rcv_nxt:
            # Stale duplicate: re-ACK immediately so the peer resynchronizes.
            self._ts_to_echo = packet.ts
            self._send_ack_now()
            return
        if self._pending_ack_segments == 0:
            self._ts_to_echo = packet.ts

        old_next = self.rcv_nxt
        holes = self._rx_holes
        # `holes._ivals` is accessed directly (instead of len()) on this
        # per-segment path; IntervalSet is repo-local, see util/intervals.
        if seq <= old_next and (holes is None or not holes._ivals):
            self.rcv_nxt = end  # fast path: in-order arrival, no holes
        else:
            if holes is None:
                from repro.util.intervals import IntervalSet

                holes = self._rx_holes = IntervalSet()
            holes.add(max(seq, old_next), end)
            self.rcv_nxt = holes.contiguous_end(old_next)
            holes.prune_below(self.rcv_nxt)

        delivered = self.rcv_nxt - old_next
        out_of_order = delivered == 0 or (
            holes is not None and len(holes._ivals) > 0
        )
        if delivered > 0:
            if self.on_data is not None:
                self.on_data(self, delivered)
            if self._rx_marker_heap:
                self._fire_markers()
            if self._peer_fin_seq is not None and not self._peer_fin_consumed:
                self._consume_fin_if_ready()

        if out_of_order or not self.delayed_ack:
            self._send_ack_now()
        else:
            pending = self._pending_ack_segments + 1
            self._pending_ack_segments = pending
            if pending >= 2:
                self._send_ack_now()
            else:
                # Inline Timer.active: one delayed-ACK decision per
                # in-order data segment.
                delack = self._delack_timer
                entry = delack._entry
                if entry is None or entry[2] is None:
                    delack.start(DELACK_TIMEOUT)

    def _stash_markers(self, markers):
        for offset, marker_id, meta in markers:
            if marker_id in self._rx_marker_seen:
                continue  # duplicate delivery via retransmission
            self._rx_marker_seen.add(marker_id)
            heapq.heappush(self._rx_marker_heap, (offset, marker_id, meta))

    def _fire_markers(self):
        delivered_offset = self.rcv_nxt - 1  # data offset delivered so far
        heap = self._rx_marker_heap
        while heap and heap[0][0] <= delivered_offset:
            __, __, meta = heapq.heappop(heap)
            if self.on_message is not None:
                self.on_message(self, meta)

    def _process_fin(self, packet):
        self._peer_fin_seq = packet.seq + packet.payload_len
        self._fire_markers()
        self._consume_fin_if_ready()
        self._send_ack_now()

    def _consume_fin_if_ready(self):
        if self._peer_fin_consumed or self._peer_fin_seq is None:
            return
        if self.rcv_nxt == self._peer_fin_seq:
            self.rcv_nxt += 1
            self._peer_fin_consumed = True
            if self.state == ESTABLISHED:
                self.state = CLOSE_WAIT
            if self.on_peer_fin is not None:
                self.on_peer_fin(self)
            self._maybe_finish()

    def _maybe_finish(self):
        if self._fin_acked and self._peer_fin_consumed and self.state != CLOSED:
            self.state = CLOSED
            self._rto_timer.cancel()
            self._delack_timer.cancel()
            self.node.unregister_tcp(self.peer_addr, self.peer_port, self.local_port)
            if self.on_close is not None:
                self.on_close(self)

    def _send_ack_now(self):
        delack = self._delack_timer
        if delack._entry is not None:
            delack.cancel()
        self._pending_ack_segments = 0
        # Inline _send_control(FLAG_ACK, seq=self.snd_nxt): pure ACKs are
        # the most common control segment by far (one per delivered data
        # pair), so skip the extra frame and the flag branches.
        now = self.sim.now
        self.node.send(Packet(
            self.node.addr,          # src
            self.peer_addr,          # dst
            self.local_port,         # sport
            self.peer_port,          # dport
            "tcp",
            IPV4_HEADER + TCP_HEADER,
            self.snd_nxt,            # seq
            self.rcv_nxt,            # ack_no
            FLAG_ACK,
            0,                       # payload_len
            now,                     # ts
            self._ts_to_echo,
            None,                    # payload
        ))

    def __repr__(self):
        return "TcpConnection(%s, %d:%d->%d:%d, una=%d nxt=%d rcv=%d)" % (
            self.state,
            self.node.addr,
            self.local_port,
            self.peer_addr,
            self.peer_port,
            self.snd_una,
            self.snd_nxt,
            self.rcv_nxt,
        )
