"""The event-driven reference link and the queue that holds its packets.

No testbed builds these.  :class:`Interface` serializes one packet per
event, the obvious way; the tests check the closed-form
:class:`repro.sim.link.DropTailLink` and :class:`repro.sim.link.EdgeLink`
against it float for float, and build small networks around their own
queues with it.  :class:`FifoQueue` is the drop-tail buffer with its
packets in it.
"""

from collections import deque

from repro.sim.link import EdgeLink, LinkStats
from repro.sim.queues import DropTailQueue


class FifoQueue(DropTailQueue):
    """A drop-tail FIFO that holds its packets, with the same counters.

    ``push(packet, now)`` returns False when the packet was dropped;
    ``pop(now)`` returns the head packet, or None when empty.  Each
    packet's sojourn is stamped here, not on the packet.  Subclasses
    override ``push`` for other drop policies and call :meth:`_reject`
    for a packet they drop.
    """

    def __init__(self, capacity_packets):
        super().__init__(capacity_packets)
        self._queue = deque()  # (packet, time it was enqueued)
        self.byte_length = 0  # bytes currently queued

    def __len__(self):
        return len(self._queue)

    def push(self, packet, now):
        if len(self._queue) >= self.capacity_packets:
            self._reject(packet)
            return False
        self._queue.append((packet, now))
        self.byte_length += packet.size
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size
        return True

    def _reject(self, packet):
        self.stats.dropped += 1
        self.stats.bytes_dropped += packet.size

    def pop(self, now):
        if not self._queue:
            return None
        packet, enqueued_at = self._queue.popleft()
        self.byte_length -= packet.size
        sojourn = now - enqueued_at
        stats = self.stats
        stats.dequeued += 1
        stats.bytes_dequeued += packet.size
        stats.delay_sum += sojourn
        stats.delay_samples += 1
        stats.delay_max = max(stats.delay_max, sojourn)
        return packet


class Interface:
    """One direction of a point-to-point link, one event per packet.

    ``send`` queues a packet and starts the serializer when idle; the
    serializer's completion event hands the packet to its next hop after
    ``prop_delay`` and starts the next queued packet.  A serialized
    packet whose next hop would forward it onto an :class:`EdgeLink`
    enters that edge link directly, at its arrival time, as
    :class:`repro.sim.link.DropTailLink` does (egress cut-through).

    Takes the arguments :class:`repro.sim.link.DropTailLink` takes, with
    any :class:`FifoQueue` as ``queue``.
    """

    def __init__(self, sim, name, rate_bps, prop_delay, queue, dst_node):
        self.sim = sim
        self.name = name
        self.rate_bps = float(rate_bps)
        self.prop_delay = float(prop_delay)
        self.queue = queue
        self.dst_node = dst_node
        self.stats = LinkStats()
        self._busy = False
        self._tx_started = 0.0

    def send(self, packet):
        """Queue ``packet``; returns False when the queue dropped it."""
        accepted = self.queue.push(packet, self.sim.now)
        if accepted and not self._busy:
            self._start_next()
        return accepted

    def _start_next(self):
        packet = self.queue.pop(self.sim.now)
        self._busy = packet is not None
        if self._busy:
            self._tx_started = self.sim.now
            self.sim.call_later((packet.size * 8.0) / self.rate_bps,
                                self._tx_done, packet)

    def _tx_done(self, packet):
        now = self.sim.now
        stats = self.stats
        stats.tx_packets += 1
        # A packet in flight across reset_stats() only counts for the
        # part of its serialization inside the new window.
        started = self._tx_started
        tx_time = now - started
        if started < stats.window_start:
            started = stats.window_start
        if tx_time > 0.0:
            stats.tx_bytes += packet.size * (now - started) / tx_time
        else:
            stats.tx_bytes += packet.size
        node = self.dst_node
        edge = node.routes.get(packet.dst)
        if edge.__class__ is EdgeLink:
            node._forwarded += 1
            edge.send_at(packet, now + self.prop_delay)
        else:
            self.sim.call_later(self.prop_delay, node.receive, packet)
        self._start_next()

    def reset_stats(self):
        """Zero both link and queue measurement counters."""
        self.stats.reset(self.sim.now)
        self.queue.stats.reset()

    def utilization(self):
        """Utilization since the last :meth:`reset_stats`."""
        return self.stats.utilization(self.rate_bps, self.sim.now)

    def stats_at(self, sched):
        """The transmit counters (kept eagerly here)."""
        return self.stats

    def backlog(self):
        """``(waiting, in_service)``: queued packets, and 1 while serializing."""
        return len(self.queue), int(self._busy)
