"""The bottleneck queue: a drop-tail FIFO counted in packets.

The paper studies plain drop-tail FIFOs sized in packets (the NetFPGA
Stanford reference router and Cisco line cards both drop at the tail), so
:class:`DropTailQueue` is the paper's buffer; on the testbeds
:class:`repro.sim.link.DropTailLink` serves it in closed form and keeps
only its capacity and statistics.

Queues share the :class:`Queue` interface used by the event-driven
reference :class:`repro.sim.link.Interface`:

* ``push(packet, now)`` → bool — False means the packet was dropped.
* ``pop(now)`` → packet or None.

Capacity is a packet count, as in the paper's Table 2.  Statistics
(:class:`QueueStats`) are collected uniformly: enqueue/drop/dequeue
counters, their byte totals and sojourn-time aggregates.
"""

from collections import deque


class QueueStats:
    """Counters and sojourn-time aggregates for one queue.

    ``reset()`` zeroes the *measurement* counters but not the queue
    contents; testbeds call it after warm-up so that reported utilization
    and loss cover only the measurement window.
    """

    __slots__ = (
        "enqueued",
        "dropped",
        "dequeued",
        "bytes_enqueued",
        "bytes_dropped",
        "bytes_dequeued",
        "delay_sum",
        "delay_max",
        "delay_samples",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.bytes_enqueued = 0
        self.bytes_dropped = 0
        self.bytes_dequeued = 0
        self.delay_sum = 0.0
        self.delay_max = 0.0
        self.delay_samples = 0

    @property
    def mean_delay(self):
        """Mean queueing delay (s) over dequeued packets."""
        if self.delay_samples == 0:
            return 0.0
        return self.delay_sum / self.delay_samples

    @property
    def loss_rate(self):
        """Fraction of arriving packets dropped."""
        arrived = self.enqueued + self.dropped
        if arrived == 0:
            return 0.0
        return self.dropped / arrived


class Queue:
    """Abstract FIFO with drop policy.  Subclasses implement push/pop.

    The shared plumbing (``_accept``/``_reject``/``_take``) updates the
    :class:`QueueStats` counters inline: it runs once per packet at every
    :class:`repro.sim.link.Interface`.
    """

    __slots__ = ("capacity_packets", "stats", "_queue", "_bytes")

    def __init__(self, capacity_packets=None):
        if capacity_packets is None:
            raise ValueError("queue needs a packet capacity")
        self.capacity_packets = capacity_packets
        self.stats = QueueStats()
        self._queue = deque()
        self._bytes = 0

    # -- state ----------------------------------------------------------
    def __len__(self):
        return len(self._queue)

    @property
    def byte_length(self):
        """Bytes currently queued."""
        return self._bytes

    def _would_overflow(self):
        return len(self._queue) >= self.capacity_packets

    # -- interface ------------------------------------------------------
    def push(self, packet, now):
        raise NotImplementedError

    def pop(self, now):
        raise NotImplementedError

    # -- shared plumbing --------------------------------------------------
    def _accept(self, packet, now):
        queue = self._queue
        size = packet.size
        packet.enqueued_at = now
        queue.append(packet)
        self._bytes += size
        stats = self.stats
        stats.enqueued += 1
        stats.bytes_enqueued += size

    def _reject(self, packet):
        stats = self.stats
        stats.dropped += 1
        stats.bytes_dropped += packet.size

    def _take(self, now):
        packet = self._queue.popleft()
        size = packet.size
        self._bytes -= size
        sojourn = now - packet.enqueued_at
        stats = self.stats
        stats.dequeued += 1
        stats.bytes_dequeued += size
        stats.delay_sum += sojourn
        stats.delay_samples += 1
        if sojourn > stats.delay_max:
            stats.delay_max = sojourn
        return packet


class DropTailQueue(Queue):
    """Plain FIFO that drops arrivals once full — the paper's buffer.

    On the testbeds a drop-tail bottleneck is a
    :class:`repro.sim.link.DropTailLink`, which reads only this queue's
    capacity and statistics; ``push``/``pop`` serve the reference
    :class:`repro.sim.link.Interface` the tests compare it against.
    """

    __slots__ = ()

    def push(self, packet, now):
        if self._would_overflow():
            self._reject(packet)
            return False
        self._accept(packet, now)
        return True

    def pop(self, now):
        if not self._queue:
            return None
        return self._take(now)

    def __repr__(self):
        return "DropTailQueue(len=%d/%s)" % (len(self._queue), self.capacity_packets)
