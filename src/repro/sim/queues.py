"""Queue disciplines for bottleneck interfaces.

The paper studies plain drop-tail FIFOs sized in packets (the NetFPGA
Stanford reference router and Cisco line cards both drop at the tail), so
:class:`DropTailQueue` is the paper's buffer; on the testbeds
:class:`repro.sim.link.DropTailLink` serves it in closed form and keeps
only its capacity and statistics.  :class:`REDQueue` and
:class:`CoDelQueue` implement the AQM schemes the bufferbloat debate
motivates (paper §1/§3 cite CoDel) and power the ablation benchmarks.

All queues share the :class:`Queue` interface used by
:class:`repro.sim.link.Interface`:

* ``push(packet, now)`` → bool — False means the packet was dropped.
* ``pop(now)`` → packet or None — AQM heads may drop here too.

Capacity is a packet count, as in the paper's Table 2.  Statistics
(:class:`QueueStats`) are collected uniformly: enqueue/drop/dequeue
counters, their byte totals and sojourn-time aggregates.
"""

import math
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
    AQM bottleneck.
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

    def __iter__(self):
        """Queued packets, head first."""
        return iter(self._queue)

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
    """Plain FIFO that drops arrivals once full — the paper's discipline.

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


class REDQueue(Queue):
    """Random Early Detection (Floyd & Jacobson 1993), gentle variant.

    Drops probabilistically once the EWMA of the queue length exceeds
    ``min_th``, ramping to ``max_p`` at ``max_th`` and to 1.0 at
    ``2*max_th`` (gentle RED).  Counts are in packets, matching the
    packet-counted buffers of the paper.
    """

    __slots__ = ("min_th", "max_th", "max_p", "weight", "avg",
                 "_count_since_drop", "_idle_since", "_rng", "_weyl")

    def __init__(
        self,
        capacity_packets,
        min_th=None,
        max_th=None,
        max_p=0.1,
        weight=0.002,
        rng=None,
    ):
        super().__init__(capacity_packets=capacity_packets)
        self.min_th = min_th if min_th is not None else max(1.0, capacity_packets / 4.0)
        self.max_th = max_th if max_th is not None else max(2.0, capacity_packets / 2.0)
        self.max_p = max_p
        self.weight = weight
        self.avg = 0.0
        self._count_since_drop = -1
        self._idle_since = None
        self._rng = rng
        self._weyl = 0.0

    def _random(self):
        if self._rng is None:
            # Deterministic fallback: quasi-random Weyl sequence.  Keeps the
            # queue usable without an RNG while remaining well distributed.
            self._weyl = (self._weyl + 0.6180339887498949) % 1.0
            return self._weyl
        return float(self._rng.random())

    def _update_avg(self, now):
        if not self._queue and self._idle_since is not None:
            # Decay the average during idle periods (RFC 2309 style): assume
            # the queue drained m small packets while idle.
            idle = max(0.0, now - self._idle_since)
            m = idle / 0.002  # nominal small-packet transmission time
            self.avg *= (1.0 - self.weight) ** m
            self._idle_since = None
        self.avg += self.weight * (len(self._queue) - self.avg)

    def _drop_probability(self):
        if self.avg < self.min_th:
            return 0.0
        if self.avg < self.max_th:
            frac = (self.avg - self.min_th) / (self.max_th - self.min_th)
            return frac * self.max_p
        if self.avg < 2.0 * self.max_th:  # gentle region
            frac = (self.avg - self.max_th) / self.max_th
            return self.max_p + frac * (1.0 - self.max_p)
        return 1.0

    def push(self, packet, now):
        self._update_avg(now)
        if self._would_overflow():
            self._reject(packet)
            self._count_since_drop = 0
            return False
        prob = self._drop_probability()
        if prob >= 1.0:
            self._reject(packet)
            self._count_since_drop = 0
            return False
        if prob > 0.0:
            self._count_since_drop += 1
            # Uniformize inter-drop gaps as in the original RED paper.
            denom = 1.0 - self._count_since_drop * prob
            effective = prob / denom if denom > 0 else 1.0
            if self._random() < effective:
                self._reject(packet)
                self._count_since_drop = 0
                return False
        else:
            self._count_since_drop = -1
        self._accept(packet, now)
        return True

    def pop(self, now):
        if not self._queue:
            return None
        packet = self._take(now)
        if not self._queue:
            self._idle_since = now
        return packet

    def __repr__(self):
        return "REDQueue(len=%d/%s, avg=%.1f)" % (
            len(self._queue),
            self.capacity_packets,
            self.avg,
        )


class CoDelQueue(Queue):
    """Controlled Delay AQM (Nichols & Jacobson 2012).

    Drops at *dequeue* when the packet sojourn time has exceeded
    ``target`` for at least ``interval``; while in the dropping state the
    drop spacing shrinks with the square root of the drop count.  This is
    the algorithm the paper cites as the bufferbloat community's answer.
    """

    __slots__ = ("target", "interval", "first_above_time", "drop_next",
                 "drop_count", "dropping")

    def __init__(self, capacity_packets, target=0.005, interval=0.100):
        super().__init__(capacity_packets=capacity_packets)
        self.target = target
        self.interval = interval
        self.first_above_time = 0.0
        self.drop_next = 0.0
        self.drop_count = 0
        self.dropping = False

    def push(self, packet, now):
        if self._would_overflow():
            self._reject(packet)
            return False
        self._accept(packet, now)
        return True

    def _sojourn_ok(self, packet, now):
        """CoDel 'ok to leave the dropping state' test for one packet."""
        sojourn = now - packet.enqueued_at
        if sojourn < self.target or self._bytes <= 5 * 1500:
            self.first_above_time = 0.0
            return True
        if self.first_above_time == 0.0:
            self.first_above_time = now + self.interval
        elif now >= self.first_above_time:
            return False
        return True

    def _control_law(self, t):
        return t + self.interval / math.sqrt(self.drop_count)

    def pop(self, now):
        if not self._queue:
            self.dropping = False
            return None
        packet = self._take(now)
        ok = self._sojourn_ok(packet, now)
        if self.dropping:
            if ok:
                self.dropping = False
            else:
                while now >= self.drop_next and self.dropping:
                    self._reject(packet)
                    self.drop_count += 1
                    if not self._queue:
                        self.dropping = False
                        return None
                    packet = self._take(now)
                    if self._sojourn_ok(packet, now):
                        self.dropping = False
                        break
                    self.drop_next = self._control_law(self.drop_next)
        elif not ok:
            # Enter the dropping state: drop this packet, arm the control law.
            self._reject(packet)
            self.dropping = True
            prev_count = self.drop_count
            # Restart from a higher rate if we were dropping recently.
            if now - self.drop_next < 8.0 * self.interval and prev_count > 2:
                self.drop_count = prev_count - 2
            else:
                self.drop_count = 1
            self.drop_next = self._control_law(now)
            if not self._queue:
                return None
            packet = self._take(now)
        return packet

    def __repr__(self):
        return "CoDelQueue(len=%d/%s, dropping=%s)" % (
            len(self._queue),
            self.capacity_packets,
            self.dropping,
        )
