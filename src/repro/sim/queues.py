"""The bottleneck queue: a drop-tail FIFO counted in packets.

The paper studies plain drop-tail FIFOs sized in packets (the NetFPGA
Stanford reference router and Cisco line cards both drop at the tail), so
:class:`DropTailQueue` is the paper's buffer.  On the testbeds
:class:`repro.sim.link.DropTailLink` serves it in closed form: packets
never pass through the queue, which holds only its capacity and its
statistics.

Capacity is a packet count, as in the paper's Table 2.  Statistics
(:class:`QueueStats`) are enqueue/drop/dequeue counters, their byte
totals and sojourn-time aggregates.
"""


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


class DropTailQueue:
    """A drop-tail buffer of ``capacity_packets`` packets — the paper's
    buffer — and the :class:`QueueStats` its link keeps for it."""

    __slots__ = ("capacity_packets", "stats")

    def __init__(self, capacity_packets):
        self.capacity_packets = capacity_packets
        self.stats = QueueStats()
