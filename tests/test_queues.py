"""Tests for the drop-tail queue: the production queue's capacity and
statistics, and the reference FIFO that holds its packets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proputil import seeded_property
from reference_link import FifoQueue
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


def make_packet(size=1500):
    return Packet(src=1, dst=2, sport=1, dport=2, proto="udp", size=size)


class TestDropTail:
    def test_fifo_order(self):
        queue = FifoQueue(capacity_packets=10)
        packets = [make_packet() for __ in range(5)]
        for index, packet in enumerate(packets):
            assert queue.push(packet, now=float(index))
        popped = [queue.pop(now=10.0) for __ in range(5)]
        assert popped == packets
        assert queue.pop(now=11.0) is None

    def test_packet_capacity_enforced(self):
        queue = FifoQueue(capacity_packets=3)
        assert all(queue.push(make_packet(), 0.0) for __ in range(3))
        assert not queue.push(make_packet(), 0.0)
        assert len(queue) == 3
        assert queue.stats.dropped == 1
        assert queue.stats.enqueued == 3

    def test_sojourn_stats(self):
        queue = FifoQueue(capacity_packets=10)
        queue.push(make_packet(), now=1.0)
        queue.push(make_packet(), now=1.5)
        queue.pop(now=2.0)
        queue.pop(now=3.0)
        assert queue.stats.delay_samples == 2
        assert queue.stats.mean_delay == pytest.approx((1.0 + 1.5) / 2)
        assert queue.stats.delay_max == pytest.approx(1.5)

    def test_loss_rate(self):
        queue = FifoQueue(capacity_packets=2)
        for __ in range(4):
            queue.push(make_packet(), 0.0)
        assert queue.stats.loss_rate == pytest.approx(0.5)

    def test_stats_reset_preserves_contents(self):
        queue = FifoQueue(capacity_packets=5)
        queue.push(make_packet(), 0.0)
        queue.stats.reset()
        assert queue.stats.enqueued == 0
        assert len(queue) == 1


@given(
    st.lists(
        st.tuples(st.sampled_from(["push", "pop"]), st.integers(40, 1500)),
        max_size=200,
    ),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=100)
def test_property_droptail_never_exceeds_capacity(ops, capacity):
    queue = FifoQueue(capacity_packets=capacity)
    now = 0.0
    model = []
    for op, size in ops:
        now += 0.001
        if op == "push":
            accepted = queue.push(make_packet(size), now)
            assert accepted == (len(model) < capacity)
            if accepted:
                model.append(size)
        else:
            packet = queue.pop(now)
            if model:
                assert packet is not None and packet.size == model.pop(0)
            else:
                assert packet is None
        assert len(queue) == len(model)
        assert queue.byte_length == sum(model)
        assert len(queue) <= capacity


@given(st.lists(st.integers(40, 1500), min_size=1, max_size=100))
@settings(max_examples=50)
def test_property_conservation(sizes):
    """enqueued == dequeued + still queued, in packets and bytes."""
    queue = FifoQueue(capacity_packets=30)
    for index, size in enumerate(sizes):
        queue.push(make_packet(size), float(index))
        if index % 3 == 0:
            queue.pop(float(index))
    stats = queue.stats
    assert stats.enqueued == stats.dequeued + len(queue)
    assert stats.bytes_enqueued == stats.bytes_dequeued + queue.byte_length
    assert stats.enqueued + stats.dropped == len(sizes)


# ---------------------------------------------------------------------------
# Random push/pop schedules: packets and bytes balance exactly, and the
# queue delivers what it accepted in order.
# ---------------------------------------------------------------------------
def _random_queue(rng):
    return FifoQueue(capacity_packets=rng.randint(1, 24))


@seeded_property()
def test_property_conservation_random_schedule(seed):
    rng = random.Random(seed)
    queue = _random_queue(rng)
    accepted = rejected = returned = 0
    bytes_accepted = bytes_rejected = bytes_returned = 0
    now = 0.0
    for __ in range(rng.randint(1, 250)):
        now += rng.random() * 0.01
        if rng.random() < 0.6:
            size = rng.randint(40, 1500)
            if queue.push(make_packet(size), now):
                accepted += 1
                bytes_accepted += size
            else:
                rejected += 1
                bytes_rejected += size
        else:
            packet = queue.pop(now)
            if packet is not None:
                returned += 1
                bytes_returned += packet.size

    stats = queue.stats
    assert 0.0 <= stats.loss_rate <= 1.0
    assert stats.delay_max >= 0.0
    assert stats.delay_sum >= 0.0
    # Exact packet and byte conservation.  Drop-tail drops only
    # arrivals, so every dequeue reaches the caller.
    assert stats.enqueued == accepted
    assert stats.bytes_enqueued == bytes_accepted
    assert stats.dropped == rejected
    assert stats.bytes_dropped == bytes_rejected
    assert stats.dequeued == returned
    assert stats.bytes_dequeued == bytes_returned
    assert stats.delay_samples == stats.dequeued
    assert len(queue) == stats.enqueued - stats.dequeued
    assert queue.byte_length == stats.bytes_enqueued - stats.bytes_dequeued


@seeded_property(max_examples=40)
def test_property_fifo_order_preserved(seed):
    """The queue delivers the packets it accepted, in order."""
    rng = random.Random(seed)
    queue = _random_queue(rng)
    pushed, popped = [], []
    now = 0.0
    for __ in range(rng.randint(1, 150)):
        now += rng.random() * 0.01
        if rng.random() < 0.6:
            packet = make_packet(rng.randint(40, 1500))
            if queue.push(packet, now):
                pushed.append(packet)
        else:
            packet = queue.pop(now)
            if packet is not None:
                popped.append(packet)
    assert popped == pushed[:len(popped)]
