"""Tests for drop-tail, RED and CoDel queue disciplines."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proputil import seeded_property
from repro.sim.packet import Packet
from repro.sim.queues import (
    CoDelQueue,
    DropTailQueue,
    Queue,
    REDQueue,
)


def make_packet(size=1500):
    return Packet(src=1, dst=2, sport=1, dport=2, proto="udp", size=size)


class TestDropTail:
    def test_fifo_order(self):
        queue = DropTailQueue(capacity_packets=10)
        packets = [make_packet() for __ in range(5)]
        for index, packet in enumerate(packets):
            assert queue.push(packet, now=float(index))
        popped = [queue.pop(now=10.0) for __ in range(5)]
        assert popped == packets
        assert queue.pop(now=11.0) is None

    def test_packet_capacity_enforced(self):
        queue = DropTailQueue(capacity_packets=3)
        assert all(queue.push(make_packet(), 0.0) for __ in range(3))
        assert not queue.push(make_packet(), 0.0)
        assert len(queue) == 3
        assert queue.stats.dropped == 1
        assert queue.stats.enqueued == 3

    def test_byte_capacity_enforced(self):
        queue = DropTailQueue(capacity_bytes=4000)
        assert queue.push(make_packet(1500), 0.0)
        assert queue.push(make_packet(1500), 0.0)
        assert not queue.push(make_packet(1500), 0.0)  # 4500 > 4000
        assert queue.push(make_packet(500), 0.0)
        assert queue.byte_length == 3500

    def test_requires_some_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue()

    def test_sojourn_stats(self):
        queue = DropTailQueue(capacity_packets=10)
        queue.push(make_packet(), now=1.0)
        queue.push(make_packet(), now=1.5)
        queue.pop(now=2.0)
        queue.pop(now=3.0)
        assert queue.stats.delay_samples == 2
        assert queue.stats.mean_delay == pytest.approx((1.0 + 1.5) / 2)
        assert queue.stats.delay_max == pytest.approx(1.5)

    def test_loss_rate(self):
        queue = DropTailQueue(capacity_packets=2)
        for __ in range(4):
            queue.push(make_packet(), 0.0)
        assert queue.stats.loss_rate == pytest.approx(0.5)

    def test_stats_reset_preserves_contents(self):
        queue = DropTailQueue(capacity_packets=5)
        queue.push(make_packet(), 0.0)
        queue.stats.reset()
        assert queue.stats.enqueued == 0
        assert len(queue) == 1

    def test_occupancy_recorded_on_enqueue(self):
        queue = DropTailQueue(capacity_packets=3)
        for __ in range(3):
            queue.push(make_packet(), 0.0)
        assert queue.stats.occupancy_samples == [1, 2, 3]
        queue.push(make_packet(), 0.0)  # dropped: no occupancy sample
        assert queue.stats.occupancy_samples == [1, 2, 3]
        queue.pop(1.0)
        queue.push(make_packet(), 1.0)
        assert queue.stats.occupancy_samples == [1, 2, 3, 3]
        assert queue.stats.mean_occupancy == pytest.approx(2.25)

    def test_occupancy_cleared_on_reset(self):
        queue = DropTailQueue(capacity_packets=5)
        queue.push(make_packet(), 0.0)
        queue.stats.reset()
        assert queue.stats.occupancy_samples == []
        assert queue.stats.mean_occupancy == 0.0
        queue.push(make_packet(), 1.0)
        assert queue.stats.occupancy_samples == [2]


class TestRed:
    def test_no_drops_below_min_threshold(self):
        rng = np.random.default_rng(1)
        queue = REDQueue(capacity_packets=100, min_th=20, max_th=60, rng=rng)
        for __ in range(10):
            assert queue.push(make_packet(), 0.0)
        assert queue.stats.dropped == 0

    def test_probabilistic_drops_between_thresholds(self):
        rng = np.random.default_rng(2)
        queue = REDQueue(capacity_packets=1000, min_th=5, max_th=15,
                         max_p=0.5, weight=0.5, rng=rng)
        drops = 0
        now = 0.0
        for __ in range(500):
            if not queue.push(make_packet(), now):
                drops += 1
            now += 0.001
        assert drops > 0
        assert drops < 500

    def test_forced_drop_above_gentle_region(self):
        queue = REDQueue(capacity_packets=1000, min_th=1, max_th=2,
                         max_p=0.1, weight=1.0)
        # Fill until the EWMA is far above 2*max_th: every push must drop.
        for __ in range(20):
            queue.push(make_packet(), 0.0)
        assert not queue.push(make_packet(), 0.0)

    def test_average_decays_when_idle(self):
        queue = REDQueue(capacity_packets=100, min_th=5, max_th=20, weight=0.5)
        for __ in range(10):
            queue.push(make_packet(), 0.0)
        while queue.pop(1.0) is not None:
            pass
        high = queue.avg
        queue.push(make_packet(), 10.0)  # long idle period decays the EWMA
        assert queue.avg < high


class TestCoDel:
    def test_behaves_like_fifo_at_low_delay(self):
        queue = CoDelQueue(capacity_packets=100)
        now = 0.0
        dropped = 0
        for step in range(200):
            if not queue.push(make_packet(), now):
                dropped += 1
            packet = queue.pop(now + 0.001)  # 1 ms sojourn << 5 ms target
            assert packet is not None
            now += 0.002
        assert dropped == 0
        assert queue.stats.dropped == 0

    def test_drops_under_sustained_delay(self):
        queue = CoDelQueue(capacity_packets=10_000, target=0.005, interval=0.1)
        # Arrivals at 2x the drain rate: sojourn times build far above target.
        now = 0.0
        for __ in range(2000):
            queue.push(make_packet(), now)
            now += 0.001
            if int(now * 1000) % 2 == 0:
                queue.pop(now)
        assert queue.stats.dropped > 0

    def test_capacity_still_enforced(self):
        queue = CoDelQueue(capacity_packets=3)
        for __ in range(5):
            queue.push(make_packet(), 0.0)
        assert len(queue) == 3

    def test_dropping_state_reentry_fast_restart(self):
        """Re-entering the dropping state shortly after leaving it resumes
        the control law near the old rate (drop_count = prev - 2) instead
        of restarting from 1."""
        queue = CoDelQueue(capacity_packets=100, target=0.005, interval=0.1)
        for __ in range(30):
            queue.push(make_packet(), 0.0)
        assert queue.pop(1.0) is not None   # arms first_above_time
        assert queue.pop(1.2) is not None   # enters dropping, count = 1
        assert queue.dropping
        assert queue.drop_count == 1
        queue.pop(1.35)                     # control-law drops build count
        queue.pop(1.45)
        # Drain to a small backlog so the sojourn test passes and the
        # queue leaves the dropping state.
        while len(queue) > 4:
            queue.pop(1.5)
        assert not queue.dropping
        prev = queue.drop_count
        assert prev > 2                     # precondition of the fast path
        # Congest again within 8*interval of drop_next.
        for __ in range(10):
            queue.push(make_packet(), 1.5)
        assert queue.pop(1.7) is not None   # re-arms first_above_time
        assert queue.pop(1.81) is not None  # re-enters the dropping state
        assert queue.dropping
        assert queue.drop_count == prev - 2

    def test_dropping_state_reentry_cold_after_long_gap(self):
        """Well beyond 8*interval after the last drop, re-entry restarts
        the control law from drop_count = 1."""
        queue = CoDelQueue(capacity_packets=100, target=0.005, interval=0.1)
        for __ in range(30):
            queue.push(make_packet(), 0.0)
        queue.pop(1.0)
        queue.pop(1.2)
        queue.pop(1.35)
        queue.pop(1.45)
        while len(queue) > 4:
            queue.pop(1.5)
        assert not queue.dropping
        assert queue.drop_count > 2
        for __ in range(10):
            queue.push(make_packet(), 10.0)
        queue.pop(11.0)                     # sojourn 1 s: arms first_above
        assert queue.pop(11.11) is not None
        assert queue.dropping
        assert queue.drop_count == 1


@given(
    st.lists(
        st.tuples(st.sampled_from(["push", "pop"]), st.integers(40, 1500)),
        max_size=200,
    ),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=100)
def test_property_droptail_never_exceeds_capacity(ops, capacity):
    queue = DropTailQueue(capacity_packets=capacity)
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
    queue = DropTailQueue(capacity_packets=30)
    for index, size in enumerate(sizes):
        queue.push(make_packet(size), float(index))
        if index % 3 == 0:
            queue.pop(float(index))
    stats = queue.stats
    assert stats.enqueued == stats.dequeued + len(queue)
    assert stats.bytes_enqueued == stats.bytes_dequeued + queue.byte_length
    assert stats.enqueued + stats.dropped == len(sizes)


# ---------------------------------------------------------------------------
# Conservation property across every discipline: whatever the drop
# policy does, packets and bytes must balance exactly.
# ---------------------------------------------------------------------------
def _discipline_queues(rng):
    capacity = rng.randint(1, 24)
    return [
        DropTailQueue(capacity_packets=capacity),
        REDQueue(capacity_packets=max(capacity, 4),
                 rng=random.Random(rng.randrange(2 ** 31))),
        # Tight CoDel knobs so pop-time drops actually trigger within a
        # short random schedule.
        CoDelQueue(capacity_packets=max(capacity, 4), target=0.001,
                   interval=0.005),
    ]


@seeded_property()
def test_property_conservation_all_disciplines(seed):
    rng = random.Random(seed)
    for queue in _discipline_queues(rng):
        accepted = rejected = returned = 0
        bytes_accepted = bytes_returned = 0
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
            else:
                packet = queue.pop(now)
                if packet is not None:
                    returned += 1
                    bytes_returned += packet.size

        stats = queue.stats
        # Universal invariants: counters never negative, rates bounded.
        for field in ("enqueued", "dropped", "dequeued", "bytes_enqueued",
                      "bytes_dropped", "bytes_dequeued", "delay_samples"):
            assert getattr(stats, field) >= 0, field
        assert 0.0 <= stats.loss_rate <= 1.0
        assert stats.delay_max >= 0.0
        assert stats.delay_sum >= 0.0
        assert queue.byte_length >= 0
        assert len(queue) >= 0

        # Exact packet and byte conservation.
        assert stats.enqueued == accepted
        assert len(queue) == stats.enqueued - stats.dequeued
        assert queue.byte_length == stats.bytes_enqueued - stats.bytes_dequeued
        # CoDel drops at dequeue: those packets count in BOTH dequeued
        # and dropped; everything the caller got back plus pop-drops
        # equals the dequeue count.
        pop_drops = stats.dropped - rejected
        assert pop_drops >= 0
        assert stats.dequeued == returned + pop_drops
        assert stats.bytes_dequeued >= bytes_returned
        assert stats.delay_samples == stats.dequeued
        assert stats.enqueued + rejected == accepted + rejected


@seeded_property(max_examples=40)
def test_property_fifo_order_preserved(seed):
    """No discipline reorders the packets it actually delivers."""
    rng = random.Random(seed)
    for queue in _discipline_queues(rng):
        pushed, popped = [], []
        now = 0.0
        for index in range(rng.randint(1, 150)):
            now += rng.random() * 0.01
            if rng.random() < 0.6:
                packet = make_packet(rng.randint(40, 1500))
                if queue.push(packet, now):
                    pushed.append(packet.pid)
            else:
                packet = queue.pop(now)
                if packet is not None:
                    popped.append(packet.pid)
        # Delivered packets are a subsequence of accepted ones, in order.
        iterator = iter(pushed)
        assert all(pid in iterator for pid in popped)
