"""Unit and property tests for the interval set used by TCP reassembly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.intervals import IntervalSet


def test_add_and_contiguous():
    ivals = IntervalSet()
    ivals.add(0, 10)
    assert ivals.contiguous_end(0) == 10
    ivals.add(20, 30)
    assert ivals.contiguous_end(0) == 10
    ivals.add(10, 20)  # fill the hole
    assert ivals.contiguous_end(0) == 30
    assert len(ivals) == 1


def test_empty_interval_ignored():
    ivals = IntervalSet()
    ivals.add(5, 5)
    ivals.add(7, 3)
    assert len(ivals) == 0
    assert list(ivals) == []


def test_overlapping_merge():
    ivals = IntervalSet()
    ivals.add(0, 5)
    ivals.add(3, 8)
    assert list(ivals) == [(0, 8)]
    ivals.add(8, 10)  # adjacent merges too
    assert list(ivals) == [(0, 10)]


def test_contiguous_end_when_uncovered():
    ivals = IntervalSet([(5, 10)])
    assert ivals.contiguous_end(0) == 0
    assert ivals.contiguous_end(5) == 10
    assert ivals.contiguous_end(7) == 10
    assert ivals.contiguous_end(10) == 10


def test_prune_below():
    ivals = IntervalSet([(0, 10), (20, 30)])
    ivals.prune_below(25)
    assert list(ivals) == [(25, 30)]
    ivals.prune_below(100)
    assert list(ivals) == []


def test_contains():
    ivals = IntervalSet([(3, 6)])
    assert 3 in ivals
    assert 5 in ivals
    assert 6 not in ivals
    assert 2 not in ivals


@st.composite
def interval_lists(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    out = []
    for __ in range(n):
        start = draw(st.integers(min_value=0, max_value=200))
        length = draw(st.integers(min_value=0, max_value=40))
        out.append((start, start + length))
    return out


@given(interval_lists())
@settings(max_examples=200)
def test_property_matches_reference_set(intervals):
    """The interval set behaves exactly like a set of integers."""
    ivals = IntervalSet()
    reference = set()
    for start, end in intervals:
        ivals.add(start, end)
        reference.update(range(start, end))
    assert sum(end - start for start, end in ivals) == len(reference)
    # Disjoint, sorted, non-adjacent invariants.
    previous_end = None
    for start, end in ivals:
        assert start < end
        if previous_end is not None:
            assert start > previous_end  # strictly, i.e. non-adjacent
        previous_end = end
    for probe in range(0, 250, 7):
        assert (probe in ivals) == (probe in reference)
        # contiguous_end agrees with the reference run length.
        end = probe
        while end in reference:
            end += 1
        if probe in reference:
            assert ivals.contiguous_end(probe) == end

