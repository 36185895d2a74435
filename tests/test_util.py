"""Tests for utility helpers: RNG streams and unit conversion."""

import numpy as np

from repro.util.rng import RngRegistry
from repro.util.units import ms


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(7).stream("harpoon")
        b = RngRegistry(7).stream("harpoon")
        assert np.array_equal(a.random(16), b.random(16))

    def test_different_names_independent(self):
        registry = RngRegistry(7)
        a = registry.stream("alpha").random(16)
        b = registry.stream("beta").random(16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(8)
        b = RngRegistry(2).stream("x").random(8)
        assert not np.array_equal(a, b)

    def test_stream_cached(self):
        registry = RngRegistry(0)
        assert registry.stream("s") is registry.stream("s")

    def test_fork_family(self):
        registry = RngRegistry(0)
        members = [registry.fork("sessions", i).random(4) for i in range(3)]
        assert not np.array_equal(members[0], members[1])
        assert not np.array_equal(members[1], members[2])


class TestUnits:
    def test_conversions(self):
        assert ms(50) == 0.05
