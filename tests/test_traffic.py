"""Tests for the traffic generators (Harpoon and bulk flows)."""

import math

import numpy as np
import pytest

from repro.apps.bulk import BulkTraffic
from repro.apps.harpoon import (
    WEIBULL_SCALE,
    WEIBULL_SHAPE,
    HarpoonGenerator,
    weibull_file_sizer,
)
from repro.sim import Simulator
from repro.sim.topology import AccessNetwork


def weibull_mean():
    """Analytic mean of the paper's file-size distribution."""
    return WEIBULL_SCALE * math.gamma(1.0 + 1.0 / WEIBULL_SHAPE)


class TestFileSizes:
    def test_weibull_mean_matches_paper(self):
        # The paper quotes a mean flow size of ~50 KB.
        assert weibull_mean() == pytest.approx(50_000, rel=0.05)

    def test_sampler_statistics(self):
        rng = np.random.default_rng(0)
        sampler = weibull_file_sizer(rng)
        samples = [sampler() for __ in range(20_000)]
        assert np.mean(samples) == pytest.approx(weibull_mean(), rel=0.15)
        assert min(samples) >= 1

    def test_heavy_tail(self):
        rng = np.random.default_rng(1)
        sampler = weibull_file_sizer(rng)
        samples = [sampler() for __ in range(20_000)]
        # Median far below mean: the hallmark of the shape-0.35 Weibull.
        assert np.median(samples) < 0.2 * np.mean(samples)


class TestHarpoon:
    def _run(self, direction, sessions=4, seconds=20, **kwargs):
        sim = Simulator()
        net = AccessNetwork(sim)
        generator = HarpoonGenerator(
            sim, net.traffic_servers(), net.traffic_clients(),
            sessions=sessions, direction=direction, interarrival_mean=0.5,
            rng=np.random.default_rng(2), **kwargs)
        generator.start()
        sim.run(until=seconds)
        return sim, net, generator

    def test_download_transfers_complete(self):
        __, __, generator = self._run("down")
        assert generator.stats.completed > 10

    def test_upload_transfers_complete(self):
        __, __, generator = self._run("up")
        assert generator.stats.completed > 5

    def test_session_cap_limits_pileup(self):
        # Saturating the 1 Mbit/s uplink with one session: the cap bounds
        # the number of simultaneously active transfers.
        sim = Simulator()
        net = AccessNetwork(sim)
        generator = HarpoonGenerator(
            sim, net.traffic_servers(), net.traffic_clients(), sessions=1,
            direction="up", interarrival_mean=0.05, session_cap=5,
            rng=np.random.default_rng(3))
        generator.start()
        sim.run(until=30)
        assert generator.stats.active <= 5
        assert max(generator.stats.active_samples) == 5

    def test_stop_aborts_everything(self):
        sim, net, generator = self._run("down", seconds=5)
        generator.stop()
        sim.run(until=10)
        active_conns = sum(len(h.tcp_connections) for h in net.clients)
        assert active_conns == 0

    def test_concurrency_sampling(self):
        __, __, generator = self._run("down")
        assert len(generator.stats.active_samples) > 10
        assert generator.stats.mean_concurrent_flows >= 0

    def test_invalid_direction(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        with pytest.raises(ValueError):
            HarpoonGenerator(sim, net.servers, net.clients, 1,
                             direction="sideways")

    def test_double_start_rejected(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        generator = HarpoonGenerator(sim, net.traffic_servers(),
                                     net.traffic_clients(), 1)
        generator.start()
        with pytest.raises(RuntimeError):
            generator.start()


class TestBulk:
    def test_download_flows_saturate(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        bulk = BulkTraffic(sim, net.traffic_servers(), net.traffic_clients(),
                           count=4, direction="down")
        bulk.start()
        sim.run(until=5)
        net.reset_measurements()
        sim.run(until=15)
        assert net.down_bottleneck.utilization() > 0.9

    def test_upload_flows_saturate(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        bulk = BulkTraffic(sim, net.traffic_servers(), net.traffic_clients(),
                           count=2, direction="up")
        bulk.start()
        sim.run(until=5)
        net.reset_measurements()
        sim.run(until=15)
        assert net.up_bottleneck.utilization() > 0.9

    def test_stop_aborts(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        bulk = BulkTraffic(sim, net.traffic_servers(), net.traffic_clients(),
                           count=2, direction="down")
        bulk.start()
        sim.run(until=3)
        bulk.stop()
        tx_before = net.down_bottleneck.stats.tx_bytes
        sim.run(until=6)
        # Only in-flight packets drain; no new data is generated.
        assert net.down_bottleneck.stats.tx_bytes - tx_before < 200_000

    def test_invalid_direction(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        with pytest.raises(ValueError):
            BulkTraffic(sim, net.servers, net.clients, 1, direction="both")

    def test_double_start_rejected(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        bulk = BulkTraffic(sim, net.traffic_servers(), net.traffic_clients(),
                           count=1)
        bulk.start()
        with pytest.raises(RuntimeError):
            bulk.start()
