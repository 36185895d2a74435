"""Integration tests: AQM disciplines under real TCP load."""

from repro.sim import Simulator
from repro.sim.topology import AccessNetwork
from repro.tcp import Cubic, TcpConnection, TcpListener


def _run_upload(discipline, seconds=15):
    """One long CUBIC upload through a 256-packet uplink buffer."""
    sim = Simulator()
    net = AccessNetwork(sim, down_buffer_packets=64, up_buffer_packets=256,
                        discipline=discipline)
    TcpListener(sim, net.media_server, 81)
    client = TcpConnection(sim, net.media_client,
                           peer_addr=net.media_server.addr, peer_port=81,
                           cc=Cubic())
    client.on_established = lambda c: c.send_forever()
    client.connect()
    sim.run(until=5)
    net.reset_measurements()
    sim.run(until=5 + seconds)
    return net


def test_droptail_builds_standing_queue():
    net = _run_upload("droptail")
    assert net.up_bottleneck.queue.stats.mean_delay > 0.4


def test_codel_bounds_standing_queue():
    net = _run_upload("codel")
    # CoDel's whole point: sojourn times near its 5 ms target, orders of
    # magnitude below the drop-tail standing queue.
    assert net.up_bottleneck.queue.stats.mean_delay < 0.15
    # ... while keeping the link well utilized.
    assert net.up_bottleneck.utilization() > 0.7


def test_red_sits_between():
    droptail = _run_upload("droptail")
    red = _run_upload("red")
    assert (red.up_bottleneck.queue.stats.mean_delay
            < droptail.up_bottleneck.queue.stats.mean_delay)


def test_aqm_drops_recorded():
    net = _run_upload("codel", seconds=8)
    assert net.up_bottleneck.queue.stats.dropped > 0
