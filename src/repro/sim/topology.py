"""Dumbbell topologies mirroring the paper's two testbeds (Figure 3).

Both testbeds are dumbbells with a single bottleneck link:

* :class:`AccessNetwork` — the DSL access testbed: asymmetric bottleneck
  (16 Mbit/s downstream, 1 Mbit/s upstream) between a "DSLAM" and a
  "home router" (the NetFPGA pair in the paper), 20 ms delay on the
  server side, 5 ms on the client side.  Buffers under study sit on the
  DSLAM's downstream interface and the home router's upstream interface.
* :class:`BackboneNetwork` — the OC-3 backbone testbed: symmetric
  149.76 Mbit/s bottleneck (OC-3 payload rate; the paper quotes the
  155 Mbit/s nominal line rate) with 30 ms one-way delay, giving the
  60 ms base RTT behind the paper's 749-packet BDP.

Servers live on the *left*, clients on the *right*, exactly as in
Figure 3.  ``clients[0]``/``servers[0]`` are reserved for the application
under test (the "multimedia hosts"); background traffic uses the rest.
"""

from repro.sim.link import EdgeLink, Interface
from repro.sim.node import Node
from repro.sim.queues import DropTailQueue
from repro.util.units import GBPS, MBPS, ms

#: Wire size of a full-sized data packet (MSS 1460 + 40 bytes of headers).
FULL_PACKET_BYTES = 1500


def _droptail_factory(capacity_packets):
    return DropTailQueue(capacity_packets=capacity_packets)


class DumbbellNetwork:
    """Generic dumbbell: servers — left router — bottleneck — right router — clients.

    Parameters
    ----------
    sim:
        Driving simulator.
    n_servers, n_clients:
        Host counts on each side.
    edge_rate, server_edge_delay, client_edge_delay:
        Rate/one-way delays of the access links between hosts and their
        router (the paper's hardware delay boxes live here).
    down_rate, up_rate:
        Bottleneck rates toward the clients ("down") and toward the
        servers ("up").
    bottleneck_delay:
        One-way propagation delay of the bottleneck link.
    down_buffer_packets, up_buffer_packets:
        Capacities of the buffers under study, in packets.
    queue_factory:
        Callable ``capacity_packets -> Queue`` used for the two
        bottleneck queues; defaults to drop-tail like the paper.
    down_loss, up_loss:
        Wire loss probability of each bottleneck direction (see
        :class:`repro.sim.link.Interface`); 0.0 models the paper's clean
        wired testbeds, >0 a wireless-like lossy channel.
    """

    def __init__(
        self,
        sim,
        n_servers=3,
        n_clients=3,
        edge_rate=GBPS,
        server_edge_delay=ms(20),
        client_edge_delay=ms(5),
        down_rate=16 * MBPS,
        up_rate=1 * MBPS,
        bottleneck_delay=0.0,
        down_buffer_packets=64,
        up_buffer_packets=8,
        queue_factory=None,
        down_loss=0.0,
        up_loss=0.0,
    ):
        self.sim = sim
        if queue_factory is None:
            queue_factory = _droptail_factory
        self._next_addr = 1

        self.left_router = self._make_node("left-router")
        self.right_router = self._make_node("right-router")
        self.servers = [
            self._make_node("server%d" % index) for index in range(n_servers)
        ]
        self.clients = [
            self._make_node("client%d" % index) for index in range(n_clients)
        ]

        # Bottleneck link: left router <-> right router.
        self.down_bottleneck = Interface(
            sim,
            "bottleneck-down",
            down_rate,
            bottleneck_delay,
            queue_factory(down_buffer_packets),
            self.right_router,
            loss_rate=down_loss,
        )
        self.up_bottleneck = Interface(
            sim,
            "bottleneck-up",
            up_rate,
            bottleneck_delay,
            queue_factory(up_buffer_packets),
            self.left_router,
            loss_rate=up_loss,
        )
        self.left_router.set_default_route(self.down_bottleneck)
        self.right_router.set_default_route(self.up_bottleneck)

        for server in self.servers:
            self._connect_edge(server, self.left_router, edge_rate, server_edge_delay)
        for client in self.clients:
            self._connect_edge(client, self.right_router, edge_rate, client_edge_delay)

        self._edge_delays = (server_edge_delay, client_edge_delay)
        self._bottleneck_delay = bottleneck_delay

    # ------------------------------------------------------------------
    def _make_node(self, name):
        node = Node(self.sim, name, self._next_addr)
        self._next_addr += 1
        return node

    def _connect_edge(self, host, router, rate, delay):
        """Full-duplex host<->router link that never drops.

        Each direction is an :class:`EdgeLink` with exactly one feeder:
        the host feeds ``to_router``, and the bottleneck into ``router``
        feeds ``to_host`` (hosts talk only across the bottleneck), so
        entries are in time order.  The buffers under *study* are the
        bottleneck queues.
        """
        to_router = EdgeLink(self.sim, "%s->%s" % (host.name, router.name),
                             rate, delay, router)
        to_host = EdgeLink(self.sim, "%s->%s" % (router.name, host.name),
                           rate, delay, host)
        host.set_default_route(to_router)
        router.add_route(host.addr, to_host)

    # ------------------------------------------------------------------
    @property
    def base_rtt(self):
        """Round-trip time with empty queues, server <-> client."""
        server_delay, client_delay = self._edge_delays
        one_way = server_delay + client_delay + self._bottleneck_delay
        return 2.0 * one_way

    @property
    def media_server(self):
        """Host running the server side of the application under test."""
        return self.servers[0]

    @property
    def media_client(self):
        """Host running the client side of the application under test."""
        return self.clients[0]

    def traffic_servers(self):
        """Hosts available for background traffic (server side)."""
        return self.servers[1:] if len(self.servers) > 1 else self.servers

    def traffic_clients(self):
        """Hosts available for background traffic (client side)."""
        return self.clients[1:] if len(self.clients) > 1 else self.clients

    def bottlenecks(self):
        """The two bottleneck interfaces as ``(down, up)``."""
        return (self.down_bottleneck, self.up_bottleneck)

    def reset_measurements(self):
        """Zero the measurement counters of both bottleneck interfaces."""
        self.down_bottleneck.reset_stats()
        self.up_bottleneck.reset_stats()


class AccessNetwork(DumbbellNetwork):
    """The DSL access testbed of Figure 3a.

    Asymmetric 16/1 Mbit/s bottleneck; 5 ms client-side and 20 ms
    server-side one-way delays (DSL interleaving + access/backbone path),
    base RTT 50 ms.  The buffers under study: the DSLAM's
    (``left_router``) downstream queue (``down_buffer_packets``) and the
    home router's (``right_router``) upstream queue
    (``up_buffer_packets``), both in packets, 8–256 in the paper.
    """

    DOWN_RATE = 16 * MBPS
    UP_RATE = 1 * MBPS

    def __init__(
        self,
        sim,
        down_buffer_packets=64,
        up_buffer_packets=8,
        n_servers=3,
        n_clients=3,
        queue_factory=None,
        down_loss=0.0,
        up_loss=0.0,
    ):
        super().__init__(
            sim,
            n_servers=n_servers,
            n_clients=n_clients,
            edge_rate=GBPS,
            server_edge_delay=ms(20),
            client_edge_delay=ms(5),
            down_rate=self.DOWN_RATE,
            up_rate=self.UP_RATE,
            bottleneck_delay=0.0,
            down_buffer_packets=down_buffer_packets,
            up_buffer_packets=up_buffer_packets,
            queue_factory=queue_factory,
            down_loss=down_loss,
            up_loss=up_loss,
        )


class BackboneNetwork(DumbbellNetwork):
    """The OC-3 backbone testbed of Figure 3b.

    Symmetric bottleneck at the OC-3 payload rate with 30 ms one-way
    delay (US east-to-west coast), base RTT ~60 ms; both directions carry
    the same configured buffer.  Edge links are per-pair gigabit with a
    negligible 0.1 ms delay.
    """

    #: OC-3 payload rate; yields the paper's 749-packet BDP at 60 ms RTT.
    RATE = 149.76 * MBPS

    def __init__(
        self,
        sim,
        buffer_packets=749,
        n_servers=4,
        n_clients=4,
        queue_factory=None,
        down_loss=0.0,
        up_loss=0.0,
    ):
        super().__init__(
            sim,
            n_servers=n_servers,
            n_clients=n_clients,
            edge_rate=GBPS,
            server_edge_delay=ms(0.1),
            client_edge_delay=ms(0.1),
            down_rate=self.RATE,
            up_rate=self.RATE,
            bottleneck_delay=ms(30),
            down_buffer_packets=buffer_packets,
            up_buffer_packets=buffer_packets,
            queue_factory=queue_factory,
            down_loss=down_loss,
            up_loss=up_loss,
        )
