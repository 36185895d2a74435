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

Each bottleneck direction is a drop-tail FIFO counted in packets, the
paper's buffer, served in closed form by
:class:`repro.sim.link.DropTailLink`.  Host<->router links are
closed-form :class:`repro.sim.link.EdgeLink` delay boxes.
"""

from repro.sim.link import DropTailLink, EdgeLink
from repro.sim.node import Node
from repro.sim.queues import DropTailQueue
from repro.util.units import GBPS, MBPS, ms

#: Wire size of a full-sized data packet (MSS 1460 + 40 bytes of headers).
FULL_PACKET_BYTES = 1500


class DumbbellNetwork:
    """Generic dumbbell: servers — left router — bottleneck — right router — clients.

    A testbed subclass sets the class attributes: ``HOSTS`` per side,
    ``EDGE_RATE``, ``SERVER_EDGE_DELAY`` and ``CLIENT_EDGE_DELAY`` of the
    access links between hosts and their router (the paper's hardware
    delay boxes live here), the bottleneck rates toward the clients
    (``DOWN_RATE``) and toward the servers (``UP_RATE``), and the
    bottleneck's one-way ``BOTTLENECK_DELAY``.

    Parameters
    ----------
    sim:
        Driving simulator.
    down_buffer_packets, up_buffer_packets:
        Capacities of the drop-tail buffers under study, in packets.
    """

    EDGE_RATE = GBPS

    def __init__(self, sim, down_buffer_packets, up_buffer_packets):
        self.sim = sim
        self._next_addr = 1

        self.left_router = self._make_node("left-router")
        self.right_router = self._make_node("right-router")
        self.servers = [
            self._make_node("server%d" % index) for index in range(self.HOSTS)
        ]
        self.clients = [
            self._make_node("client%d" % index) for index in range(self.HOSTS)
        ]

        # Bottleneck link: left router <-> right router.
        self.down_bottleneck = DropTailLink(
            sim, "bottleneck-down", self.DOWN_RATE, self.BOTTLENECK_DELAY,
            DropTailQueue(capacity_packets=down_buffer_packets),
            self.right_router)
        self.up_bottleneck = DropTailLink(
            sim, "bottleneck-up", self.UP_RATE, self.BOTTLENECK_DELAY,
            DropTailQueue(capacity_packets=up_buffer_packets),
            self.left_router)
        self.left_router.set_default_route(self.down_bottleneck)
        self.right_router.set_default_route(self.up_bottleneck)

        for server in self.servers:
            self._connect_edge(server, self.left_router,
                               self.SERVER_EDGE_DELAY)
        for client in self.clients:
            self._connect_edge(client, self.right_router,
                               self.CLIENT_EDGE_DELAY)

    # ------------------------------------------------------------------
    def _make_node(self, name):
        node = Node(self.sim, name, self._next_addr)
        self._next_addr += 1
        return node

    def _connect_edge(self, host, router, delay):
        """Full-duplex host<->router link that never drops.

        Each direction is an :class:`EdgeLink` with exactly one feeder:
        the host feeds ``to_router``, and the bottleneck into ``router``
        feeds ``to_host`` (hosts talk only across the bottleneck), so
        entries are in time order.  The buffers under *study* are the
        bottleneck queues.
        """
        to_router = EdgeLink(self.sim, "%s->%s" % (host.name, router.name),
                             self.EDGE_RATE, delay, router)
        to_host = EdgeLink(self.sim, "%s->%s" % (router.name, host.name),
                           self.EDGE_RATE, delay, host)
        host.set_default_route(to_router)
        router.add_route(host.addr, to_host)

    # ------------------------------------------------------------------
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
        """The two bottleneck links as ``(down, up)``."""
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

    HOSTS = 3
    SERVER_EDGE_DELAY = ms(20)
    CLIENT_EDGE_DELAY = ms(5)
    DOWN_RATE = 16 * MBPS
    UP_RATE = 1 * MBPS
    BOTTLENECK_DELAY = 0.0

    def __init__(self, sim, down_buffer_packets=64, up_buffer_packets=8):
        super().__init__(sim, down_buffer_packets, up_buffer_packets)


class BackboneNetwork(DumbbellNetwork):
    """The OC-3 backbone testbed of Figure 3b.

    Symmetric bottleneck at the OC-3 payload rate with 30 ms one-way
    delay (US east-to-west coast), base RTT ~60 ms; both directions carry
    the same configured buffer.  Edge links are per-pair gigabit with a
    negligible 0.1 ms delay.
    """

    HOSTS = 4
    SERVER_EDGE_DELAY = CLIENT_EDGE_DELAY = ms(0.1)
    #: OC-3 payload rate; yields the paper's 749-packet BDP at 60 ms RTT.
    RATE = 149.76 * MBPS
    DOWN_RATE = UP_RATE = RATE
    BOTTLENECK_DELAY = ms(30)

    def __init__(self, sim, buffer_packets=749):
        super().__init__(sim, buffer_packets, buffer_packets)
