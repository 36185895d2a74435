"""Long-lived TCP flows — the paper's ``long`` workloads (§5.2).

Flows of infinite duration whose link utilization is "almost independent
of the number of concurrent flows".  Data always flows between a server
host (left side of the dumbbell) and a client host (right side); the
``direction`` selects who transmits:

* ``"down"`` — server transmits to client (the download scenarios),
* ``"up"`` — client transmits to server (the upload scenarios that
  triggered the bufferbloat debate).
"""

from repro.tcp import TcpConnection, TcpListener
from repro.tcp.cc import make_cc


class BulkTraffic:
    """A group of long-lived flows between server and client host pools.

    Parameters
    ----------
    sim:
        Driving simulator.
    servers, clients:
        Host pools; flow ``i`` runs between ``servers[i % len]`` and
        ``clients[i % len]``.
    count:
        Number of flows.
    direction:
        ``"down"`` (server sends) or ``"up"`` (client sends).
    cc:
        Congestion-control name (``"reno"`` or ``"cubic"``).
    port:
        Listener port on the servers (one listener per server).
    stagger:
        Gap between consecutive flow starts, to avoid pathological
        synchronization of the handshakes.
    """

    def __init__(self, sim, servers, clients, count, direction="down",
                 cc="cubic", port=5001, stagger=0.1):
        if direction not in ("down", "up"):
            raise ValueError("direction must be 'down' or 'up', not %r" % direction)
        self.sim = sim
        self.servers = list(servers)
        self.clients = list(clients)
        self.count = count
        self.direction = direction
        self.cc_name = cc
        self.port = port
        self.stagger = stagger
        self.connections = []
        self._listeners = []
        self._started = False

    def start(self):
        """Install listeners and launch all flows."""
        if self._started:
            raise RuntimeError("BulkTraffic already started")
        self._started = True
        on_accept = None
        if self.direction == "down":
            # Server pushes for the lifetime of the experiment.
            on_accept = self._serve_download
        for server in self.servers:
            listener = TcpListener(
                self.sim, server, self.port,
                on_connection=on_accept,
                cc_factory=lambda: make_cc(self.cc_name),
            )
            self._listeners.append(listener)
        self.sim.schedule_many(
            (index * self.stagger, self._launch_flow, (index,))
            for index in range(self.count))

    def _serve_download(self, connection):
        connection.send_forever()

    def _launch_flow(self, index):
        server = self.servers[index % len(self.servers)]
        client = self.clients[index % len(self.clients)]
        connection = TcpConnection(
            self.sim, client,
            peer_addr=server.addr, peer_port=self.port,
            cc=make_cc(self.cc_name),
        )
        if self.direction == "up":
            connection.on_established = lambda c: c.send_forever()
        connection.connect()
        self.connections.append(connection)

    def stop(self):
        """Abort all flows (used at the end of an experiment)."""
        for connection in self.connections:
            connection.abort()
        for listener in self._listeners:
            listener.close()

    def __repr__(self):
        return "BulkTraffic(%d %s flows, cc=%s)" % (
            self.count, self.direction, self.cc_name)
