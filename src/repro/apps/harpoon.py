"""Harpoon-style session-based traffic generation (§5.2, Table 1).

Harpoon (Sommers/Kim/Barford 2004) models users as *sessions* that issue
file transfers with exponential inter-arrival times and heavy-tailed file
sizes.  The paper parameterizes it with Weibull(shape=0.35, scale=10039)
file sizes — mean ~50 KB, finite variance — and exponential inter-arrival
times with mean 2 s on the access testbed ("exp-a") and 1 s on the
backbone ("exp-b").

Crucially, a session issues its transfers *on schedule*, not after the
previous transfer finished: under overload, transfers pile up, which is
how the paper's ``short-overload`` scenario reaches ~2170 concurrent
flows from 768 sessions.
"""

import numpy as np

from repro.tcp import TcpConnection, TcpListener
from repro.tcp.cc import make_cc

#: Paper's file size distribution parameters.
WEIBULL_SHAPE = 0.35
WEIBULL_SCALE = 10039.0

#: Size of the client's request message in the download direction.
REQUEST_BYTES = 300

#: Safety valve bounding one generator's simultaneously active
#: transfers; arrivals beyond it are skipped (never triggered in the
#: paper-scale scenarios).
MAX_ACTIVE = 20_000

#: Simulated seconds between two samples of the active-transfer count.
SAMPLE_INTERVAL = 0.25


def weibull_file_sizer(rng):
    """Return a zero-argument sampler of file sizes in bytes (at least 1)."""
    shape, scale = WEIBULL_SHAPE, WEIBULL_SCALE

    def sample():
        return max(1, int(rng.weibull(shape) * scale))

    return sample


class HarpoonStats:
    """Aggregate statistics across all transfers of one generator."""

    def __init__(self):
        self.completed = 0
        self.active = 0
        self.active_samples = []

    @property
    def mean_concurrent_flows(self):
        """Mean number of simultaneously active transfers (Table 1 column)."""
        if not self.active_samples:
            return 0.0
        return float(np.mean(self.active_samples))

    def reset_measurements(self):
        """Clear windowed measurements (keep live transfer accounting)."""
        self.active_samples = []
        self.completed = 0


class HarpoonGenerator:
    """Session-based traffic between server and client pools.

    Parameters
    ----------
    sim:
        Driving simulator.
    servers, clients:
        Host pools; session ``i`` runs between ``servers[i % len]`` and
        ``clients[i % len]``.
    sessions:
        Number of concurrent user sessions.
    direction:
        ``"down"`` — servers send the files (typical web browsing);
        ``"up"`` — clients upload the files.  A download's server sends
        the file once the ``REQUEST_BYTES`` request has arrived, with the
        size the client recorded under its address and port (the
        simulated form of a request naming the file).
    interarrival_mean:
        Mean of the exponential gap between transfer starts per session.
    rng:
        numpy Generator for all randomness of this generator, the
        :func:`weibull_file_sizer` file sizes included.
    cc:
        Congestion control used by the transfer senders.
    session_cap:
        Maximum transfers a single session may have outstanding.  Under
        overload new arrivals are skipped once the cap is reached, which
        is what keeps Harpoon's 2-hour overload runs at a stable
        concurrency (the paper's short-overload levels off at ~2170
        concurrent flows for 768 sessions).
    """

    def __init__(self, sim, servers, clients, sessions, direction="down",
                 interarrival_mean=2.0, rng=None, cc="cubic", port=8080,
                 session_cap=8):
        if direction not in ("down", "up"):
            raise ValueError("direction must be 'down' or 'up', not %r" % direction)
        self.sim = sim
        self.servers = list(servers)
        self.clients = list(clients)
        self.sessions = sessions
        self.direction = direction
        self.interarrival_mean = interarrival_mean
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.file_sizer = weibull_file_sizer(self.rng)
        self.cc_name = cc
        self.port = port
        self.session_cap = session_cap
        self.stats = HarpoonStats()
        self._session_active = [0] * sessions
        self._listeners = []
        self._connections = set()
        self._download_sizes = {}  # (client addr, client port) -> bytes
        self._stopped = False
        self._started = False

    # ------------------------------------------------------------------
    def start(self):
        """Install listeners, launch sessions and the concurrency sampler."""
        if self._started:
            raise RuntimeError("HarpoonGenerator already started")
        self._started = True
        for server in self.servers:
            listener = TcpListener(
                self.sim, server, self.port,
                on_connection=self._on_server_connection,
                cc_factory=lambda: make_cc(self.cc_name),
            )
            self._listeners.append(listener)
        # Stagger session phase uniformly over one inter-arrival mean.
        self.sim.schedule_many(
            (float(self.rng.uniform(0.0, self.interarrival_mean)),
             self._session_tick, (index,))
            for index in range(self.sessions))
        self.sim.call_later(SAMPLE_INTERVAL, self._sample_active)

    def stop(self):
        """Stop issuing transfers and abort all live ones."""
        self._stopped = True
        for connection in list(self._connections):
            connection.abort()
        self._connections.clear()
        self._download_sizes.clear()
        for listener in self._listeners:
            listener.close()

    # ------------------------------------------------------------------
    def _sample_active(self):
        if self._stopped:
            return
        self.stats.active_samples.append(self.stats.active)
        self.sim.call_later(SAMPLE_INTERVAL, self._sample_active)

    def _session_tick(self, index):
        if self._stopped:
            return
        self._start_transfer(index)
        gap = float(self.rng.exponential(self.interarrival_mean))
        self.sim.call_later(gap, self._session_tick, index)

    # ------------------------------------------------------------------
    def _on_server_connection(self, connection):
        self._connections.add(connection)
        nbytes = self._download_sizes.pop(
            (connection.peer_addr, connection.peer_port), None)
        if nbytes is not None:
            received = 0

            def on_data(connection, delivered):
                nonlocal received
                received += delivered
                if received == REQUEST_BYTES:
                    connection.send(nbytes)
                    connection.close()

            connection.on_data = on_data
        connection.on_peer_fin = self._on_server_peer_fin
        connection.on_close = lambda c: self._connections.discard(c)

    def _on_server_peer_fin(self, connection):
        # Upload direction: the client half-closed after its file; finish.
        if not connection.close_requested:
            connection.close()

    # ------------------------------------------------------------------
    def _start_transfer(self, index):
        if (self.stats.active >= MAX_ACTIVE
                or self._session_active[index] >= self.session_cap):
            return
        server = self.servers[index % len(self.servers)]
        client = self.clients[index % len(self.clients)]
        nbytes = self.file_sizer()
        connection = TcpConnection(
            self.sim, client, peer_addr=server.addr, peer_port=self.port,
            cc=make_cc(self.cc_name),
        )
        self._connections.add(connection)
        self.stats.active += 1
        self._session_active[index] += 1
        done = False

        def finish(success):
            nonlocal done
            if done:
                return
            done = True
            self.stats.active -= 1
            self._session_active[index] -= 1
            if success:
                self.stats.completed += 1

        if self.direction == "down":
            self._download_sizes[client.addr, connection.local_port] = nbytes
            connection.on_established = lambda c: c.send(REQUEST_BYTES)
            connection.on_peer_fin = lambda c: (finish(True), c.close())
        else:
            connection.on_established = (
                lambda c: (c.send(nbytes), c.close()))
            connection.on_peer_fin = lambda c: finish(True)
        connection.on_close = (
            lambda c: (finish(False), self._connections.discard(c)))
        connection.connect()

    def __repr__(self):
        return "HarpoonGenerator(%d sessions, %s, active=%d)" % (
            self.sessions, self.direction, self.stats.active)
