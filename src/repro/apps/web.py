"""Web browsing: HTTP server and wget-like page fetcher (§9.1).

The paper measures the page-load time (PLT) of a small static page —
one HTML file (15 KB), one CSS (5.8 KB) and two JPEGs (30 KB each) —
fetched sequentially over a single persistent HTTP/1.0 connection
without pipelining, 14 RTTs end to end including TCP setup and
teardown.

:class:`PageFetch` performs exactly that: connect, then for each object
send a request and wait for the full response before requesting the
next; PLT runs from SYN to the last response byte.
"""

from repro.tcp import TcpConnection, TcpListener
from repro.tcp.cc import make_cc

#: The paper's page: object sizes in bytes (html, css, jpg, jpg).
PAGE_OBJECTS = (15_000, 5_800, 30_000, 30_000)

#: HTTP request size (request line + headers).
REQUEST_BYTES = 300

WEB_PORT = 80


class WebServer:
    """Static HTTP server: replies to ``("GET", size)`` with ``size`` bytes."""

    def __init__(self, sim, node, cc="reno"):
        self.listener = TcpListener(
            sim, node, WEB_PORT,
            on_connection=self._on_connection,
            cc_factory=lambda: make_cc(cc),
        )

    def _on_connection(self, connection):
        connection.on_message = self._on_message
        connection.on_peer_fin = self._on_peer_fin

    def _on_message(self, connection, meta):
        kind, size = meta
        if kind == "GET":
            connection.send(size, meta=("RESP", size))

    def _on_peer_fin(self, connection):
        if not connection.close_requested:
            connection.close()

    def close(self):
        self.listener.close()


class PageFetch:
    """One sequential page retrieval; measures the PLT.

    ``on_complete(fetch)`` fires after the connection closes cleanly.
    The PLT (:attr:`plt`) is available once :attr:`done`; it spans SYN
    to the arrival of the last object byte (rendering of a static page
    is constant and excluded, as with wget).
    """

    def __init__(self, sim, node, server_addr, cc="reno", on_complete=None):
        self.sim = sim
        self.on_complete = on_complete
        self.started_at = None
        self.last_byte_at = None
        self.done = False
        self.failed = False
        self._next_object = 0
        self.connection = TcpConnection(
            sim, node, peer_addr=server_addr, peer_port=WEB_PORT,
            cc=make_cc(cc))
        self.connection.on_established = self._on_established
        self.connection.on_message = self._on_message
        self.connection.on_peer_fin = lambda c: c.close()
        self.connection.on_close = self._on_close

    def start(self):
        """Begin the fetch (SYN goes out now)."""
        self.started_at = self.sim.now
        self.connection.connect()
        return self

    @property
    def plt(self):
        """Page-load time in seconds (None until the last byte arrived)."""
        if self.last_byte_at is None:
            return None
        return self.last_byte_at - self.started_at

    # ------------------------------------------------------------------
    def _request_next(self):
        size = PAGE_OBJECTS[self._next_object]
        self.connection.send(REQUEST_BYTES, meta=("GET", size))

    def _on_established(self, connection):
        self._request_next()

    def _on_message(self, connection, meta):
        kind, __ = meta
        if kind != "RESP":
            return
        self._next_object += 1
        if self._next_object < len(PAGE_OBJECTS):
            self._request_next()
        else:
            self.last_byte_at = self.sim.now
            self.done = True
            connection.close()

    def _on_close(self, connection):
        if not self.done:
            self.failed = True
        if self.on_complete is not None:
            self.on_complete(self)

    def abort(self):
        """Abandon the fetch (experiment teardown)."""
        self.connection.abort()
