"""Shared framed transport: Unix-socket and TCP servers plus clients.

Every service endpoint — the single-session ``repro-bench serve``
daemon and the :mod:`repro.cluster` router — speaks the same protocol
(:mod:`~.protocol`) over a stream socket, and every message in either
direction is one :mod:`repro.wire` framed binary message, from the
first byte of a connection to its last.  This module owns everything
transport-shaped so the daemon and the router only implement
``handle_message``:

* **address parsing**: ``"host:port"`` (or ``tcp://host:port``) is TCP,
  anything else (or ``unix://path``) is a Unix socket path, so one
  ``--connect`` flag reaches either transport;
* **server plumbing**: threaded accept loops (one handler thread per
  connection) behind a listen backlog of :data:`LISTEN_BACKLOG`,
  request size bounded by :data:`~repro.wire.frames.MAX_PAYLOAD_BYTES`,
  a typed ``protocol_error`` reply for anything that is not a valid
  frame (after which that connection closes: the stream cannot be
  re-framed past a bad header), and resilience to clients that
  disconnect mid-frame;
* **stale-socket recovery**: binding a Unix path that already exists
  probes it first — a live daemon is never clobbered (the bind fails
  with a clear error), a leftover socket from a crashed daemon is
  removed and reclaimed;
* **client side**: one-shot ``request()`` (connect, one frame out, one
  frame in) used by the CLI clients and the replay load generator, and
  the persistent :class:`Connection` used by the remote execution
  backend and the router.
"""

from __future__ import annotations

import logging
import os
import socket
import socketserver
import threading
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..errors import ProtocolError
from ..telemetry import metrics as _metrics
from ..wire import frames as _frames

__all__ = [
    "Address",
    "Connection",
    "LISTEN_BACKLOG",
    "TcpServer",
    "UnixServer",
    "format_address",
    "make_server",
    "parse_address",
    "prepare_unix_socket",
    "request",
    "serve_in_thread",
]

_LOG = logging.getLogger("repro.service.transport")

#: listen backlog of every server; ``socketserver``'s default of 5
#: overflows under a handful of concurrent clients, and each overflow
#: costs the client a refused connect and a retry
LISTEN_BACKLOG = 128

#: a Unix socket path, or a (host, port) TCP endpoint
Address = Union[str, Tuple[str, int]]

MessageHandler = Callable[[Dict[str, Any]], Dict[str, Any]]


def parse_address(text: Union[str, Address]) -> Address:
    """Resolve one CLI spelling into a transport address.

    ``tcp://host:port`` and ``host:port`` become a TCP endpoint;
    ``unix://path`` and everything else stay a Unix socket path.  A
    bare ``:port`` binds/connects on localhost.
    """
    if isinstance(text, tuple):
        return (str(text[0]), int(text[1]))
    if text.startswith("unix://"):
        return text[len("unix://"):]
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    elif "/" in text or ":" not in text:
        return text
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        return text
    return (host or "127.0.0.1", int(port))


def format_address(address: Address) -> str:
    """The canonical printable form of an address."""
    if isinstance(address, tuple):
        return f"{address[0]}:{address[1]}"
    return address


def prepare_unix_socket(path: str) -> None:
    """Make ``path`` bindable, without ever clobbering a live daemon.

    A leftover socket file from a crashed daemon would otherwise fail
    the bind with ``Address already in use``.  Probe it: when a connect
    succeeds something is still accepting there and binding must fail
    loudly; when the connect is refused (or the file is not a socket at
    all, which unlink surfaces) the file is stale and is removed.
    """
    if not os.path.exists(path):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(path)
    except OSError:
        # nothing accepting: a crashed daemon's leftover — reclaim it
        _LOG.warning("removing stale service socket %s", path)
        os.unlink(path)
    else:
        raise OSError(
            f"socket {path} is in use by a live daemon; "
            f"shut it down first or serve on a different path")
    finally:
        probe.close()


class _FrameHandler(socketserver.StreamRequestHandler):
    """One connection: read request frames, write response frames.

    Client-caused failures (bad magic, unknown versions, truncated or
    oversized frames, mid-frame disconnects) never take the server
    down — they answer with a typed error and end this connection only.
    """

    def handle(self) -> None:
        server = self.server  # type: ignore[assignment]
        while True:
            try:
                message = _frames.read_frame_message(self.rfile)
            except ProtocolError as exc:
                self._reply(exc.to_wire())
                return
            except OSError:
                return  # client vanished mid-frame
            if message is None:
                return  # clean disconnect
            _metrics.inc("wire_binary_messages_total")
            if not isinstance(message, dict):
                error = ProtocolError("request must be a wire object")
                if not self._reply(error.to_wire()):
                    return
                continue
            try:
                response = server.handle_message(message)
            except BaseException as exc:  # a handler bug, not a protocol
                _LOG.exception("handler error for op %r",
                               message.get("op"))
                response = {"status": "error", "code": "internal",
                            "message": f"{type(exc).__name__}: {exc}"}
            if not self._reply(response):
                return
            if server.is_shutdown_response(response):
                server.initiate_shutdown()
                return

    def _reply(self, response: Dict[str, Any]) -> bool:
        """Write one framed response; False when the client went away."""
        try:
            sent = _frames.write_frame_message(self.request, response)
            _metrics.inc("wire_binary_bytes_sent_total", sent)
            return True
        except OSError:
            return False


class _ServerCore:
    """Behaviour shared by the Unix and TCP servers."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def _init_core(self, handle_message: MessageHandler) -> None:
        self.handle_message = handle_message
        self._shutdown_started = threading.Event()

    def is_shutdown_response(self, response: Dict[str, Any]) -> bool:
        return (response.get("op") == "shutdown"
                and response.get("status") == "ok")

    def initiate_shutdown(self) -> None:
        """Stop the accept loop from any thread (idempotent)."""
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        # shutdown() blocks until serve_forever exits, so hop threads
        threading.Thread(target=self.shutdown, daemon=True).start()


class UnixServer(_ServerCore, socketserver.ThreadingMixIn,
                 socketserver.UnixStreamServer):
    """Threaded framed-message server on a Unix socket path."""

    def __init__(self, path: str, handle_message: MessageHandler):
        self._init_core(handle_message)
        self.address = path
        prepare_unix_socket(path)
        super().__init__(path, _FrameHandler)

    def close(self) -> None:
        self.server_close()
        try:
            os.unlink(self.address)
        except OSError:
            pass


class TcpServer(_ServerCore, socketserver.ThreadingMixIn,
                socketserver.TCPServer):
    """Threaded framed-message server on a TCP host:port."""

    def __init__(self, address: Tuple[str, int],
                 handle_message: MessageHandler):
        self._init_core(handle_message)
        super().__init__(address, _FrameHandler)
        #: the bound endpoint (resolves port 0 to the kernel's choice)
        self.address: Tuple[str, int] = self.server_address[:2]

    def close(self) -> None:
        self.server_close()


def make_server(address: Union[str, Address],
                handle_message: MessageHandler,
                ) -> Union[UnixServer, TcpServer]:
    """A server for ``address``, transport chosen by its form."""
    resolved = parse_address(address)
    if isinstance(resolved, tuple):
        return TcpServer(resolved, handle_message)
    return UnixServer(resolved, handle_message)


def serve_in_thread(server: Union[UnixServer, TcpServer],
                    name: str = "service-server") -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests, in-process shards)."""
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              name=name, daemon=True)
    thread.start()
    return thread


def _connect(address: Address, timeout: float) -> socket.socket:
    if isinstance(address, tuple):
        return socket.create_connection(address, timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(address)
    except BaseException:
        sock.close()
        raise
    return sock


def request(address: Union[str, Address], message: Dict[str, Any],
            timeout: float = 600.0) -> Dict[str, Any]:
    """Client side: connect, send one request frame, read one response.

    Raises :class:`ConnectionError`/:class:`OSError` when the endpoint
    is unreachable or closes mid-request — the router's health tracking
    and the CLI clients both key off those — and
    :class:`~repro.errors.ProtocolError` (a :class:`ValueError`) when
    the reply is not a valid frame.
    """
    with Connection(address, timeout=timeout) as conn:
        return conn.request(message)


class Connection:
    """A persistent client connection: one frame out, one frame in.

    Used by the remote execution backend and the cluster router's
    forwarding path, where connection reuse matters; :func:`request`
    wraps one for a single exchange.
    """

    def __init__(self, address: Union[str, Address],
                 timeout: float = 600.0):
        self.address = parse_address(address)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = _connect(self.address, timeout)
        self._rfile = self._sock.makefile("rb")

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, wait for its response."""
        if self._sock is None:
            raise ConnectionError("connection is closed")
        sent = _frames.write_frame_message(self._sock, message)
        _metrics.inc("wire_binary_bytes_sent_total", sent)
        reply = _frames.read_frame_message(self._rfile)
        if reply is None:
            raise ConnectionError(
                f"{format_address(self.address)} closed the connection "
                f"mid-request")
        if not isinstance(reply, dict):
            raise ProtocolError("response must be a wire object")
        return reply

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
