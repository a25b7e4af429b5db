"""A stdlib JSON-over-HTTP endpoint for querying released summaries.

No web framework, no dependencies: a ``ThreadingHTTPServer`` whose handler
translates HTTP requests into :class:`~repro.serve.service.QueryService`
calls.  Because the service funnels every transport through the same
engines, an HTTP answer is byte-identical (as a JSON number) to the
in-process answer on the same release.  Stores with live entries
(:meth:`~repro.serve.store.ReleaseStore.register_live`) serve snapshots of a
stream *while it is still being ingested*: an answer covers every append
the source had accepted when the request arrived, so a client that
appended and then queries sees its data in one request, with no polling.
Continual snapshots are taken under the summarizer's lock, so serving
threads and the ingesting thread never observe torn state, and each HTTP
answer matches an in-process ``snapshot()`` of the same state byte for
byte.

Routes:

* ``GET /healthz`` -- liveness plus the number of addressable releases.
* ``GET /releases`` -- metadata for every release (domain, epsilon, items,
  supported query types).
* ``GET /stats`` -- query-cache hit/miss statistics and write-failure count.
* ``POST /query`` -- body ``{"release": name, "query": {...}}`` (or
  ``"domain"`` instead of ``"release"``, or ``"queries": [...]`` for a
  batch); the answer payload echoes the canonical query.  The batch form
  rides :meth:`~repro.serve.service.QueryService.answer_many`: one release
  resolution and one vectorised evaluation pass for the whole list.

The handler frames requests and responses itself, without the ``email``
package.  The request line follows ``http.server``'s rules.  The header
lines are read into a mapping that ignores the case of names, each value
without its optional whitespace; of a repeated name the first occurrence
wins.  ``http.server``'s limits stay: a header line over
:data:`MAX_LINE_BYTES` or 100 header fields get 431.  Each JSON response --
status line, ``Server``, ``Date``, ``Content-Type``, ``Content-Length``,
``Connection: close`` when the connection ends, and the body -- is built as
one string and goes out in one socket write; the ``Date`` text is formatted
once a second.  ``TCP_NODELAY`` stays set on the connection all the same:
a large batch response (a 256-query body is ~37 KB) spans several
segments, and with Nagle's algorithm on, its last partial segment would
wait for the client's delayed ACK of the ones before it (~40 ms on Linux).

A request whose body is not read gets ``Connection: close``, so the unread
body is never parsed as the next request.  Rejected before the body are: an
unknown path; a missing or out-of-range ``Content-Length``, or one that
is not all ASCII digits (a sign or a ``_`` separator included); two
``Content-Length`` fields whose values differ; a POST that carries a
``Transfer-Encoding``, whose coded body is never decoded; and a head line
that is not a field (no colon, whitespace before the colon, a folded
continuation line, a bare CR), which another parser might read otherwise.
A GET that carries a body is answered but never read.  A body that is not
valid JSON, or not text at all, gets a 400 and the connection stays open.

Clients that disconnect mid-response are routine at high concurrency
(timeouts, impatient load balancers): response writes that hit a dead
socket are swallowed and counted (``write_failures`` in ``/stats``) instead
of unwinding the handler thread with ``BrokenPipeError``.  A connection
that idles in a read or a write for :data:`IDLE_TIMEOUT_S` is closed, so
idle keep-alive clients cannot pin handler threads.

For multi-core serving, :func:`start_worker_pool` runs N processes that all
bind the same fixed port behind ``SO_REUSEPORT`` (the kernel load-balances
connections across them) -- ``repro serve --store DIR --workers N``.

Example (in-process; see ``examples/serve_demo.py`` for the HTTP loop):
    >>> from repro.serve.http import create_server
    >>> from repro.serve.store import ReleaseStore
    >>> from repro.api.release import Release
    >>> from repro.baselines.pmm import build_exact_tree
    >>> from repro.core.sampler import SyntheticDataGenerator
    >>> from repro.domain.interval import UnitInterval
    >>> store = ReleaseStore()
    >>> tree = build_exact_tree([0.2, 0.8], UnitInterval(), depth=1)
    >>> store.add("demo", Release(SyntheticDataGenerator(tree, UnitInterval())))
    >>> server = create_server(store, port=0)   # port 0: pick a free port
    >>> isinstance(server.server_port, int)
    True
    >>> server.server_close()
"""

from __future__ import annotations

import email.utils
import json
import multiprocessing
import pathlib
import re
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.service import QueryService
from repro.serve.store import ReleaseStore

__all__ = ["QueryHTTPServer", "create_server", "start_worker_pool"]

#: Largest accepted request body; queries are tiny, so anything bigger is a
#: client error rather than a reason to buffer unbounded input.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit idle in a read or a write before its handler
#: closes it.  Without a limit every idle keep-alive connection pins a
#: handler thread for ever; the limit sits far above any pause of a live
#: client (a monitoring connection polling ``/stats`` once a minute stays
#: open).
IDLE_TIMEOUT_S = 300.0

#: Longest request-head line accepted, in bytes with its line ending; a
#: longer header line gets 431 (``http.server``'s limit).
MAX_LINE_BYTES = 65536

#: Most lines a request head may have after its request line, the blank
#: line that ends it included: 99 header fields are answered, 100 get 431
#: (``http.server``'s limit).
MAX_HEAD_LINES = 100

#: A header field line: a name of visible ASCII other than ``:``, the colon,
#: the value and the line ending.  A line with whitespace before the colon,
#: a folded continuation line or a bare CR does not match.
_FIELD_LINE = re.compile(r"([!-9;-~]+):([^\r\n]*)\r?\n?")

#: The request line's version, ``HTTP/major.minor`` with at most ten digits
#: in each number (``http.server``'s rule).
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")

#: Encodes every response body; ``json.dumps`` with ``sort_keys`` would build
#: an encoder on each call.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)


class _HeadTooLarge(Exception):
    """A request head past a limit; ``args`` are ``send_error``'s message
    and explanation, ``http.server``'s own texts."""


class _Fields:
    """A request head's fields; ``get`` and ``in`` take a name in any case."""

    __slots__ = ("_values",)

    def __init__(self, values: dict[str, str]) -> None:
        self._values = values  # by lower-case name

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._values

    def get(self, name: str, default=None):
        return self._values.get(name.lower(), default)


def _read_fields(stream) -> _Fields:
    """Read a request head's header lines from ``stream``, through the
    blank line that ends them, with optional whitespace stripped from each
    value.  Of a repeated name the first occurrence wins, as
    ``email.message.Message.get`` does.

    Raises :class:`_HeadTooLarge` past :data:`MAX_LINE_BYTES` or
    :data:`MAX_HEAD_LINES`, and ``ValueError`` for a line that is not a
    field or for two ``Content-Length`` fields whose values differ (RFC 9112
    section 6.3: the body's end is unknown, so it cannot be skipped).
    """
    values: dict[str, str] = {}
    lines = 0
    while True:
        line = stream.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _HeadTooLarge(
                "Line too long", f"got more than {MAX_LINE_BYTES} bytes when reading header line"
            )
        lines += 1
        if lines > MAX_HEAD_LINES:
            raise _HeadTooLarge("Too many headers", f"got more than {MAX_HEAD_LINES} headers")
        if line in (b"\r\n", b"\n", b""):
            return _Fields(values)
        match = _FIELD_LINE.fullmatch(line.decode("iso-8859-1"))
        if match is None:
            raise ValueError(f"malformed header line {line!r}")
        name = match[1].lower()
        value = match[2].strip(" \t")
        first = values.setdefault(name, value)
        if first != value and name == "content-length":
            raise ValueError(f"conflicting Content-Length values {first!r} and {value!r}")


class _QueryRequestHandler(BaseHTTPRequestHandler):
    """Translates HTTP requests into ``QueryService`` calls."""

    server: "QueryHTTPServer"
    protocol_version = "HTTP/1.1"
    #: The socket timeout ``StreamRequestHandler.setup`` applies; a timed-out
    #: read or write ends the connection in ``handle_one_request``.
    timeout = IDLE_TIMEOUT_S
    #: ``StreamRequestHandler.setup`` sets ``TCP_NODELAY``, so the last
    #: segment of a response that spans several is sent at once instead of
    #: waiting for the client's delayed ACK.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def parse_request(self) -> bool:
        """Parse the request line by ``http.server``'s rules, then read the
        header fields with :func:`_read_fields` instead of the ``email``
        parser.  Returns False once an error response is sent."""
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            match = _VERSION.fullmatch(version)
            if match is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            number = int(match[1]), int(match[2])
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({version[5:]})"
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        # A path that starts with // reads as a URL's authority to clients
        # (an open redirect), so it is reduced to one slash (gh-87389).
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        try:
            self.headers = fields = _read_fields(self.rfile)
        except _HeadTooLarge as error:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, *error.args)
            return False
        except ValueError as error:
            self._send_error_json(str(error), status=400, close=True)
            return False
        connection = fields.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (
            fields.get("Expect", "").lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _send_json(self, payload, status: int = 200, close: bool = False) -> None:
        """Send ``payload`` as the JSON response, head and body in one
        socket write.

        ``close`` adds ``Connection: close`` and ends the connection after
        the response.
        """
        body = _JSON_ENCODER.encode(payload).encode("utf-8")
        if self.server.verbose:
            self.log_request(status)
        if close:
            self.close_connection = True
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            response = body
        else:
            connection = "Connection: close\r\n" if close else ""
            response = (
                f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.server.date_header()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{connection}\r\n"
            ).encode("latin-1") + body
        try:
            self.wfile.write(response)
        except ConnectionError:
            # The client hung up mid-response (BrokenPipeError /
            # ConnectionResetError).  The answer is already computed and the
            # socket is dead; drop the connection quietly and count it
            # instead of unwinding the handler thread with a traceback.
            self.server.count_write_failure()
            self.close_connection = True

    def _send_error_json(self, message: str, status: int, close: bool = False) -> None:
        self._send_json({"error": message}, status=status, close=close)

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        # GET bodies are never read, so a GET that carries one is answered
        # with ``Connection: close``: left in the stream, the body would be
        # parsed as the next request.
        close = self.headers.get("Content-Length", "0").strip() != "0" or (
            "Transfer-Encoding" in self.headers
        )
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path in ("/", "/healthz"):
            self._send_json({"status": "ok", "releases": len(service.store)}, close=close)
        elif path == "/releases":
            self._send_json({"releases": service.store.describe()}, close=close)
        elif path == "/stats":
            stats = service.stats()
            stats["write_failures"] = self.server.write_failures
            self._send_json(stats, close=close)
        else:
            self._send_error_json(f"unknown path {self.path!r}", status=404, close=close)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming convention
        # A rejection sent before the body is read closes the connection:
        # left in the stream, the unread body would be parsed as the next
        # request.
        if self.path.split("?", 1)[0].rstrip("/") != "/query":
            self._send_error_json(f"unknown path {self.path!r}", status=404, close=True)
            return
        value = self.headers.get("Content-Length", "0")
        try:
            # RFC 9110 section 8.6 allows only ASCII digits; int() alone also
            # takes a sign, "_" separators and other scripts' digits, which a
            # proxy in front may frame differently.
            if not (value.isascii() and value.isdigit()):
                raise ValueError(value)
            length = int(value)  # raises past sys.get_int_max_str_digits()
        except ValueError:
            self._send_error_json("invalid Content-Length", status=400, close=True)
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_error_json(
                f"request body must be 1..{MAX_BODY_BYTES} bytes, got {length}",
                status=400,
                close=True,
            )
            return
        if "Transfer-Encoding" in self.headers:
            # A transfer-coded body is never decoded: reading Content-Length
            # bytes of chunked framing would leave the rest in the stream.
            self._send_error_json(
                "Transfer-Encoding is not supported; send the body with a Content-Length",
                status=400,
                close=True,
            )
            return
        try:
            request = json.loads(self.rfile.read(length))
        except (ValueError, RecursionError) as error:
            # JSONDecodeError; UnicodeDecodeError on bytes that are not text;
            # RecursionError on arrays or objects nested too deep.
            self._send_error_json(f"request body is not valid JSON: {error}", status=400)
            return
        if not isinstance(request, dict):
            self._send_error_json("request body must be a JSON object", status=400)
            return

        service = self.server.service
        release = request.get("release")
        domain = request.get("domain")
        try:
            if "queries" in request:
                queries = request["queries"]
                if not isinstance(queries, list):
                    raise ValueError("'queries' must be a list of query objects")
                self._send_json(
                    {"results": service.answer_many(queries, release=release, domain=domain)}
                )
            elif "query" in request:
                self._send_json(service.answer(request["query"], release=release, domain=domain))
            else:
                raise ValueError("request must carry a 'query' object or a 'queries' list")
        except KeyError as error:
            self._send_error_json(str(error.args[0] if error.args else error), status=404)
        except (TypeError, ValueError) as error:
            self._send_error_json(str(error), status=400)


class QueryHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`.

    ``reuse_port=True`` binds with ``SO_REUSEPORT`` so several worker
    processes can share one fixed port (see :func:`start_worker_pool`).
    """

    daemon_threads = True
    #: Accept-queue depth: hundreds of clients connecting at once must not
    #: overflow the default backlog of 5 (overflowed handshakes surface as
    #: connection resets after the client has already sent its request).
    request_queue_size = 128

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
        reuse_port: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self.write_failures = 0
        self._write_failures_lock = threading.Lock()
        #: ``(second, text)`` of the last ``Date`` formatted, swapped as one
        #: tuple so that no thread pairs a new second with an old text.
        self._date = (-1, "")
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError("this platform does not support SO_REUSEPORT")
        self.allow_reuse_port = bool(reuse_port)
        super().__init__((host, port), _QueryRequestHandler)

    def count_write_failure(self) -> None:
        """Record one response write that failed on a dead client socket."""
        with self._write_failures_lock:
            self.write_failures += 1

    def date_header(self) -> str:
        """The current second as an IMF-fixdate for ``Date``, formatted once
        a second for every handler thread."""
        second = int(time.time())
        date = self._date
        if date[0] != second:
            date = self._date = (second, email.utils.formatdate(second, usegmt=True))
        return date[1]


def create_server(
    store: ReleaseStore | str,
    host: str = "127.0.0.1",
    port: int = 8080,
    cache_size: int = 4096,
    verbose: bool = False,
    reuse_port: bool = False,
) -> QueryHTTPServer:
    """Build a ready-to-run server over a store (or a store directory path).

    Pass ``port=0`` to bind an ephemeral free port (read it back from
    ``server.server_port``); call ``server.serve_forever()`` to serve and
    ``server.shutdown()`` / ``server.server_close()`` to stop.
    """
    if not isinstance(store, ReleaseStore):
        store = ReleaseStore(store)
    service = QueryService(store, cache_size=cache_size)
    return QueryHTTPServer(service, host=host, port=port, verbose=verbose, reuse_port=reuse_port)


def _worker_main(
    directory: str, host: str, port: int, cache_size: int, verbose: bool
) -> None:
    """One pool worker: its own store, service, cache and threaded server,
    bound to the shared port with ``SO_REUSEPORT``."""
    server = create_server(
        directory, host=host, port=port, cache_size=cache_size, verbose=verbose, reuse_port=True
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()


def start_worker_pool(
    directory: str | pathlib.Path,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    cache_size: int = 4096,
    verbose: bool = False,
) -> list[multiprocessing.Process]:
    """Serve one store directory from ``workers`` processes on one port.

    Every worker binds the same fixed ``port`` with ``SO_REUSEPORT`` and the
    kernel load-balances incoming connections across them, so throughput
    scales past one GIL.  Each worker loads the store from ``directory``
    independently and keeps its own query cache (stdlib only: no shared
    state, no coordination).  Returns the started processes; terminate and
    join them to stop.  Requires an explicit port: with ``port=0`` each
    worker would bind a *different* ephemeral port.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if port == 0:
        raise ValueError("a worker pool needs an explicit --port (port 0 would "
                         "bind a different ephemeral port per worker)")
    directory = str(directory)
    processes = [
        multiprocessing.Process(
            target=_worker_main,
            args=(directory, host, port, cache_size, verbose),
            daemon=True,
        )
        for _ in range(workers)
    ]
    for process in processes:
        process.start()
    return processes
