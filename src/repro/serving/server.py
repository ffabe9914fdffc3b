"""A minimal JSON-over-HTTP front end for the session manager.

Pure standard library (:mod:`http.server`), threaded, no framework — the
point is to demonstrate (and test) the serving layer end-to-end: open
sessions, page with opaque cursors, resume after eviction, apply deltas
and watch stale cursors fence. One process, one
:class:`~repro.serving.manager.SessionManager`; request threads run
genuinely concurrently — the manager's fine-grained locks (per-session,
per-instance read/write, thread-safe engine underneath) replace the old
global lock, so one client's slow cold open no longer stalls everyone
else's pages or the stats endpoint.

Endpoints (all bodies JSON):

===========================================  =====================================
``POST /instances``                          register ``{"name"?, "relations": {R: [[...]]}, "fds"?: [{"relation", "lhs", "rhs"}]}``
``POST /instances/<id>/delta``               apply ``{R: {"adds": [[..]], "removes": [[..]]}}``
``POST /sessions``                           open ``{"query", "instance", "page_size"?, "order_by"?: ["x", ...]}``
``POST /sessions/batch``                     ``{"requests": [{"query", "instance"}...], "page_size"?, "first_page"?}``
``GET  /sessions/<id>/page?size=N``          next page ``{"answers", "cursor", "done", "offset"}``
``POST /sessions/<id>/close``                drop the live session (tokens stay valid)
``POST /resume``                             rebuild from ``{"cursor": token}``
``POST /count``                              ``{"query", "instance"}`` → ``{"count": N}`` (no enumeration)
``GET  /stats``                              serving + engine cache counters
``GET  /healthz``                            liveness/degradation snapshot
===========================================  =====================================

Each response the handler builds leaves in one write — status line,
headers and body together — on a socket with ``TCP_NODELAY`` set (the
standard library's own error replies, to a malformed request line or
an unsupported method, still take two writes and close the
connection). With Nagle's algorithm on, a response split over two
writes waits for the client's delayed ACK of the first (tens of
milliseconds) before the second goes out, which dwarfs the CPU cost of
a page. A page itself is one
:meth:`~repro.yannakakis.cdy.CDYCursor.take` of the session's cursor,
whose answer tuples are encoded straight to JSON arrays.

Error mapping: malformed input (including schema/parse errors) → 400,
unknown session or instance id → 404, a header or body read that stalls
past the socket timeout → 408 (connection closed; a keep-alive
connection that sends no next request closes without a reply), fenced
cursor → 409 with ``{"fenced": true}`` (the client's cue to reopen), a
body over the size cap → 413, a shed request (admission control full) →
503 with a ``Retry-After`` header, a request that outran the per-request
deadline → 504, anything unexpected → 500 with the exception repr (never
a dropped connection).

Start from the shell with ``python -m repro serve --data instance.json``.
"""

from __future__ import annotations

import io
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..database.instance import Instance
from ..database.relation import Relation
from ..exceptions import (
    AdmissionError,
    CursorError,
    CursorFencedError,
    DeadlineExceededError,
    InstanceNotFoundError,
    PayloadTooLargeError,
    ReproError,
    ServingError,
    SessionNotFoundError,
)
from ..resilience import Deadline
from .batch import submit_many
from .manager import SessionManager

#: default request-body size cap (bytes): generous for bulk instance
#: registration, small enough that one client cannot balloon the heap
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024


def _session_summary(session) -> dict:
    """The JSON shape returned for a freshly opened/resumed session."""
    return {
        "session": session.session_id,
        "query": session.query_text,
        "instance": session.instance_id,
        "resumable": session.resumable,
        "served": session.served,
        "plan": session.prepared.plan.kind.value,
    }


class ServingRequestHandler(BaseHTTPRequestHandler):
    """Routes the endpoint table above onto a shared session manager."""

    server: "ServingHTTPServer"
    protocol_version = "HTTP/1.1"
    #: ``StreamRequestHandler.setup`` sets TCP_NODELAY on every accepted
    #: socket: a response then leaves at once instead of waiting out the
    #: client's delayed ACK of the previous segment
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # plumbing

    def setup(self) -> None:
        """Arm the per-connection socket timeout before the stream opens.

        ``socketserver.StreamRequestHandler`` applies ``timeout`` during
        its own setup, so it must be set first; a client that stalls
        mid-request then raises ``TimeoutError`` out of the blocking
        read and gets 408 instead of pinning a server thread forever.
        """
        self.timeout = self.server.socket_timeout
        super().setup()

    def parse_request(self) -> bool:
        """Parse the request line and headers; answer 408 to a client that
        stalls inside the headers.

        The request line is already read when this runs, so a header read
        that outlasts the socket timeout is a half-sent request: it gets
        408 and the connection closes. (The stdlib would close it
        silently; a keep-alive connection that sends no next request line
        still does.)
        """
        try:
            return super().parse_request()
        except TimeoutError as exc:
            self.close_connection = True
            self._reply(408, {"error": f"request timed out: {exc}"})
            return False

    def _reply(
        self, code: int, payload: dict, headers: dict | None = None
    ) -> None:
        """Send the status line, headers and body in one write."""
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        # end_headers() writes the finished head to wfile as a write of
        # its own; catch it in a buffer so that head and body leave in
        # one write (an HTTP/0.9 request gets no head, only the body)
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        wfile.write(head + body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        cap = self.server.max_body_bytes
        if cap is not None and length > cap:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the server's "
                f"{cap}-byte cap"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except ValueError as exc:
            raise ServingError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        return payload

    def _deadline(self) -> "Deadline | None":
        """The per-request deadline, when the server configures one."""
        ms = self.server.deadline_ms
        return None if ms is None else Deadline.after_ms(ms)

    def _dispatch(self, handler) -> None:
        try:
            code, payload = handler()
        except CursorFencedError as exc:
            code, payload = 409, {"error": str(exc), "fenced": True}
        except (SessionNotFoundError, InstanceNotFoundError) as exc:
            code, payload = 404, {"error": str(exc)}
        except PayloadTooLargeError as exc:
            code, payload = 413, {"error": str(exc)}
        except AdmissionError as exc:
            # shed, not queued: tell the client when to come back
            self._reply(
                503,
                {"error": str(exc), "shed": True},
                headers={"Retry-After": str(int(exc.retry_after) or 1)},
            )
            return
        except DeadlineExceededError as exc:
            code, payload = 504, {
                "error": str(exc),
                "deadline": True,
                "phase": exc.phase,
            }
        except (CursorError, ServingError) as exc:
            code, payload = 400, {"error": str(exc)}
        except ReproError as exc:  # parse/schema/classification errors
            code, payload = 400, {"error": str(exc)}
        except TimeoutError as exc:
            # the client stalled past the socket timeout mid-request: the
            # stream position is unknowable, so answer and hang up
            self.close_connection = True
            code, payload = 408, {"error": f"request timed out: {exc}"}
        except Exception as exc:  # noqa: BLE001 - a handler bug must still
            # produce an HTTP response, not a dropped keep-alive connection
            code, payload = 500, {"error": f"internal error: {exc!r}"}
        self._reply(code, payload)

    def log_message(self, format: str, *args) -> None:  # pragma: no cover
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # routes

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Route ``GET /stats``, ``GET /healthz`` and
        ``GET /sessions/<id>/page``."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        manager = self.server.manager
        if parts == ["stats"]:
            self._dispatch(lambda: (200, manager.cache_info()))
            return
        if parts == ["healthz"]:
            self._dispatch(lambda: (200, manager.health()))
            return
        if len(parts) == 3 and parts[0] == "sessions" and parts[2] == "page":
            query = parse_qs(url.query)
            size = None
            if "size" in query:
                try:
                    size = int(query["size"][0])
                except ValueError:
                    self._reply(400, {"error": "size must be an integer"})
                    return
            self._dispatch(
                lambda: (
                    200,
                    manager.fetch(
                        parts[1], size, deadline=self._deadline()
                    ).as_dict(),
                )
            )
            return
        self._reply(404, {"error": f"no route for GET {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Route session/batch/resume/instance/delta mutations."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["sessions"]:
            self._dispatch(self._open_session)
        elif parts == ["sessions", "batch"]:
            self._dispatch(self._open_batch)
        elif len(parts) == 3 and parts[0] == "sessions" and parts[2] == "close":
            manager = self.server.manager
            self._dispatch(
                lambda: (200, {"closed": manager.close(parts[1])})
            )
        elif parts == ["resume"]:
            self._dispatch(self._resume)
        elif parts == ["count"]:
            self._dispatch(self._count)
        elif parts == ["instances"]:
            self._dispatch(self._register_instance)
        elif len(parts) == 3 and parts[0] == "instances" and parts[2] == "delta":
            self._dispatch(lambda: self._apply_delta(parts[1]))
        else:
            self._reply(404, {"error": f"no route for POST {url.path}"})

    # ------------------------------------------------------------------ #
    # handlers

    def _open_session(self) -> tuple[int, dict]:
        body = self._body()
        if "query" not in body or "instance" not in body:
            raise ServingError("need 'query' and 'instance'")
        order_by = body.get("order_by")
        if order_by is not None and (
            not isinstance(order_by, list)
            or not all(isinstance(v, str) for v in order_by)
        ):
            raise ServingError(
                "order_by must be a list of free-variable names"
            )
        session = self.server.manager.open(
            str(body["query"]),
            str(body["instance"]),
            body.get("page_size"),
            deadline=self._deadline(),
            order_by=order_by,
        )
        return 201, _session_summary(session)

    def _count(self) -> tuple[int, dict]:
        body = self._body()
        if "query" not in body or "instance" not in body:
            raise ServingError("need 'query' and 'instance'")
        count = self.server.manager.count(
            str(body["query"]),
            str(body["instance"]),
            deadline=self._deadline(),
        )
        return 200, {"count": count}

    def _open_batch(self) -> tuple[int, dict]:
        body = self._body()
        requests = body.get("requests")
        if not isinstance(requests, list):
            raise ServingError("need 'requests': a list of {query, instance}")
        pairs = []
        for req in requests:
            if not isinstance(req, dict) or "query" not in req:
                raise ServingError("each request needs 'query' and 'instance'")
            pairs.append((str(req["query"]), str(req.get("instance", ""))))
        items = submit_many(
            self.server.manager,
            pairs,
            page_size=body.get("page_size"),
            first_page=bool(body.get("first_page", False)),
        )
        return 200, {
            "results": [
                {
                    "index": item.index,
                    "group": item.group,
                    "error": item.error,
                    **(
                        _session_summary(item.session)
                        if item.session is not None
                        else {}
                    ),
                    **(
                        {"page": item.page.as_dict()}
                        if item.page is not None
                        else {}
                    ),
                }
                for item in items
            ]
        }

    def _resume(self) -> tuple[int, dict]:
        body = self._body()
        token = body.get("cursor")
        if not token:
            raise ServingError("need 'cursor': an opaque cursor token")
        session = self.server.manager.resume(
            str(token), deadline=self._deadline()
        )
        return 200, _session_summary(session)

    def _register_instance(self) -> tuple[int, dict]:
        body = self._body()
        relations = body.get("relations")
        if not isinstance(relations, dict) or not relations:
            raise ServingError("need 'relations': {symbol: [[row]...]}")
        instance = Instance.from_dict(
            {
                name: [tuple(row) for row in rows]
                for name, rows in relations.items()
            }
        )
        fds = body.get("fds")
        if fds is not None:
            from ..fd.fds import FunctionalDependency

            if not isinstance(fds, list):
                raise ServingError(
                    "fds must be a list of {relation, lhs, rhs} objects"
                )
            declared = []
            for spec in fds:
                if (
                    not isinstance(spec, dict)
                    or not isinstance(spec.get("relation"), str)
                    or not isinstance(spec.get("lhs"), list)
                    or not isinstance(spec.get("rhs"), list)
                ):
                    raise ServingError(
                        "each fd needs 'relation' (symbol), 'lhs' and "
                        "'rhs' (attribute position lists)"
                    )
                try:
                    declared.append(
                        FunctionalDependency(
                            spec["relation"],
                            tuple(int(p) for p in spec["lhs"]),
                            tuple(int(p) for p in spec["rhs"]),
                        )
                    )
                except (TypeError, ValueError) as exc:
                    raise ServingError(f"malformed fd {spec!r}: {exc}") from exc
            instance.declare_fds(declared)
        name = self.server.manager.register(instance, body.get("name"))
        return 201, {
            "instance": name,
            "relations": {
                sym: len(rel) for sym, rel in instance.relations.items()
            },
        }

    def _apply_delta(self, instance_id: str) -> tuple[int, dict]:
        body = self._body()
        deltas = {}
        for symbol, change in body.items():
            if not isinstance(change, dict) or not (
                isinstance(change.get("adds", []), list)
                and isinstance(change.get("removes", []), list)
            ):
                raise ServingError(
                    f"delta for {symbol!r} must be "
                    "{'adds': [[...]...], 'removes': [[...]...]}"
                )
            # row-level validation (shape, arity) happens atomically in
            # SessionManager.apply_delta before anything mutates
            deltas[symbol] = (change.get("adds", []), change.get("removes", []))
        return 200, self.server.manager.apply_delta(instance_id, deltas)


class ServingHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one :class:`SessionManager`.

    ``daemon_threads`` keeps request threads from blocking shutdown; the
    manager's fine-grained locking (short registry lock, per-session
    locks, per-instance read/write guards over a thread-safe engine)
    makes concurrent requests both safe and genuinely parallel — pages
    are O(page) and never queue behind another client's cold open.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        manager: SessionManager | None = None,
        verbose: bool = False,
        max_body_bytes: "int | None" = DEFAULT_MAX_BODY_BYTES,
        socket_timeout: "float | None" = 30.0,
        deadline_ms: "float | None" = None,
    ) -> None:
        super().__init__(address, ServingRequestHandler)
        self.manager = manager if manager is not None else SessionManager()
        self.verbose = verbose
        #: request bodies over this many bytes are refused with 413
        #: (``None`` disables the cap)
        self.max_body_bytes = max_body_bytes
        #: per-connection socket timeout in seconds (``None`` disables):
        #: a stalled client gets 408, not a pinned server thread
        self.socket_timeout = socket_timeout
        #: per-request time budget in milliseconds (``None`` disables):
        #: opens/resumes/pages past it answer 504, leaving caches clean
        self.deadline_ms = deadline_ms


def serve(
    host: str = "127.0.0.1",
    port: int = 8077,
    manager: SessionManager | None = None,
    verbose: bool = True,
    max_body_bytes: "int | None" = DEFAULT_MAX_BODY_BYTES,
    socket_timeout: "float | None" = 30.0,
    deadline_ms: "float | None" = None,
) -> None:  # pragma: no cover - blocking entry point; tested via threads
    """Run the serving HTTP front end until interrupted (CLI entry point)."""
    server = ServingHTTPServer(
        (host, port),
        manager,
        verbose=verbose,
        max_body_bytes=max_body_bytes,
        socket_timeout=socket_timeout,
        deadline_ms=deadline_ms,
    )
    host_, port_ = server.server_address[:2]
    print(f"repro serve: listening on http://{host_}:{port_}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        server.server_close()
