"""A stdlib HTTP JSON endpoint for the service, plus a tiny client.

The server is deliberately boring: :class:`http.server.ThreadingHTTPServer`
(one thread per connection, no third-party dependencies) fronting a
:class:`~repro.service.service.PerfXplainService`.  Bodies on the wire are
exactly the versioned protocol documents of
:mod:`repro.service.protocol` — the HTTP layer adds nothing but routing
and status codes, so anything expressible programmatically is expressible
over HTTP and vice versa.

Routes:

* ``POST /v1/query`` — one :class:`~repro.service.protocol.QueryRequest`;
* ``POST /v1/batch`` — a :class:`~repro.service.protocol.BatchRequest`
  (per-item failures come back embedded in the batch, status 200);
* ``POST /v1/evaluate`` — an
  :class:`~repro.service.protocol.EvaluateRequest`;
* ``POST /v1/diff`` — a :class:`~repro.service.protocol.DiffRequest`
  comparing two served logs (the cross-log regression report; a diff the
  engine cannot compute answers 422 with code ``diff_failed``);
* ``POST /v1/logs/{name}/append`` — an
  :class:`~repro.service.protocol.AppendRequest` growing the named log in
  place (duplicate ids answer 409);
* ``GET /v1/logs`` — service stats: catalog snapshot with per-log session
  cache counters, append/version counters, executed/deduplicated totals
  (lock-free: answers even while explanations or appends are in flight);
* ``GET /v1/metrics`` — operational metrics: p50/p95/p99 latency per
  request type, shard-pool fork/reuse counters, per-log cache,
  invalidation and compute-once counters;
* ``GET /v1/health`` — liveness probe (reports the worker-pool size).

POST bodies are parsed by :func:`repro.wire.loads`, the parser of every
wire document: a body that is not JSON, or nests too deep to parse, answers
400 ``invalid_request``.  The ``type`` tag may be omitted from POST bodies —
the route implies it — but when present it must match the route.
:class:`ServiceClient` is the matching :mod:`urllib`-based client used by
the CLI examples and tests.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, Mapping

from repro.core.report import ReportEntry
from repro.exceptions import ProtocolError, ServiceError
from repro.logs.records import JobRecord, TaskRecord
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AppendRequest,
    BatchRequest,
    DiffRequest,
    ErrorCode,
    ErrorResponse,
    EvaluateRequest,
    QueryRequest,
    QueryResponse,
    ServiceResponse,
    parse_request,
    parse_response_json,
)
from repro.service.service import PerfXplainService
from repro.wire import loads

#: HTTP status for each stable error code.
_STATUS_FOR_CODE = {
    ErrorCode.INVALID_REQUEST: 400,
    ErrorCode.UNSUPPORTED_PROTOCOL: 400,
    ErrorCode.INVALID_QUERY: 400,
    ErrorCode.UNKNOWN_TECHNIQUE: 400,
    ErrorCode.UNKNOWN_LOG: 404,
    ErrorCode.DUPLICATE_RECORD: 409,
    ErrorCode.EXPLANATION_FAILED: 422,
    ErrorCode.EVALUATION_FAILED: 422,
    ErrorCode.DIFF_FAILED: 422,
    ErrorCode.LOG_LOAD_FAILED: 500,
    ErrorCode.INTERNAL_ERROR: 500,
}

_POST_ROUTES = {
    "/v1/query": "query",
    "/v1/batch": "batch",
    "/v1/evaluate": "evaluate",
    "/v1/diff": "diff",
}


def _health(service: PerfXplainService) -> dict[str, Any]:
    return {"status": "ok", "workers": service.max_workers}


#: GET routes: the service document each path answers with.
_GET_ROUTES: dict[str, Callable[[PerfXplainService], dict[str, Any]]] = {
    "/v1/health": _health,
    "/health": _health,
    "/v1/logs": lambda service: service.stats(),
    "/v1/metrics": lambda service: service.metrics(),
}


def _append_route(path: str) -> str | None:
    """The log name of a ``/v1/logs/{name}/append`` path, else ``None``.

    The name segment is percent-decoded; names that decode to something
    containing ``/`` are rejected (they cannot round-trip as one path
    segment).
    """
    parts = path.split("/")
    if len(parts) != 5 or parts[:2] != ["", "v1"] or parts[2] != "logs":
        return None
    if parts[4] != "append" or not parts[3]:
        return None
    name = urllib.parse.unquote(parts[3])
    return None if "/" in name else name


def _status_of(response: ServiceResponse) -> int:
    if isinstance(response, ErrorResponse):
        return _STATUS_FOR_CODE.get(response.code, 500)
    return 200


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the wrapped service."""

    server_version = "PerfXplainHTTP/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> PerfXplainService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_response(self, status: int, code: str, message: str) -> None:
        self._send_json(status, ErrorResponse(code=code, message=message).to_dict())

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route = _GET_ROUTES.get(self.path)
        if route is None:
            self._send_error_response(
                404, ErrorCode.INVALID_REQUEST, f"unknown path {self.path!r}"
            )
            return
        payload = route(self.service)
        payload["protocol_version"] = PROTOCOL_VERSION
        self._send_json(200, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        expected = _POST_ROUTES.get(self.path)
        append_log = _append_route(self.path) if expected is None else None
        if append_log is not None:
            expected = "append"
        if expected is None:
            self._send_error_response(
                404, ErrorCode.INVALID_REQUEST, f"unknown path {self.path!r}"
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length > 0 else b""
            data = loads(raw, "the request body")
            if isinstance(data, dict) and "type" not in data:
                data = {**data, "type": expected}
            if isinstance(data, dict) and data.get("type") != expected:
                raise ProtocolError(
                    f"endpoint {self.path} expects a {expected!r} request"
                )
            if append_log is not None and isinstance(data, dict):
                # The path names the log; a body 'log' field must agree.
                body_log = data.get("log", append_log)
                if body_log != append_log:
                    raise ProtocolError(
                        f"path names log {append_log!r} but the body says {body_log!r}"
                    )
                data = {**data, "log": append_log}
            request = parse_request(data)
        except ProtocolError as error:
            response: ServiceResponse = ErrorResponse.for_error(error)
        except ValueError as error:  # a Content-Length that is not a number
            response = ErrorResponse(
                code=ErrorCode.INVALID_REQUEST, message=f"invalid request: {error}"
            )
        else:
            response = self.service.execute(request)
        self._send_json(_status_of(response), response.to_dict())

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class PerfXplainHTTPServer:
    """The service bound to a host/port, ready to serve JSON over HTTP.

    :param service: the concurrent executor to expose.
    :param host: interface to bind (default loopback).
    :param port: TCP port; ``0`` picks a free ephemeral port.
    :param verbose: log one line per handled request to stderr.
    """

    def __init__(
        self,
        service: PerfXplainService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._http = ThreadingHTTPServer((host, port), _ServiceRequestHandler)
        self._http.service = service  # type: ignore[attr-defined]
        self._http.verbose = verbose  # type: ignore[attr-defined]
        self._http.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._active = False

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolved when ``port=0`` was requested)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (blocking)."""
        self._active = True
        try:
            self._http.serve_forever()
        finally:
            self._active = False

    def start(self) -> "PerfXplainHTTPServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("the server is already running")
        self._active = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="perfxplain-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent).

        ``BaseServer.shutdown`` blocks forever when the serve loop never
        ran, so it is only issued while the server is active.
        """
        if self._active:
            self._http.shutdown()
            self._active = False
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "PerfXplainHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class ServiceClient:
    """A tiny JSON-over-HTTP client for the service endpoint.

    Speaks the same versioned protocol objects as the programmatic API:
    request dataclasses go out, parsed response dataclasses come back.

    .. code-block:: python

        client = ServiceClient("http://127.0.0.1:8000")
        entry = client.explain("prod", "FOR JOBS ?, ? ... EXPECTED ...")
        print(entry.explanation.format())
    """

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # protocol-level calls
    # ------------------------------------------------------------------ #

    def query(
        self,
        log: str,
        query: str,
        width: int | None = None,
        technique: str = "perfxplain",
        auto_despite: bool = False,
    ) -> ServiceResponse:
        """POST one query; service-level failures come back as responses.

        :raises ServiceError: only for transport failures (unreachable
            server, timeout); everything the service itself rejects
            arrives as a parsed :class:`ErrorResponse`.
        """
        request = QueryRequest(
            log=log,
            query=query,
            width=width,
            technique=technique,
            auto_despite=auto_despite,
        )
        return self._post("/v1/query", request.to_json())

    def batch(self, requests: Iterable[QueryRequest]) -> ServiceResponse:
        """POST a batch of queries; returns the parsed batch response."""
        request = BatchRequest(requests=tuple(requests))
        return self._post("/v1/batch", request.to_json())

    def evaluate(
        self,
        log: str,
        query: str,
        widths: Iterable[int] = (0, 1, 2, 3),
        repetitions: int = 3,
        seed: int = 0,
        techniques: Iterable[str] | None = None,
    ) -> ServiceResponse:
        """POST an evaluate request; returns the parsed response."""
        request = EvaluateRequest(
            log=log,
            query=query,
            widths=tuple(widths),
            repetitions=repetitions,
            seed=seed,
            techniques=tuple(techniques) if techniques is not None else None,
        )
        return self._post("/v1/evaluate", request.to_json())

    def diff(
        self,
        before: str,
        after: str,
        width: int | None = None,
        technique: str = "perfxplain",
    ) -> ServiceResponse:
        """POST a cross-log diff of two served logs; returns the response.

        A successful diff arrives as a
        :class:`~repro.service.protocol.DiffResponse` whose ``report`` is
        the structured :class:`~repro.diff.report.DiffReport`.
        """
        request = DiffRequest(
            before=before, after=after, width=width, technique=technique
        )
        return self._post("/v1/diff", request.to_json())

    def append(
        self,
        log: str,
        jobs: Iterable[JobRecord] = (),
        tasks: Iterable[TaskRecord] = (),
    ) -> ServiceResponse:
        """POST new records to a served log; returns the parsed response.

        A duplicate id rejects the whole batch (the server answers 409,
        parsed here as an :class:`ErrorResponse` with code
        ``duplicate_record``) — appends are not idempotent, so do not
        blindly retry a batch whose response was lost.
        """
        request = AppendRequest(log=log, jobs=tuple(jobs), tasks=tuple(tasks))
        path = f"/v1/logs/{urllib.parse.quote(log, safe='')}/append"
        return self._post(path, request.to_json())

    # ------------------------------------------------------------------ #
    # convenience wrappers
    # ------------------------------------------------------------------ #

    def explain(
        self,
        log: str,
        query: str,
        width: int | None = None,
        technique: str = "perfxplain",
        auto_despite: bool = False,
    ) -> ReportEntry:
        """Answer one query; returns the report entry or raises.

        :raises ServiceError: with the response's stable ``code`` when the
            service answered with an :class:`ErrorResponse`.
        """
        response = self.query(
            log, query, width=width, technique=technique, auto_despite=auto_despite
        )
        if isinstance(response, ErrorResponse):
            raise ServiceError(response.message, code=response.code)
        assert isinstance(response, QueryResponse)
        return response.entry

    def logs(self) -> dict[str, Any]:
        """Service stats: the catalog snapshot plus request counters."""
        return self._get("/v1/logs")

    def metrics(self) -> dict[str, Any]:
        """Operational metrics: latency percentiles plus counter families."""
        return self._get("/v1/metrics")

    def health(self) -> dict[str, Any]:
        """The liveness document (``{"status": "ok", ...}``)."""
        return self._get("/v1/health")

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _post(self, path: str, body: str) -> ServiceResponse:
        request = urllib.request.Request(
            self.base_url + path,
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return parse_response_json(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            # Non-200 bodies are still protocol documents (ErrorResponse).
            text = error.read().decode("utf-8", errors="replace")
            try:
                return parse_response_json(text)
            except ProtocolError:
                raise ServiceError(
                    f"HTTP {error.code} from {path}: {text[:200]}"
                ) from error
        except (urllib.error.URLError, TimeoutError, OSError) as error:
            raise ServiceError(
                f"cannot reach the service at {self.base_url}: {error}"
            ) from error

    def _get(self, path: str) -> dict[str, Any]:
        request = urllib.request.Request(self.base_url + path, method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                payload = json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError:
            raise
        except (urllib.error.URLError, TimeoutError, OSError) as error:
            raise ServiceError(
                f"cannot reach the service at {self.base_url}: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ServiceError(f"unexpected response document from {path}")
        return payload
