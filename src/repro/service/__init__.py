"""The PerfXplain service layer: catalog, protocol, executor, HTTP.

This package turns the library into what the paper describes — a
long-running debugging *service* users query interactively — and what the
roadmap asks for: one process serving heavy query traffic over a corpus of
past executions.

The layers, bottom to top:

* :mod:`repro.service.catalog` — :class:`LogCatalog`: named execution
  logs (in-memory or lazily loaded from disk, ``.jsonl.gz`` included),
  one shared :class:`~repro.core.api.PerfXplainSession` per log;
* :mod:`repro.service.protocol` — the versioned request/response wire
  protocol: every message declares its fields on the declarative codec
  of :mod:`repro.wire`, which derives the ``to_dict``/``from_dict``/JSON
  round-trip and rejects any malformed document with a typed
  ``ProtocolError``; stable error codes; protocol-version validation on
  every request;
* :mod:`repro.service.service` — :class:`PerfXplainService`: concurrent
  execution on a thread pool with per-log reader-writer locking — reads
  to one log overlap, appends are exclusive, and responses stay
  bit-identical to direct synchronous session calls — plus in-flight
  deduplication of identical queries and per-request-type latency
  metrics.  Every request runs through one execution envelope with one
  accounting rule: a request refused by its checks (closed service,
  unsupported version) is neither counted nor timed; every request that
  passes them is counted in ``executed`` and timed in its kind's latency
  ring, whatever its outcome; a batch's items are counted, and the batch
  keeps only its own latency ring;
* :mod:`repro.service.http` — a stdlib ``http.server`` JSON endpoint
  (:class:`PerfXplainHTTPServer`) and the matching
  :class:`ServiceClient`, also available from the command line as
  ``repro-perfxplain serve``.

.. code-block:: python

    from repro.service import LogCatalog, PerfXplainService, QueryRequest

    catalog = LogCatalog()
    catalog.register_path("prod", "logs/prod.jsonl.gz")
    with PerfXplainService(catalog) as service:
        response = service.execute(QueryRequest(log="prod", query=pxql))
        print(response.entry.explanation.format())
"""

from repro.service.catalog import LogCatalog
from repro.service.http import PerfXplainHTTPServer, ServiceClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    AppendRequest,
    AppendResponse,
    BatchRequest,
    BatchResponse,
    DiffRequest,
    DiffResponse,
    ErrorCode,
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    QueryRequest,
    QueryResponse,
    ServiceRequest,
    ServiceResponse,
    check_protocol_version,
    error_code_for,
    parse_request,
    parse_request_json,
    parse_response,
    parse_response_json,
)
from repro.service.service import DEFAULT_MAX_WORKERS, PerfXplainService

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "DEFAULT_MAX_WORKERS",
    "LogCatalog",
    "PerfXplainService",
    "PerfXplainHTTPServer",
    "ServiceClient",
    "QueryRequest",
    "QueryResponse",
    "AppendRequest",
    "AppendResponse",
    "BatchRequest",
    "BatchResponse",
    "DiffRequest",
    "DiffResponse",
    "EvaluateRequest",
    "EvaluateResponse",
    "ErrorResponse",
    "ErrorCode",
    "ServiceRequest",
    "ServiceResponse",
    "check_protocol_version",
    "error_code_for",
    "parse_request",
    "parse_request_json",
    "parse_response",
    "parse_response_json",
]
