"""The versioned request/response wire protocol of the PerfXplain service.

Every message that crosses the service boundary — programmatic calls into
:class:`repro.service.PerfXplainService`, CLI subcommands, and the HTTP
endpoint — is one of the dataclasses in this module.  Each is a
:class:`Message`, so its ``to_dict``/``from_dict``/``to_json``/
``from_json`` are derived by the declarative codec in :mod:`repro.wire`
from its field declarations: one place decides how every field is
validated, and the only exception decoding lets escape is a
:class:`~repro.exceptions.ProtocolError`.  Each message carries a ``type``
tag for dispatch and declares the ``protocol_version`` it speaks.  The
version is validated on *every* request (:func:`check_protocol_version`),
so a client built against a future protocol fails loudly with a stable
:data:`ErrorCode.UNSUPPORTED_PROTOCOL` instead of being half-understood,
and a message type is refused under a version older than its ``SINCE``.

Failures are first-class wire objects too: an :class:`ErrorResponse` pairs
a human-readable message with a stable machine-readable code from
:class:`ErrorCode`, and :func:`error_code_for` maps the library's exception
hierarchy onto those codes in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, ClassVar, Union, get_args

from repro.core.report import ReportEntry
from repro.diff.report import DiffReport
from repro.exceptions import (
    DuplicateRecordError,
    EvaluationError,
    ExplanationError,
    LogFormatError,
    ProtocolError,
    PXQLSyntaxError,
    PXQLValidationError,
    ReproError,
    ServiceError,
    UnknownFeatureError,
)
from repro.logs.records import JobRecord, TaskRecord, record_from_dict, record_to_dict
from repro.wire import (
    ANY,
    BOOL,
    INT,
    NAME,
    OBJECT,
    PAIR,
    TEXT,
    Spec,
    Wire,
    array,
    decode,
    loads,
    nested,
    wire,
)

#: The protocol version this build speaks.  Version 2 added the append
#: request/response pair and the ``duplicate_record`` error code; version 3
#: added the cross-log diff pair and the ``diff_failed`` error code.
PROTOCOL_VERSION = 3

#: Versions the service accepts.  Older clients never send the message
#: types added later, so every older request is also a valid newer one.
SUPPORTED_PROTOCOL_VERSIONS = (1, 2, 3)


class ErrorCode:
    """Stable machine-readable error codes carried by :class:`ErrorResponse`.

    These strings are part of the wire protocol: clients may dispatch on
    them, so existing values never change meaning (new codes may be added
    under a protocol-version bump).
    """

    INVALID_REQUEST = "invalid_request"
    UNSUPPORTED_PROTOCOL = "unsupported_protocol"
    UNKNOWN_LOG = "unknown_log"
    LOG_LOAD_FAILED = "log_load_failed"
    DUPLICATE_RECORD = "duplicate_record"
    INVALID_QUERY = "invalid_query"
    UNKNOWN_TECHNIQUE = "unknown_technique"
    EXPLANATION_FAILED = "explanation_failed"
    EVALUATION_FAILED = "evaluation_failed"
    DIFF_FAILED = "diff_failed"
    INTERNAL_ERROR = "internal_error"

    #: Every code the current protocol version may emit.
    KNOWN = frozenset(
        {
            INVALID_REQUEST,
            UNSUPPORTED_PROTOCOL,
            UNKNOWN_LOG,
            LOG_LOAD_FAILED,
            DUPLICATE_RECORD,
            INVALID_QUERY,
            UNKNOWN_TECHNIQUE,
            EXPLANATION_FAILED,
            EVALUATION_FAILED,
            DIFF_FAILED,
            INTERNAL_ERROR,
        }
    )


def check_protocol_version(version: object) -> int:
    """Validate a protocol-version field; returns it as an ``int``.

    :raises ProtocolError: (code ``unsupported_protocol``) for missing,
        non-integer or unsupported versions.
    """
    if isinstance(version, bool) or not isinstance(version, int):
        raise ProtocolError(
            f"protocol_version must be an integer, got {version!r}",
            code=ErrorCode.UNSUPPORTED_PROTOCOL,
        )
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_PROTOCOL_VERSIONS)
        raise ProtocolError(
            f"unsupported protocol version {version} (supported: {supported})",
            code=ErrorCode.UNSUPPORTED_PROTOCOL,
        )
    return version


def error_code_for(error: Exception) -> str:
    """The stable wire code describing a library exception."""
    if isinstance(error, ServiceError):
        return error.code
    if isinstance(error, (PXQLSyntaxError, PXQLValidationError, UnknownFeatureError)):
        return ErrorCode.INVALID_QUERY
    if isinstance(error, ExplanationError):
        # The registry reports unknown technique names as ExplanationErrors;
        # distinguish them so clients can tell a bad name from a failed run.
        if "unknown technique" in str(error):
            return ErrorCode.UNKNOWN_TECHNIQUE
        return ErrorCode.EXPLANATION_FAILED
    if isinstance(error, EvaluationError):
        return ErrorCode.EVALUATION_FAILED
    if isinstance(error, DuplicateRecordError):
        # Before the LogFormatError branch: a duplicate id on append is a
        # conflict with the log's current contents, not a malformed log.
        return ErrorCode.DUPLICATE_RECORD
    if isinstance(error, LogFormatError):
        return ErrorCode.LOG_LOAD_FAILED
    if isinstance(error, ReproError):
        return ErrorCode.INVALID_REQUEST
    return ErrorCode.INTERNAL_ERROR


@dataclass(frozen=True)
class Message(Wire):
    """Base of every protocol message: a ``type`` tag plus a version."""

    #: The first protocol version that has this message type.
    SINCE: ClassVar[int] = 1

    protocol_version: int = wire(INT, default=PROTOCOL_VERSION, kw_only=True)

    @classmethod
    def from_dict(
        cls, data: Any, default_version: int | None = None, **known: Any
    ) -> Any:
        """Parse and validate a wire-form message.

        :param default_version: version inherited from an enclosing batch;
            top-level messages must carry their own ``protocol_version``.
        :raises ProtocolError: on any malformed field (code
            ``unsupported_protocol`` for a missing, unsupported or too old
            version).
        """
        if isinstance(data, Mapping):
            version = data.get("protocol_version", default_version)
            if version is None:
                raise ProtocolError(
                    f"{cls.WHAT} is missing the protocol_version field",
                    code=ErrorCode.UNSUPPORTED_PROTOCOL,
                )
            if check_protocol_version(version) < cls.SINCE:
                raise ProtocolError(
                    f"{cls.WHAT} requires protocol version {cls.SINCE} or newer",
                    code=ErrorCode.UNSUPPORTED_PROTOCOL,
                )
            known["protocol_version"] = version
        return super().from_dict(data, **known)


# --------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryRequest(Message):
    """Ask the service to explain one PXQL query against a named log.

    :param log: catalog name of the execution log to query.
    :param query: the PXQL query text.
    :param width: explanation width (``None`` = the session default).
    :param technique: registered technique name.
    :param auto_despite: let the technique extend the despite clause first.
    :param protocol_version: protocol this request speaks.
    """

    TAG = "query"
    WHAT = "a query request"

    log: str = wire(NAME)
    query: str = wire(NAME)
    width: int | None = wire(INT.or_null(), default=None)
    technique: str = wire(NAME, default="perfxplain")
    auto_despite: bool = wire(BOOL, default=False)

    def canonical_key(self) -> tuple:
        """A hashable identity for in-flight request deduplication.

        Whitespace-insensitive in the query text and case-insensitive in
        the technique name, because those differences cannot change the
        answer.
        """
        return (
            "query",
            self.log,
            " ".join(self.query.split()),
            self.width,
            self.technique.lower(),
            self.auto_despite,
        )


@dataclass(frozen=True)
class BatchRequest(Message):
    """A bundle of query requests answered concurrently by the service."""

    TAG = "batch"
    WHAT = "a batch request"

    requests: tuple[QueryRequest, ...] = wire(
        array(nested(QueryRequest), "an array of query requests")
    )

    @classmethod
    def from_dict(cls, data: Any, default_version: int | None = None) -> Any:
        """Parse a batch; a sub-request without ``protocol_version``
        inherits the batch's."""
        version = super().from_dict(data, default_version, requests=()).protocol_version
        spec = array(ANY, "an array of query requests")
        items = decode(cls.WHAT, "requests", spec, data.get("requests"))
        requests = tuple(QueryRequest.from_dict(item, version) for item in items)
        return cls(requests=requests, protocol_version=version)


@dataclass(frozen=True)
class EvaluateRequest(Message):
    """Run the cross-validated precision-vs-width comparison on a log.

    :param log: catalog name of the execution log to evaluate on.
    :param query: the PXQL query text (pair identifiers may be ``?``).
    :param widths: explanation widths to sweep.
    :param repetitions: cross-validation repetitions.
    :param seed: base random seed for splits and pair selection.
    :param techniques: technique names to compare (``None`` or empty =
        every registered technique; empty is normalised to ``None``).
    """

    TAG = "evaluate"
    WHAT = "an evaluate request"

    log: str = wire(NAME)
    query: str = wire(NAME)
    widths: tuple[int, ...] = wire(
        array(INT, "an array of integers"), default=(0, 1, 2, 3)
    )
    repetitions: int = wire(INT, default=3)
    seed: int = wire(INT, default=0)
    techniques: tuple[str, ...] | None = wire(
        array(NAME, "an array of technique names").or_null(), default=None
    )

    def __post_init__(self) -> None:
        if self.techniques is not None and not self.techniques:
            object.__setattr__(self, "techniques", None)


def _records(kind: str) -> Spec:
    """An array of job or task records.

    Entries may omit the redundant ``kind`` tag (the array they sit in
    already says it); an explicit tag must match the array.
    """
    record = Spec(
        f"a {kind} record",
        lambda item: isinstance(item, Mapping) and item.get("kind", kind) == kind,
        lambda item: record_from_dict({**item, "kind": kind}),
        record_to_dict,
    )
    return array(record, f"an array of {kind} records")


@dataclass(frozen=True)
class AppendRequest(Message):
    """Append new job/task records to a served log (protocol 2+).

    Appends are *not* idempotent — retrying a successful append fails
    with :data:`ErrorCode.DUPLICATE_RECORD` — so unlike queries they are
    never deduplicated in flight.

    :param log: catalog name of the execution log to grow.
    :param jobs: job records to append, in log order.
    :param tasks: task records to append, in log order.
    """

    TAG = "append"
    WHAT = "an append request"
    SINCE = 2

    log: str = wire(NAME)
    jobs: tuple[JobRecord, ...] = wire(_records("job"), default=())
    tasks: tuple[TaskRecord, ...] = wire(_records("task"), default=())


@dataclass(frozen=True)
class DiffRequest(Message):
    """Compare two served logs and explain the difference (protocol 3+).

    :param before: catalog name of the baseline log.
    :param after: catalog name of the log under suspicion.
    :param width: explanation width for the learned explainer.
    :param technique: registered learned technique name.
    """

    TAG = "diff"
    WHAT = "a diff request"
    SINCE = 3

    before: str = wire(NAME)
    after: str = wire(NAME)
    width: int | None = wire(INT.or_null(), default=None)
    technique: str = wire(NAME, default="perfxplain")


# --------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryResponse(Message):
    """A successfully answered query: the log it ran on and the result."""

    TAG = "query_result"
    WHAT = "a query response"

    log: str = wire(NAME)
    entry: ReportEntry = wire(nested(ReportEntry))

    @property
    def ok(self) -> bool:
        """Whether the entry carries an explanation."""
        return self.entry.ok


@dataclass(frozen=True)
class ErrorResponse(Message):
    """A failed request: a stable code plus a human-readable message."""

    TAG = "error"
    WHAT = "an error response"

    code: str = wire(NAME)
    message: str = wire(TEXT, default="")

    @property
    def ok(self) -> bool:
        """Always ``False`` (mirrors :attr:`QueryResponse.ok`)."""
        return False

    @classmethod
    def for_error(cls, error: Exception) -> "ErrorResponse":
        """Wrap a library exception using :func:`error_code_for`."""
        return cls(code=error_code_for(error), message=str(error))


#: Any response nested in a batch, dispatched on its own ``type`` tag.
_RESPONSE = Spec(
    "a response",
    OBJECT.ok,
    lambda item: parse_response(item),
    lambda item: item.to_dict(),
)


@dataclass(frozen=True)
class BatchResponse(Message):
    """Per-request responses of a batch, in request order."""

    TAG = "batch_result"
    WHAT = "a batch response"

    responses: tuple[Union[QueryResponse, ErrorResponse], ...] = wire(
        array(_RESPONSE, "an array of responses")
    )

    @property
    def ok(self) -> bool:
        """Whether every response carries an explanation."""
        return all(response.ok for response in self.responses)

    @property
    def failures(self) -> "tuple[ErrorResponse, ...]":
        """The error responses, in request order."""
        return tuple(r for r in self.responses if isinstance(r, ErrorResponse))


@dataclass(frozen=True)
class EvaluateResponse(Message):
    """The outcome of an evaluate request.

    :param log: catalog name the evaluation ran on.
    :param query: the resolved (pair-bound) query in PXQL text form.
    :param first_id: first execution of the resolved pair of interest.
    :param second_id: second execution of the resolved pair of interest.
    :param results: ``technique -> width -> metric`` summary (the
        :func:`repro.core.reporting.sweep_to_dict` form).
    """

    TAG = "evaluate_result"
    WHAT = "an evaluate response"

    log: str = wire(NAME)
    query: str = wire(NAME)
    # Written together as the one ``"pair"`` key.
    first_id: str
    second_id: str
    results: dict[str, Any] = wire(OBJECT, default_factory=dict)

    @property
    def ok(self) -> bool:
        """Always ``True`` (failures arrive as :class:`ErrorResponse`)."""
        return True

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        data["pair"] = [self.first_id, self.second_id]
        return data

    @classmethod
    def from_dict(cls, data: Any, default_version: int | None = None) -> Any:
        pair = (None, None)
        if isinstance(data, Mapping):
            pair = decode(cls.WHAT, "pair", PAIR, data.get("pair"))
        first_id, second_id = pair
        return super().from_dict(
            data, default_version, first_id=first_id, second_id=second_id
        )


@dataclass(frozen=True)
class AppendResponse(Message):
    """The outcome of a successful append: the log's new size and versions.

    :param log: catalog name the append ran on.
    :param appended_jobs: job records added by this request.
    :param appended_tasks: task records added by this request.
    :param num_jobs: total jobs in the log after the append.
    :param num_tasks: total tasks in the log after the append.
    :param versions: the log's post-append counters
        (:meth:`~repro.logs.store.ExecutionLog.append_stats`).
    """

    TAG = "append_result"
    WHAT = "an append response"
    SINCE = 2

    log: str = wire(NAME)
    appended_jobs: int = wire(INT)
    appended_tasks: int = wire(INT)
    num_jobs: int = wire(INT)
    num_tasks: int = wire(INT)
    versions: dict[str, int] = wire(OBJECT, default_factory=dict)

    @property
    def ok(self) -> bool:
        """Always ``True`` (failures arrive as :class:`ErrorResponse`)."""
        return True


@dataclass(frozen=True)
class DiffResponse(Message):
    """A successfully computed cross-log diff.

    :param before: catalog name of the baseline log.
    :param after: catalog name of the log under suspicion.
    :param report: the structured :class:`~repro.diff.report.DiffReport`.
    """

    TAG = "diff_result"
    WHAT = "a diff response"
    SINCE = 3

    before: str = wire(NAME)
    after: str = wire(NAME)
    report: DiffReport = wire(nested(DiffReport))

    @property
    def ok(self) -> bool:
        """Always ``True`` (failures arrive as :class:`ErrorResponse`)."""
        return True


#: Any parsed request.
ServiceRequest = Union[
    QueryRequest, BatchRequest, EvaluateRequest, AppendRequest, DiffRequest
]

#: Any parsed response.
ServiceResponse = Union[
    QueryResponse,
    BatchResponse,
    EvaluateResponse,
    AppendResponse,
    DiffResponse,
    ErrorResponse,
]

_REQUEST_TYPES = {message.TAG: message for message in get_args(ServiceRequest)}
_RESPONSE_TYPES = {message.TAG: message for message in get_args(ServiceResponse)}


def _dispatch(data: object, types: Mapping[str, type[Message]], kind: str) -> Any:
    """Parse a request or response document, dispatching on its ``type``."""
    if not isinstance(data, Mapping):
        got = type(data).__name__
        raise ProtocolError(f"a service {kind} must be a JSON object, got {got}")
    tag = data.get("type")
    message = types.get(tag) if isinstance(tag, str) else None
    if message is None:
        known = ", ".join(sorted(types))
        raise ProtocolError(f"unknown {kind} type {tag!r} (known: {known})")
    return message.from_dict(data)


def parse_request(data: object) -> ServiceRequest:
    """Parse any wire-form request, dispatching on its ``type`` tag."""
    return _dispatch(data, _REQUEST_TYPES, "request")


def parse_request_json(text: str) -> ServiceRequest:
    """Parse a JSON request body (:func:`parse_request` on the document)."""
    return parse_request(loads(text, "a service request"))


def parse_response(data: object) -> ServiceResponse:
    """Parse any wire-form response, dispatching on its ``type`` tag."""
    return _dispatch(data, _RESPONSE_TYPES, "response")


def parse_response_json(text: str) -> ServiceResponse:
    """Parse a JSON response body (:func:`parse_response` on the document)."""
    return parse_response(loads(text, "a service response"))
