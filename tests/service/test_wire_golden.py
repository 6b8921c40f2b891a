"""Golden wire documents: every message's JSON bytes are pinned.

``fixtures/wire_golden.json`` holds, for every protocol message type, a
defaults-only variant (only the required fields set) and an all-fields-set
variant, a diff response wrapping the committed golden diff report, one
error response per stable error code, and a table of malformed documents
with the error code each must be rejected with.

A message's pinned bytes are ``json.dumps(document, sort_keys=True)`` of
its fixture document, which is exactly what ``to_json()`` must produce.
Any change to field names, defaults, null handling or key layout shows up
here as a byte difference — so the wire format only ever changes
deliberately.  To regenerate the message documents after such a
deliberate change, run this file as a script (``PYTHONPATH=src python
tests/service/test_wire_golden.py``); the malformed table is hand-written
and is left as it is.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.explanation import Explanation, ExplanationMetrics
from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.report import ReportEntry
from repro.diff.report import DetectorOutcome, DiffReport, FeatureDelta, RunSummary
from repro.exceptions import ProtocolError
from repro.logs.records import JobRecord, TaskRecord
from repro.service.protocol import (
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
    parse_request,
    parse_response,
)

FIXTURE = Path(__file__).parent / "fixtures" / "wire_golden.json"
GOLDEN_REPORT = (
    Path(__file__).parent.parent / "diff" / "fixtures" / "golden_report.json"
)

QUERY = (
    "FOR JOBS ?, ?\nDESPITE pig_script_isSame = T\n"
    "OBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM"
)


def _explanation() -> Explanation:
    return Explanation(
        because=Predicate.of(
            Comparison("blocksize_compare", Operator.EQ, "GT"),
            Comparison("inputsize_diff", Operator.GT, 1.5),
            Comparison("numinstances", Operator.LE, 16),
            Comparison("hostname_isSame", Operator.NE, False),
        ),
        despite=Predicate.of(Comparison("pig_script_isSame", Operator.EQ, "T")),
        technique="PerfXplain",
        metrics=ExplanationMetrics(
            relevance=0.75,
            precision=0.9,
            generality=0.125,
            support=42,
            evidence={"skew_ratio": 3.25, "peers": 7.0},
        ),
    )


def _full_entry() -> ReportEntry:
    return ReportEntry(
        query=QUERY,
        first_id="job_1",
        second_id="job_2",
        explanation=_explanation(),
        error="collected failure — kept verbatim",
        technique="PerfXplain",
        width=4,
        elapsed_ms=3.25,
    )


def _run(label: str, jobs: int, median: float) -> RunSummary:
    return RunSummary(run=label, num_jobs=jobs, num_tasks=jobs * 3, median_job_duration=median)


def _minimal_report() -> DiffReport:
    return DiffReport(
        before=_run("before", 4, 10.0),
        after=_run("after", 4, 10.5),
        direction="similar",
        duration_ratio=1.05,
        query=QUERY,
    )


def _full_report() -> DiffReport:
    return DiffReport(
        before=_run("before", 8, 10.5),
        after=_run("after", 9, 31.25),
        direction="regression",
        duration_ratio=2.976,
        query=QUERY,
        first_id="after::job_3",
        second_id="before::job_1",
        explanation=_explanation(),
        explanation_error="unused when an explanation exists",
        detectors=(
            DetectorOutcome(
                technique="detect-skew", run="after", fired=True,
                explanation=_explanation(),
            ),
            DetectorOutcome(
                technique="detect-straggler", run="before", fired=False,
                reason="no evidence", code="explanation_failed",
            ),
        ),
        deltas=(
            FeatureDelta(
                feature="inputsize", kind="numeric", before=1000.0, after=None,
                relative_change=-1.0,
            ),
            FeatureDelta(
                feature="pig_script", kind="nominal", before=["a.pig"],
                after=["a.pig", "b.pig"], relative_change=1.0,
            ),
        ),
    )


def _job() -> JobRecord:
    return JobRecord(
        job_id="job_9",
        features={"inputsize": 1024, "blocksize": 64.5, "pig_script": "a.pig",
                  "compressed": True, "reducers": None},
        duration=12.5,
    )


def _task() -> TaskRecord:
    return TaskRecord(
        task_id="task_9_0", job_id="job_9",
        features={"task_type": "MAP", "cpu": 0.25}, duration=3.0,
    )


def _messages() -> dict[str, object]:
    messages: dict[str, object] = {
        "query.defaults": QueryRequest(log="prod", query=QUERY),
        "query.full": QueryRequest(
            log="prod", query=QUERY, width=3, technique="simbutdiff",
            auto_despite=True, protocol_version=1,
        ),
        "batch.defaults": BatchRequest(requests=()),
        "batch.full": BatchRequest(
            requests=(
                QueryRequest(log="a", query=QUERY),
                QueryRequest(log="b", query=QUERY, width=1, technique="ruleofthumb",
                             auto_despite=True, protocol_version=2),
            ),
            protocol_version=2,
        ),
        "evaluate.defaults": EvaluateRequest(log="prod", query=QUERY),
        "evaluate.full": EvaluateRequest(
            log="prod", query=QUERY, widths=(0, 2), repetitions=5, seed=11,
            techniques=("perfxplain", "ruleofthumb"), protocol_version=1,
        ),
        "append.defaults": AppendRequest(log="prod"),
        "append.full": AppendRequest(
            log="prod", jobs=(_job(),), tasks=(_task(),), protocol_version=2,
        ),
        "diff.defaults": DiffRequest(before="base", after="cand"),
        "diff.full": DiffRequest(before="base", after="cand", width=2, technique="simbutdiff"),
        "query_result.defaults": QueryResponse(log="prod", entry=ReportEntry(query=QUERY)),
        "query_result.full": QueryResponse(log="prod", entry=_full_entry(), protocol_version=1),
        "error.full": ErrorResponse(
            code=ErrorCode.INVALID_QUERY, message="expected EXPECTED — line 3",
            protocol_version=1,
        ),
        "batch_result.defaults": BatchResponse(responses=()),
        "batch_result.full": BatchResponse(
            responses=(
                QueryResponse(log="prod", entry=_full_entry()),
                ErrorResponse(code=ErrorCode.UNKNOWN_LOG, message="no such log"),
                QueryResponse(log="prod", entry=ReportEntry(query=QUERY)),
            ),
            protocol_version=2,
        ),
        "evaluate_result.defaults": EvaluateResponse(
            log="prod", query=QUERY, first_id="job_1", second_id="job_2",
        ),
        "evaluate_result.full": EvaluateResponse(
            log="prod", query=QUERY, first_id="job_1", second_id="job_2",
            results={"PerfXplain": {"0": {"precision_mean": 0.5, "precision_std": None},
                                    "2": {"precision_mean": 0.875, "precision_std": 0.125}}},
            protocol_version=1,
        ),
        "append_result.defaults": AppendResponse(
            log="prod", appended_jobs=1, appended_tasks=2, num_jobs=17, num_tasks=50,
        ),
        "append_result.full": AppendResponse(
            log="prod", appended_jobs=1, appended_tasks=2, num_jobs=17, num_tasks=50,
            versions={"jobs": 3, "tasks": 4, "job_epoch": 0, "task_epoch": 1},
            protocol_version=2,
        ),
        "diff_result.defaults": DiffResponse(
            before="base", after="cand", report=_minimal_report(),
        ),
        "diff_result.full": DiffResponse(
            before="base", after="cand", report=_full_report(),
        ),
        "diff_result.golden": DiffResponse(
            before="base", after="cand",
            report=DiffReport.from_json(GOLDEN_REPORT.read_text()),
        ),
    }
    for code in sorted(ErrorCode.KNOWN):
        messages[f"error.{code}"] = ErrorResponse(code=code, message=f"failed with {code}")
    return messages


MESSAGES = _messages()
REQUEST_TYPES = (QueryRequest, BatchRequest, EvaluateRequest, AppendRequest, DiffRequest)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _parse(message: object, document: object) -> object:
    return (parse_request if isinstance(message, REQUEST_TYPES) else parse_response)(document)


class TestGoldenMessages:
    def test_fixture_covers_every_message_and_nothing_else(self, golden):
        assert sorted(golden["messages"]) == sorted(MESSAGES)
        tags = {MESSAGES[name].to_dict()["type"] for name in MESSAGES}
        assert len(tags) == 11
        assert {f"error.{code}" for code in ErrorCode.KNOWN} <= set(MESSAGES)

    def test_fixture_file_is_canonical_json(self):
        text = FIXTURE.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize("name", sorted(MESSAGES))
    def test_to_json_reproduces_the_fixture_bytes(self, golden, name):
        expected = json.dumps(golden["messages"][name], sort_keys=True)
        assert MESSAGES[name].to_json() == expected

    @pytest.mark.parametrize("name", sorted(MESSAGES))
    def test_fixture_document_round_trips(self, golden, name):
        message = MESSAGES[name]
        document = golden["messages"][name]
        parsed = _parse(message, document)
        assert parsed == message
        assert parsed.to_json() == json.dumps(document, sort_keys=True)

    def test_golden_diff_report_is_wrapped_verbatim(self, golden):
        report = json.loads(GOLDEN_REPORT.read_text())
        assert golden["messages"]["diff_result.golden"]["report"] == report


class TestMalformedDocuments:
    def test_table_is_non_trivial(self, golden):
        malformed = golden["malformed"]
        assert len({case["name"] for case in malformed}) == len(malformed) >= 29
        assert {case["code"] for case in malformed} == {
            ErrorCode.INVALID_REQUEST,
            ErrorCode.UNSUPPORTED_PROTOCOL,
        }

    def test_every_malformed_document_keeps_its_code(self, golden):
        for case in golden["malformed"]:
            parse = parse_request if case["parse"] == "request" else parse_response
            with pytest.raises(ProtocolError) as excinfo:
                parse(case["document"])
            assert excinfo.value.code == case["code"], case["name"]


def _regenerate() -> None:
    """Rewrite the message documents; the malformed table is kept."""
    golden = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    golden["messages"] = {name: message.to_dict() for name, message in MESSAGES.items()}
    golden.setdefault("malformed", [])
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
