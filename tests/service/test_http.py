"""Tests for the HTTP endpoint and the ServiceClient."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.api import PerfXplainSession
from repro.exceptions import ServiceError
from repro.service import (
    BatchResponse,
    ErrorCode,
    ErrorResponse,
    EvaluateResponse,
    PerfXplainHTTPServer,
    QueryRequest,
    QueryResponse,
    ServiceClient,
)

WHY_SLOWER = """
    FOR JOBS ?, ?
    DESPITE numinstances_isSame = T AND pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""

WHY_SLOWER_LOOSE = """
    FOR JOBS ?, ?
    DESPITE pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


@pytest.fixture()
def server(service):
    """The service bound to an ephemeral localhost port."""
    with PerfXplainHTTPServer(service, port=0) as server:
        yield server


@pytest.fixture()
def client(server) -> ServiceClient:
    return ServiceClient(server.url)


def _post_raw(url: str, path: str, body: bytes, content_type="application/json"):
    """POST raw bytes; returns (status, parsed JSON body)."""
    request = urllib.request.Request(
        url + path, data=body, headers={"Content-Type": content_type}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestQueryEndpoint:
    def test_query_round_trips_through_the_protocol(self, client, tiny_log):
        response = client.query("tiny", WHY_SLOWER_LOOSE, width=2)
        assert isinstance(response, QueryResponse)
        oracle = PerfXplainSession(tiny_log, seed=0)
        resolved = oracle.resolve(WHY_SLOWER_LOOSE)
        expected = oracle.explain(resolved, width=2)
        assert response.entry.explanation.to_dict() == expected.to_dict()
        assert response.entry.first_id == resolved.first_id
        assert response.entry.second_id == resolved.second_id

    def test_explain_helper_returns_entry(self, client):
        entry = client.explain("tiny", WHY_SLOWER_LOOSE, width=2)
        assert entry.ok
        assert entry.technique == "PerfXplain"
        assert entry.elapsed_ms is not None

    def test_type_tag_optional_in_post_body(self, server, tiny_log):
        body = QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=1).to_dict()
        del body["type"]
        status, payload = _post_raw(
            server.url, "/v1/query", json.dumps(body).encode("utf-8")
        )
        assert status == 200
        assert payload["type"] == "query_result"

    def test_type_tag_mismatch_rejected(self, server):
        body = QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE).to_dict()
        status, payload = _post_raw(
            server.url, "/v1/batch", json.dumps(body).encode("utf-8")
        )
        assert status == 400
        assert payload["code"] == ErrorCode.INVALID_REQUEST


class TestErrorStatuses:
    def test_unknown_log_is_404(self, server, client):
        response = client.query("absent", WHY_SLOWER_LOOSE)
        assert isinstance(response, ErrorResponse)
        assert response.code == ErrorCode.UNKNOWN_LOG
        body = QueryRequest(log="absent", query=WHY_SLOWER_LOOSE).to_json()
        status, _ = _post_raw(server.url, "/v1/query", body.encode("utf-8"))
        assert status == 404

    def test_bad_protocol_version_is_400(self, server):
        body = QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE).to_dict()
        body["protocol_version"] = 99
        status, payload = _post_raw(
            server.url, "/v1/query", json.dumps(body).encode("utf-8")
        )
        assert status == 400
        assert payload["code"] == ErrorCode.UNSUPPORTED_PROTOCOL

    @pytest.mark.parametrize(
        "body", [b"{broken json", b"[" * 100000], ids=["broken", "over-deep"]
    )
    def test_invalid_json_body_is_400(self, server, body):
        status, payload = _post_raw(server.url, "/v1/query", body)
        assert status == 400
        assert payload["code"] == ErrorCode.INVALID_REQUEST

    def test_unparseable_query_is_400(self, server):
        body = QueryRequest(log="tiny", query="NOT PXQL").to_json()
        status, payload = _post_raw(server.url, "/v1/query", body.encode("utf-8"))
        assert status == 400
        assert payload["code"] == ErrorCode.INVALID_QUERY

    def test_unknown_path_is_404(self, server):
        status, payload = _post_raw(server.url, "/v1/nope", b"{}")
        assert status == 404

    def test_explain_helper_raises_service_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.explain("absent", WHY_SLOWER_LOOSE)
        assert excinfo.value.code == ErrorCode.UNKNOWN_LOG


class TestBatchEndpoint:
    def test_batch_round_trip(self, client):
        requests = [
            QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=width)
            for width in (1, 2)
        ]
        response = client.batch(requests)
        assert isinstance(response, BatchResponse)
        assert response.ok
        assert len(response.responses) == 2

    def test_batch_with_embedded_failure_still_200(self, server, client):
        requests = [
            QueryRequest(log="tiny", query=WHY_SLOWER_LOOSE, width=1),
            QueryRequest(log="absent", query=WHY_SLOWER_LOOSE),
        ]
        response = client.batch(requests)
        assert isinstance(response, BatchResponse)
        assert not response.ok
        assert response.failures[0].code == ErrorCode.UNKNOWN_LOG


class TestEvaluateEndpoint:
    def test_evaluate_over_http(self, client):
        response = client.evaluate(
            "tiny", WHY_SLOWER, widths=(0, 2), repetitions=2,
            techniques=("perfxplain",),
        )
        assert isinstance(response, EvaluateResponse)
        assert "PerfXplain" in response.results


class TestIntrospectionEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["protocol_version"] == 3

    def test_logs_exposes_catalog_and_cache_stats(self, client):
        client.explain("tiny", WHY_SLOWER_LOOSE, width=2)
        payload = client.logs()
        assert payload["executed"] >= 1
        assert payload["logs"]["tiny"]["loaded"] is True
        assert payload["logs"]["tiny"]["cache_stats"]["explanations"]["misses"] >= 1


class TestTransportFailures:
    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.query("tiny", WHY_SLOWER_LOOSE)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class TestServerLifecycle:
    def test_ephemeral_port_resolved(self, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")

    def test_stop_is_idempotent(self, service):
        server = PerfXplainHTTPServer(service, port=0).start()
        server.stop()
        server.stop()

    def test_stop_without_serving_does_not_hang(self, service):
        server = PerfXplainHTTPServer(service, port=0)
        server.stop()  # never served: must not block on shutdown()
