"""Generation endpoint client: wire payload, stops, retries, batching."""

import json
import logging
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import scopekit
from scopekit.client import (
    AUTH_TOKEN_ENV,
    GenerationRequest,
    StopReason,
    batch_predict,
    complete,
    write_predictions,
)
from scopekit.errors import (
    EndpointUnavailableError,
    GenerationTimeoutError,
    MalformedResponseError,
)


def scripted_server(responses):
    """Tiny server that replays (status, body_bytes) per request; a third
    item, if given, is a dict of headers to send (or override) with it.
    A GET is recorded with None for its body."""
    state = {"i": 0, "seen": []}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _answer(self, body_json):
            state["seen"].append((body_json, dict(self.headers)))
            status, body, *extra = responses[min(state["i"], len(responses) - 1)]
            state["i"] += 1
            self.send_response(status)
            for name, value in {"Content-Length": str(len(body)), **(extra[0] if extra else {})}.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            self._answer(json.loads(self.rfile.read(length)))

        def do_GET(self):
            self._answer(None)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    return server, f"http://{host}:{port}/generate", state


def ok(text, stop_reason="end_of_stream"):
    return (200, json.dumps({"text": text, "stop_reason": stop_reason}).encode())


def test_complete_end_of_stream(stub_service):
    stub_service.default_text = "int x = 1;"
    res = complete(stub_service.generate_url, GenerationRequest(prompt="p"))
    assert res.text == "int x = 1;"
    assert res.stop_reason is StopReason.END_OF_STREAM
    assert res.latency_s > 0


def test_wire_payload_shape(stub_service):
    req = GenerationRequest(prompt="the prompt", max_new_tokens=17, temperature=0.5)
    complete(stub_service.generate_url, req)
    sent = stub_service.requests_seen[-1]["body"]
    assert sent == {
        "prompt": "the prompt",
        "max_new_tokens": 17,
        "stop": ["<|endoftext|>"],
        "temperature": 0.5,
    }


def test_client_side_stop_truncation(stub_service):
    stub_service.default_text = "done();<|endoftext|>garbage after"
    res = complete(stub_service.generate_url, GenerationRequest(prompt="p"))
    assert res.text == "done();"
    assert res.stop_reason is StopReason.STOP_SEQUENCE


def test_earliest_stop_wins(stub_service):
    stub_service.default_text = "a STOP2 b STOP1 c"
    req = GenerationRequest(prompt="p", stop_sequences=("STOP1", "STOP2"))
    res = complete(stub_service.generate_url, req)
    assert res.text == "a "


def test_server_reported_stop_reasons(stub_service):
    stub_service.default_text = "plain"
    stub_service.stop_reason = "max_tokens"
    res = complete(stub_service.generate_url, GenerationRequest(prompt="p"))
    assert res.stop_reason is StopReason.MAX_TOKENS


def test_timeout_raises_after_retries(stub_service):
    stub_service.delay_s = 0.5
    req = GenerationRequest(prompt="p", timeout=0.05)
    with pytest.raises(GenerationTimeoutError):
        complete(stub_service.generate_url, req, retries=1)
    stub_service.delay_s = 0.0


def test_retry_then_success():
    server, url, state = scripted_server([(500, b"{}"), ok("recovered")])
    try:
        res = complete(url, GenerationRequest(prompt="p"), retries=2)
        assert res.text == "recovered"
        assert state["i"] == 2
    finally:
        server.shutdown()


def test_5xx_exhausts_retries():
    server, url, state = scripted_server([(503, b"{}")])
    try:
        with pytest.raises(EndpointUnavailableError):
            complete(url, GenerationRequest(prompt="p"), retries=2)
        assert state["i"] == 3  # initial try + 2 retries
    finally:
        server.shutdown()


def test_4xx_fails_immediately():
    server, url, state = scripted_server([(400, b"{}")])
    try:
        with pytest.raises(EndpointUnavailableError):
            complete(url, GenerationRequest(prompt="p"), retries=3)
        assert state["i"] == 1  # no retry on client error
    finally:
        server.shutdown()


def test_connection_refused():
    with pytest.raises(EndpointUnavailableError):
        complete("http://127.0.0.1:9/generate", GenerationRequest(prompt="p"), retries=0)


@pytest.mark.parametrize("endpoint", ["localhost:9/generate", "localhost/generate"])
def test_scheme_less_endpoint_is_unavailable_after_retries(caplog, endpoint):
    """urllib raises URLError for the first and ValueError for the second."""
    with caplog.at_level(logging.WARNING, logger="scopekit.client"):
        with pytest.raises(EndpointUnavailableError, match="generate call failed"):
            complete(endpoint, GenerationRequest(prompt="p"), retries=2)
    assert sum("retrying" in r.getMessage() for r in caplog.records) == 2


def test_connect_timeout_wrapped_by_urllib_is_a_timeout(monkeypatch):
    def connect_timed_out(request, timeout):
        raise urllib.error.URLError(TimeoutError())

    monkeypatch.setattr(urllib.request, "urlopen", connect_timed_out)
    with pytest.raises(GenerationTimeoutError):
        complete("http://127.0.0.1:9/generate", GenerationRequest(prompt="p"), retries=1)


def test_body_cut_short_is_unavailable():
    """A body shorter than its Content-Length raises http.client.IncompleteRead,
    which is no OSError; it still maps to EndpointUnavailableError."""
    body = json.dumps({"text": "cut"}).encode()
    server, url, _ = scripted_server([(200, body, {"Content-Length": str(len(body) + 100)})])
    try:
        with pytest.raises(EndpointUnavailableError, match="IncompleteRead"):
            complete(url, GenerationRequest(prompt="p"), retries=0)
    finally:
        server.shutdown()


def test_importing_the_cli_and_pipeline_loads_no_requests():
    src = os.path.dirname(os.path.dirname(scopekit.__file__))
    code = "import sys, scopekit.cli, scopekit.pipeline; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_malformed_json_and_missing_text():
    server, url, _ = scripted_server([(200, b"this is not json")])
    try:
        with pytest.raises(MalformedResponseError):
            complete(url, GenerationRequest(prompt="p"), retries=0)
    finally:
        server.shutdown()
    server2, url2, _ = scripted_server([(200, b'{"stop_reason": "x"}')])
    try:
        with pytest.raises(MalformedResponseError):
            complete(url2, GenerationRequest(prompt="p"), retries=0)
    finally:
        server2.shutdown()


def test_lone_surrogate_answer_fails_only_its_test(tmp_path):
    """An answer whose text holds a lone surrogate escape has no UTF-8 form:
    it is malformed, its test fails, and the batch and its file go on."""
    lone = (200, b'{"text": "int x\\ud800;", "stop_reason": "end_of_stream"}')
    server, url, _ = scripted_server([ok("fine"), lone, ok("also fine"), lone])
    try:
        out = batch_predict(url, [("a", "p"), ("b", "p"), ("c", "p")], GenerationRequest(prompt=""),
                            max_in_flight=1, retries=0)
        with pytest.raises(MalformedResponseError, match="lone surrogate"):
            complete(url, GenerationRequest(prompt="p"), retries=0)
    finally:
        server.shutdown()
    assert [o.result.text if o.result else None for o in out] == ["fine", None, "also fine"]
    assert "lone surrogate" in out[1].error
    write_predictions(out, tmp_path / "predictions.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["error"] is None for r in rows] == [True, False, True]


def test_auth_header_from_env(stub_service, monkeypatch):
    monkeypatch.setenv(AUTH_TOKEN_ENV, "sekrit")
    complete(stub_service.generate_url, GenerationRequest(prompt="p"))
    monkeypatch.delenv(AUTH_TOKEN_ENV)
    complete(stub_service.generate_url, GenerationRequest(prompt="p"))
    # header inspection needs the scripted server; stub logs bodies only
    server, url, state = scripted_server([ok("x")])
    try:
        monkeypatch.setenv(AUTH_TOKEN_ENV, "sekrit")
        complete(url, GenerationRequest(prompt="p"))
        _, headers = state["seen"][0]
        assert headers.get("Authorization") == "Bearer sekrit"
    finally:
        server.shutdown()


def test_auth_header_not_sent_on_to_a_redirect_target(monkeypatch):
    """A 302 is followed as a GET, but the bearer token goes to the
    configured endpoint only, as requests did for a cross-host redirect."""
    target, target_url, target_state = scripted_server([ok("moved")])
    origin, url, origin_state = scripted_server([(302, b"", {"Location": target_url})])
    try:
        monkeypatch.setenv(AUTH_TOKEN_ENV, "sekrit")
        assert complete(url, GenerationRequest(prompt="p"), retries=0).text == "moved"
        assert origin_state["seen"][0][1].get("Authorization") == "Bearer sekrit"
        ((body, headers),) = target_state["seen"]
        assert body is None
        assert "Authorization" not in headers
    finally:
        origin.shutdown()
        target.shutdown()


def test_batch_preserves_input_order(stub_service):
    stub_service.generate_by_query_suffix = {
        "Q1": "answer one",
        "Q2": "answer two",
        "Q3": "answer three",
    }
    tests = [("t1", "... Q1"), ("t2", "... Q2"), ("t3", "... Q3")]
    out = batch_predict(
        stub_service.generate_url, tests, GenerationRequest(prompt=""), max_in_flight=3
    )
    assert [o.test_id for o in out] == ["t1", "t2", "t3"]
    assert [o.result.text for o in out] == ["answer one", "answer two", "answer three"]
    assert all(o.error is None for o in out)


def test_batch_isolates_failures(stub_service):
    stub_service.fail_test_substring = "POISON"
    stub_service.generate_by_query_suffix = {"OK": "fine"}
    tests = [("good", "x OK"), ("bad", "x POISON y"), ("also", "x OK")]
    out = batch_predict(
        stub_service.generate_url, tests, GenerationRequest(prompt=""), retries=0
    )
    assert out[0].result.text == "fine" and out[2].result.text == "fine"
    assert out[1].result is None and "500" in out[1].error
    stub_service.fail_test_substring = None


def test_batch_empty():
    assert batch_predict("http://127.0.0.1:9/generate", [], GenerationRequest(prompt="")) == []
