"""Shared fixtures: in-process stub services and tiny repositories."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from scopekit.ingest import FileRecord, Language


def make_record(content: str | bytes, path: str = "src/sample.c", language=Language.C_CPP) -> FileRecord:
    """Build an in-memory FileRecord the way ingest would."""
    import hashlib

    data = content.encode("utf-8") if isinstance(content, str) else content
    return FileRecord(
        file_id=hashlib.sha256(data).hexdigest(),
        repo_relative_path=path,
        language=language,
        content=data,
        byte_len=len(data),
        modified_at="2024-05-01T12:00:00+00:00",
    )


class StubService:
    """One HTTP server stub handling /embed and /generate.

    /embed returns a deterministic vector per text (length-derived, fixed
    dim). /generate answers from a programmable prompt-suffix table, with
    optional delay and fail-every-nth behavior.
    """

    def __init__(self, dim: int = 8):
        self.dim = dim
        self.generate_by_query_suffix: dict[str, str] = {}
        self.default_text = "// nothing"
        self.delay_s = 0.0
        self.fail_test_substring: str | None = None
        self.requests_seen: list[dict] = []
        self.stop_reason = "end_of_stream"

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _read_json(self):
                length = int(self.headers.get("Content-Length", 0))
                return json.loads(self.rfile.read(length))

            def _send(self, code: int, payload: dict):
                body = json.dumps(payload).encode("utf-8")
                try:
                    self.send_response(code)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client timed out and closed the socket first

            def do_POST(self):
                req = self._read_json()
                stub.requests_seen.append({"path": self.path, "body": req})
                if stub.delay_s:
                    time.sleep(stub.delay_s)
                if self.path.endswith("/embed"):
                    vectors = []
                    for text in req["texts"]:
                        # deterministic, text-sensitive, independent of scopekit
                        base = [((len(text) + i) % 7) - 3.0 for i in range(stub.dim)]
                        if text:
                            base[len(text) % stub.dim] += sum(text.encode()) % 13
                        vectors.append(base)
                    self._send(200, {"vectors": vectors, "dim": stub.dim})
                elif self.path.endswith("/generate"):
                    prompt = req["prompt"]
                    if stub.fail_test_substring and stub.fail_test_substring in prompt:
                        self._send(500, {"error": "induced failure"})
                        return
                    text = stub.default_text
                    for suffix, answer in stub.generate_by_query_suffix.items():
                        if prompt.endswith(suffix):
                            text = answer
                            break
                    self._send(200, {"text": text, "stop_reason": stub.stop_reason})
                else:
                    self._send(404, {"error": "unknown path"})

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @property
    def embed_url(self) -> str:
        return self.base_url + "/embed"

    @property
    def generate_url(self) -> str:
        return self.base_url + "/generate"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_service():
    stub = StubService()
    yield stub
    stub.close()


def write_repo(root, files: dict[str, str]) -> None:
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")


def c_file_with_scopes(n_funcs: int = 3, pad: int = 260) -> str:
    """Synthetic C file whose function bodies pass the default filters."""
    parts = ["/* synthetic fixture */\n"]
    parts.append("// " + "x" * pad + "\n")
    for i in range(n_funcs):
        body = "\n".join(f"    counter_{i} += {j} * step;" for j in range(4))
        parts.append(f"int compute_{i}(int step) {{\n{body}\n    return counter_{i};\n}}\n\n")
    return "".join(parts)
