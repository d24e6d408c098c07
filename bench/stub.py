"""Stub generation service for the rag_eval workload, run as its own process.

    python3 bench/stub.py --table TABLE.json

Answers POST /generate from a table built during benchmark set-up and keyed
on the query suffix: the prompt scopekit sends ends with the test's query,
whatever retrieved blocks precede it. Each request sleeps ``DELAY_S``; at
most nproc (the CPUs this process may use) requests are served at once.
Entries marked ``fail_first`` answer their first attempt after each reset
with a 503, so the client's retry path runs. GET /stats returns request
counts; POST /reset clears counts and first-attempt state between
iterations.

Prints ``PORT <n>`` on stdout once it is listening on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.005  # fixed per-request delay


class Table:
    def __init__(self, entries: list[dict], suffix_len: int):
        self.suffix_len = suffix_len
        self.by_suffix: dict[str, list[dict]] = {}
        for e in entries:
            self.by_suffix.setdefault(e["query"][-suffix_len:], []).append(e)
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempted: set[str] = set()
            self.stats = {"requests": 0, "answered": 0, "unavailable_503": 0, "unmatched": 0}

    def lookup(self, prompt: str) -> dict | None:
        """The entry with the longest query the prompt ends with: one test's
        query can be a suffix of another's when files share boilerplate."""
        best = None
        for e in self.by_suffix.get(prompt[-self.suffix_len:], ()):
            if prompt.endswith(e["query"]) and (best is None or len(e["query"]) > len(best["query"])):
                best = e
        return best

    def answer(self, prompt: str) -> tuple[int, dict]:
        entry = self.lookup(prompt)
        with self.lock:
            self.stats["requests"] += 1
            if entry is None:
                self.stats["unmatched"] += 1
                return 200, {"text": "", "stop_reason": "end_of_stream"}
            if entry["fail_first"] and entry["test_id"] not in self.attempted:
                self.attempted.add(entry["test_id"])
                self.stats["unavailable_503"] += 1
                return 503, {"error": "induced first-attempt failure"}
            self.stats["answered"] += 1
        return 200, {"text": entry["text"], "stop_reason": "end_of_stream"}


def serve(table: Table) -> ThreadingHTTPServer:
    gate = threading.BoundedSemaphore(len(os.sched_getaffinity(0)))

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _send(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                with table.lock:
                    self._send(200, dict(table.stats))
            else:
                self._send(404, {"error": "unknown path"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                table.reset()
                self._send(200, {})
            elif self.path == "/generate":
                with gate:
                    time.sleep(DELAY_S)
                    code, payload = table.answer(json.loads(body)["prompt"])
                self._send(code, payload)
            else:
                self._send(404, {"error": "unknown path"})

    return ThreadingHTTPServer(("127.0.0.1", 0), Handler)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--table", required=True)
    args = ap.parse_args()
    with open(args.table, encoding="utf-8") as fh:
        spec = json.load(fh)
    server = serve(Table(spec["entries"], spec["suffix_len"]))
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
