"""Spans around calls into each scopekit layer, recorded from outside ``src/``.

Each public function is wrapped at the attribute its caller resolves at call
time (``scopekit.pipeline.extract_scopes``, ``scopekit.scopes.scan``,
``scopekit.client.complete``, ...). A span holds its name, start, end,
parent span and run id, plus the counts its call reveals; spans stay in
memory and are written out when the run ends. A wrapped attribute that no
longer exists fails the install, so a refactor cannot silently turn a layer
into zeros.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time


# (span name, module, attribute path). Attributes are the ones scopekit's own
# callers look up when they call, so the wrapper sees every call.
TARGETS = (
    ("pipeline.run_pipeline", "scopekit.pipeline", "run_pipeline"),
    ("ingest.ingest_repository", "scopekit.pipeline", "ingest_repository"),
    ("ingest.write_manifest", "scopekit.pipeline", "write_manifest"),
    ("lexer.scan", "scopekit.scopes", "scan"),
    ("scopes.extract_scopes", "scopekit.pipeline", "extract_scopes"),
    ("scopes.write_scopes", "scopekit.pipeline", "write_scopes"),
    ("pairs.apply_filters", "scopekit.pipeline", "apply_filters"),
    ("pairs.make_primary_pair", "scopekit.pipeline", "make_primary_pair"),
    ("pairs.make_random_start_pairs", "scopekit.pipeline", "make_random_start_pairs"),
    ("pairs.write_pairs", "scopekit.pipeline", "write_pairs"),
    ("pairs.exclude_holdout", "scopekit.pipeline", "exclude_holdout"),
    ("pairs.leakage_scan", "scopekit.pipeline", "leakage_scan"),
    ("pairs.dataset_card", "scopekit.pipeline", "dataset_card"),
    ("ragindex.embed", "scopekit.ragindex", "HashingEmbedder.embed"),
    ("ragindex.embed_texts", "scopekit.ragindex", "HashingEmbedder.embed_texts"),
    ("ragindex.index_build", "scopekit.ragindex", "index_build"),
    ("ragindex.save", "scopekit.ragindex", "VectorIndex.save"),
    ("ragindex.load", "scopekit.ragindex", "VectorIndex.load"),
    ("ragindex.knn_search", "scopekit.ragindex", "knn_search"),
    ("ragindex.augment_query", "scopekit.ragindex", "augment_query"),
    ("client.batch_predict", "scopekit.client", "batch_predict"),
    ("client.complete", "scopekit.client", "complete"),
    ("metrics.read_tests_jsonl", "scopekit.metrics", "read_tests_jsonl"),
    ("metrics.evaluate", "scopekit.metrics", "evaluate"),
    ("metrics.aggregate_report", "scopekit.metrics", "aggregate_report"),
    ("metrics.write_records", "scopekit.metrics", "write_records"),
    ("metrics.write_report_csv", "scopekit.metrics", "write_report_csv"),
)


def _norm_path(p: str) -> str:
    p = p.replace("\\", "/")
    while p.startswith("./"):
        p = p[2:]
    return p


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._lock = threading.Lock()
        self.ingested: dict[str, str] = {}  # path -> file_id of the last ingest

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a worker thread's first span hangs under the caller's open span
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = len(self.spans)
            span = {"id": sid, "name": name, "parent": parent, "run": self.run_id}
            self.spans.append(span)
        stack.append(sid)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        counter = _COUNTERS.get(name)
        if counter is not None:
            span.update(counter(self, args, kwargs, result))
        return result

    def install(self) -> None:
        """Wrap every target; raise if one no longer exists."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
                if owner is None:
                    raise AttributeError(f"traced attribute {module_name}.{attr} no longer exists")
            raw = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
            if raw is None:
                raise AttributeError(f"traced attribute {module_name}.{attr} no longer exists")
            if isinstance(raw, classmethod):
                setattr(owner, last, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, last, self._wrap(name, raw))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "metrics.evaluate":  # counted from its input, which may be an iterator
                args = (list(args[0]),) + args[1:]
            return tracer.call(name, fn, args, kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _ingest_counts(tracer, args, kwargs, manifest):
    tracer.ingested = {r.repo_relative_path: r.file_id for r in manifest.files}
    return {"files": len(manifest.files), "bytes": sum(r.byte_len for r in manifest.files)}


def _scan_counts(tracer, args, kwargs, result):
    content = args[0]
    return {"bytes": len(content), "diagnostics": len(result.diagnostics), "content": hash(content)}


def _holdout_counts(tracer, args, kwargs, result):
    holdout_paths, path_by_file_id = args[1], args[2]
    missed = 0
    for p in {_norm_path(p) for p in holdout_paths}:
        fid = tracer.ingested.get(p)
        if fid is not None and path_by_file_id.get(fid) != p:
            missed += 1
    return {"missed": missed}


def _leak_counts(tracer, args, kwargs, report):
    train, tests = args[0], args[1]
    return {"comparisons": len(train) * len(tests), "findings": len(report.findings)}


def _write_pairs_counts(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _evaluate_counts(tracer, args, kwargs, records):
    cells = sum(len(pred) * len(truth) for _, _, pred, truth in args[0])
    return {"records": len(records), "cells": cells}


_COUNTERS = {
    "ingest.ingest_repository": _ingest_counts,
    "lexer.scan": _scan_counts,
    "scopes.extract_scopes": lambda t, a, k, r: {"candidates": len(r)},
    "pairs.apply_filters": lambda t, a, k, r: {"in": len(a[0]), "kept": len(r)},
    "pairs.make_primary_pair": lambda t, a, k, r: {"emitted": 1},
    "pairs.make_random_start_pairs": lambda t, a, k, r: {"emitted": len(r)},
    "pairs.write_pairs": _write_pairs_counts,
    "pairs.exclude_holdout": _holdout_counts,
    "pairs.leakage_scan": _leak_counts,
    "ragindex.index_build": lambda t, a, k, r: {"entries": len(r)},
    "client.batch_predict": lambda t, a, k, r: {
        "calls": len(r), "failed": sum(1 for o in r if o.result is None)
    },
    "metrics.evaluate": _evaluate_counts,
}


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest-ranked sample with at least ten samples beyond it, and its
    percentile label; the maximum when there are ten samples or fewer."""
    if not samples:
        return 0.0, "none"
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    rank = n - 11
    return ordered[rank], f"p{100 * (rank + 1) // n} of {n}"


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics derived from one run's spans, plus notes (tail labels)."""
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_time(name: str) -> float:
        total = 0.0
        for s in by_name.get(name, ()):
            kids = [(c["start"], c["end"]) for c in children.get(s["id"], ())]
            total += (s["end"] - s["start"]) - _union(kids)
        return total

    def count(name: str, key: str | None = None) -> int:
        if key is None:
            return len(by_name.get(name, ()))
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    scans = by_name.get("lexer.scan", [])
    scans_per_content: dict[int, int] = {}
    for s in scans:
        scans_per_content[s["content"]] = scans_per_content.get(s["content"], 0) + 1
    scan_s = dur("lexer.scan")
    embed_texts = count("ragindex.embed")
    embed_s = dur("ragindex.embed") + self_time("ragindex.embed_texts")
    knn_ms = [1000 * (s["end"] - s["start"]) for s in by_name.get("ragindex.knn_search", ())]
    lat_ms = [1000 * (s["end"] - s["start"]) for s in by_name.get("client.complete", ())]
    knn_tail, knn_label = tail(knn_ms)
    lat_tail, lat_label = tail(lat_ms)
    batch_s = dur("client.batch_predict")
    wait_s = dur("client.complete")
    records = count("metrics.evaluate", "records")
    evaluate_s = dur("metrics.evaluate")
    out = {
        "ingest.s": dur("ingest.ingest_repository"),
        "ingest.files": count("ingest.ingest_repository", "files"),
        "ingest.mb": count("ingest.ingest_repository", "bytes") / 1e6,
        "ingest.write_manifest_s": dur("ingest.write_manifest"),
        "lexer.scan_s": scan_s,
        "lexer.scan_calls": len(scans),
        # median over distinct file contents: 2.0 while extraction runs twice
        "lexer.scans_per_file": statistics.median(scans_per_content.values()) if scans else 0.0,
        "lexer.mb_per_s": ratio(count("lexer.scan", "bytes") / 1e6, scan_s),
        "lexer.diagnostics": count("lexer.scan", "diagnostics"),
        "scopes.extract_self_s": self_time("scopes.extract_scopes"),
        "scopes.candidates": count("scopes.extract_scopes", "candidates"),
        "scopes.write_s": dur("scopes.write_scopes"),
        "pairs.filter_s": dur("pairs.apply_filters"),
        "pairs.kept_per_candidate": ratio(count("pairs.apply_filters", "kept"), count("pairs.apply_filters", "in")),
        "pairs.build_s": dur("pairs.make_primary_pair") + dur("pairs.make_random_start_pairs"),
        "pairs.emitted": count("pairs.make_primary_pair", "emitted") + count("pairs.make_random_start_pairs", "emitted"),
        "pairs.write_s": dur("pairs.write_pairs"),
        "pairs.write_calls": count("pairs.write_pairs"),
        "pairs.bytes_written": count("pairs.write_pairs", "bytes"),
        "pairs.leak_scan_s": dur("pairs.leakage_scan"),
        "pairs.leak_comparisons": count("pairs.leakage_scan", "comparisons"),
        "pairs.leak_findings": count("pairs.leakage_scan", "findings"),
        "pairs.holdout_missed_files": count("pairs.exclude_holdout", "missed"),
        "ragindex.embed_s": embed_s,
        "ragindex.embed_texts": embed_texts,
        "ragindex.embed_ms_per_text": ratio(1000 * embed_s, embed_texts),
        "ragindex.index_build_s": self_time("ragindex.index_build"),
        "ragindex.index_entries": count("ragindex.index_build", "entries"),
        "ragindex.index_save_s": dur("ragindex.save"),
        "ragindex.index_load_s": dur("ragindex.load"),
        "ragindex.knn_s": dur("ragindex.knn_search"),
        "ragindex.knn_calls": len(knn_ms),
        "ragindex.knn_p50_ms": statistics.median(knn_ms) if knn_ms else 0.0,
        "ragindex.knn_tail_ms": knn_tail,
        "ragindex.augment_s": dur("ragindex.augment_query"),
        "client.batch_s": batch_s,
        "client.wait_s": wait_s,
        "client.overlap": ratio(wait_s, batch_s),
        "client.calls": len(lat_ms),
        "client.latency_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "client.latency_tail_ms": lat_tail,
        "client.failed": count("client.batch_predict", "failed"),
        "metrics.evaluate_s": evaluate_s,
        "metrics.records": records,
        "metrics.ms_per_record": ratio(1000 * evaluate_s, records),
        "metrics.cells": count("metrics.evaluate", "cells"),
        "metrics.read_s": dur("metrics.read_tests_jsonl"),
        "metrics.write_s": dur("metrics.write_records") + dur("metrics.write_report_csv"),
        "pipeline.self_s": self_time("pipeline.run_pipeline"),
    }
    notes = {"ragindex.knn_tail_ms": knn_label, "client.latency_tail_ms": lat_label}
    return out, notes
