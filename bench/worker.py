"""One benchmark step in a fresh process: ``python3 bench/worker.py JOB.json``.

Job kinds:

* ``prepare``: import scopekit and, for rag_eval, derive the holdout test
  pairs (query, truth) through scopekit's public functions, so the stub's
  answer table matches the queries the pipeline will send.
* ``run``: one ``run_pipeline`` call, untraced or traced. Writes wall time,
  process CPU time and, when traced, the spans and per-layer metrics.

The result goes to the job's ``result`` path as JSON.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def prepare(job: dict) -> dict:
    import scopekit.pipeline  # noqa: F401  (import cost is part of set-up)
    from scopekit.ingest import FileRecord, detect_language
    from scopekit.pairs import FilterConfig, apply_filters, make_primary_pair
    from scopekit.scopes import extract_scopes

    tests = []
    for rel in job["holdout_paths"]:
        content = (Path(job["repo_root"]) / rel).read_bytes()
        fid = hashlib.sha256(content).hexdigest()
        rec = FileRecord(fid, rel, detect_language(rel), content, len(content), "")
        cfg = FilterConfig()
        for cand in apply_filters(extract_scopes(rec, diagnostics=[]), cfg, {fid: rec}):
            pair = make_primary_pair(cand, content, cfg, job["eot_token"])
            tests.append(
                {"test_id": pair.pair_id, "path": rel, "query": pair.query, "truth": pair.label_without_eot()}
            )
    return {"tests": tests}


def run(job: dict) -> dict:
    import scopekit.pipeline
    from scopekit.config import PipelineConfig

    cfg = PipelineConfig(
        repo_root=Path(job["repo_root"]) if job.get("repo_root") else Path("."),
        output_dir=Path(job["output_dir"]),
        random_starts=job.get("random_starts", 1),
        seed=job.get("seed", 0),
        holdout_paths=tuple(job.get("holdout_paths", ())),
        generate_endpoint=job.get("generate_endpoint"),
        predictions_path=Path(job["predictions_path"]) if job.get("predictions_path") else None,
    )
    mode = scopekit.pipeline.Mode(job["mode"])
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    scopekit.pipeline.run_pipeline(cfg, mode)  # resolved through the module, as traced
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "cpu_s": _cpu_s() - cpu0}
    if tracer is not None:
        from tracing import layer_metrics

        tracer.dump(job["spans"])
        out["layers"], out["notes"] = layer_metrics(tracer.spans)
    return out


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = prepare(job) if job["kind"] == "prepare" else run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, ensure_ascii=False)


if __name__ == "__main__":
    main()
