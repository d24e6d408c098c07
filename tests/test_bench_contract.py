"""The benchmark's tracer still finds every layer it measures.

bench/tracing.py wraps scopekit functions at the attributes their callers
resolve (mostly ``scopekit.pipeline.<name>``). A refactor that renames one,
or stops calling it through that attribute, fails the install or turns a
layer's metrics into zeros; this test notices without a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh process: the install patches scopekit's modules for good.
SCRIPT = """
import json, sys
from pathlib import Path
bench, src, corpus, out = sys.argv[1:]
sys.path[:0] = [bench, src]
import tracing
import scopekit.pipeline
from scopekit.config import PipelineConfig

tracer = tracing.Tracer("t")
tracer.install()
cfg = PipelineConfig(repo_root=Path(corpus), output_dir=Path(out), random_starts=2)
scopekit.pipeline.run_pipeline(cfg, scopekit.pipeline.Mode.FT_EXPORT)
metrics, _ = tracing.layer_metrics(tracer.spans)
print(json.dumps(metrics))
"""


def test_traced_ft_export_measures_every_layer(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-c", SCRIPT,
            str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests" / "fixtures" / "corpus"),
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr  # install raises if a traced name is gone
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["lexer.scans_per_file"] == 1.0
    assert metrics["pairs.write_calls"] == 2  # train and holdout pairs, each written once
    assert metrics["pairs.emitted"] > 0
    assert metrics["scopes.candidates"] > 0


# The same traced run with three holdout files; prints the layer metrics and
# how many times the holdout split ran.
HOLDOUT_SCRIPT = """
import json, sys
from pathlib import Path
bench, src, corpus, out = sys.argv[1:]
sys.path[:0] = [bench, src]
import tracing
import scopekit.pipeline
from scopekit.config import PipelineConfig

tracer = tracing.Tracer("t")
tracer.install()
cfg = PipelineConfig(
    repo_root=Path(corpus), output_dir=Path(out), random_starts=2,
    holdout_paths=("checksum.c", "geometry.hpp", "tracer.cpp"),
)
scopekit.pipeline.run_pipeline(cfg, scopekit.pipeline.Mode.FT_EXPORT)
metrics, _ = tracing.layer_metrics(tracer.spans)
splits = sum(1 for s in tracer.spans if s["name"] == "pairs.exclude_holdout")
print(json.dumps({"metrics": metrics, "splits": splits}))
"""


def test_traced_ft_export_splits_holdout_once(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-c", HOLDOUT_SCRIPT,
            str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests" / "fixtures" / "corpus"),
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["splits"] == 1  # one split per pairs stage, not one per file
    metrics = result["metrics"]
    assert metrics["pairs.holdout_missed_files"] == 0
    assert metrics["pairs.write_calls"] == 2
    assert metrics["pairs.emitted"] > 0


# A traced RAG_EVAL run with three holdout files against the given generation
# endpoint; prints the layer metrics.
RAG_EVAL_SCRIPT = """
import json, sys
from pathlib import Path
bench, src, corpus, out, generate = sys.argv[1:]
sys.path[:0] = [bench, src]
import tracing
import scopekit.pipeline
from scopekit.config import PipelineConfig

tracer = tracing.Tracer("t")
tracer.install()
cfg = PipelineConfig(
    repo_root=Path(corpus), output_dir=Path(out), random_starts=2,
    holdout_paths=("checksum.c", "geometry.hpp", "tracer.cpp"), generate_endpoint=generate,
)
scopekit.pipeline.run_pipeline(cfg, scopekit.pipeline.Mode.RAG_EVAL)
metrics, _ = tracing.layer_metrics(tracer.spans)
print(json.dumps(metrics))
"""


def test_traced_rag_eval_measures_embedding_index_and_leak_scan(tmp_path, stub_service):
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable, "-c", RAG_EVAL_SCRIPT,
            str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests" / "fixtures" / "corpus"),
            str(out), stub_service.generate_url,
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["ragindex.embed_s"] > 0
    assert metrics["ragindex.index_entries"] > 0
    assert metrics["pairs.leak_scan_s"] > 0
    findings = (out / "leakage_report.jsonl").read_text(encoding="utf-8").splitlines()
    assert metrics["pairs.leak_findings"] == len(findings)
