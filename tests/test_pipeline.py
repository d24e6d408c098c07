"""End-to-end runs: artifacts, manifests, determinism, sweeps."""

import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from conftest import c_file_with_scopes, make_record, write_repo

from scopekit import client
from scopekit.config import PipelineConfig
from scopekit.errors import InvalidConfigError, StageError
from scopekit.ingest import ingest_repository
from scopekit.pairs import FilterConfig, check_contiguity, check_pair_bounds, read_pairs
from scopekit.pipeline import Mode, extract_all_scopes, run_pipeline, run_sweep
from scopekit.ragindex import VectorIndex
from scopekit.scopes import extract_scopes, write_scopes


def make_repo(tmp_path, n_files=3):
    root = tmp_path / "repo"
    files = {
        f"src/mod_{i}.c": f"/* module {i} */\n" + c_file_with_scopes(3) for i in range(n_files)
    }
    write_repo(root, files)
    return root


def base_config(tmp_path, **kw) -> PipelineConfig:
    return PipelineConfig(
        repo_root=make_repo(tmp_path),
        output_dir=tmp_path / "out",
        **kw,
    )


def test_ft_export_artifacts(tmp_path):
    cfg = base_config(tmp_path)
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    out = result.out_dir
    for rel in (
        "ingest/manifest.jsonl",
        "scopes.jsonl",
        "train_pairs.jsonl",
        "holdout_pairs.jsonl",
        "dataset_card.json",
        "run_manifest.json",
    ):
        assert (out / rel).is_file(), rel
    assert (out / "holdout_pairs.jsonl").read_bytes() == b""  # nothing held out
    assert not (out / "pairs_all.jsonl").exists()
    train = read_pairs(out / "train_pairs.jsonl")
    assert train, "expected training pairs from the synthetic repo"
    card = json.loads((out / "dataset_card.json").read_text())
    assert card["total_pairs"] == len(train)
    assert card["by_kind"].get("primary", 0) >= 1
    assert [s.status for s in result.stages] == ["complete"] * 4


def test_mode_may_be_its_string_value(tmp_path):
    cfg = base_config(tmp_path)
    by_member = run_pipeline(cfg, Mode.FT_EXPORT).manifest_path.read_bytes()
    by_value = run_pipeline(dataclasses.replace(cfg, output_dir=tmp_path / "by_value"), "ft_export")
    assert by_value.mode is Mode.FT_EXPORT
    assert by_value.manifest_path.read_bytes() == by_member
    with pytest.raises(InvalidConfigError, match="unknown mode 'ft-export'"):
        run_pipeline(cfg, "ft-export")


def test_ft_export_pairs_satisfy_bounds_and_contiguity(tmp_path):
    cfg = base_config(tmp_path)
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    rows = [
        json.loads(line)
        for line in (result.out_dir / "train_pairs.jsonl").read_text().splitlines()
    ]
    assert check_pair_bounds(rows, cfg.filters) == []
    content_by_id = {}
    for obj in (result.out_dir / "ingest" / "objects").iterdir():
        content_by_id[obj.name] = obj.read_bytes()
    assert check_contiguity(rows, content_by_id) == []


def test_ft_export_deterministic(tmp_path):
    root = make_repo(tmp_path)
    cfg_a = PipelineConfig(repo_root=root, output_dir=tmp_path / "out_a", random_starts=2, seed=5)
    cfg_b = PipelineConfig(repo_root=root, output_dir=tmp_path / "out_b", random_starts=2, seed=5)
    ra = run_pipeline(cfg_a, Mode.FT_EXPORT)
    rb = run_pipeline(cfg_b, Mode.FT_EXPORT)
    assert (ra.out_dir / "train_pairs.jsonl").read_bytes() == (
        rb.out_dir / "train_pairs.jsonl"
    ).read_bytes()
    assert (ra.out_dir / "dataset_card.json").read_bytes() == (
        rb.out_dir / "dataset_card.json"
    ).read_bytes()
    # no run-time stamp in any hashed artifact, so the whole chain repeats
    for rel in ("ingest/manifest.jsonl", "run_manifest.json"):
        assert (ra.out_dir / rel).read_bytes() == (rb.out_dir / rel).read_bytes(), rel


def test_ft_export_holdout_excluded(tmp_path):
    cfg = base_config(tmp_path, holdout_paths=("src/mod_1.c",))
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    manifest_lines = (result.out_dir / "ingest" / "manifest.jsonl").read_text().splitlines()
    held_ids = {
        json.loads(line)["file_id"]
        for line in manifest_lines[1:]
        if json.loads(line)["path"] == "src/mod_1.c"
    }
    assert held_ids
    train = read_pairs(result.out_dir / "train_pairs.jsonl")
    assert train and all(p.file_id not in held_ids for p in train)
    held = read_pairs(result.out_dir / "holdout_pairs.jsonl")
    assert held and all(p.file_id in held_ids for p in held)


@pytest.mark.parametrize("listed", [("a_copy/X.c",), ("./z_copy/X.c",), ("z_copy/X.c", "a_copy/X.c")])
def test_holdout_of_any_copy_holds_out_its_content(tmp_path, caplog, listed):
    """Byte-identical files are one content: listing any one of their paths
    holds that content out, whichever copy sorts last."""
    text = "/* shared */\n" + c_file_with_scopes(3)
    root = tmp_path / "repo"
    write_repo(root, {"a_copy/X.c": text, "z_copy/X.c": text, "src/other.c": "/* other */\n" + text})
    cfg = PipelineConfig(repo_root=root, output_dir=tmp_path / "out", holdout_paths=listed)
    with caplog.at_level("WARNING", logger="scopekit.pairs"):
        out = run_pipeline(cfg, Mode.FT_EXPORT).out_dir
    assert not [r for r in caplog.records if "matches no ingested file" in r.getMessage()]
    held = read_pairs(out / "holdout_pairs.jsonl")
    assert held and {p.file_id for p in held} == {hashlib.sha256(text.encode()).hexdigest()}
    train = read_pairs(out / "train_pairs.jsonl")
    assert train and not {p.file_id for p in train} & {p.file_id for p in held}


def test_ft_export_fixture_corpus_golden_hashes(tmp_path):
    """The output contract: both files hold only content hashes and offsets,
    so their bytes do not depend on the checkout path or file times."""
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    cfg = PipelineConfig(repo_root=corpus, output_dir=tmp_path / "out", random_starts=2, seed=1)
    out = run_pipeline(cfg, Mode.FT_EXPORT).out_dir
    digest = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("train_pairs.jsonl", "scopes.jsonl")
    }
    assert digest == {
        "train_pairs.jsonl": "551b9f3c6e25009638bad380fece3ca4a569eed4a37e5da9879e4e08721d0592",
        "scopes.jsonl": "768f09eeed8dc8a5b29a71f5569021f830c664bcfb1714edd1f3c65d84342c63",
    }


def test_ft_export_fixture_corpus_holdout_golden_hashes(tmp_path):
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    cfg = PipelineConfig(
        repo_root=corpus,
        output_dir=tmp_path / "out",
        random_starts=2,
        seed=1,
        holdout_paths=("checksum.c", "geometry.hpp", "tracer.cpp"),
    )
    out = run_pipeline(cfg, Mode.FT_EXPORT).out_dir
    digest = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("train_pairs.jsonl", "holdout_pairs.jsonl")
    }
    assert digest == {
        "train_pairs.jsonl": "b3051393ea23502a823a9d0d687500d53857faf1a1ce5a2d6e7a9d43a9cb1a82",
        "holdout_pairs.jsonl": "7421b7fd748e554045c639d843e4739a5b8cb098c181538c4876b53492d498fe",
    }


def test_ft_export_streams_pairs(tmp_path):
    """Pairs are built and written one file at a time, so the run's heap
    peak stays far below the size of the training file it writes."""
    files = {f"src/mod_{i:02d}.c": f"/* module {i} */\n" + c_file_with_scopes(30, pad=3000) for i in range(30)}
    write_repo(tmp_path / "repo", files)
    cfg = PipelineConfig(repo_root=tmp_path / "repo", output_dir=tmp_path / "out", random_starts=2, seed=1)
    tracemalloc.start()
    try:
        run_pipeline(cfg, Mode.FT_EXPORT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out" / "train_pairs.jsonl").stat().st_size
    assert size >= 5_000_000
    assert peak < size / 2


def test_jsonl_outputs_hashed_while_written(tmp_path, monkeypatch, stub_service):
    """Every writer returns the sha256 of what it wrote, so no run reads an
    output back to hash it; EVAL_ONLY reads only its predictions input."""
    import scopekit.pipeline

    read_back = []
    real_sha256_file = scopekit.pipeline._sha256_file

    def recording_sha256_file(path):
        read_back.append(Path(path).name)
        return real_sha256_file(path)

    monkeypatch.setattr(scopekit.pipeline, "_sha256_file", recording_sha256_file)
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"test_id": "a", "prediction": "x = 1;", "ground_truth": "x = 1;"}) + "\n")
    ft = base_config(tmp_path / "ft", holdout_paths=("src/mod_1.c",))
    rag = base_config(tmp_path / "rag", holdout_paths=("src/mod_1.c",), generate_endpoint=stub_service.generate_url)
    eval_only = PipelineConfig(repo_root=tmp_path, output_dir=tmp_path / "eval", predictions_path=preds)
    pairs_outputs = {"ingest/manifest.jsonl", "scopes.jsonl", "train_pairs.jsonl", "holdout_pairs.jsonl"}
    eval_outputs = {"eval_records.jsonl", "report.csv"}
    rag_outputs = pairs_outputs | eval_outputs | {"train.index", "leakage_report.jsonl", "predictions.jsonl"}
    runs = [
        (Mode.FT_EXPORT, ft, pairs_outputs | {"dataset_card.json"}, []),
        (Mode.RAG_EVAL, rag, rag_outputs, []),
        (Mode.EVAL_ONLY, eval_only, eval_outputs, ["preds.jsonl"]),
    ]
    for mode, cfg, names, reads in runs:
        read_back.clear()
        out = run_pipeline(cfg, mode).out_dir
        assert read_back == reads, mode
        stages = json.loads((out / "run_manifest.json").read_text())["stages"]
        outputs = {rel: digest for s in stages for rel, digest in s["outputs"].items()}
        assert set(outputs) == names, mode
        for rel, digest in outputs.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, (mode, rel)
        for s in stages:  # an input an earlier stage wrote is under the hash recorded for it
            written = {k: v for k, v in s["inputs"].items() if k != "predictions"}
            assert set(written.values()) <= set(outputs.values()), (mode, s["stage"])
    # EVAL_ONLY, the last run, records the predictions file it read
    assert stages[0]["inputs"] == {"predictions": hashlib.sha256(preds.read_bytes()).hexdigest()}


def test_run_manifest_hashes_recompute(tmp_path):
    cfg = base_config(tmp_path)
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    manifest = json.loads((result.out_dir / "run_manifest.json").read_text())
    assert manifest["mode"] == "ft_export"
    checked = 0
    for stage in manifest["stages"]:
        assert stage["status"] == "complete"
        for rel, digest in stage["outputs"].items():
            actual = hashlib.sha256((result.out_dir / rel).read_bytes()).hexdigest()
            assert actual == digest, rel
            checked += 1
    assert checked >= 5


def test_failed_stage_recorded_then_raised(tmp_path):
    cfg = PipelineConfig(repo_root=tmp_path / "gone", output_dir=tmp_path / "out")
    with pytest.raises(StageError) as err:
        run_pipeline(cfg, Mode.FT_EXPORT)
    assert "ingest" in str(err.value)
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["stages"][0] == {
        "stage": "ingest",
        "status": "failed",
        "inputs": {},
        "outputs": {},
    }


# ------------------------------------------------------------- eval only


def test_eval_only_scores_predictions(tmp_path):
    preds = tmp_path / "preds.jsonl"
    rows = [
        {"test_id": "a", "category": "if_body", "prediction": "x = 1;JUNK", "ground_truth": "x = 1;"},
        {"test_id": "b", "category": "if_body", "prediction": "y = 2;", "ground_truth": "y = 2;"},
    ]
    preds.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    cfg = PipelineConfig(
        repo_root=tmp_path, output_dir=tmp_path / "out", predictions_path=preds
    )
    result = run_pipeline(cfg, Mode.EVAL_ONLY)
    recs = [
        json.loads(line)
        for line in (result.out_dir / "eval_records.jsonl").read_text().splitlines()
    ]
    assert [r["opt_distance"] for r in recs] == [0, 0]
    assert [r["full_distance"] for r in recs] == [4, 0]
    report = (result.out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "category,n,mean_opt,median_opt,mean_full,median_full"
    assert report[1].startswith("if_body,2,0.0000,0.0000,2.0000,2.0000")


def test_eval_only_requires_predictions(tmp_path):
    cfg = PipelineConfig(repo_root=tmp_path, output_dir=tmp_path / "out")
    with pytest.raises(InvalidConfigError):
        run_pipeline(cfg, Mode.EVAL_ONLY)


# ------------------------------------------------------------- rag eval


def held_file_text() -> str:
    body = "\n".join(f"    held_total += {j} * step;" for j in range(3))
    return (
        "/* held out */\n"
        + "// "
        + "y" * 260
        + "\n"
        + f"int held_fn(int step) {{\n{body}\n    return held_total;\n}}\n"
    )


def test_duplicate_file_content_pairs_emitted_once(tmp_path):
    root = tmp_path / "repo"
    text = c_file_with_scopes(2)
    write_repo(root, {"a/same.c": text, "b/copy.c": text})
    cfg = PipelineConfig(repo_root=root, output_dir=tmp_path / "out")
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    train = read_pairs(result.out_dir / "train_pairs.jsonl")
    assert train
    ids = [p.pair_id for p in train]
    assert len(ids) == len(set(ids))


def test_the_last_copy_stands_for_its_content(tmp_path, caplog):
    root = tmp_path / "repo"
    text = c_file_with_scopes(2)
    broken = "/* broken */\n" + text + "int dangling(void) {\n"
    write_repo(root, {"a/broken.c": broken, "b/other.c": text, "c/broken.c": broken})
    with caplog.at_level("WARNING", logger="scopekit.scopes"):
        candidates = extract_all_scopes(ingest_repository(root))
    assert caplog.records and {r.getMessage().partition(":")[0] for r in caplog.records} == {"c/broken.c"}
    # in the order each content first appears in the manifest
    first_seen = [extract_scopes(make_record(t), diagnostics=[]) for t in (broken, text)]
    assert candidates == first_seen[0] + first_seen[1]


def _ft_export(cfg):
    return run_pipeline(cfg, Mode.FT_EXPORT).out_dir


def _two_point_sweep(cfg):
    cfg.sweep = {"filters.max_scope_bytes": [500, 1000]}
    run_sweep(cfg)
    return Path(cfg.output_dir)


@pytest.mark.parametrize("run", [_ft_export, _two_point_sweep], ids=["ft_export", "sweep"])
def test_ft_export_scans_each_distinct_content_once(tmp_path, monkeypatch, caplog, run):
    import scopekit.scopes

    root = tmp_path / "repo"
    text = c_file_with_scopes(2)
    broken = "/* broken */\n" + text + "int dangling(void) {\n"
    write_repo(root, {"a/same.c": text, "b/copy.c": text, "c/broken.c": broken})
    scanned: list[bytes] = []
    real_scan = scopekit.scopes.scan

    def counting_scan(content, language):
        scanned.append(content)
        return real_scan(content, language)

    monkeypatch.setattr(scopekit.scopes, "scan", counting_scan)
    cfg = PipelineConfig(repo_root=root, output_dir=tmp_path / "out")
    with caplog.at_level("WARNING", logger="scopekit.scopes"):
        out = run(cfg)
    assert sorted(scanned) == sorted({text.encode(), broken.encode()})
    orphan_logs = [
        r for r in caplog.records if "c/broken.c" in r.getMessage() and "unbalanced" in r.getMessage()
    ]
    assert len(orphan_logs) == 1
    # scopes.jsonl lists each distinct content's candidates once, in manifest order
    expected = tmp_path / "expected_scopes.jsonl"
    write_scopes(
        extract_scopes(make_record(text), diagnostics=[])
        + extract_scopes(make_record(broken), diagnostics=[]),
        expected,
    )
    assert (out / "scopes.jsonl").read_bytes() == expected.read_bytes()


def test_rag_eval_end_to_end(tmp_path, stub_service):
    root = tmp_path / "repo"
    files = {
        f"src/mod_{i}.c": f"/* module {i} */\n" + c_file_with_scopes(3) for i in range(2)
    }
    text = held_file_text()
    files["src/held.c"] = text
    write_repo(root, files)

    truth = text[text.index("{", text.index("held_fn")) + 1 : text.rindex("}") + 1]
    stub_service.generate_by_query_suffix = {"int held_fn(int step) {": truth + "ZZ"}

    cfg = PipelineConfig(
        repo_root=root,
        output_dir=tmp_path / "out",
        holdout_paths=("src/held.c",),
        generate_endpoint=stub_service.generate_url,
        embedding_dimension=32,
    )
    result = run_pipeline(cfg, Mode.RAG_EVAL)
    out = result.out_dir
    for rel in (
        "train.index",
        "leakage_report.jsonl",
        "predictions.jsonl",
        "eval_records.jsonl",
        "report.csv",
        "run_manifest.json",
    ):
        assert (out / rel).is_file(), rel

    recs = [json.loads(line) for line in (out / "eval_records.jsonl").read_text().splitlines()]
    assert len(recs) == 1  # one function in the held file
    assert recs[0]["category"] == "func_body"
    assert recs[0]["opt_distance"] == 0  # truth is a prefix of the prediction
    assert recs[0]["full_distance"] == 2  # the ZZ junk
    preds = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    assert preds[0]["error"] is None and preds[0]["stop_reason"] == "end_of_stream"
    # training index never contains holdout material
    from scopekit.ragindex import VectorIndex

    idx = VectorIndex.load(out / "train.index")
    assert truth not in idx.values
    assert len(idx) >= 1
    # prompts carried retrieved blocks ahead of the query
    gen_requests = [
        r["body"]["prompt"] for r in stub_service.requests_seen if r["path"].endswith("/generate")
    ]
    assert gen_requests and gen_requests[0].endswith("int held_fn(int step) {")
    assert "/* retrieved example 1 */" in gen_requests[0]


def test_rag_eval_failed_prediction_is_kept_but_not_scored(tmp_path, stub_service, monkeypatch):
    monkeypatch.setattr(client, "_RETRIES", 0)
    body = "\n".join(f"    poison_total += {j} * step;" for j in range(4))
    held = c_file_with_scopes(1) + f"int poison_fn(int step) {{\n{body}\n    return poison_total;\n}}\n"
    root = tmp_path / "repo"
    write_repo(root, {"src/mod_0.c": "/* module 0 */\n" + c_file_with_scopes(3), "src/held.c": held})
    stub_service.fail_test_substring = "poison_fn"  # only the second test's query holds it
    cfg = PipelineConfig(
        repo_root=root,
        output_dir=tmp_path / "out",
        holdout_paths=("src/held.c",),
        generate_endpoint=stub_service.generate_url,
        embedding_dimension=32,
    )
    run_pipeline(cfg, Mode.RAG_EVAL)
    preds = [json.loads(line) for line in (tmp_path / "out" / "predictions.jsonl").read_text().splitlines()]
    assert [p["error"] is None for p in preds] == [True, False]
    assert "500" in preds[1]["error"]
    recs = [json.loads(line) for line in (tmp_path / "out" / "eval_records.jsonl").read_text().splitlines()]
    assert [r["test_id"] for r in recs] == [preds[0]["test_id"]]


def test_rag_eval_embeds_all_queries_in_one_call(tmp_path, stub_service):
    root = tmp_path / "repo"
    write_repo(
        root,
        {
            "src/mod_0.c": "/* module 0 */\n" + c_file_with_scopes(3),
            "src/held.c": "/* held */\n" + c_file_with_scopes(3),
        },
    )
    cfg = PipelineConfig(
        repo_root=root,
        output_dir=tmp_path / "out",
        holdout_paths=("src/held.c",),
        embedder=f"remote:{stub_service.base_url}",
        embedding_dimension=stub_service.dim,
        generate_endpoint=stub_service.generate_url,
    )
    run_pipeline(cfg, Mode.RAG_EVAL)
    tests = [p for p in read_pairs(tmp_path / "out" / "holdout_pairs.jsonl") if p.kind.value == "primary"]
    assert len(tests) > 1
    embed_calls = [r["body"]["texts"] for r in stub_service.requests_seen if r["path"].endswith("/embed")]
    # one call builds the index, one embeds every test query
    assert len(embed_calls) == 2
    assert embed_calls[1] == [p.query for p in tests]


def test_rag_eval_requires_endpoint_and_holdout(tmp_path, stub_service):
    cfg = base_config(tmp_path, holdout_paths=("src/mod_0.c",))
    with pytest.raises(InvalidConfigError):
        run_pipeline(cfg, Mode.RAG_EVAL)
    cfg2 = PipelineConfig(
        repo_root=cfg.repo_root,
        output_dir=tmp_path / "out2",
        generate_endpoint=stub_service.generate_url,
    )
    with pytest.raises(InvalidConfigError):
        run_pipeline(cfg2, Mode.RAG_EVAL)


def test_rag_eval_index_failure_is_recorded(tmp_path):
    cfg = PipelineConfig(
        repo_root=make_repo(tmp_path),
        output_dir=tmp_path / "out",
        holdout_paths=("src/mod_0.c",),
        embedder="remote:http://127.0.0.1:9",  # nothing listens: connection refused
        generate_endpoint="http://127.0.0.1:9/generate",
    )
    with pytest.raises(StageError) as err:
        run_pipeline(cfg, Mode.RAG_EVAL)
    assert err.value.stage == "index"
    stages = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [
        ("ingest", "complete"), ("scopes", "complete"), ("pairs", "complete"), ("index", "failed")
    ]
    assert stages[-1]["outputs"] == {}


def test_rag_eval_uses_the_index_it_built(tmp_path, stub_service, monkeypatch):
    def no_read_back(*args, **kwargs):
        raise AssertionError("rag_eval read back the index it had just built")

    monkeypatch.setattr(VectorIndex, "load", no_read_back)
    cfg = base_config(tmp_path, holdout_paths=("src/mod_0.c",), generate_endpoint=stub_service.generate_url)
    result = run_pipeline(cfg, Mode.RAG_EVAL)
    assert [s.status for s in result.stages] == ["complete"] * 6
    assert (result.out_dir / "report.csv").is_file()


def test_rag_eval_records_its_tests_input(tmp_path, stub_service):
    cfg = base_config(tmp_path, holdout_paths=("src/mod_0.c",), generate_endpoint=stub_service.generate_url)
    stages = {s.stage: s for s in run_pipeline(cfg, Mode.RAG_EVAL).stages}
    assert stages["rag_eval"].inputs["tests"] == stages["pairs"].outputs["holdout_pairs.jsonl"]
    assert stages["rag_eval"].inputs["tests"] == stages["leak_scan"].inputs["tests"]


# ------------------------------------------------------------- sweep


def test_sweep_grid_runs_ft_export(tmp_path):
    """Ingest and scopes run once at the sweep root; each point's pairs and
    card are what FT_EXPORT with that point's filters writes."""
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    out = tmp_path / "out"
    cfg = PipelineConfig(repo_root=corpus, output_dir=out, random_starts=2, seed=1)
    cfg.sweep = {"filters.min_scope_bytes": [0, 50], "filters.max_scope_bytes": [500, 1000]}
    rows = run_sweep(cfg)
    assert len(rows) == 4
    for i, row in enumerate(rows):
        sub = out / f"sweep_{i:03d}"
        assert row["out_dir"] == str(sub)
        assert row["card"]["filters"]["min_scope_bytes"] in (0, 50)
        filters = dataclasses.replace(
            cfg.filters, **{key.removeprefix("filters."): v for key, v in row["point"].items()}
        )
        plain = _ft_export(dataclasses.replace(cfg, filters=filters, sweep={}, output_dir=tmp_path / f"plain_{i}"))
        for name in ("train_pairs.jsonl", "dataset_card.json"):
            assert (sub / name).read_bytes() == (plain / name).read_bytes(), (i, name)
        assert row["card"] == json.loads((plain / "dataset_card.json").read_text())
    assert not (out / "sweep_000" / "ingest").exists()
    assert not (out / "sweep_000" / "scopes.jsonl").exists()
    assert not (out / "sweep_000" / "run_manifest.json").exists()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [r["point"] for r in summary] == [r["point"] for r in rows]
    # widening the size window can only add pairs
    counts = {
        (r["point"]["filters.min_scope_bytes"], r["point"]["filters.max_scope_bytes"]): r[
            "card"
        ]["total_pairs"]
        for r in rows
    }
    assert counts[(0, 1000)] >= counts[(50, 500)]
    # one manifest at the root: ingest and scopes once, then pairs and ft_export per point
    stages = json.loads((out / "run_manifest.json").read_text())["stages"]
    assert [s["stage"] for s in stages] == ["ingest", "scopes"] + ["pairs", "ft_export"] * 4
    scopes_hash = stages[1]["outputs"]["scopes.jsonl"]
    assert [s["inputs"] for s in stages[2::2]] == [{"scopes": scopes_hash}] * 4
    assert [list(s["outputs"]) for s in stages[3::2]] == [
        [f"sweep_{i:03d}/dataset_card.json"] for i in range(4)
    ]
    checked = 0
    for stage in stages:
        assert stage["status"] == "complete"
        for rel, digest in stage["outputs"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
            checked += 1
    assert checked == 2 + 4 * 3


def test_failing_sweep_point_is_recorded(tmp_path, monkeypatch):
    import scopekit.pipeline

    real_write_pairs = scopekit.pipeline.write_pairs

    def failing_write_pairs(pairs, path):
        if Path(path).parent.name == "sweep_001":
            raise OSError("disk full")
        return real_write_pairs(pairs, path)

    monkeypatch.setattr(scopekit.pipeline, "write_pairs", failing_write_pairs)
    cfg = base_config(tmp_path)
    cfg.sweep = {"filters.max_scope_bytes": [500, 1000]}
    with pytest.raises(StageError) as err:
        run_sweep(cfg)
    assert err.value.stage == "pairs"
    stages = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [
        ("ingest", "complete"), ("scopes", "complete"), ("pairs", "complete"), ("ft_export", "complete"),
        ("pairs", "failed"),
    ]
    assert stages[-1]["outputs"] == {}
    assert not (tmp_path / "out" / "sweep_summary.json").exists()


def test_sweep_checks_every_point_before_running_one(tmp_path):
    cfg = base_config(tmp_path)
    cfg.sweep = {"filters.min_scope_bytes": [0, "x"]}
    with pytest.raises(InvalidConfigError) as err:
        run_sweep(cfg)
    assert err.value.problems == [
        "sweep point {'filters.min_scope_bytes': 'x'}: filters.min_scope_bytes must be an integer"
    ]
    assert not (tmp_path / "out" / "sweep_000").exists()
