"""Command-line surface: stage subcommands, chaining, exit codes."""

import argparse
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import c_file_with_scopes, write_repo

from scopekit.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, build_parser, main
from scopekit.config import SETTINGS, PipelineConfig
from scopekit.ingest import ingest_repository
from scopekit.pairs import leakage_scan, write_leakage_report
from scopekit.pipeline import Mode, extract_all_scopes, run_pipeline, split_pairs
from scopekit.ragindex import VectorIndex


@pytest.fixture
def repo(tmp_path):
    root = tmp_path / "repo"
    write_repo(
        root,
        {
            "src/alpha.c": "/* alpha */\n" + c_file_with_scopes(3),
            "src/beta.c": "/* beta */\n" + c_file_with_scopes(2),
            "notes.txt": "not source",
        },
    )
    return root


def run(argv):
    return main([str(a) for a in argv])


def test_stage_chain(tmp_path, repo, capsys):
    out = tmp_path / "work"
    out.mkdir()
    assert run(["ingest", "--root", repo, "--out", out / "ingest"]) == EXIT_OK
    assert "ingested 2 files" in capsys.readouterr().out
    assert run(
        ["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"]
    ) == EXIT_OK
    assert run(
        [
            "pairs",
            "--scopes", out / "scopes.jsonl",
            "--manifest", out / "ingest",
            "--random-starts", 1,
            "--seed", 3,
            "--out", out / "pairs.jsonl",
        ]
    ) == EXIT_OK
    n_pairs = len((out / "pairs.jsonl").read_text().splitlines())
    assert n_pairs > 0
    assert run(
        [
            "index", "build",
            "--pairs", out / "pairs.jsonl",
            "--dimension", 32,
            "--out", out / "train.index",
        ]
    ) == EXIT_OK
    assert (out / "train.index").stat().st_size > 0


def test_pairs_streams(tmp_path):
    """`pairs` builds and writes one file's pairs at a time, as `run` does,
    so its heap peak stays far below the size of the file it writes."""
    files = {f"src/mod_{i:02d}.c": f"/* module {i} */\n" + c_file_with_scopes(30, pad=3000) for i in range(30)}
    write_repo(tmp_path / "repo", files)
    assert run(["ingest", "--root", tmp_path / "repo", "--out", tmp_path / "ingest"]) == EXIT_OK
    assert run(["scopes", "--manifest", tmp_path / "ingest", "--out", tmp_path / "scopes.jsonl"]) == EXIT_OK
    out = tmp_path / "pairs.jsonl"
    tracemalloc.start()
    try:
        argv = ["pairs", "--scopes", tmp_path / "scopes.jsonl", "--manifest", tmp_path / "ingest",
                "--random-starts", 2, "--seed", 1, "--out", out]
        assert run(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size >= 5_000_000
    assert peak < size / 2


def test_stage_chain_matches_pipeline_on_duplicate_content(tmp_path):
    root = tmp_path / "repo"
    text = c_file_with_scopes(3)
    write_repo(root, {"a/same.c": text, "b/copy.c": text, "c/other.c": "/* other */\n" + text})
    out = tmp_path / "work"
    out.mkdir()
    assert run(["ingest", "--root", root, "--out", out / "ingest"]) == EXIT_OK
    assert run(["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"]) == EXIT_OK
    assert run(
        [
            "pairs",
            "--scopes", out / "scopes.jsonl",
            "--manifest", out / "ingest",
            "--random-starts", 2,
            "--seed", 7,
            "--eot-token", "<|eos|>",
            "--out", out / "pairs.jsonl",
        ]
    ) == EXIT_OK
    cfg = PipelineConfig(
        repo_root=root, output_dir=tmp_path / "run", random_starts=2, seed=7, eot_token="<|eos|>"
    )
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    cli_bytes = (out / "pairs.jsonl").read_bytes()
    assert cli_bytes
    assert cli_bytes == (result.out_dir / "train_pairs.jsonl").read_bytes()
    assert (out / "scopes.jsonl").read_bytes() == (result.out_dir / "scopes.jsonl").read_bytes()
    assert run(
        ["index", "build", "--pairs", out / "pairs.jsonl", "--dimension", 32, "--out", out / "t.index"]
    ) == EXIT_OK


def test_holdout_split_partitions_the_cli_pairs(tmp_path, repo):
    """train_pairs + holdout_pairs hold each pair of the CLI's `pairs` once,
    and the CLI's `pairs` with the same holdout writes train_pairs."""
    out = tmp_path / "work"
    out.mkdir()
    assert run(["ingest", "--root", repo, "--out", out / "ingest"]) == EXIT_OK
    assert run(["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"]) == EXIT_OK
    pairs_argv = ["pairs", "--scopes", out / "scopes.jsonl", "--manifest", out / "ingest",
                  "--random-starts", 2, "--seed", 4]
    assert run(pairs_argv + ["--out", out / "all.jsonl"]) == EXIT_OK
    (tmp_path / "holdout.txt").write_text("src/beta.c\n")
    assert run(pairs_argv + ["--holdout", tmp_path / "holdout.txt", "--out", out / "train.jsonl"]) == EXIT_OK
    cfg = PipelineConfig(
        repo_root=repo, output_dir=tmp_path / "run", random_starts=2, seed=4, holdout_paths=("src/beta.c",)
    )
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    train = (result.out_dir / "train_pairs.jsonl").read_text().splitlines()
    held = (result.out_dir / "holdout_pairs.jsonl").read_text().splitlines()
    assert train and held
    train_ids = {json.loads(row)["pair_id"] for row in train}
    assert not train_ids & {json.loads(row)["pair_id"] for row in held}
    assert sorted(train + held) == sorted((out / "all.jsonl").read_text().splitlines())
    assert (result.out_dir / "train_pairs.jsonl").read_bytes() == (out / "train.jsonl").read_bytes()


def test_index_query_roundtrip(tmp_path, repo, capsys, monkeypatch):
    out = tmp_path / "work"
    out.mkdir()
    run(["ingest", "--root", repo, "--out", out / "ingest"])
    run(["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"])
    run(
        [
            "pairs", "--scopes", out / "scopes.jsonl", "--manifest", out / "ingest",
            "--out", out / "pairs.jsonl",
        ]
    )
    run(
        [
            "index", "build", "--pairs", out / "pairs.jsonl", "--dimension", 32,
            "--out", out / "t.index",
        ]
    )
    capsys.readouterr()

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("int compute_0(int step) {"))
    assert run(["index", "query", "--index", out / "t.index", "--top", 2, "--augment"]) == EXIT_OK
    printed = capsys.readouterr().out
    results = json.loads(printed[: printed.index("]") + 1])
    assert len(results) == 2
    assert all(set(r) == {"pair_id", "similarity"} for r in results)
    assert "/* retrieved example 1 */" in printed


def test_index_query_rejects_other_embedder_dim(tmp_path, repo, capsys, monkeypatch):
    out = tmp_path / "w"
    out.mkdir()
    run(["ingest", "--root", repo, "--out", out / "ingest"])
    run(["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"])
    run(
        [
            "pairs", "--scopes", out / "scopes.jsonl", "--manifest", out / "ingest",
            "--out", out / "pairs.jsonl",
        ]
    )
    run(
        [
            "index", "build", "--pairs", out / "pairs.jsonl", "--dimension", 32,
            "--embedder", "builtin", "--out", out / "t.index",
        ]
    )
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("query"))
    code = run(
        ["index", "query", "--index", out / "t.index", "--embedder", "remote:http://h:1"]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "vectors_for, message",
    [
        (lambda texts: [[None] * 384 for _ in texts], "a vector entry that is not a finite float32"),
        (lambda texts: 5, "vectors that are not a list of lists"),
    ],
    ids=["null-entries", "int"],
)
def test_index_build_rejects_malformed_remote_vectors(tmp_path, repo, capsys, monkeypatch, vectors_for, message):
    from scopekit import ragindex

    out = tmp_path / "w"
    out.mkdir()
    run(["ingest", "--root", repo, "--out", out / "ingest"])
    run(["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"])
    run(["pairs", "--scopes", out / "scopes.jsonl", "--manifest", out / "ingest", "--out", out / "pairs.jsonl"])
    capsys.readouterr()

    def answer(url, payload, timeout, headers=None):
        return 200, json.dumps({"vectors": vectors_for(payload["texts"]), "dim": 384}).encode()

    monkeypatch.setattr(ragindex, "post_json", answer)
    code = run(
        ["index", "build", "--pairs", out / "pairs.jsonl", "--embedder", "remote:http://embed.invalid",
         "--out", out / "t.index"]
    )
    err = capsys.readouterr().err
    assert code == EXIT_FAILURE
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: embed endpoint returned {message}"
    ]
    assert "Traceback" not in err
    assert not (out / "t.index").exists()


def test_leak_scan_command(tmp_path, repo, capsys):
    out = tmp_path / "w"
    out.mkdir()
    run(["ingest", "--root", repo, "--out", out / "ingest"])
    run(["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"])
    run(
        [
            "pairs", "--scopes", out / "scopes.jsonl", "--manifest", out / "ingest",
            "--out", out / "pairs.jsonl",
        ]
    )
    first = json.loads((out / "pairs.jsonl").read_text().splitlines()[0])
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text(
        json.dumps({"test_id": "t0", "ground_truth": first["label"]}) + "\n"
    )
    capsys.readouterr()
    assert run(
        [
            "leak-scan", "--train", out / "pairs.jsonl", "--tests", tests_file,
            "--out", out / "leaks.jsonl",
        ]
    ) == EXIT_OK
    assert "leakage finding(s)" in capsys.readouterr().out
    findings = [json.loads(x) for x in (out / "leaks.jsonl").read_text().splitlines()]
    assert any(f["test_pair_id"] == "t0" for f in findings)


def test_index_build_and_leak_scan_agree_with_rag_eval(tmp_path, stub_service):
    """The CLI's index and leak scan, fed the JSONL pairs that RAG_EVAL wrote,
    write what RAG_EVAL wrote from the pairs it held in memory: the spans
    read_pairs rebuilds from the rows' offsets embed and scan as the pairs
    cut from their files do."""
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    cfg = PipelineConfig(
        repo_root=corpus,
        output_dir=tmp_path / "run",
        random_starts=2,
        seed=1,
        holdout_paths=("checksum.c", "geometry.hpp", "tracer.cpp"),
        generate_endpoint=stub_service.generate_url,
    )
    out = run_pipeline(cfg, Mode.RAG_EVAL).out_dir
    assert run(["index", "build", "--pairs", out / "train_pairs.jsonl", "--out", tmp_path / "train.index"]) == EXIT_OK
    assert (tmp_path / "train.index").read_bytes() == (out / "train.index").read_bytes()

    def primary_labels(path):
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        primary = [d for d in rows if d["kind"] == "primary"]
        return [json.dumps({"pair_id": d["pair_id"], "label": d["label"]}) + "\n" for d in primary]

    held_labels, train_labels = primary_labels(out / "holdout_pairs.jsonl"), primary_labels(out / "train_pairs.jsonl")
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text("".join(held_labels), encoding="utf-8")
    leak_argv = ["leak-scan", "--train", out / "train_pairs.jsonl", "--tests", tests_file, "--out"]
    assert run(leak_argv + [tmp_path / "leaks.jsonl"]) == EXIT_OK
    assert (tmp_path / "leaks.jsonl").read_bytes() == (out / "leakage_report.jsonl").read_bytes()

    # the held-out labels leak nothing, so also scan the train labels, which
    # find themselves and every train pair they lie inside
    tests_file.write_text("".join(held_labels + train_labels), encoding="utf-8")
    assert run(leak_argv + [tmp_path / "all_leaks.jsonl"]) == EXIT_OK
    manifest = ingest_repository(corpus, set(cfg.languages), cfg.exclude_globs, max_file_bytes=cfg.max_file_bytes)
    train, _ = split_pairs(extract_all_scopes(manifest), manifest, cfg)
    tests = [(d["pair_id"], d["label"]) for d in map(json.loads, held_labels + train_labels)]
    report = leakage_scan(train, tests, cfg.eot_token)
    write_leakage_report(report, tmp_path / "want.jsonl")
    assert len((tmp_path / "want.jsonl").read_text().splitlines()) == 895
    assert (tmp_path / "all_leaks.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_predict_command(tmp_path, stub_service):
    stub_service.default_text = "predicted;"
    tests_file = tmp_path / "prompts.jsonl"
    tests_file.write_text(
        "\n".join(
            json.dumps({"test_id": f"t{i}", "prompt": f"prompt {i}"}) for i in range(3)
        )
        + "\n"
    )
    out_file = tmp_path / "preds.jsonl"
    assert run(
        [
            "predict", "--endpoint", stub_service.generate_url, "--tests", tests_file,
            "--max-new-tokens", 32, "--out", out_file,
        ]
    ) == EXIT_OK
    rows = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert [r["test_id"] for r in rows] == ["t0", "t1", "t2"]
    assert all(r["text"] == "predicted;" for r in rows)


def test_eval_command(tmp_path, capsys):
    tests_file = tmp_path / "tests.jsonl"
    rows = [
        {"test_id": "a", "category": "for_body", "prediction": "i++;", "ground_truth": "i++;"},
        {"test_id": "b", "category": "for_body", "prediction": "j--;xx", "ground_truth": "j--;"},
    ]
    tests_file.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run(
        [
            "eval", "--tests", tests_file,
            "--out", tmp_path / "records.jsonl",
            "--report", tmp_path / "report.csv",
        ]
    ) == EXIT_OK
    printed = capsys.readouterr().out
    assert "for_body: n=2 mean_opt=0.00" in printed
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "category,n,mean_opt,median_opt,mean_full,median_full"
    assert csv_lines[1].startswith("for_body,2,")


def test_run_and_sweep_via_config(tmp_path, repo, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "repo_root": str(repo),
                "output_dir": str(tmp_path / "out"),
                "sweep": {"filters.min_scope_bytes": [0, 50]},
            }
        )
    )
    assert run(["run", "--config", cfg_path, "--mode", "ft_export"]) == EXIT_OK
    assert (tmp_path / "out" / "train_pairs.jsonl").is_file()
    assert run(["sweep", "--config", cfg_path]) == EXIT_OK
    assert (tmp_path / "out" / "sweep_summary.json").is_file()


def test_pairs_config_with_date_only_modified_after(tmp_path, repo):
    out = tmp_path / "work"
    assert run(["ingest", "--root", repo, "--out", out / "ingest"]) == EXIT_OK
    assert run(["scopes", "--manifest", out / "ingest", "--out", out / "scopes.jsonl"]) == EXIT_OK
    pairs_argv = ["pairs", "--scopes", out / "scopes.jsonl", "--manifest", out / "ingest"]
    assert run(pairs_argv + ["--out", out / "all.jsonl"]) == EXIT_OK
    written = {}
    for cutoff in ("2024-01-01", "2999-01-01"):
        cfg_path = tmp_path / f"cfg_{cutoff}.json"
        cfg_path.write_text(json.dumps({
            "repo_root": str(repo), "output_dir": str(tmp_path / "o"), "filters": {"modified_after": cutoff},
        }))
        assert run(pairs_argv + ["--config", cfg_path, "--out", out / f"{cutoff}.jsonl"]) == EXIT_OK
        written[cutoff] = (out / f"{cutoff}.jsonl").read_bytes()
    # the files were written today: an earlier cutoff keeps every pair, a later one none
    assert written["2024-01-01"] == (out / "all.jsonl").read_bytes() != b""
    assert written["2999-01-01"] == b""


def test_run_eval_only_with_predictions_flag(tmp_path, repo):
    preds = tmp_path / "p.jsonl"
    preds.write_text(
        json.dumps(
            {"test_id": "x", "category": "if_body", "prediction": "a", "ground_truth": "a"}
        )
        + "\n"
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"repo_root": str(repo), "output_dir": str(tmp_path / "out")})
    )
    assert run(
        ["run", "--config", cfg_path, "--mode", "eval_only", "--predictions", preds]
    ) == EXIT_OK
    assert (tmp_path / "out" / "report.csv").is_file()


def test_bad_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"output_dir": "x", "filters": {"min_scope_bytes": -4}}))
    assert run(["run", "--config", cfg_path, "--mode", "ft_export"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "repo_root is required" in err


def test_operational_failure_exit_code(tmp_path, capsys):
    assert run(
        ["scopes", "--manifest", tmp_path / "absent", "--out", tmp_path / "s.jsonl"]
    ) == EXIT_FAILURE
    assert "error" in capsys.readouterr().err


def test_not_an_index_file_is_failure(tmp_path, capsys, monkeypatch):
    import io

    bogus = tmp_path / "notes.txt"
    bogus.write_text("plain text, not an index\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("query"))
    assert run(["index", "query", "--index", bogus]) == EXIT_FAILURE
    assert "error: not an index file" in capsys.readouterr().err


def test_malformed_eval_input_is_failure(tmp_path, capsys):
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text('{"test_id": "a", "prediction": "x", "ground_truth": "x"}\n{not json\n')
    assert run(
        ["eval", "--tests", tests_file, "--out", tmp_path / "r.jsonl", "--report", tmp_path / "r.csv"]
    ) == EXIT_FAILURE
    assert f"error: {tests_file}:2: invalid JSON" in capsys.readouterr().err


def _cross_manifest_pairs(tmp_path, repo):
    """pairs with scopes from one manifest and records from another."""
    run(["ingest", "--root", repo, "--out", tmp_path / "a"])
    run(["scopes", "--manifest", tmp_path / "a", "--out", tmp_path / "scopes.jsonl"])
    other = tmp_path / "other"
    write_repo(other, {"x.c": "/* other */\n" + c_file_with_scopes(1)})
    run(["ingest", "--root", other, "--out", tmp_path / "b"])
    first_id = json.loads((tmp_path / "scopes.jsonl").read_text().splitlines()[0])["file_id"]
    argv = ["pairs", "--scopes", tmp_path / "scopes.jsonl", "--manifest", tmp_path / "b",
            "--out", tmp_path / "pairs.jsonl"]
    return argv, f"file_id {first_id} is not in manifest"


def _eval_argv(tmp_path, tests_file):
    return ["eval", "--tests", tests_file, "--out", tmp_path / "r.jsonl", "--report", tmp_path / "r.csv"]


def _malformed_eval_row(tmp_path, repo):
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text('\n{"test_id": "a", "ground_truth": "x"}\n')
    return _eval_argv(tmp_path, tests_file), f"{tests_file}:2: missing key(s): prediction"


def _malformed_predict_row(tmp_path, repo):
    tests_file = tmp_path / "prompts.jsonl"
    tests_file.write_text('{"test_id": "a"}\n')
    # the endpoint is never contacted: reading the tests fails first
    argv = ["predict", "--endpoint", "http://127.0.0.1:9/generate", "--tests", tests_file,
            "--out", tmp_path / "p.jsonl"]
    return argv, f"{tests_file}:1: missing key(s): prompt"


def _array_eval_row(tmp_path, repo):
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text("[1,2]\n")
    return _eval_argv(tmp_path, tests_file), f"{tests_file}:1: expected a JSON object, got list"


def _array_leak_scan_row(tmp_path, repo):
    train = tmp_path / "train.jsonl"
    train.write_text("")
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text("[1,2]\n")
    argv = ["leak-scan", "--train", train, "--tests", tests_file, "--out", tmp_path / "l.jsonl"]
    return argv, f"{tests_file}:1: expected a JSON object, got list"


def _eval_prediction_not_string(tmp_path, repo):
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text('{"test_id": "a", "prediction": 5, "ground_truth": "x"}\n')
    return _eval_argv(tmp_path, tests_file), f"{tests_file}:1: prediction: expected str, got int"


def _predict_prompt_not_string(tmp_path, repo):
    tests_file = tmp_path / "prompts.jsonl"
    tests_file.write_text('{"test_id": "a", "prompt": ["p"]}\n')
    argv = ["predict", "--endpoint", "http://127.0.0.1:9/generate", "--tests", tests_file,
            "--out", tmp_path / "p.jsonl"]
    return argv, f"{tests_file}:1: prompt: expected str, got list"


def _leak_scan_label_not_string(tmp_path, repo):
    train = tmp_path / "train.jsonl"
    train.write_text("")
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text('{"test_id": "a", "label": 5}\n')
    argv = ["leak-scan", "--train", train, "--tests", tests_file, "--out", tmp_path / "l.jsonl"]
    return argv, f"{tests_file}:1: label: expected str or NoneType, got int"


def _leak_scan_row_without_id_or_label(tmp_path, repo):
    train = tmp_path / "train.jsonl"
    train.write_text("")
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text('{"foo": 1}\n')
    argv = ["leak-scan", "--train", train, "--tests", tests_file, "--out", tmp_path / "l.jsonl"]
    return argv, f"{tests_file}:1: missing key(s): pair_id or test_id, label or ground_truth"


def _pairs_bogus_kind(tmp_path, repo):
    row = {"pair_id": "p", "query": "q", "label": "l", "mask_len": 1, "kind": "bogus",
           "start_shift_bytes": 0, "category": "if_body", "file_id": "f", "scope_start_byte": 0,
           "eot_token": "<|endoftext|>"}
    pairs_file = tmp_path / "pairs.jsonl"
    pairs_file.write_text("\n" + json.dumps(row) + "\n")
    argv = ["index", "build", "--pairs", pairs_file, "--out", tmp_path / "t.index"]
    return argv, f"{pairs_file}:2: kind: 'bogus' is not a valid PairKind"


def _pairs_row_argv(tmp_path, **changes):
    """index build on one pairs row, with ``changes`` to a valid row."""
    row = {"pair_id": "p", "query": "int f() {", "label": "return 1;}<|endoftext|>", "mask_len": 9,
           "kind": "primary", "start_shift_bytes": 0, "category": "func_body", "file_id": "f",
           "scope_start_byte": 9, "eot_token": "<|endoftext|>", **changes}
    pairs_file = tmp_path / "pairs.jsonl"
    pairs_file.write_text(json.dumps(row) + "\n")
    return ["index", "build", "--pairs", pairs_file, "--out", tmp_path / "t.index"], pairs_file


def _pairs_label_without_eot(tmp_path, repo):
    argv, pairs_file = _pairs_row_argv(tmp_path, label="return 1;}")
    return argv, f"{pairs_file}: pair p: label does not end with its eot_token '<|endoftext|>'"


def _pairs_mask_len_not_query_length(tmp_path, repo):
    argv, pairs_file = _pairs_row_argv(tmp_path, mask_len=4)
    return argv, f"{pairs_file}: pair p: mask_len 4 is not the query's length"


def _pairs_lone_surrogate(tmp_path, repo):
    argv, pairs_file = _pairs_row_argv(tmp_path, label="return 1;\ud800}<|endoftext|>")
    return argv, f"{pairs_file}:1: label: holds a lone surrogate, which has no UTF-8 form"


def _eval_prediction_lone_surrogate(tmp_path, repo):
    tests_file = tmp_path / "tests.jsonl"
    tests_file.write_text('{"test_id": "t1", "prediction": "x\\ud800", "ground_truth": "x"}\n')
    return _eval_argv(tmp_path, tests_file), f"{tests_file}:1: prediction: holds a lone surrogate"


def _scopes_bogus_category(tmp_path, repo):
    run(["ingest", "--root", repo, "--out", tmp_path / "ingest"])
    row = {"file_id": "f", "category": "bogus", "start_byte": 0, "end_byte": 1, "depth": 0,
           "size_bytes": 1, "prefix_available_bytes": 0}
    scopes_file = tmp_path / "scopes.jsonl"
    scopes_file.write_text(json.dumps(row) + "\n")
    argv = ["pairs", "--scopes", scopes_file, "--manifest", tmp_path / "ingest", "--out", tmp_path / "p.jsonl"]
    return argv, f"{scopes_file}:1: category: 'bogus' is not a valid ScopeCategory"


def _manifest_bad_byte_len(tmp_path, repo):
    run(["ingest", "--root", repo, "--out", tmp_path / "ingest"])
    manifest = tmp_path / "ingest" / "manifest.jsonl"
    header, first, *rest = manifest.read_text().splitlines()
    row = json.loads(first)
    row["byte_len"] = str(row["byte_len"])
    manifest.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
    argv = ["scopes", "--manifest", tmp_path / "ingest", "--out", tmp_path / "s.jsonl"]
    return argv, f"{manifest}:2: byte_len: expected int, got str"


def _scope_past_file_end(tmp_path, repo):
    run(["ingest", "--root", repo, "--out", tmp_path / "ingest"])
    run(["scopes", "--manifest", tmp_path / "ingest", "--out", tmp_path / "scopes.jsonl"])
    scopes_file = tmp_path / "scopes.jsonl"
    first, *rest = scopes_file.read_text().splitlines()
    row = json.loads(first)
    row["end_byte"] += 10_000
    row["size_bytes"] += 10_000
    scopes_file.write_text("\n".join([json.dumps(row), *rest]) + "\n")
    argv = ["pairs", "--scopes", scopes_file, "--manifest", tmp_path / "ingest", "--max-scope-bytes", 100_000,
            "--min-prefix-bytes", 0, "--random-starts", 3, "--out", tmp_path / "p.jsonl"]
    return argv, f"{scopes_file}: scope [{row['start_byte']}, {row['end_byte']}) does not fit file_id {row['file_id']}"


def _empty_index(tmp_path):
    pairs_file = tmp_path / "pairs.jsonl"
    pairs_file.write_text("")
    run(["index", "build", "--pairs", pairs_file, "--dimension", 8, "--out", tmp_path / "t.index"])
    return tmp_path / "t.index"


def _truncated_index(tmp_path, repo):
    index = _empty_index(tmp_path)
    index.write_bytes(index.read_bytes()[:20])
    return ["index", "query", "--index", index], f"truncated index file: {index}"


def _index_count_past_end(tmp_path, repo):
    index = _empty_index(tmp_path)
    raw = index.read_bytes()
    index.write_bytes(raw[:16] + (2**62).to_bytes(8, "little") + raw[24:])  # the header's entry count
    return ["index", "query", "--index", index], f"truncated or corrupt index file: {index}"


def _index_nan_key(tmp_path, repo):
    index = tmp_path / "t.index"
    VectorIndex(2, "builtin-ngram-hash/d2/n3-4", ["p"], np.array([[np.nan, 1.0]], dtype=np.float32), ["v"]).save(index)
    return ["index", "query", "--index", index], f"index file has non-finite keys: {index}"


def _empty_manifest(tmp_path, repo):
    (tmp_path / "ingest").mkdir()
    (tmp_path / "ingest" / "manifest.jsonl").write_text("")
    argv = ["scopes", "--manifest", tmp_path / "ingest", "--out", tmp_path / "s.jsonl"]
    return argv, f"{tmp_path / 'ingest' / 'manifest.jsonl'}: empty manifest"


@pytest.mark.parametrize(
    "case",
    [
        _malformed_eval_row,
        _malformed_predict_row,
        _array_eval_row,
        _array_leak_scan_row,
        _empty_manifest,
        _cross_manifest_pairs,
        _eval_prediction_not_string,
        _predict_prompt_not_string,
        _leak_scan_label_not_string,
        _leak_scan_row_without_id_or_label,
        _pairs_bogus_kind,
        _pairs_label_without_eot,
        _pairs_mask_len_not_query_length,
        _pairs_lone_surrogate,
        _eval_prediction_lone_surrogate,
        _scopes_bogus_category,
        _manifest_bad_byte_len,
        _scope_past_file_end,
        _truncated_index,
        _index_count_past_end,
        _index_nan_key,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_malformed_input_is_one_error_line(tmp_path, repo, capsys, case):
    argv, expected = case(tmp_path, repo)
    capsys.readouterr()
    assert run(argv) == EXIT_FAILURE
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and expected in errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["leak-scan", "--train", "t.jsonl", "--tests", "x.jsonl", "--out", "l.jsonl"],
        ["index", "build", "--pairs", "p.jsonl", "--out", "t.index"],
        ["index", "query", "--index", "t.index"],
        ["predict", "--endpoint", "http://127.0.0.1:9/generate", "--tests", "x.jsonl", "--out", "p.jsonl"],
        ["eval", "--tests", "x.jsonl", "--out", "r.jsonl", "--report", "r.csv"],
    ],
    ids=["leak-scan", "index-build", "index-query", "predict", "eval"],
)
def test_config_flag_rejected_where_unused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--config", tmp_path / "absent.json"])  # argparse stops before any file is read
    assert exc.value.code == 2  # argparse usage error
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def _sweep_config(tmp_path, repo, grid):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"repo_root": str(repo), "output_dir": str(tmp_path / "out"), "sweep": grid}))
    return ["sweep", "--config", cfg]


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["ingest", "--root", "{repo}", "--lang", "other", "--out", "{tmp}/i"], "unknown language 'other'"),
        (["ingest", "--root", "{repo}", "--lang", "bogus", "--out", "{tmp}/i"], "unknown language 'bogus'"),
        (["ingest", "--root", "{repo}", "--max-file-bytes", "-5", "--out", "{tmp}/i"], "max_file_bytes must be"),
        (["pairs", "--scopes", "{tmp}/s.jsonl", "--manifest", "{tmp}/i", "--random-starts", "-1",
          "--out", "{tmp}/p.jsonl"], "pairs.random_starts must be an integer >= 0"),
        (["scopes", "--manifest", "{tmp}/i", "--logging-pattern", "(", "--out", "{tmp}/s.jsonl"], "bad regex '('"),
        (["index", "build", "--pairs", "{tmp}/p.jsonl", "--dimension", "0", "--out", "{tmp}/t.index"],
         "rag.dimension must be an integer >= 1"),
        ({"filters.min_scope_bytes": ["abc"]}, "filters.min_scope_bytes must be an integer"),
        ({"filters.bogus": [1]}, "sweep keys must name a filter"),
        ({"filters.min_scope_bytes": [0, "x"]}, "filters.min_scope_bytes must be an integer"),
        ({"filters.exclude_keywords": ["return"]}, "filters.exclude_keywords must be a list of strings"),
        ({"filters.max_depth": []}, "sweep must map config keys to non-empty lists of values"),
    ],
    ids=["lang-other", "lang-bogus", "max-file-bytes", "random-starts", "logging-pattern", "dimension",
         "sweep-type", "sweep-key", "sweep-second-point", "sweep-keywords", "sweep-empty"],
)
def test_bad_setting_is_a_config_error(tmp_path, repo, capsys, argv, problem):
    if isinstance(argv, dict):
        argv = _sweep_config(tmp_path, repo, argv)
    else:
        argv = [a.format(repo=repo, tmp=tmp_path) for a in argv]
    capsys.readouterr()
    assert run(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("config error:") and problem in line for line in err.splitlines()), err
    assert sorted(p.name for p in tmp_path.iterdir()) in (["cfg.json", "repo"], ["repo"])  # nothing written


def test_ingest_missing_root_is_config_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"repo_root": str(missing), "output_dir": str(tmp_path / "o")}))
    for argv in (["--root", missing], ["--config", cfg_path]):
        assert run(["ingest", *argv, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert f"config error: repo_root is not a directory: {missing}" in capsys.readouterr().err
    assert run(["ingest", "--out", tmp_path / "o"]) == EXIT_CONFIG
    assert "--root (or a config with repo_root) is required" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ingest_root_flag_overrides_config(tmp_path, repo, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"repo_root": str(tmp_path / "nope"), "output_dir": str(tmp_path / "o")}))
    assert run(["ingest", "--config", cfg_path, "--root", repo, "--out", tmp_path / "o"]) == EXIT_OK
    assert "ingested 2 files" in capsys.readouterr().out


def test_rag_eval_without_test_pairs_records_the_failed_stage(tmp_path, capsys):
    root = tmp_path / "repo"
    fixture = Path(__file__).parent / "fixtures" / "corpus" / "ring_buffer.c"
    write_repo(root, {"ring_buffer.c": fixture.read_text(encoding="utf-8"), "held.c": "int a(void) { return 1; }\n"})
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "repo_root": str(root),
        "output_dir": str(out),
        "pairs": {"holdout_paths": ["held.c"]},
        "endpoints": {"generate": "http://127.0.0.1:9/generate"},  # never reached
    }))
    assert run(["run", "--config", cfg_path, "--mode", "rag_eval"]) == EXIT_FAILURE
    assert "holdout files produced no test pairs" in capsys.readouterr().err
    stages = json.loads((out / "run_manifest.json").read_text())["stages"]
    assert [(s["stage"], s["status"]) for s in stages] == [
        ("ingest", "complete"), ("scopes", "complete"), ("pairs", "complete"), ("index", "failed")
    ]
    assert not (out / "train.index").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "scopekit" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-2", "four"])
def test_max_in_flight_below_one_is_a_usage_error(tmp_path, capsys, value):
    argv = ["predict", "--endpoint", "http://127.0.0.1:9/generate", "--tests", tmp_path / "absent.jsonl",
            "--max-in-flight", value, "--out", tmp_path / "p.jsonl"]
    with pytest.raises(SystemExit) as exc:
        run(argv)  # argparse stops before the tests file is read
    assert exc.value.code == 2
    assert f"argument --max-in-flight: must be an integer >= 1, got '{value}'" in capsys.readouterr().err


# Each setting flag and the config key it sets: a flag that loses or
# changes its key is a change to every config that uses it.
SETTING_FLAGS = {
    "--root": "repo_root", "--lang": "languages", "--exclude": "exclude_globs",
    "--max-file-bytes": "max_file_bytes", "--predictions": "predictions_path",
    "--min-scope-bytes": "filters.min_scope_bytes", "--max-scope-bytes": "filters.max_scope_bytes",
    "--min-prefix-bytes": "filters.min_prefix_bytes", "--max-prefix-bytes": "filters.max_prefix_bytes",
    "--max-depth": "filters.max_depth",
    "--logging-pattern": "pairs.logging_patterns", "--holdout": "pairs.holdout_paths",
    "--random-starts": "pairs.random_starts", "--seed": "pairs.seed", "--eot-token": "pairs.eot_token",
    "--embedder": "rag.embedder", "--dimension": "rag.dimension", "--top": "rag.n_neighbors",
    "--budget-bytes": "rag.budget_bytes",
    "--endpoint": "endpoints.generate",
    "--max-new-tokens": "generation.max_new_tokens", "--timeout": "generation.timeout_s",
}


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_setting_flags_keep_their_config_keys():
    keys = {}
    for parser in _parsers(build_parser()):
        for action in parser._actions:
            if action.dest in SETTINGS or "." in action.dest:
                assert action.dest in SETTINGS, f"{action.option_strings} sets unknown key {action.dest!r}"
                for flag in action.option_strings:
                    assert keys.setdefault(flag, action.dest) == action.dest, flag
    assert keys == SETTING_FLAGS
