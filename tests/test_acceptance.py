"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test prints "[ACCEPT] <criterion>: PASS|FAIL" on the real stderr so the
gate's verdict survives pytest's capture. Tolerances are part of the
contract: exact equality for metrics/kNN/contiguity, >= 23/25 for the
heuristic scope annotations, wall-clock bounds where stated.
"""

import json
import os
import random
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import write_repo
from oracles import oracle_knn, oracle_levenshtein, oracle_opt_prefix

from scopekit.config import PipelineConfig
from scopekit.ingest import ingest_repository
from scopekit.metrics import levenshtein, opt_prefix_distance
from scopekit.pairs import (
    check_contiguity,
    check_pair_bounds,
    exclude_holdout,
    leakage_scan,
    read_pairs,
)
from scopekit.pipeline import Mode, run_pipeline
from scopekit.ragindex import HashingEmbedder, VectorIndex, index_build, knn_search
from scopekit.lexer import scan
from scopekit.scopes import extract_scopes

CORPUS = Path(__file__).parent / "fixtures" / "corpus"
REAL_CORPUS_ENV = "SCOPEKIT_REAL_CORPUS"
REAL_CORPUS_CANDIDATES = (Path("/usr/include/boost/spirit"), Path("/usr/include/c++"))

MARKER = re.compile(rb"/\*@expect:([a-z_]+)\*/")
BRACE_CATEGORIES = {"if_body", "else_body", "for_body", "func_body"}
KEYWORD_CATEGORIES = {"if_body", "else_body", "for_body"}


@contextmanager
def accept(capfd, name: str):
    """Emit the criterion verdict on the real terminal, past pytest capture.

    Notes the block appends to the yielded list follow the verdict.
    """
    notes: list[str] = []

    def emit(verdict: str) -> None:
        detail = f" ({'; '.join(notes)})" if notes else ""
        with capfd.disabled():
            print(f"\n[ACCEPT] {name}: {verdict}{detail}", file=sys.stderr, flush=True)

    try:
        yield notes
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def export_rows(out_dir: Path) -> list[dict]:
    lines = (out_dir / "train_pairs.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def export_contents(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in (out_dir / "ingest" / "objects").iterdir()}


@pytest.fixture(scope="session")
def fixture_export(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_fixture_run")
    cfg = PipelineConfig(repo_root=CORPUS, output_dir=out, random_starts=2, seed=11)
    run_pipeline(cfg, Mode.FT_EXPORT)
    return cfg, out


def resolve_real_corpus() -> Path:
    """The tree named by REAL_CORPUS_ENV, else the first existing candidate.

    Fails the calling test, rather than skipping it, when there is none.
    """
    named = os.environ.get(REAL_CORPUS_ENV)
    if named:
        if not Path(named).is_dir():
            pytest.fail(f"{REAL_CORPUS_ENV}={named} is not a directory")
        return Path(named)
    for root in REAL_CORPUS_CANDIDATES:
        if root.is_dir():
            return root
    tried = ", ".join(str(root) for root in REAL_CORPUS_CANDIDATES)
    pytest.fail(f"no real corpus: none of {tried} exists and {REAL_CORPUS_ENV} is unset")


@pytest.fixture(scope="session")
def real_repo_export(tmp_path_factory):
    """Return a call that runs FT_EXPORT on the real tree once per session.

    Tests call it inside their accept block, so a missing tree fails the
    criterion with its verdict line rather than erroring at set-up.
    """
    done = []

    def run():
        if not done:
            root = resolve_real_corpus()
            out = tmp_path_factory.mktemp("accept_real_run")
            cfg = PipelineConfig(repo_root=root, output_dir=out)
            t0 = time.perf_counter()
            run_pipeline(cfg, Mode.FT_EXPORT)
            elapsed = time.perf_counter() - t0
            n_files = len((out / "ingest" / "manifest.jsonl").read_text().splitlines()) - 1
            done.append((cfg, out, elapsed, n_files))
        return done[0]

    return run


def test_accept_metric_correctness(capfd):
    with accept(capfd, "metric correctness (1000 pairs vs oracle + axioms, <30s)"):
        t0 = time.perf_counter()
        rng = random.Random(20260813)
        alphabet = "abcdefgh"

        def word():
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 31)))

        for _ in range(1000):
            a, b = word(), word()
            assert levenshtein(a, b) == oracle_levenshtein(a, b)
        for _ in range(1000):
            a, b, c = word(), word(), word()
            dab, dba = levenshtein(a, b), levenshtein(b, a)
            assert levenshtein(a, a) == 0
            assert dab == dba
            assert dab >= 0 and (dab == 0) == (a == b)
            assert levenshtein(a, c) <= dab + levenshtein(b, c)
        assert time.perf_counter() - t0 < 30.0


def test_accept_opt_correctness(capfd):
    with accept(capfd, "opt-prefix correctness (500 pairs vs oracle, exact)"):
        rng = random.Random(77101)
        alphabet = "abcdefgh"

        def word(n):
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, n)))

        for _ in range(500):
            pred, truth = word(26), word(26)
            opt, opt_len = opt_prefix_distance(pred, truth)
            want, want_len = oracle_opt_prefix(pred, truth)
            assert (opt, opt_len) == (want, want_len)
            assert opt <= levenshtein(pred, truth)
        for _ in range(50):
            truth = word(20)
            junk = word(15)
            opt, opt_len = opt_prefix_distance(truth + junk, truth)
            assert opt == 0 and opt_len == len(truth)


def test_accept_knn_exactness(capfd):
    with accept(capfd, "kNN exactness (50 indexes x 20 queries, top-5, tie-breaks)"):
        rng = random.Random(424242)
        dim = 384
        for trial in range(50):
            count = rng.randrange(1, 501)
            keys = np.array(
                [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(count)],
                dtype=np.float32,
            )
            if count >= 6:
                keys[1] = keys[0]  # exact duplicates force cosine ties
                keys[2] = keys[0]
            ids = [f"p{j:04d}" for j in range(count)]
            rng.shuffle(ids)
            index = VectorIndex(dim, "t", ids, keys, ["v"] * count)
            key_rows = [list(map(float, row)) for row in keys]
            for qi in range(20):
                if qi == 0 and count >= 6:
                    q = [float(x) for x in keys[0]]  # hits the tied triple head-on
                else:
                    q = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
                got = knn_search(index, np.array(q), 5)
                want = oracle_knn(ids, key_rows, q, 5)
                assert [pid for pid, _ in got] == [pid for pid, _ in want], (
                    f"trial {trial} query {qi}"
                )
                for (_, sg), (_, sw) in zip(got, want):
                    assert abs(sg - sw) < 1e-9


def test_accept_scope_extraction_soundness(capfd):
    with accept(capfd, "scope soundness (balanced/laminar spans; >=23/25 annotations)"):
        manifest = ingest_repository(CORPUS)
        assert len(manifest.files) >= 30
        closer_of = {"{": ord("}"), "(": ord(")")}
        matched_annotations = 0
        total_annotations = 0
        keyword_misses = []
        for rec in manifest.files:
            content = rec.content
            pairs = scan(content, rec.language).pairs
            by_class: dict[str, list] = {"{": [], "(": []}
            for span in pairs:
                # balanced and byte-slice reconstructible
                assert 0 <= span.open_offset < span.close_offset < len(content)
                assert content[span.open_offset] == ord(span.delimiter)
                assert content[span.close_offset] == closer_of[span.delimiter]
                by_class[span.delimiter].append((span.open_offset, span.close_offset))
            for spans in by_class.values():  # laminar per delimiter class
                for a in spans:
                    for b in spans:
                        if a == b:
                            continue
                        disjoint = a[1] < b[0] or b[1] < a[0]
                        nested = (a[0] < b[0] and b[1] < a[1]) or (
                            b[0] < a[0] and a[1] < b[1]
                        )
                        assert disjoint or nested, (rec.repo_relative_path, a, b)

            candidates = sorted(extract_scopes(rec), key=lambda c: c.start_byte)
            for m in MARKER.finditer(content):
                expected = m.group(1).decode()
                opener = b"{" if expected in BRACE_CATEGORIES else b"("
                target = next(
                    (
                        c
                        for c in candidates
                        if c.start_byte - 1 >= m.end()
                        and content[c.start_byte - 1 : c.start_byte] == opener
                    ),
                    None,
                )
                total_annotations += 1
                got = target.category.value if target else None
                if got == expected:
                    matched_annotations += 1
                elif expected in KEYWORD_CATEGORIES:
                    keyword_misses.append((rec.repo_relative_path, m.start(), expected, got))
        assert total_annotations == 25
        assert keyword_misses == [], keyword_misses
        assert matched_annotations >= 23, f"only {matched_annotations}/25 annotations matched"


def test_accept_filter_fidelity(capfd, fixture_export, real_repo_export):
    with accept(capfd, "filter fidelity (0 bound violations; 500-file export <60s)") as notes:
        fx_cfg, fx_out = fixture_export
        assert check_pair_bounds(export_rows(fx_out), fx_cfg.filters) == []
        real_cfg, real_out, elapsed, n_files = real_repo_export()
        notes.append(f"{real_cfg.repo_root}: {n_files} files, {elapsed:.1f}s")
        assert n_files >= 500, f"real corpus has only {n_files} files"
        rows = export_rows(real_out)
        assert rows, "real corpus produced no training pairs"
        assert check_pair_bounds(rows, real_cfg.filters) == []
        assert elapsed < 60.0, f"FT_EXPORT took {elapsed:.1f}s"


def test_accept_pair_contiguity(capfd, fixture_export, real_repo_export):
    with accept(capfd, "pair contiguity (query ++ label slices source, 100%)") as notes:
        _, fx_out = fixture_export
        assert check_contiguity(export_rows(fx_out), export_contents(fx_out)) == []
        real_cfg, real_out, _, n_files = real_repo_export()
        notes.append(f"{real_cfg.repo_root}: {n_files} files")
        assert check_contiguity(export_rows(real_out), export_contents(real_out)) == []


def test_accept_holdout_and_leakage(capfd, fixture_export):
    with accept(capfd, "holdout exclusion + leakage detection (20/20 planted, 0 disjoint)"):
        _, out = fixture_export
        pairs = read_pairs(out / "train_pairs.jsonl")  # the fixture export holds nothing out
        manifest_rows = [
            json.loads(line)
            for line in (out / "ingest" / "manifest.jsonl").read_text().splitlines()[1:]
        ]
        path_by_id = {r["file_id"]: r["path"] for r in manifest_rows}
        holdout = ("scheduler.cpp", "options.cpp", "ring_buffer.c")
        held_ids = {fid for fid, p in path_by_id.items() if p in holdout}
        assert held_ids and any(p.file_id in held_ids for p in pairs)
        train = exclude_holdout(pairs, holdout, path_by_id)
        assert train
        assert all(p.file_id not in held_ids for p in train)

        rng = random.Random(5)
        planted = rng.sample([p for p in train if p.label_without_eot().strip()], 20)
        tests = [(f"planted-{i}", p.label) for i, p in enumerate(planted)]
        report = leakage_scan(train, tests)
        detected = {f.test_pair_id for f in report.findings}
        assert detected == {f"planted-{i}" for i in range(20)}

        disjoint = [
            (f"disjoint-{i}", f"synthetic_token_{i} = quarantine_{i} ^ 0x{i:08x};")
            for i in range(20)
        ]
        assert leakage_scan(train, disjoint).clean


def test_accept_determinism(capfd, fixture_export, tmp_path):
    with accept(capfd, "determinism (byte-identical exports and index builds)"):
        _, first_out = fixture_export
        cfg2 = PipelineConfig(
            repo_root=CORPUS, output_dir=tmp_path / "again", random_starts=2, seed=11
        )
        run_pipeline(cfg2, Mode.FT_EXPORT)
        assert (first_out / "train_pairs.jsonl").read_bytes() == (
            tmp_path / "again" / "train_pairs.jsonl"
        ).read_bytes()

        primary = [p for p in read_pairs(first_out / "train_pairs.jsonl") if p.kind.value == "primary"]
        assert primary
        a_path, b_path = tmp_path / "a.index", tmp_path / "b.index"
        index_build(primary, HashingEmbedder()).save(a_path)
        index_build(primary, HashingEmbedder()).save(b_path)
        assert a_path.read_bytes() == b_path.read_bytes()


def test_accept_rag_eval_stub(capfd, tmp_path, stub_service):
    with accept(capfd, "RAG_EVAL end-to-end (stub truth+junk: mean opt 0, mean full = junk)"):
        junk = "@@junk@@"
        root = tmp_path / "repo"
        pad = "// " + "x" * 260 + "\n"
        train_files = {}
        for i in range(3):
            body = "\n".join(f"    total_{i} += {j} * step;" for j in range(4))
            train_files[f"src/train_{i}.c"] = (
                f"/* trainer {i} */\n{pad}int trainer_{i}(int step) {{\n{body}\n"
                f"    return total_{i};\n}}\n"
            )
        held_parts = [f"/* held */\n{pad}"]
        for i in range(3):
            body = "\n".join(f"    held_{i} += {j} * step;" for j in range(4))
            held_parts.append(
                f"int held_fn{i}(int step) {{\n{body}\n    return held_{i};\n}}\n\n"
            )
        held_text = "".join(held_parts)
        train_files["src/held.c"] = held_text
        write_repo(root, train_files)

        answers = {}
        search_from = 0
        for i in range(3):
            sig = f"int held_fn{i}(int step) {{"
            start = held_text.index(sig, search_from) + len(sig)
            end = held_text.index("}", start)
            truth = held_text[start : end + 1]
            answers[sig] = truth + junk
            search_from = end
        stub_service.generate_by_query_suffix = answers

        cfg = PipelineConfig(
            repo_root=root,
            output_dir=tmp_path / "out",
            holdout_paths=("src/held.c",),
            embedder=f"remote:{stub_service.base_url}",
            embedding_dimension=stub_service.dim,
            generate_endpoint=stub_service.generate_url,
        )
        result = run_pipeline(cfg, Mode.RAG_EVAL)
        records = [
            json.loads(line)
            for line in (result.out_dir / "eval_records.jsonl").read_text().splitlines()
        ]
        assert len(records) == 3
        assert all(r["opt_distance"] == 0 for r in records)
        assert all(r["full_distance"] == len(junk) for r in records)
        report_lines = (result.out_dir / "report.csv").read_text().splitlines()
        assert report_lines[0] == "category,n,mean_opt,median_opt,mean_full,median_full"
        assert report_lines[1] == (
            f"func_body,3,0.0000,0.0000,{len(junk):.4f},{len(junk):.4f}"
        )
