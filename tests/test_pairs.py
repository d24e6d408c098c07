"""Pair construction, filtering, holdout, leakage, and post-hoc audits."""

import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from conftest import make_record
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import oracle_leakage_scan

from scopekit.config import PipelineConfig
from scopekit.errors import InvalidConfigError
from scopekit.ingest import ingest_repository
from scopekit.pairs import (
    DEFAULT_EOT_TOKEN,
    MATCH_EXACT_LABEL,
    MATCH_SUBSTRING,
    CompletionPair,
    FilterConfig,
    PairKind,
    Span,
    apply_filters,
    check_contiguity,
    check_pair_bounds,
    count_pairs,
    dataset_card,
    exclude_holdout,
    leakage_scan,
    make_primary_pair,
    make_random_start_pairs,
    merged_runs,
    pairs_from_rows,
    read_pairs,
    write_leakage_report,
    write_pairs,
)
from scopekit.pipeline import Mode, extract_all_scopes, run_pipeline, split_pairs
from scopekit.scopes import ScopeCandidate, ScopeCategory, extract_scopes

LOOSE = FilterConfig(min_scope_bytes=0, max_scope_bytes=10_000, min_prefix_bytes=0)


def candidate(
    content: bytes,
    start: int,
    end: int,
    *,
    file_id: str = "f" * 64,
    category=ScopeCategory.FUNC_BODY,
    depth: int = 0,
) -> ScopeCandidate:
    return ScopeCandidate(
        file_id=file_id,
        category=category,
        start_byte=start,
        end_byte=end,
        depth=depth,
        size_bytes=end - start,
        prefix_available_bytes=start,
    )


# ---------------------------------------------------------------- filters


def test_filter_defaults():
    cfg = FilterConfig()
    assert (cfg.min_scope_bytes, cfg.max_scope_bytes) == (50, 1000)
    assert (cfg.min_prefix_bytes, cfg.max_prefix_bytes) == (200, 3072)
    assert cfg.max_depth is None and cfg.category_allowlist is None


def test_filter_validate_collects_every_problem():
    cfg = FilterConfig(
        min_scope_bytes=-1,
        max_scope_bytes=-5,
        min_prefix_bytes=9000,
        max_prefix_bytes=10,
        modified_after="not-a-date",
    )
    with pytest.raises(InvalidConfigError) as err:
        cfg.validate()
    msg = str(err.value)
    for field in ("min_scope_bytes", "max_scope_bytes", "max_prefix_bytes", "modified_after"):
        assert field in msg


def test_size_and_prefix_windows():
    content = b"x" * 400
    small = candidate(content, 300, 320)  # 20 bytes: under min
    okay = candidate(content, 300, 380)  # 80 bytes
    early = candidate(content, 100, 199)  # prefix 100 < 200
    cfg = FilterConfig()
    kept = apply_filters([small, okay, early], cfg, {})
    assert kept == [okay]


def test_depth_and_category_filters():
    content = b"x" * 600
    c0 = candidate(content, 300, 400, depth=0)
    c3 = candidate(content, 300, 400, depth=3, category=ScopeCategory.IF_BODY)
    cfg = dataclasses.replace(FilterConfig(), max_depth=1)
    assert apply_filters([c0, c3], cfg, {}) == [c0]
    cfg2 = dataclasses.replace(
        FilterConfig(), category_allowlist=frozenset({ScopeCategory.IF_BODY})
    )
    assert apply_filters([c0, c3], cfg2, {}) == [c3]


def test_keyword_and_modified_filters():
    rec = make_record(" " * 300 + "{ secret_token value here padding padding paddings }")
    cands = extract_scopes(rec)
    assert len(cands) == 1
    cfg = dataclasses.replace(FilterConfig(), exclude_keywords=("secret_token",))
    assert apply_filters(cands, cfg, {rec.file_id: rec}) == []
    cfg_ok = dataclasses.replace(FilterConfig(), exclude_keywords=("absent",))
    assert len(apply_filters(cands, cfg_ok, {rec.file_id: rec})) == 1
    # record stamped 2024-05-01; a later cutoff rejects it
    cfg_time = dataclasses.replace(FilterConfig(), modified_after="2025-01-01T00:00:00+00:00")
    assert apply_filters(cands, cfg_time, {rec.file_id: rec}) == []
    # a cutoff without an offset is read as UTC, like the stamp ingest writes
    cfg_date = dataclasses.replace(FilterConfig(), modified_after="2025-01-01")
    assert apply_filters(cands, cfg_date, {rec.file_id: rec}) == []
    cfg_date_ok = dataclasses.replace(FilterConfig(), modified_after="2024-01-01")
    assert len(apply_filters(cands, cfg_date_ok, {rec.file_id: rec})) == 1


# ---------------------------------------------------------------- primary


def test_primary_pair_layout():
    text = "int pad;\nvoid f(){return;}"
    content = text.encode()
    start = text.index("{") + 1
    end = text.index("}")
    cand = candidate(content, start, end)
    pair = make_primary_pair(cand, content, LOOSE)
    assert pair.query == text[:start]
    assert pair.label == "return;}" + DEFAULT_EOT_TOKEN
    assert pair.kind is PairKind.PRIMARY
    assert pair.start_shift_bytes == 0
    assert pair.mask_len == len(pair.query)
    assert len(pair.pair_id) == 32 and int(pair.pair_id, 16) >= 0


def test_primary_without_closer():
    content = b"void f(){return;}"
    cand = candidate(content, 9, 16)
    pair = make_primary_pair(cand, content, LOOSE, include_closer=False)
    assert pair.label == "return;" + DEFAULT_EOT_TOKEN


def test_primary_query_truncated_to_max_prefix():
    content = b"a" * 5000 + b"{body body body}"
    cand = candidate(content, 5001, 5015)
    pair = make_primary_pair(cand, content, FilterConfig(min_prefix_bytes=0))
    assert len(pair.query.encode()) == 3072
    assert pair.query == "a" * 3071 + "{"


def test_query_start_snaps_off_multibyte_boundary():
    # content: a b 0xC3 0xA9 { c d }; a 2-byte window from the partition
    # point would start mid-character, so it snaps forward past the char
    content = "abé{cd}".encode()
    cand = candidate(content, 5, 7)
    cfg = dataclasses.replace(LOOSE, max_prefix_bytes=2)
    pair = make_primary_pair(cand, content, cfg)
    assert pair.query == "{"
    assert pair.label == "cd}" + DEFAULT_EOT_TOKEN


def test_mask_len_counts_characters_not_bytes():
    content = "éé{zz}".encode()  # 4 bytes of prefix, 2 chars
    cand = candidate(content, 5, 7)
    pair = make_primary_pair(cand, content, LOOSE)
    assert pair.query == "éé{"
    assert pair.mask_len == 3
    assert len(pair.query.encode()) == 5


# ----------------------------------------------------------- random start


def test_random_start_splits_scope():
    text = "pad.{abcdef}"
    content = text.encode()
    cand = candidate(content, 5, 11)
    pairs = make_random_start_pairs(cand, content, LOOSE, k=64, seed=7)
    by_shift = {p.start_shift_bytes: p for p in pairs}
    assert 2 in by_shift  # 64 draws over {1..5} cover shift 2
    p2 = by_shift[2]
    assert p2.query.endswith("ab") and p2.query == "pad.{ab"
    assert p2.label == "cdef}" + DEFAULT_EOT_TOKEN
    assert p2.kind is PairKind.RANDOM_START
    assert p2.scope_start_byte == 5  # records the scope, not the partition


def test_random_start_shift_range_and_dedupe():
    content = b"...{abcdef}"
    cand = candidate(content, 4, 10)
    pairs = make_random_start_pairs(cand, content, LOOSE, k=200, seed=1)
    shifts = [p.start_shift_bytes for p in pairs]
    assert len(shifts) == len(set(shifts))
    assert all(1 <= s <= 5 for s in shifts)
    assert len(shifts) <= 5


def test_random_start_deterministic_per_scope():
    content = b"...{abcdef}...{ghijkl}"
    c1 = candidate(content, 4, 10)
    c2 = candidate(content, 15, 21)
    a = make_random_start_pairs(c1, content, LOOSE, k=3, seed=9)
    b = make_random_start_pairs(c1, content, LOOSE, k=3, seed=9)
    assert a == b
    # the second scope's draws do not depend on the first being processed
    solo = make_random_start_pairs(c2, content, LOOSE, k=3, seed=9)
    assert solo == make_random_start_pairs(c2, content, LOOSE, k=3, seed=9)
    assert [p.start_shift_bytes for p in solo] != []


def test_random_start_seed_changes_draws():
    content = b"...{abcdefghijklmnopqrstuvwxyz}"
    cand = candidate(content, 4, 30)
    s0 = [p.start_shift_bytes for p in make_random_start_pairs(cand, content, LOOSE, k=5, seed=0)]
    s1 = [p.start_shift_bytes for p in make_random_start_pairs(cand, content, LOOSE, k=5, seed=1)]
    assert s0 != s1


def test_degenerate_scopes_yield_nothing():
    content = b"{}a{b}"
    assert make_random_start_pairs(candidate(content, 1, 1), content, LOOSE, k=4) == []
    assert make_random_start_pairs(candidate(content, 4, 5), content, LOOSE, k=4) == []


def test_random_start_shift_snaps_utf8():
    content = ("pad{" + "é" * 8 + "}").encode()  # scope is 16 bytes of 2-byte chars
    cand = candidate(content, 4, 20)
    pairs = make_random_start_pairs(cand, content, LOOSE, k=32, seed=3)
    assert pairs
    for p in pairs:
        assert p.start_shift_bytes % 2 == 0  # every boundary is even here
        p.query.encode()  # round-trips, so the split hit a boundary
        assert p.query + p.label_without_eot() == "pad{" + "é" * 8 + "}"


def test_all_boundaries_unreachable_yields_nothing():
    # scope content is one 4-byte character: no interior boundary exists
    content = ("x{" + "\U0001f600" + "}").encode()
    cand = candidate(content, 2, 6)
    assert make_random_start_pairs(cand, content, LOOSE, k=8) == []


# ------------------------------------------------------------- holdout


def two_pairs():
    content_a = b"..{aaaa}"
    content_b = b"..{bbbb}"
    pa = make_primary_pair(candidate(content_a, 3, 7, file_id="a" * 64), content_a, LOOSE)
    pb = make_primary_pair(candidate(content_b, 3, 7, file_id="b" * 64), content_b, LOOSE)
    return pa, pb


def test_holdout_whole_file_exclusion():
    pa, pb = two_pairs()
    paths = {"a" * 64: "src/a.c", "b" * 64: "src/b.c"}
    kept = exclude_holdout([pa, pb], ["src/a.c"], paths)
    assert kept == [pb]


def test_holdout_path_normalization():
    pa, pb = two_pairs()
    paths = {"a" * 64: "src/a.c", "b" * 64: ".hidden/b.c"}
    kept = exclude_holdout([pa, pb], ["./src/a.c", ".hidden/b.c"], paths)
    assert kept == []


def test_holdout_unknown_path_warns_but_keeps_going(caplog):
    pa, pb = two_pairs()
    paths = {"a" * 64: "src/a.c", "b" * 64: "src/b.c"}
    with caplog.at_level("WARNING"):
        kept = exclude_holdout([pa, pb], ["nope/missing.c"], paths)
    assert kept == [pa, pb]
    assert any("matches no ingested file" in r.message for r in caplog.records)


# ------------------------------------------------------------- leakage


def test_leakage_exact_label_match():
    pa, _ = two_pairs()
    report = leakage_scan([pa], [("t1", "aaaa}" + DEFAULT_EOT_TOKEN)])
    assert not report.clean
    f = report.findings[0]
    assert f.match_kind == MATCH_EXACT_LABEL
    assert f.training_pair_id == pa.pair_id and f.test_pair_id == "t1"


def test_leakage_substring_of_query_and_label():
    pa, _ = two_pairs()
    in_query = leakage_scan([pa], [("t2", "..{")])
    assert in_query.findings[0].match_kind == MATCH_SUBSTRING
    in_label = leakage_scan([pa], [("t3", "aaa")])
    assert in_label.findings[0].match_kind == MATCH_SUBSTRING


def test_leakage_crlf_normalized():
    content = b"..{a\nb.}"
    p = make_primary_pair(candidate(content, 3, 7), content, LOOSE)
    report = leakage_scan([p], [("t", "a\r\nb.}")])
    assert [f.match_kind for f in report.findings] == [MATCH_EXACT_LABEL]


def test_leakage_clean_on_disjoint_sets():
    pa, pb = two_pairs()
    report = leakage_scan([pa, pb], [("t", "zzzz")])
    assert report.clean


def test_leakage_skips_empty_labels(caplog):
    pa, _ = two_pairs()
    with caplog.at_level("WARNING"):
        report = leakage_scan([pa], [("t", DEFAULT_EOT_TOKEN)])
    assert report.clean
    assert any("empty test label" in r.message for r in caplog.records)


# NUL is the scan's own segment separator; CR, LF and the eot token are what
# normalization strips or rewrites; an empty text is an empty label or query.
_LEAK_TEXT = st.lists(st.sampled_from(["a", "b", "\0", "\r", "\n", "<EOT>"]), max_size=8).map("".join)


def text_row(pair_id: str, query: str, label: str, file_id: str, part: int) -> dict:
    """A pair's JSONL row as read_jsonl gives it, from its texts and the file
    offset ``part`` between them."""
    return {
        "pair_id": pair_id, "query": query, "label": label, "mask_len": len(query), "kind": PairKind.PRIMARY,
        "start_shift_bytes": 0, "category": ScopeCategory.FUNC_BODY, "file_id": file_id, "scope_start_byte": part,
        "eot_token": "<EOT>",
    }


@settings(max_examples=300, deadline=None)
@given(
    train=st.lists(st.tuples(_LEAK_TEXT, _LEAK_TEXT), max_size=6),
    tests=st.lists(_LEAK_TEXT, max_size=4),
    eot_token=st.sampled_from(["<EOT>", None]),
)
def test_leakage_scan_matches_oracle(train, tests, eot_token):
    # every row claims the start of one file: rows that agree share a content,
    # the others get their own; a label gets the eot token it lacks, which
    # leaves what the scan compares unchanged
    rows = [
        text_row(f"p{k}", query, label if label.endswith("<EOT>") else label + "<EOT>", "f", len(query.encode()))
        for k, (label, query) in enumerate(train)
    ]
    pairs = pairs_from_rows(rows)
    assert [(p.query, p.label) for p in pairs] == [(d["query"], d["label"]) for d in rows]
    labels = [(f"t{k}", label) for k, label in enumerate(tests)]
    report = leakage_scan(pairs, labels, eot_token)
    got = [(f.test_pair_id, f.training_pair_id, f.match_kind) for f in report.findings]
    assert got == oracle_leakage_scan(pairs, labels, eot_token)


# CRLF and lone CR (cut at window edges), NUL, non-BMP and any other code
# point; long runs of one letter repeat a window's head at places where the
# text after it differs
_WINDOW_CHAR = st.one_of(
    st.sampled_from(["a", "b", "{", "}", "\n", "\r\n", "\r", "\0", "é", "𝄞", "x" * 40]),
    st.characters(exclude_categories=["Cs"]),
)


@st.composite
def chained_leak_cases(draw):
    """Train pairs cut as overlapping windows (query, then label) from a few
    shared contents, each content's windows in order, the contents' windows
    interleaved; one content may be long enough to pass a run's size cap.
    Test labels are slices of the contents, pair labels and unrelated text.
    Each train pair comes with its content's index and its byte offset there."""
    contents = draw(st.lists(st.lists(_WINDOW_CHAR, max_size=50).map("".join), min_size=1, max_size=3))
    if draw(st.booleans()) and contents[0]:
        contents[0] *= 70_000 // len(contents[0]) + 1
    windows = []
    for content in contents:
        scale = max(1, len(content) // 40)
        step, width = draw(st.integers(1, 12)) * scale, draw(st.integers(0, 30)) * scale
        windows.append([
            (content[a : a + width], draw(st.integers(0, width)), a)
            for a in range(0, len(content), step)
        ][:40])
    train = []
    while any(windows):
        queue = draw(st.sampled_from([w for w in windows if w]))
        index = windows.index(queue)
        text, split, a = queue.pop(0)
        part = len(contents[index][: a + split].encode())
        train.append((text[:split], text[split:] + "<EOT>", index, part))
    tests = []
    for _ in range(draw(st.integers(0, 5))):
        content = draw(st.sampled_from(contents))
        a = draw(st.integers(0, len(content)))
        sliced = content[a : a + draw(st.integers(0, 40))]
        pair_texts = [text for pair in train for text in pair[:2]]
        label = draw(st.sampled_from([sliced, sliced + "<EOT>", "a\r\nb", "\0", *pair_texts]))
        tests.append(label)
    return train, tests


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=chained_leak_cases(), eot_token=st.sampled_from(["<EOT>", None]))
def test_leakage_scan_matches_oracle_on_chained_windows(case, eot_token):
    train, tests = case
    pairs = pairs_from_rows(
        text_row(f"p{k}", query, label, f"c{index}", part) for k, (query, label, index, part) in enumerate(train)
    )
    assert [(p.query, p.label) for p in pairs] == [pair[:2] for pair in train]
    labels = [(f"t{k}", label) for k, label in enumerate(tests)]
    report = leakage_scan(pairs, labels, eot_token)
    got = [(f.test_pair_id, f.training_pair_id, f.match_kind) for f in report.findings]
    assert got == oracle_leakage_scan(pairs, labels, eot_token)


def test_fixture_corpus_leakage_report_golden_hash(tmp_path):
    """Leakage reports are pinned across commits: the fixture corpus's held
    out files leak nothing, and each train primary label, scanned as a test
    label, finds itself and every train pair it lies inside."""
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    cfg = PipelineConfig(
        repo_root=corpus,
        output_dir=tmp_path / "out",
        random_starts=2,
        seed=1,
        holdout_paths=("checksum.c", "geometry.hpp", "tracer.cpp"),
    )
    manifest = ingest_repository(corpus, set(cfg.languages), cfg.exclude_globs, max_file_bytes=cfg.max_file_bytes)
    train, held = split_pairs(extract_all_scopes(manifest), manifest, cfg)
    train = list(train)
    tests = [(p.pair_id, p.label) for p in held if p.kind is PairKind.PRIMARY]
    train_labels = [(p.pair_id, p.label) for p in train if p.kind is PairKind.PRIMARY]
    digests = []
    for name, labels in (("held", tests), ("train", tests + train_labels)):
        report = leakage_scan(train, labels, cfg.eot_token)
        write_leakage_report(report, tmp_path / f"{name}.jsonl")
        digests.append((len(report.findings), hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest()))
    assert (len(train), len(tests)) == (366, 9)
    assert digests == [
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (895, "f6939c09050f8f5f5410e004d8ba9359e41ca3b3faa196390bcca602195e4421"),
    ]


# --------------------------------------------------------- serialization


def test_write_read_roundtrip(tmp_path):
    pa, pb = two_pairs()
    path = tmp_path / "pairs.jsonl"
    write_pairs([pa, pb], path)
    assert [row(p) for p in read_pairs(path)] == [row(pa), row(pb)]
    raw = path.read_bytes()
    write_pairs([pa, pb], path)
    assert path.read_bytes() == raw  # byte-identical rewrite
    # pairs read back hold the bytes their rows cover, not their files, and
    # are written back to the same bytes
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    cfg = PipelineConfig(
        repo_root=corpus,
        output_dir=tmp_path / "out",
        random_starts=2,
        seed=1,
        holdout_paths=("checksum.c", "geometry.hpp", "tracer.cpp"),
    )
    result = run_pipeline(cfg, Mode.FT_EXPORT)
    recorded = {rel: digest for s in result.stages for rel, digest in s.outputs.items()}
    for name in ("train_pairs.jsonl", "holdout_pairs.jsonl"):
        again = tmp_path / f"again_{name}"
        digest = write_pairs(read_pairs(result.out_dir / name), again)
        assert again.read_bytes() == (result.out_dir / name).read_bytes(), name
        assert digest == recorded[name] == hashlib.sha256(again.read_bytes()).hexdigest(), name


def test_read_pairs_share_the_bytes_their_rows_agree_on(tmp_path):
    """The pairs of one file read back share one content, which holds the
    bytes their rows cover; a row edited to disagree gets its own."""
    content = b"int pad;\n" * 30 + b"void f(){ if (x) { g(); } return; }\n"
    start = content.index(b"{") + 1
    inner = content.index(b"{", start) + 1
    cands = [candidate(content, start, len(content) - 2), candidate(content, inner, content.index(b"}", inner))]
    cfg = dataclasses.replace(LOOSE, max_prefix_bytes=40)
    pairs = [make_primary_pair(c, content, cfg) for c in cands]
    pairs += make_random_start_pairs(cands[0], content, cfg, k=3, seed=2)
    path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, path)
    read = read_pairs(path)
    assert [row(p) for p in read] == [row(p) for p in pairs]
    assert len({id(p.content) for p in read}) == 1
    assert read[0].content == content[min(p.query_start for p in pairs) : max(p.label_end for p in pairs)]
    rows = path.read_text(encoding="utf-8").splitlines()
    edited = json.loads(rows[1])
    edited["query"] = edited["query"].replace("pad", "PAD")
    path.write_text("\n".join([rows[0], json.dumps(edited), *rows[2:]]) + "\n", encoding="utf-8")
    read = read_pairs(path)
    assert read[1].query == edited["query"] and read[1].content == _utf8_row_text(edited)
    assert [row(p) for p in read[:1] + read[2:]] == [row(p) for p in pairs[:1] + pairs[2:]]
    assert len({id(p.content) for p in read}) == 2


def test_read_pairs_peaks_well_below_the_file_size(tmp_path):
    """read_pairs holds the rows of one run at a time, not the file's: the
    pairs of many files, each query 3 KiB of its file, read back with a
    peak well below the size of their rows."""
    pairs = []
    for i in range(100):
        content = f"// file {i}\n".encode() + b"int pad;\n" * 400 + b"void f() { " + b"g(); " * 100 + b"}\n"
        cand = candidate(content, content.index(b"{") + 1, content.rindex(b"}"), file_id=f"{i:064x}")
        pairs.append(make_primary_pair(cand, content, LOOSE))
        pairs += make_random_start_pairs(cand, content, LOOSE, k=8, seed=i)
    path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, path)
    tracemalloc.start()
    try:
        read = read_pairs(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row(p) for p in read] == [row(p) for p in pairs]
    assert len({id(p.content) for p in read}) == 100
    assert peak < path.stat().st_size / 3, (peak, path.stat().st_size)


def _utf8_row_text(d: dict) -> bytes:
    return (d["query"] + d["label"][: -len(d["eot_token"])]).encode()


def test_written_json_is_sorted_and_unicode(tmp_path):
    content = "..{café!!}".encode()
    p = make_primary_pair(candidate(content, 3, 9), content, LOOSE)
    path = tmp_path / "pairs.jsonl"
    write_pairs([p], path)
    line = path.read_text(encoding="utf-8").splitlines()[0]
    d = json.loads(line)
    assert list(d) == sorted(d)
    assert "café" in line  # ensure_ascii off


# Everything JSON escapes (quotes, backslashes, controls, CRLF), what it does
# not (DEL, U+2028) and characters of two to four UTF-8 bytes, which the
# query cut and the random-start shifts must snap around.
_WRITER_TEXT = st.lists(
    st.sampled_from(["a", "{", '"', "\\", "\r\n", "\n", "\t", "\x00", "\x01", "\x1f", "\x7f", "\u2028", "é", "€", "𝄞"]),
    max_size=12,
).map("".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    files=st.lists(st.tuples(_WRITER_TEXT, _WRITER_TEXT, _WRITER_TEXT), min_size=1, max_size=3),
    max_prefix=st.integers(0, 16),
    eot_token=st.sampled_from([DEFAULT_EOT_TOKEN, '"\\eot\\"', "", "\u2028𝄞"]),
    category=st.sampled_from(list(ScopeCategory)),
)
def test_pair_writer_matches_json_dumps(tmp_path, files, max_prefix, eot_token, category):
    """Rows cut from each file's escaped content are the bytes json.dumps
    gives the row of each pair's public fields."""
    cfg = FilterConfig(min_scope_bytes=0, max_scope_bytes=10_000, min_prefix_bytes=0, max_prefix_bytes=max_prefix)
    pairs = []
    for i, (prefix, body, suffix) in enumerate(files):
        content = f"{prefix}{{{body}}}{suffix}".encode()
        start = len(prefix.encode()) + 1
        cand = candidate(content, start, start + len(body.encode()), file_id=f"{i}\"\\{i}", category=category)
        pairs.append(make_primary_pair(cand, content, cfg, eot_token))
        pairs += make_random_start_pairs(cand, content, cfg, eot_token, k=3, seed=i)
    oracle = "".join(json.dumps(row(p), sort_keys=True, ensure_ascii=False) + "\n" for p in pairs).encode()
    path = tmp_path / "pairs.jsonl"
    digest = write_pairs(pairs, path)
    assert path.read_bytes() == oracle
    assert digest == hashlib.sha256(oracle).hexdigest()


def test_dataset_card_counts():
    pa, pb = two_pairs()
    card = dataset_card(count_pairs([pa, pb]), FilterConfig())
    assert card["total_pairs"] == 2
    assert card["by_kind"] == {"primary": 2}
    assert card["by_category"] == {"func_body": 2}
    assert card["filters"]["min_scope_bytes"] == 50
    assert "timestamp" not in card and "created_at" not in card


def _fixture_stream(tmp_path) -> list[CompletionPair]:
    """The fixture corpus's train stream, with queries short enough that
    the pairs of one file start at many offsets."""
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    filters = FilterConfig(max_prefix_bytes=200)
    cfg = PipelineConfig(repo_root=corpus, output_dir=tmp_path / "out", filters=filters, random_starts=3, seed=1)
    manifest = ingest_repository(corpus, set(cfg.languages), cfg.exclude_globs, max_file_bytes=cfg.max_file_bytes)
    train, _ = split_pairs(extract_all_scopes(manifest), manifest, cfg)
    return list(train)


def test_split_pairs_stream_is_in_file_order(tmp_path):
    """Pairs are built in file order: by file, scope start, primary before
    random starts, and those by shift."""
    pairs = _fixture_stream(tmp_path)
    keys = [(p.file_id, p.scope_start_byte, p.kind.value, p.start_shift_bytes) for p in pairs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert {p.kind for p in pairs} == set(PairKind)


def _overlapping_runs(pairs: list[CompletionPair]) -> int:
    """How many of the runs merged_runs makes of the pairs' query + label
    spans overlap the run of the same content that starts before them."""
    runs: dict[int, list[tuple[int, int]]] = {}
    for run, _ in merged_runs([Span(p.content, p.query_start, p.label_end) for p in pairs]):
        runs.setdefault(id(run.content), []).append((run.start, run.stop))
    overlaps = 0
    for spans in runs.values():
        spans.sort()
        overlaps += sum(b_start < a_stop for (_, a_stop), (b_start, _) in zip(spans, spans[1:]))
    return overlaps


def test_pairs_in_file_order_make_disjoint_runs(tmp_path):
    """merged_runs joins consecutive spans only, so it shares all it can
    only while pairs come in file order: then a content's runs never
    overlap. Out of order, the same pairs make runs that do."""
    pairs = _fixture_stream(tmp_path)
    assert _overlapping_runs(pairs) == 0
    assert _overlapping_runs(pairs[::-1]) > 0


# ---------------------------------------------------------------- audits


def row(pair: CompletionPair) -> dict:
    """The pair's JSONL row, from its public fields."""
    return {
        "pair_id": pair.pair_id,
        "query": pair.query,
        "label": pair.label,
        "mask_len": pair.mask_len,
        "kind": pair.kind.value,
        "start_shift_bytes": pair.start_shift_bytes,
        "category": pair.category.value,
        "file_id": pair.file_id,
        "scope_start_byte": pair.scope_start_byte,
        "eot_token": pair.eot_token,
    }


def test_check_pair_bounds_accepts_valid():
    content = b"p" * 210 + b"{" + b"s" * 80 + b"}"
    cand = candidate(content, 211, 291)
    cfg = FilterConfig()
    prim = make_primary_pair(cand, content, cfg)
    rand = make_random_start_pairs(cand, content, cfg, k=3, seed=0)
    assert check_pair_bounds([row(p) for p in [prim, *rand]], cfg) == []


def test_check_pair_bounds_flags_violations():
    content = b"p" * 210 + b"{" + b"s" * 80 + b"}"
    cand = candidate(content, 211, 291)
    cfg = FilterConfig()
    prim = make_primary_pair(cand, content, cfg)
    tight = dataclasses.replace(cfg, max_scope_bytes=10)
    assert any("scope size" in m for m in check_pair_bounds([row(prim)], tight))
    shallow = dataclasses.replace(cfg, min_prefix_bytes=500)
    assert any("prefix available" in m for m in check_pair_bounds([row(prim)], shallow))
    narrow = dataclasses.replace(cfg, max_prefix_bytes=50, min_prefix_bytes=10)
    assert any("bytes >" in m for m in check_pair_bounds([row(prim)], narrow))
    bad = dict(row(prim), label="no eot here")
    assert any("does not end with eot" in m for m in check_pair_bounds([bad], cfg))


def test_check_pair_bounds_respects_closer_flag():
    content = b"p" * 210 + b"{" + b"s" * 80 + b"}"
    cand = candidate(content, 211, 291)
    cfg = FilterConfig()
    prim = make_primary_pair(cand, content, cfg, include_closer=False)
    assert check_pair_bounds([row(prim)], cfg, include_closer=False) == []
    # auditing with the wrong flag miscounts the scope by one byte but the
    # default window is wide enough that only an exact boundary shows it
    edge = dataclasses.replace(cfg, min_scope_bytes=80, max_scope_bytes=80)
    assert check_pair_bounds([row(prim)], edge, include_closer=False) == []
    assert check_pair_bounds([row(prim)], edge, include_closer=True) != []


def test_check_contiguity_passes_and_fails():
    content = b"..{abcd}"
    p = make_primary_pair(candidate(content, 3, 7), content, LOOSE)
    good = check_contiguity([row(p)], {p.file_id: content})
    assert good == []
    torn = dict(row(p), query="XX{")
    assert any("not a contiguous slice" in m for m in check_contiguity([torn], {p.file_id: content}))
    assert any("unknown file_id" in m for m in check_contiguity([row(p)], {}))
